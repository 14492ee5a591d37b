#pragma once

// Small-scope abstraction of the concurrency protocol of the serving
// runtime, FleetServer (serve/fleet.cpp). The real components — submit()'s
// locked push into the FleetQueue, the workers' coalescing pick,
// AdmissionCounters (serve/admission.hpp), the bucket-0 plan swap
// (ResidentModel::swap_base_placement) and drain() — are modeled as a
// handful of interleavable atomic steps per thread, small enough for
// exhaustive exploration:
//
//   producers  submit(): offered++ -> locked push: reject when full or
//              draining, else enqueue -> accepted++/rejected++
//   workers    worker_loop(): pick = condition-variable wait on
//              (draining || !empty), then take every queued request in one
//              step -> per request, shed or keep -> (snapshot plan, run the
//              kept batch, release)
//   swapper    swap_plan(): version++ ; retire old once its refcount drains
//   drainer    drain(): draining = true at any point (races with submits)
//
// The explorer (model_check/explorer.hpp) drives this machine through every
// interleaving (bounded, sleep-set pruned) and checks four invariants:
//
//   mc-conservation     offered == completed + shed + rejected at quiescence
//   mc-queue-accounting accepted == enqueued == dequeued + queue length,
//                       length never exceeds capacity (locked push)
//   mc-lost-wakeup      no thread blocks forever across drain/shutdown
//   mc-snapshot-retired no worker runs a plan retired by swap + grace
//
// Variants other than kCorrect re-introduce one known-bad implementation
// each; the negative tests prove the checker finds all of them.

#include <cstdint>
#include <string>
#include <vector>

namespace duet::mc {

enum class Variant : uint8_t {
  kCorrect = 0,
  // offered++ as separate load and store — the lost-update bug an atomic
  // fetch_add exists to prevent. Breaks conservation.
  kNonAtomicCounter,
  // submit counts a request accepted on a full queue without enqueueing it
  // — the caller's request silently vanishes. Breaks queue accounting.
  kSilentDropOnFull,
  // pick's wait predicate ignores draining — a worker that finds the queue
  // empty after drain() sleeps forever. Breaks drain/shutdown.
  kMissedCloseWakeup,
  // A worker snapshots the plan without taking a reference — the swapper's
  // grace period sees no holders and retires the plan under the worker.
  kUnrefSnapshot,
};

const char* variant_name(Variant v);

struct ProtocolConfig {
  int producers = 2;
  int consumers = 2;
  int requests_per_producer = 2;
  int queue_capacity = 2;
  int swaps = 1;
  Variant variant = Variant::kCorrect;
};

// Flat, byte-encodable global state. Thread locals: producers use `a` for
// remaining requests and `b` for the non-atomic load; workers use `a` for
// the held plan version, `b` for picked requests not yet decided and `c`
// for the requests kept for the batch; the swapper uses `a` for remaining
// swaps and `b` for the version being retired.
struct ProtocolState {
  uint8_t queue_len = 0;
  uint8_t draining = 0;
  uint8_t offered = 0;
  uint8_t accepted = 0;
  uint8_t rejected = 0;
  uint8_t shed = 0;
  uint8_t completed = 0;
  uint8_t enqueued = 0;   // ghost: successful push count
  uint8_t dequeued = 0;   // ghost: requests taken by picks
  uint8_t version = 0;    // current plan version
  uint8_t retired = 0;    // bitmask over versions
  std::vector<uint8_t> refs;  // per-version snapshot holders

  struct Thread {
    uint8_t pc = 0;  // kDone once terminated
    uint8_t a = 0;
    uint8_t b = 0;
    uint8_t c = 0;
  };
  std::vector<Thread> threads;

  static constexpr uint8_t kDone = 0xFF;

  std::string encode() const;  // hashable byte string
};

// One interleavable step of one thread. `branch` disambiguates
// nondeterministic choices (a worker at a shed decision has two).
// `reads`/`writes` are shared-variable bitmasks for the independence
// relation behind sleep-set pruning.
struct Transition {
  int thread = -1;
  int branch = 0;
  uint32_t reads = 0;
  uint32_t writes = 0;
  std::string label;  // e.g. "p0.submit", "w1.run", "swap.retire"
};

struct Violation {
  std::string rule;  // mc-conservation / mc-queue-accounting / ...
  std::string message;
};

class Protocol {
 public:
  explicit Protocol(ProtocolConfig config);

  const ProtocolConfig& config() const { return config_; }
  int num_threads() const;

  ProtocolState initial() const;
  std::vector<Transition> enabled(const ProtocolState& s) const;

  // Applies `t` (must be enabled in `s`) and appends any invariant
  // violations observable at this step to `violations`.
  ProtocolState apply(const ProtocolState& s, const Transition& t,
                      std::vector<Violation>* violations) const;

  bool all_terminated(const ProtocolState& s) const;
  // Quiescence checks (conservation identity).
  void check_terminal(const ProtocolState& s,
                      std::vector<Violation>* violations) const;
  // Human-readable list of the threads stuck in a deadlocked state.
  std::string describe_blocked(const ProtocolState& s) const;

 private:
  ProtocolConfig config_;
};

}  // namespace duet::mc
