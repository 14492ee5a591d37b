#pragma once

// FleetServer — the serving runtime. It fronts a ModelRegistry of resident
// models with the WFQ + EDF + coalescing pickup policy of
// serve/fleet_policy.hpp. A single model is served as a fleet of one: one
// registered model, one tenant class and max_batch = 1.
//
//   * submit() names a registered model and a tenant class. Arrivals that
//     find the queue full (or the server draining) are rejected at once,
//     counted per tenant — the conservation identity offered = completed +
//     shed + rejected holds for every tenant class separately (tested).
//   * N workers pick with the shared FleetQueue policy: the least-served
//     backlogged tenant's most urgent request fixes the model, then up to
//     max_batch compatible requests coalesce into ONE batched execution
//     under the batch's bucket plan (registry.plan_for_batch). Requests
//     whose deadline expired before pickup are shed unexecuted. Outputs are
//     split back per request — bit-identical to the requests having run
//     alone. Each worker owns a full device-pair replica, so execution never
//     contends, and with noise off the outputs do not depend on the worker
//     count either (tested).
//   * every served request bills its own tenant virtual time, so a
//     coalesced batch spanning tenants charges each fairly.
//
// Recalibration closes the compiler-runtime loop online, per model: batch-1
// executions feed the model's DriftAccumulator, and every
// `recalibrate_every` of them (or on demand) the server re-runs the
// scheduler against the observed costs and, when the predicted makespan
// improves by the threshold, swaps bucket 0's placement
// (ResidentModel::swap_base_placement). In-flight executions keep their
// snapshot; the swap is visible only in `plan_version` — placement never
// changes numerics.
//
// Observability: one windowed SloMonitor per tenant class, one DumpTrigger
// per server (a fired trigger writes the flight-recorder post-mortem dump
// before the request that fired it resolves), and per-request flight events
// enqueue -> pickup -> launch -> complete stitched by trace id.
//
// The same policy object drives the virtual-time twin simulate_fleet
// (serve/simulator.hpp); CI's tail-latency and fairness gates run there.
//
// Lifecycle: construct (optionally start_paused for deterministic tests) ->
// submit() from any thread -> drain() to stop accepting and wait for every
// accepted request to resolve -> shutdown() (idempotent, run by the
// destructor) to join the workers.

#include <atomic>
#include <condition_variable>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/stats.hpp"
#include "common/timer.hpp"
#include "serve/batching.hpp"
#include "serve/fleet_policy.hpp"
#include "serve/model_registry.hpp"
#include "serve/recalibration.hpp"
#include "serve/simulator.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/slo_monitor.hpp"

namespace duet::serve {

// Observability knobs. The flight recorder itself is process-global and
// always on; these configure the per-tenant SLO windows and when a
// post-mortem dump is triggered.
struct ServeObservability {
  // Sliding window behind slo_snapshot(): `slo_window_s` of history in
  // `slo_buckets` ring slots.
  double slo_window_s = 10.0;
  int slo_buckets = 10;
  // Completed requests slower than this are SLO breaches; 0 falls back to
  // the request deadline (late completions breach, on-time ones do not).
  double slo_latency_s = 0.0;
  // Incident triggers (deadline-miss burst / shed-rate threshold). A fired
  // trigger dumps the flight rings into `dump_dir` once; "" disables
  // trigger-driven dumps (explicit FlightRecorder::dump still works).
  telemetry::DumpTriggerConfig trigger;
  std::string dump_dir;
  double dump_window_ms = 0.0;  // 0 = everything surviving in the rings
};

struct FleetOptions {
  int workers = 2;
  size_t queue_capacity = 128;
  // Tenant classes; empty = one default tenant (weight 1, no deadline).
  std::vector<TenantClass> tenants;
  // Coalescing cap per pickup; clipped to the registry's max_batch.
  int64_t max_batch = 8;
  // Noise on modeled execution times (numerics are unaffected either way).
  bool with_noise = false;
  // Recalibrate a model after this many of its batch-1 completions; 0
  // leaves it manual (recalibrate_now()).
  uint64_t recalibrate_every = 0;
  RecalibrationOptions recalibration;
  // Workers start blocked before their first pick until resume() — lets
  // tests fill the queue (deterministic rejects) or let deadlines expire
  // (deterministic sheds) without racing the workers.
  bool start_paused = false;
  ServeObservability observability;
  uint64_t seed = 42;
};

enum class RequestStatus { kOk, kRejected, kShed };

struct FleetResponse {
  RequestStatus status = RequestStatus::kRejected;
  std::vector<Tensor> outputs;     // this request's rows only; kOk only
  double modeled_latency_s = 0.0;  // makespan of the (batched) execution
  int64_t batch = 0;               // coalesced size of that execution
  size_t bucket = 0;               // bucket whose plan served it
  uint64_t plan_version = 0;       // model plan version that served it
  double wall_wait_s = 0.0;        // arrival -> worker pickup
  double wall_latency_s = 0.0;     // arrival -> response resolved
};

struct FleetServerStats {
  std::vector<FleetTenantStats> tenants;
  AdmissionCounters::Snapshot total;
  uint64_t batches = 0;
  uint64_t coalesced_requests = 0;
  double mean_batch = 0.0;
  // Executions by batch size — the coalescing histogram.
  std::map<int64_t, uint64_t> batch_histogram;
  SummaryStats modeled_latency;  // per completed request
  SummaryStats wall_wait;
  size_t max_queue_depth = 0;
  uint64_t swap_count = 0;      // bucket-0 plan swaps this server applied
  uint64_t recalibrations = 0;  // recalibrate_now() calls, all models
  uint64_t drift_samples = 0;   // batch-1 exec observations, all models
  uint64_t slo_breaches = 0;    // sheds + over-SLO completions
  uint64_t flight_dumps = 0;    // trigger-driven post-mortem dumps written
};

class FleetServer {
 public:
  // The registry must outlive the server (it is the shared substrate many
  // servers / benches may front).
  FleetServer(ModelRegistry& registry, FleetOptions options = {});
  ~FleetServer();

  FleetServer(const FleetServer&) = delete;
  FleetServer& operator=(const FleetServer&) = delete;

  // Thread-safe. `model` is a registry index, `tenant` a class index.
  // `deadline_s` < 0 applies the tenant class default; 0 disables.
  std::future<FleetResponse> submit(int model, int tenant,
                                    std::map<NodeId, Tensor> feeds,
                                    double deadline_s = -1.0);

  // Releases start_paused workers. No-op otherwise.
  void resume();
  // Stops accepting, then blocks until every accepted request has resolved;
  // workers exit once the backlog is empty. Stats remain readable after.
  void drain();
  // drain() + join workers. Idempotent; the destructor calls it.
  void shutdown();

  // Re-runs the scheduler for `model` against its accumulated drift and
  // swaps bucket 0's placement when the predicted improvement clears the
  // threshold. Serialized internally; safe while traffic flows.
  RecalibrationResult recalibrate_now(int model);
  // Forces bucket 0 of `model` onto `placement` (tests): rebuilds and swaps.
  void apply_placement(int model, const Placement& placement);

  FleetServerStats stats() const;

  // Windowed SLO view of one tenant class (last observability.slo_window_s
  // seconds): latency quantiles, queue wait/depth, shed/reject rates,
  // breaches, plan version.
  telemetry::SloSnapshot slo_snapshot(int tenant) const;

 private:
  struct Pending {
    uint64_t trace_id = 0;
    int tenant = 0;
    double arrival_s = 0.0;
    double deadline_s = 0.0;  // absolute
    std::map<NodeId, Tensor> feeds;
    std::promise<FleetResponse> promise;
  };

  // Registry handles resolved once; the hot path never looks a name up.
  struct TenantMetrics {
    telemetry::Counter* offered = nullptr;
    telemetry::Counter* rejected = nullptr;
    telemetry::Counter* shed = nullptr;
    telemetry::Counter* completed = nullptr;
  };

  void worker_loop();
  // Shed bookkeeping for one picked request, then resolve.
  void shed(Pending& pending, double pickup_s);
  // Resolves + inflight bookkeeping. Caller must not hold queue_mutex_.
  void resolve(Pending& pending, FleetResponse&& response);
  Pending take_pending(uint64_t id);
  void swap_plan(int model, const Placement& placement);
  // Writes a trigger-driven flight dump once (no-op without a dump_dir).
  void maybe_flight_dump(const std::string& reason);

  ModelRegistry& registry_;
  FleetOptions options_;
  WallTimer clock_;
  std::vector<std::thread> workers_;

  // Pause gate (start_paused).
  std::mutex pause_mutex_;
  std::condition_variable pause_cv_;
  bool paused_ = false;

  // Policy queue + request payloads + lifecycle, one lock: pickups must see
  // a consistent queue/payload pair.
  mutable std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  FleetQueue policy_;
  std::unordered_map<uint64_t, Pending> pending_;
  bool draining_ = false;
  uint64_t inflight_ = 0;
  size_t max_queue_depth_ = 0;
  std::condition_variable inflight_cv_;

  // Per-tenant admission counters (atomics; index = tenant class).
  std::vector<AdmissionCounters> counters_;

  mutable std::mutex stats_mutex_;
  LatencyRecorder modeled_latency_;
  LatencyRecorder wall_wait_;
  uint64_t batches_ = 0;
  uint64_t served_ = 0;
  uint64_t coalesced_ = 0;
  std::map<int64_t, uint64_t> batch_histogram_;
  // Per registry model (index = model): observed batch-1 exec times, and
  // batch-1 completions counted toward recalibrate_every.
  std::vector<DriftAccumulator> drift_;
  std::vector<uint64_t> completed_b1_;

  // Serializes recalibration and forced swaps (scheduler run + rebuild).
  std::mutex recalibrate_mutex_;

  std::atomic<uint64_t> next_id_{1};
  std::atomic<bool> shut_down_{false};
  std::atomic<uint64_t> swap_count_{0};
  std::atomic<uint64_t> recalibrations_{0};

  // Observability. Monitors and the trigger serialize internally.
  std::vector<std::unique_ptr<telemetry::SloMonitor>> slo_;  // per tenant
  telemetry::DumpTrigger dump_trigger_;
  std::atomic<uint64_t> slo_breaches_{0};
  std::atomic<uint64_t> flight_dumps_{0};

  std::vector<TenantMetrics> tenant_metrics_;
  telemetry::Counter& rejected_metric_ = telemetry::counter("serve.rejected");
  telemetry::Counter& shed_metric_ = telemetry::counter("serve.shed");
  telemetry::Counter& completed_metric_ =
      telemetry::counter("serve.completed");
  telemetry::Counter& breaches_metric_ =
      telemetry::counter("serve.slo_breaches");
  telemetry::Histogram& batch_size_metric_ =
      telemetry::histogram("fleet.batch_size");
};

}  // namespace duet::serve
