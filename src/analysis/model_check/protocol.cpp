#include "analysis/model_check/protocol.hpp"

#include <utility>

namespace duet::mc {
namespace {

// Shared-variable bits for the independence relation. Enabledness reads are
// included in `reads` (pick reads DRAINING+QUEUE, retire reads REFS, ...),
// which sleep-set soundness requires.
enum : uint32_t {
  kVarQueue = 1u << 0,  // queue_len + enqueued/dequeued ghosts
  kVarDraining = 1u << 1,
  kVarOffered = 1u << 2,
  kVarAccepted = 1u << 3,
  kVarRejected = 1u << 4,
  kVarShed = 1u << 5,
  kVarCompleted = 1u << 6,
  kVarVersion = 1u << 7,
  kVarRefs = 1u << 8,
  kVarRetired = 1u << 9,
};

// Producer program counters.
enum : uint8_t { kProdOffer = 0, kProdOfferWrite = 1, kProdSubmit = 2 };
// Worker program counters.
enum : uint8_t {
  kWorkPick = 0,
  kWorkDecide = 1,
  kWorkSnapshot = 2,
  kWorkRun = 3,
};
// Swapper program counters.
enum : uint8_t { kSwapBump = 0, kSwapRetire = 1 };

std::string thread_label(const ProtocolConfig& c, int thread) {
  if (thread < c.producers) return "p" + std::to_string(thread);
  if (thread < c.producers + c.consumers) {
    return "w" + std::to_string(thread - c.producers);
  }
  return thread == c.producers + c.consumers ? "swap" : "drain";
}

}  // namespace

const char* variant_name(Variant v) {
  switch (v) {
    case Variant::kCorrect:
      return "correct";
    case Variant::kNonAtomicCounter:
      return "non-atomic-counter";
    case Variant::kSilentDropOnFull:
      return "silent-drop-on-full";
    case Variant::kMissedCloseWakeup:
      return "missed-close-wakeup";
    case Variant::kUnrefSnapshot:
      return "unref-snapshot";
  }
  return "unknown";
}

std::string ProtocolState::encode() const {
  std::string out;
  out.reserve(16 + refs.size() + threads.size() * 4);
  const uint8_t scalars[] = {queue_len, draining,  offered,  accepted,
                             rejected,  shed,      completed, enqueued,
                             dequeued,  version,   retired};
  out.append(reinterpret_cast<const char*>(scalars), sizeof(scalars));
  out.append(reinterpret_cast<const char*>(refs.data()), refs.size());
  for (const Thread& t : threads) {
    out.push_back(static_cast<char>(t.pc));
    out.push_back(static_cast<char>(t.a));
    out.push_back(static_cast<char>(t.b));
    out.push_back(static_cast<char>(t.c));
  }
  return out;
}

Protocol::Protocol(ProtocolConfig config) : config_(std::move(config)) {}

int Protocol::num_threads() const {
  return config_.producers + config_.consumers + 2;  // + swapper + drainer
}

ProtocolState Protocol::initial() const {
  ProtocolState s;
  s.refs.assign(static_cast<size_t>(config_.swaps) + 1, 0);
  s.threads.assign(static_cast<size_t>(num_threads()), {});
  for (int p = 0; p < config_.producers; ++p) {
    s.threads[static_cast<size_t>(p)].a =
        static_cast<uint8_t>(config_.requests_per_producer);
    if (config_.requests_per_producer == 0) {
      s.threads[static_cast<size_t>(p)].pc = ProtocolState::kDone;
    }
  }
  ProtocolState::Thread& swapper =
      s.threads[static_cast<size_t>(config_.producers + config_.consumers)];
  swapper.a = static_cast<uint8_t>(config_.swaps);
  if (config_.swaps == 0) swapper.pc = ProtocolState::kDone;
  return s;
}

std::vector<Transition> Protocol::enabled(const ProtocolState& s) const {
  std::vector<Transition> out;
  const int P = config_.producers;
  const int C = config_.consumers;
  const auto add = [&](int thread, int branch, uint32_t reads, uint32_t writes,
                       std::string op) {
    out.push_back(Transition{thread, branch, reads, writes,
                             thread_label(config_, thread) + "." +
                                 std::move(op)});
  };

  for (int p = 0; p < P; ++p) {
    const ProtocolState::Thread& t = s.threads[static_cast<size_t>(p)];
    switch (t.pc) {
      case kProdOffer:
        // Atomic fetch_add, or the load half of the seeded lost-update bug.
        add(p, 0, kVarOffered,
            config_.variant == Variant::kNonAtomicCounter ? 0u : uint32_t{kVarOffered},
            "offer");
        break;
      case kProdOfferWrite:
        add(p, 0, 0, kVarOffered, "offer-store");
        break;
      case kProdSubmit:
        add(p, 0, kVarDraining | kVarQueue,
            kVarQueue | kVarAccepted | kVarRejected, "submit");
        break;
      default:
        break;
    }
  }

  for (int c = 0; c < C; ++c) {
    const int thread = P + c;
    const ProtocolState::Thread& t = s.threads[static_cast<size_t>(thread)];
    switch (t.pc) {
      case kWorkPick: {
        // Condition-variable wait, enabled when its predicate holds. The
        // seeded missed-wakeup variant waits on requests alone, so
        // draining+empty leaves the worker permanently blocked (found as a
        // deadlock).
        const bool woken = config_.variant == Variant::kMissedCloseWakeup
                               ? s.queue_len > 0
                               : (s.queue_len > 0 || s.draining != 0);
        if (woken) add(thread, 0, kVarDraining | kVarQueue, kVarQueue, "pick");
        break;
      }
      case kWorkDecide:
        // Per picked request: deadline already missed, or still runnable.
        add(thread, 0, 0, kVarShed, "shed");
        add(thread, 1, 0, 0, "keep");
        break;
      case kWorkSnapshot:
        add(thread, 0, kVarVersion, kVarRefs, "snapshot");
        break;
      case kWorkRun:
        add(thread, 0, kVarRetired, kVarCompleted | kVarRefs, "run");
        break;
      default:
        break;
    }
  }

  const int swapper = P + C;
  const ProtocolState::Thread& sw = s.threads[static_cast<size_t>(swapper)];
  if (sw.pc == kSwapBump) {
    add(swapper, 0, kVarVersion, kVarVersion, "swap");
  } else if (sw.pc == kSwapRetire) {
    // Grace window: retire only once no worker holds the old snapshot.
    if (s.refs[sw.b] == 0) {
      add(swapper, 0, kVarRefs, kVarRetired, "retire");
    }
  }

  const int drainer = P + C + 1;
  if (s.threads[static_cast<size_t>(drainer)].pc == 0) {
    // drain() may race submits; raising draining_ is one store under the
    // queue mutex.
    add(drainer, 0, 0, kVarDraining, "start");
  }
  return out;
}

ProtocolState Protocol::apply(const ProtocolState& s, const Transition& t,
                              std::vector<Violation>* violations) const {
  ProtocolState n = s;
  ProtocolState::Thread& th = n.threads[static_cast<size_t>(t.thread)];
  const int P = config_.producers;
  const int C = config_.consumers;

  if (t.thread < P) {
    switch (th.pc) {
      case kProdOffer:
        if (config_.variant == Variant::kNonAtomicCounter) {
          th.b = n.offered;  // load...
          th.pc = kProdOfferWrite;
        } else {
          ++n.offered;  // fetch_add
          th.pc = kProdSubmit;
        }
        break;
      case kProdOfferWrite:
        n.offered = static_cast<uint8_t>(th.b + 1);  // ...store: lost update
        th.pc = kProdSubmit;
        break;
      case kProdSubmit:
        if (n.draining != 0) {
          ++n.rejected;  // draining: refused
        } else if (n.queue_len >= config_.queue_capacity) {
          if (config_.variant == Variant::kSilentDropOnFull) {
            ++n.accepted;  // counted accepted, never enqueued
          } else {
            ++n.rejected;  // full: refused
          }
        } else {
          ++n.queue_len;  // pushed
          ++n.enqueued;
          ++n.accepted;
        }
        --th.a;
        th.pc = th.a == 0 ? ProtocolState::kDone : static_cast<uint8_t>(kProdOffer);
        break;
      default:
        break;
    }
  } else if (t.thread < P + C) {
    switch (th.pc) {
      case kWorkPick:
        if (n.queue_len > 0) {
          // Coalescing pick: every queued request leaves in one step.
          th.b = n.queue_len;
          n.dequeued = static_cast<uint8_t>(n.dequeued + n.queue_len);
          n.queue_len = 0;
          th.pc = kWorkDecide;
        } else {
          th.pc = ProtocolState::kDone;  // draining+empty: worker exits
        }
        break;
      case kWorkDecide:
        --th.b;
        if (t.branch == 0) {
          ++n.shed;  // deadline already missed: drop without executing
        } else {
          ++th.c;  // joins the batch
        }
        if (th.b == 0) th.pc = th.c > 0 ? kWorkSnapshot : kWorkPick;
        break;
      case kWorkSnapshot:
        th.a = n.version;  // plan_for_batch under the plan mutex
        if (config_.variant != Variant::kUnrefSnapshot) ++n.refs[th.a];
        th.pc = kWorkRun;
        break;
      case kWorkRun:
        if ((n.retired >> th.a) & 1u) {
          if (violations != nullptr) {
            violations->push_back(
                {"mc-snapshot-retired",
                 t.label + " executes plan version " + std::to_string(th.a) +
                     " after swap + grace retired it"});
          }
        }
        n.completed = static_cast<uint8_t>(n.completed + th.c);
        th.c = 0;
        if (config_.variant != Variant::kUnrefSnapshot) --n.refs[th.a];
        th.pc = kWorkPick;
        break;
      default:
        break;
    }
  } else if (t.thread == P + C) {
    if (th.pc == kSwapBump) {
      th.b = n.version;  // the plan this swap retires
      ++n.version;
      th.pc = kSwapRetire;
    } else {
      n.retired = static_cast<uint8_t>(n.retired | (1u << th.b));
      --th.a;
      th.pc = th.a == 0 ? ProtocolState::kDone : static_cast<uint8_t>(kSwapBump);
    }
  } else {
    n.draining = 1;
    th.pc = ProtocolState::kDone;
  }

  // Queue accounting holds in every reachable state, not just at the end:
  // submit is correct iff accepted counts exactly the enqueues.
  if (violations != nullptr) {
    if (n.accepted != n.enqueued) {
      violations->push_back(
          {"mc-queue-accounting",
           "after " + t.label + ": accepted=" + std::to_string(n.accepted) +
               " but enqueued=" + std::to_string(n.enqueued)});
    }
    if (n.enqueued != n.dequeued + n.queue_len) {
      violations->push_back(
          {"mc-queue-accounting",
           "after " + t.label + ": enqueued=" + std::to_string(n.enqueued) +
               " != dequeued " + std::to_string(n.dequeued) + " + queue " +
               std::to_string(n.queue_len)});
    }
    if (n.queue_len > config_.queue_capacity) {
      violations->push_back(
          {"mc-queue-accounting",
           "after " + t.label + ": queue length " +
               std::to_string(n.queue_len) + " exceeds capacity " +
               std::to_string(config_.queue_capacity)});
    }
  }
  return n;
}

bool Protocol::all_terminated(const ProtocolState& s) const {
  for (const ProtocolState::Thread& t : s.threads) {
    if (t.pc != ProtocolState::kDone) return false;
  }
  return true;
}

void Protocol::check_terminal(const ProtocolState& s,
                              std::vector<Violation>* violations) const {
  const int settled = s.completed + s.shed + s.rejected;
  if (s.offered != settled) {
    violations->push_back(
        {"mc-conservation",
         "at quiescence offered=" + std::to_string(s.offered) +
             " but completed+shed+rejected=" + std::to_string(settled) +
             " (completed=" + std::to_string(s.completed) +
             " shed=" + std::to_string(s.shed) +
             " rejected=" + std::to_string(s.rejected) + ")"});
  }
}

std::string Protocol::describe_blocked(const ProtocolState& s) const {
  std::string out;
  for (size_t i = 0; i < s.threads.size(); ++i) {
    if (s.threads[i].pc == ProtocolState::kDone) continue;
    if (!out.empty()) out += ", ";
    out += thread_label(config_, static_cast<int>(i));
  }
  return out;
}

}  // namespace duet::mc
