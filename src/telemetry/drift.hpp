#pragma once

// Predicted-vs-observed drift reporting — the third pillar of the
// observability layer. DUET's scheduler trusts the profiler's per-subgraph
// latencies (paper §IV-B) and the latency model built on them (§IV-C); this
// joins those estimates against what an executor actually recorded (the
// SimExecutor's virtual-time timeline or the ThreadedExecutor's wall-clock
// one) and quantifies the skew per subgraph and per model. Large drift means
// the cost model is lying to the scheduler — the central risk of any
// model-driven placement.

#include <string>
#include <vector>

#include "profile/profiler.hpp"
#include "runtime/timeline.hpp"
#include "sched/placement.hpp"

namespace duet {

struct DriftEntry {
  int subgraph = -1;
  DeviceKind device = DeviceKind::kCpu;
  std::string label;
  double est_s = 0.0;       // profiled mean on the placed device + dispatch
  double observed_s = 0.0;  // summed executor exec spans for the subgraph
  // Distinct serving trace ids contributing exec events (0 outside serving:
  // engine-driven runs carry no request context).
  uint64_t trace_count = 0;

  double abs_err_s() const { return observed_s - est_s; }
  // Signed relative error; +0.5 means the subgraph ran 50% slower than the
  // scheduler assumed.
  double rel_err() const { return est_s > 0.0 ? abs_err_s() / est_s : 0.0; }
};

// The clock an observation ran on. A modeled observation (the SimExecutor's
// virtual time) is comparable with the estimate, so the report shows signed
// skew. A host observation (the ThreadedExecutor's wall clock on this
// machine) is not: the report shows it beside the estimate, with no skew.
enum class DriftClock { kModeled, kHost };

const char* drift_clock_name(DriftClock clock);  // "modeled" / "host"

struct DriftReport {
  std::string model;
  std::string source;  // "sim" (virtual time) or "threaded" (wall clock)
  DriftClock clock = DriftClock::kModeled;
  std::vector<DriftEntry> entries;
  double est_total_s = 0.0;       // scheduler's end-to-end estimate
  double observed_total_s = 0.0;  // executor's end-to-end latency

  double total_rel_err() const {
    return est_total_s > 0.0 ? (observed_total_s - est_total_s) / est_total_s
                             : 0.0;
  }
  double mean_abs_rel_err() const;
  double max_abs_rel_err() const;

  // Fixed-width per-subgraph table: skew on the modeled clock, estimate
  // and host time side by side on the host clock.
  std::string to_string() const;
  // {"model":...,"source":...,"clock":...,"subgraphs":[...],"totals":{...}};
  // the rel_err fields appear on the modeled clock only.
  std::string to_json() const;
};

// Joins the scheduler's estimates (profile mean on the placed device plus
// the executor dispatch overhead) against the exec events of `observed`.
// Subgraphs with no exec event report observed_s = 0 (e.g. a fallback run).
DriftReport compute_drift(const std::string& model, const std::string& source,
                          const Partition& partition, const Placement& placement,
                          const std::vector<SubgraphProfile>& profiles,
                          const Timeline& observed, double est_total_s,
                          double observed_total_s,
                          DriftClock clock = DriftClock::kModeled);

}  // namespace duet
