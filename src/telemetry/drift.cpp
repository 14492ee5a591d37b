#include "telemetry/drift.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>

#include "common/error.hpp"
#include "common/string_util.hpp"
#include "device/calibration.hpp"
#include "telemetry/chrome_trace.hpp"

namespace duet {

double DriftReport::mean_abs_rel_err() const {
  if (entries.empty()) return 0.0;
  double total = 0.0;
  for (const DriftEntry& e : entries) total += std::fabs(e.rel_err());
  return total / static_cast<double>(entries.size());
}

double DriftReport::max_abs_rel_err() const {
  double worst = 0.0;
  for (const DriftEntry& e : entries) {
    worst = std::max(worst, std::fabs(e.rel_err()));
  }
  return worst;
}

const char* drift_clock_name(DriftClock clock) {
  return clock == DriftClock::kHost ? "host" : "modeled";
}

std::string DriftReport::to_string() const {
  std::ostringstream os;
  os << "drift " << model << " (" << source << " observation, "
     << drift_clock_name(clock) << " clock)\n";
  if (clock == DriftClock::kHost) {
    os << strprintf("  %-4s %-16s %-4s %12s %12s\n", "sub", "label", "dev",
                    "modeled est", "host time");
    for (const DriftEntry& e : entries) {
      os << strprintf("  %-4d %-16s %-4s %12s %12s\n", e.subgraph,
                      e.label.c_str(), device_kind_name(e.device),
                      human_time(e.est_s).c_str(),
                      human_time(e.observed_s).c_str());
    }
    os << strprintf("  %-26s %12s %12s\n", "end-to-end",
                    human_time(est_total_s).c_str(),
                    human_time(observed_total_s).c_str());
    return os.str();
  }
  os << strprintf("  %-4s %-16s %-4s %12s %12s %9s\n", "sub", "label", "dev",
                  "estimated", "observed", "skew");
  for (const DriftEntry& e : entries) {
    os << strprintf("  %-4d %-16s %-4s %12s %12s %+8.1f%%\n", e.subgraph,
                    e.label.c_str(), device_kind_name(e.device),
                    human_time(e.est_s).c_str(), human_time(e.observed_s).c_str(),
                    e.rel_err() * 100.0);
  }
  os << strprintf("  %-26s %12s %12s %+8.1f%%\n", "end-to-end",
                  human_time(est_total_s).c_str(),
                  human_time(observed_total_s).c_str(), total_rel_err() * 100.0);
  os << strprintf("  mean |skew| %.1f%%  max |skew| %.1f%%\n",
                  mean_abs_rel_err() * 100.0, max_abs_rel_err() * 100.0);
  return os.str();
}

std::string DriftReport::to_json() const {
  using telemetry::json_escape;
  using telemetry::json_number;
  const bool modeled = clock == DriftClock::kModeled;
  std::ostringstream os;
  os << "{\"model\":\"" << json_escape(model) << "\",\"source\":\""
     << json_escape(source) << "\",\"clock\":\"" << drift_clock_name(clock)
     << "\",\"subgraphs\":[";
  bool first = true;
  for (const DriftEntry& e : entries) {
    if (!first) os << ",";
    first = false;
    os << "{\"subgraph\":" << e.subgraph << ",\"label\":\""
       << json_escape(e.label) << "\",\"device\":\""
       << device_kind_name(e.device)
       << "\",\"est_s\":" << json_number(e.est_s)
       << ",\"observed_s\":" << json_number(e.observed_s);
    if (modeled) os << ",\"rel_err\":" << json_number(e.rel_err());
    os << ",\"traces\":" << e.trace_count << "}";
  }
  os << "],\"totals\":{\"est_s\":" << json_number(est_total_s)
     << ",\"observed_s\":" << json_number(observed_total_s);
  if (modeled) {
    os << ",\"rel_err\":" << json_number(total_rel_err())
       << ",\"mean_abs_rel_err\":" << json_number(mean_abs_rel_err())
       << ",\"max_abs_rel_err\":" << json_number(max_abs_rel_err());
  }
  os << "}}";
  return os.str();
}

DriftReport compute_drift(const std::string& model, const std::string& source,
                          const Partition& partition, const Placement& placement,
                          const std::vector<SubgraphProfile>& profiles,
                          const Timeline& observed, double est_total_s,
                          double observed_total_s, DriftClock clock) {
  const size_t n = partition.subgraphs.size();
  DUET_CHECK_EQ(placement.size(), n);
  DUET_CHECK_EQ(profiles.size(), n);

  DriftReport report;
  report.model = model;
  report.source = source;
  report.clock = clock;
  report.est_total_s = est_total_s;
  report.observed_total_s = observed_total_s;

  std::vector<double> observed_s(n, 0.0);
  std::vector<std::set<uint64_t>> traces(n);
  for (const TimelineEvent& e : observed.events()) {
    if (e.kind != TimelineEvent::Kind::kExec) continue;
    if (e.subgraph < 0 || static_cast<size_t>(e.subgraph) >= n) continue;
    observed_s[static_cast<size_t>(e.subgraph)] += e.duration();
    if (e.trace_id != 0) traces[static_cast<size_t>(e.subgraph)].insert(e.trace_id);
  }

  report.entries.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    DriftEntry entry;
    entry.subgraph = static_cast<int>(i);
    entry.device = placement.of(static_cast<int>(i));
    entry.label = partition.subgraphs[i].label;
    // The executors charge the dispatch overhead on top of the kernel time,
    // so the estimate must include it for an apples-to-apples join.
    entry.est_s = profiles[i].time_on(entry.device) + executor_dispatch_overhead();
    entry.observed_s = observed_s[i];
    entry.trace_count = traces[i].size();
    report.entries.push_back(std::move(entry));
  }
  return report;
}

}  // namespace duet
