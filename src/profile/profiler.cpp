#include "profile/profiler.hpp"

#include <array>
#include <future>
#include <map>
#include <optional>
#include <utility>

#include "common/error.hpp"
#include "common/threadpool.hpp"
#include "device/calibration.hpp"
#include "device/interconnect.hpp"
#include "profile/profile_cache.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/telemetry.hpp"

namespace duet {

DeviceProfile Profiler::profile_one(const Graph& graph, const GraphFingerprint& fp,
                                    DeviceKind kind, const ProfileOptions& options,
                                    const CompiledSubgraph* precompiled,
                                    const WeightDigests* digests) const {
  telemetry::ScopedSpan span(
      telemetry::enabled() ? "profile:" + graph.name() : std::string(),
      "profile", device_kind_name(kind));
  Device& dev = devices_.device(kind);
  DUET_CHECK_GT(options.runs, 0);
  DeviceProfile prof;
  ProfileCache& cache = ProfileCache::instance();
  const uint64_t key =
      profile_stats_key(fp, kind, options, dev.params(), dev.noise_sigma());
  if (cache.enabled() && cache.lookup(key, &prof.stats)) {
    prof.mean_s = prof.stats.mean;
    return prof;
  }
  if (precompiled != nullptr) {
    prof.compiled = *precompiled;
  } else {
    prof.compiled =
        compile_for_device(graph, kind, options.compile, dev.params(), digests);
    static telemetry::Counter& compiles = telemetry::counter("profile.compiles");
    compiles.add(1);
  }
  LatencyRecorder recorder;
  for (int i = 0; i < options.runs; ++i) {
    recorder.add(dev.modeled_time(prof.compiled, options.with_noise));
  }
  prof.stats = recorder.summarize();
  prof.mean_s = prof.stats.mean;
  if (cache.enabled()) cache.insert(key, prof.stats);
  static telemetry::Counter& runs = telemetry::counter("profile.runs");
  static telemetry::Counter& graphs = telemetry::counter("profile.graphs");
  runs.add(static_cast<uint64_t>(options.runs));
  graphs.add(1);
  return prof;
}

DeviceProfile Profiler::profile_graph(const Graph& graph, DeviceKind kind,
                                      const ProfileOptions& options) const {
  return profile_one(graph, fingerprint_graph(graph), kind, options, nullptr,
                     nullptr);
}

std::vector<SubgraphProfile> Profiler::profile_partition(
    const Partition& partition, const Graph& parent,
    const ProfileOptions& options, const WeightDigests* digests) const {
  telemetry::ScopedSpan span("profile-partition", "profile", parent.name());
  const size_t n = partition.subgraphs.size();
  ProfileCache& cache = ProfileCache::instance();

  std::vector<GraphFingerprint> fps(n);
  for (size_t i = 0; i < n; ++i) {
    fps[i] = fingerprint_graph(partition.subgraphs[i].graph, digests);
  }

  // Structural equivalence classes; the first member is the representative.
  std::map<uint64_t, size_t> class_rep;
  for (size_t i = 0; i < n; ++i) {
    class_rep.emplace(fps[i].structural, i);
  }

  // One pool task per representative with a device whose stats are not
  // cached (every device when the cache is off): it optimizes the graph once
  // and lowers it for each such device. Only the compiles run in parallel:
  // the timing loop stays serial (below, in deterministic class order)
  // because each device's noise rng is stateful. Each task writes its own
  // slots of `artifacts`, indexed rep * kNumDeviceKinds + device.
  std::vector<std::optional<CompiledSubgraph>> artifacts(n * kNumDeviceKinds);
  std::vector<std::future<void>> futures;
  uint64_t lowered = 0;
  for (const auto& [sfp, rep] : class_rep) {
    std::array<bool, kNumDeviceKinds> missing{};
    bool any_missing = false;
    for (int d = 0; d < kNumDeviceKinds; ++d) {
      const DeviceKind kind = static_cast<DeviceKind>(d);
      const Device& dev = devices_.device(kind);
      missing[d] = !cache.enabled() ||
                   !cache.contains(profile_stats_key(fps[rep], kind, options,
                                                     dev.params(),
                                                     dev.noise_sigma()));
      any_missing |= missing[d];
      lowered += missing[d] ? 1 : 0;
    }
    if (!any_missing) continue;
    futures.push_back(global_thread_pool().submit([&, rep = rep, missing] {
      const Graph optimized =
          optimize_graph(partition.subgraphs[rep].graph, options.compile, digests);
      for (int d = 0; d < kNumDeviceKinds; ++d) {
        if (!missing[d]) continue;
        const DeviceKind dev = static_cast<DeviceKind>(d);
        artifacts[rep * kNumDeviceKinds + d] = lower_for_device(
            optimized, dev, options.compile, devices_.device(dev).params());
      }
    }));
  }
  for (auto& f : futures) f.get();
  static telemetry::Counter& compiles = telemetry::counter("profile.compiles");
  compiles.add(lowered);

  // Serial measurement + assembly. Duplicate class members copy the
  // representative's profile directly (no cache traffic), so one run of this
  // loop measures each class at most once per device.
  std::vector<SubgraphProfile> out(n);
  for (size_t i = 0; i < n; ++i) {
    const Subgraph& sub = partition.subgraphs[i];
    SubgraphProfile& p = out[i];
    p.subgraph_id = sub.id;
    const size_t rep = class_rep.at(fps[i].structural);
    if (rep == i) {
      for (int d = 0; d < kNumDeviceKinds; ++d) {
        const std::optional<CompiledSubgraph>& artifact =
            artifacts[i * kNumDeviceKinds + d];
        p.per_device[d] = profile_one(sub.graph, fps[i], static_cast<DeviceKind>(d),
                                      options, artifact ? &*artifact : nullptr,
                                      digests);
      }
    } else {
      for (int d = 0; d < kNumDeviceKinds; ++d) {
        p.per_device[d] = out[rep].per_device[d];
      }
    }
    p.input_bytes = sub.input_bytes(parent);
    p.output_bytes = sub.output_bytes(parent);
  }
  return out;
}

}  // namespace duet
