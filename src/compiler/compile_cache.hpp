#pragma once

// Content-addressed cache of optimized graphs: the device-independent half
// of compile_for_device. optimize_graph consults it transparently, so every
// caller — the profiler (once per subgraph, lowered for both devices),
// ExecutionPlan::build, the single-device baselines — shares one pass
// pipeline run per graph. Lowering (the per-device cost walk) is cheap and
// runs on every call, so device, DeviceCostParams and the schedule_quality
// hook, which only lowering reads, are not part of the key.
//
// The key is the *value-inclusive* graph fingerprint (an optimized graph
// embeds its constant tensors, so structurally identical subgraphs with
// different weights must not share an entry) plus the node-name hash (the
// graph also embeds names, and ExecutionPlan::build matches feeds against
// the optimized graph's input names) mixed with a CompileOptions key.
//
// Entries are shared_ptr<const Graph>; a hit returns a by-value copy, which
// is cheap because Graph/Tensor copies alias their buffers.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "compiler/lowering.hpp"
#include "graph/fingerprint.hpp"

namespace duet {

// The pass-pipeline switches of `options`; the schedule_quality hook is not
// part of it (only lowering reads it).
uint64_t compile_options_key(const CompileOptions& options);
uint64_t device_params_key(const DeviceCostParams& params);

class CompileCache {
 public:
  static CompileCache& instance();

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    size_t entries = 0;
  };

  static uint64_t make_key(const GraphFingerprint& fp, uint64_t options_key);

  // nullptr on miss (counts it; a following insert completes the miss).
  std::shared_ptr<const Graph> lookup(uint64_t key);
  void insert(uint64_t key, std::shared_ptr<const Graph> value);

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  void clear();
  Stats stats() const;
  void reset_stats();

 private:
  CompileCache() = default;

  // Unbounded growth guard for long bench sweeps: on reaching the cap the
  // whole map is dropped (epoch reset) — correctness never depends on a hit.
  static constexpr size_t kMaxEntries = 4096;

  mutable std::mutex mutex_;
  std::unordered_map<uint64_t, std::shared_ptr<const Graph>> map_;
  Stats stats_;
  std::atomic<bool> enabled_{true};
};

}  // namespace duet
