#pragma once

// Lowering / "codegen": turns an (optimized) graph into a CompiledSubgraph —
// the per-device executable artifact the devices run and the profiler
// measures. In TVM terms this is the back-end stage; here the "generated
// code" is the ordered kernel list with modeled per-kernel costs, while
// numerical execution reuses the reference kernels so results stay checkable.

#include <vector>

#include "compiler/cost_model.hpp"
#include "compiler/pass.hpp"
#include "graph/fingerprint.hpp"
#include "graph/graph.hpp"

namespace duet {

struct CompiledKernel {
  NodeId node = kInvalidNode;  // node in the *optimized* graph
  double flops = 0.0;
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;
  int64_t launches = 0;
  double est_time_s = 0.0;  // modeled time on the target device
};

class CompiledSubgraph {
 public:
  CompiledSubgraph() = default;
  CompiledSubgraph(Graph graph, DeviceKind device, CompileOptions options,
                   std::vector<CompiledKernel> kernels);

  const Graph& graph() const { return graph_; }
  DeviceKind device() const { return device_; }
  const CompileOptions& options() const { return options_; }
  const std::vector<CompiledKernel>& kernels() const { return kernels_; }

  // Sum of modeled kernel times.
  double est_total_time_s() const { return est_total_; }
  // Payload sizes of the graph's inputs / outputs (communication analysis).
  uint64_t input_bytes() const;
  uint64_t output_bytes() const;

  // Executes numerically (reference kernels) and returns outputs.
  std::vector<Tensor> run(const std::map<NodeId, Tensor>& feeds) const;

 private:
  Graph graph_;
  DeviceKind device_ = DeviceKind::kCpu;
  CompileOptions options_;
  std::vector<CompiledKernel> kernels_;
  double est_total_ = 0.0;
};

// Device-independent half: the standard pass pipeline under `options`. The
// result is the same for every device, so the CompileCache serves it keyed
// by the graph's values, names and options only. `digests` (optional)
// supplies precomputed payload digests for that key; it never changes the
// result.
Graph optimize_graph(const Graph& graph, const CompileOptions& options,
                     const WeightDigests* digests = nullptr);

// Per-device half: the per-node cost walk that assigns flops, bytes and
// modeled time for `device`. Cheap, and never cached.
CompiledSubgraph lower_for_device(Graph optimized, DeviceKind device,
                                  const CompileOptions& options,
                                  const DeviceCostParams& params);

// Both halves: optimize_graph, then lower_for_device.
CompiledSubgraph compile_for_device(const Graph& graph, DeviceKind device,
                                    const CompileOptions& options,
                                    const DeviceCostParams& params,
                                    const WeightDigests* digests = nullptr);

}  // namespace duet
