#include "compiler/lowering.hpp"

#include "common/error.hpp"
#include "compiler/compile_cache.hpp"
#include "graph/fingerprint.hpp"
#include "graph/shape_inference.hpp"

namespace duet {

CompiledSubgraph::CompiledSubgraph(Graph graph, DeviceKind device,
                                   CompileOptions options,
                                   std::vector<CompiledKernel> kernels)
    : graph_(std::move(graph)),
      device_(device),
      options_(options),
      kernels_(std::move(kernels)) {
  for (const CompiledKernel& k : kernels_) est_total_ += k.est_time_s;
}

uint64_t CompiledSubgraph::input_bytes() const {
  uint64_t total = 0;
  for (NodeId id : graph_.input_ids()) {
    total += node_output_bytes(graph_.node(id));
  }
  return total;
}

uint64_t CompiledSubgraph::output_bytes() const {
  uint64_t total = 0;
  for (NodeId id : graph_.outputs()) {
    total += node_output_bytes(graph_.node(id));
  }
  return total;
}

std::vector<Tensor> CompiledSubgraph::run(const std::map<NodeId, Tensor>& feeds) const {
  return evaluate_graph(graph_, feeds);
}

Graph optimize_graph(const Graph& graph, const CompileOptions& options,
                     const WeightDigests* digests) {
  CompileCache& cache = CompileCache::instance();
  if (!cache.enabled()) return PassManager::standard(options).run(graph);
  // Keyed by the value-inclusive fingerprint: the optimized graph embeds
  // constant tensors, so structure alone is not a safe identity for numeric
  // reuse. Node names fold in on top — the graph embeds those too, and the
  // plan matches feeds against the optimized graph's input names.
  const uint64_t key =
      hash_mix(CompileCache::make_key(fingerprint_graph(graph, digests),
                                      compile_options_key(options)),
               fingerprint_names(graph));
  if (std::shared_ptr<const Graph> hit = cache.lookup(key)) return *hit;
  auto optimized =
      std::make_shared<const Graph>(PassManager::standard(options).run(graph));
  cache.insert(key, optimized);
  return *optimized;
}

CompiledSubgraph lower_for_device(Graph optimized, DeviceKind device,
                                  const CompileOptions& options,
                                  const DeviceCostParams& params) {
  DUET_CHECK(params.kind == device) << "cost params are for the wrong device";
  std::vector<CompiledKernel> kernels;
  kernels.reserve(optimized.num_nodes());
  for (const Node& node : optimized.nodes()) {
    if (node.is_input() || node.is_constant()) continue;
    CompiledKernel k;
    k.node = node.id;
    k.flops = node_flops(optimized, node);
    const NodeBytes b = node_bytes(optimized, node);
    k.bytes_read = b.read;
    k.bytes_written = b.written;
    k.launches = node_kernel_launches(optimized, node);
    k.est_time_s = node_time_seconds(optimized, node, params, options);
    kernels.push_back(k);
  }
  return CompiledSubgraph(std::move(optimized), device, options, std::move(kernels));
}

CompiledSubgraph compile_for_device(const Graph& graph, DeviceKind device,
                                    const CompileOptions& options,
                                    const DeviceCostParams& params,
                                    const WeightDigests* digests) {
  return lower_for_device(optimize_graph(graph, options, digests), device,
                          options, params);
}

}  // namespace duet
