#pragma once

// Canonical content-addressed fingerprints for graphs. Two fingerprints are
// computed in one traversal:
//
//  * `structural` — topology, op types, attributes, shapes and dtypes. Node
//    names and node ids do NOT participate, so isomorphic relabelings of the
//    same computation hash identically. This keys everything whose result
//    depends only on the *shape* of the computation: modeled per-kernel
//    costs, and therefore profiling statistics.
//  * `values` — `structural` plus the payload digest of every constant.
//    This keys numerically-executable artifacts (CompiledSubgraph embeds the
//    weight tensors), where two structurally identical subgraphs with
//    different weights must not share a cache entry.
//
// Hashing walks nodes in stored order (topological by construction: inputs
// must pre-exist) and memoizes a hash per node; a node's hash mixes its op,
// attrs, output shape/dtype and the hashes of its inputs *positionally*, so
// add(a, a) and add(a, b) differ. kInput nodes mix in their ordinal in
// input_ids() order — the graph's signature — instead of their name.
//
// A constant enters `values` as one word: its payload digest, a pure function
// of its bytes, so a WeightDigests table computed once per model serves every
// fingerprint of the model and of its partition subgraphs.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>

#include "graph/graph.hpp"

namespace duet {

struct GraphFingerprint {
  uint64_t structural = 0;
  uint64_t values = 0;

  bool operator==(const GraphFingerprint& o) const {
    return structural == o.structural && values == o.values;
  }
};

// Digest of a constant's payload: its bytes, byte length and dtype, and
// nothing else — not its shape, position or name. Four independent lanes of
// 8-byte words keep the multiplier pipelines busy (the pass runs at memory
// bandwidth), then the lanes, the sub-word tail, the length and the dtype
// fold together and end in a splitmix avalanche. Adds the bytes it reads to
// the `fingerprint.payload_bytes` telemetry counter.
uint64_t payload_digest(const Tensor& tensor);

// Payload digests of one graph's constants, keyed by storage identity: data
// pointer, byte length and dtype. The key says nothing about the bytes, so a
// table is only sound while the graph it was built from keeps those buffers
// alive and unmodified — DuetEngine builds one from its own model and holds
// both for its lifetime. Partition subgraphs alias the parent's constant
// buffers, so the parent's table covers them too.
class WeightDigests {
 public:
  WeightDigests() = default;
  // Digests every distinct constant storage of `graph` in one pass over the
  // shared thread pool, largest first.
  explicit WeightDigests(const Graph& graph);

  // The digest of `tensor`'s storage, or nullopt when the table lacks it.
  std::optional<uint64_t> find(const Tensor& tensor) const;

 private:
  struct Key {
    const void* data = nullptr;
    size_t bytes = 0;
    DType dtype = DType::kFloat32;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    size_t operator()(const Key& key) const;
  };
  static Key key_of(const Tensor& tensor);

  std::unordered_map<Key, uint64_t, KeyHash> map_;
};

// `digests`, when given, supplies the payload digest of every constant it
// covers; the others are digested inline. The result is the same either way.
GraphFingerprint fingerprint_graph(const Graph& graph,
                                   const WeightDigests* digests = nullptr);

// Positional hash of every node name (in stored order) plus the output list.
// Names are deliberately excluded from the two fingerprints above, but a
// CompiledSubgraph embeds them (the plan matches feeds by input name), so the
// compile cache folds this in on top of `values`: renamed twins miss the
// compile cache yet still share profiling stats.
uint64_t fingerprint_names(const Graph& graph);

// 64-bit combine / bytes hash shared by the cache-key builders.
uint64_t hash_mix(uint64_t h, uint64_t v);
uint64_t hash_bytes(const void* data, size_t n, uint64_t seed = 0);

// 16-hex-digit rendering (disk-cache keys, diagnostics).
std::string fingerprint_hex(uint64_t fp);

}  // namespace duet
