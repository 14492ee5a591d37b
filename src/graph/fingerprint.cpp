#include "graph/fingerprint.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstring>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/threadpool.hpp"
#include "telemetry/metrics.hpp"

namespace duet {
namespace {

constexpr uint64_t kGolden = 0x9E3779B97F4A7C15ull;

uint64_t splitmix(uint64_t x) {
  x += kGolden;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

uint64_t hash_string(const std::string& s, uint64_t h) {
  h = hash_mix(h, s.size());
  return hash_bytes(s.data(), s.size(), h);
}

uint64_t hash_shape(const Shape& shape, uint64_t h) {
  h = hash_mix(h, shape.rank());
  for (size_t i = 0; i < shape.rank(); ++i) {
    h = hash_mix(h, static_cast<uint64_t>(shape.dim(i)));
  }
  return h;
}

uint64_t hash_attr(const Attr& attr, uint64_t h) {
  h = hash_mix(h, attr.index());
  switch (attr.index()) {
    case 0:
      return hash_mix(h, static_cast<uint64_t>(std::get<int64_t>(attr)));
    case 1: {
      uint64_t bits = 0;
      const double d = std::get<double>(attr);
      std::memcpy(&bits, &d, sizeof(bits));
      return hash_mix(h, bits);
    }
    case 2:
      return hash_string(std::get<std::string>(attr), h);
    default: {
      const auto& v = std::get<std::vector<int64_t>>(attr);
      h = hash_mix(h, v.size());
      for (int64_t x : v) h = hash_mix(h, static_cast<uint64_t>(x));
      return h;
    }
  }
}

// One lane step of payload_digest (the xxHash64 round): a bijection of
// `acc` for a fixed word and of the word for a fixed `acc`, so a changed
// word always changes its lane.
constexpr uint64_t kWordMul = 0xC2B2AE3D27D4EB4Full;
constexpr uint64_t kLaneMul = 0x9E3779B185EBCA87ull;

uint64_t lane_round(uint64_t acc, uint64_t word) {
  return std::rotl(acc + word * kWordMul, 31) * kLaneMul;
}

uint64_t load_word(const unsigned char* p) {
  uint64_t word = 0;
  std::memcpy(&word, p, sizeof(word));
  return word;
}

uint64_t constant_digest(const Tensor& t, const WeightDigests* digests) {
  if (digests != nullptr) {
    if (std::optional<uint64_t> d = digests->find(t)) return *d;
  }
  return payload_digest(t);
}

}  // namespace

uint64_t payload_digest(const Tensor& tensor) {
  if (!tensor.defined()) return splitmix(0);
  const auto* p = static_cast<const unsigned char*>(tensor.raw_data());
  const size_t n = tensor.byte_size();
  static telemetry::Counter& bytes = telemetry::counter("fingerprint.payload_bytes");
  bytes.add(n);

  constexpr size_t kLanes = 4;
  constexpr size_t kStride = kLanes * sizeof(uint64_t);
  uint64_t lanes[kLanes] = {0x243F6A8885A308D3ull, 0x13198A2E03707344ull,
                            0xA4093822299F31D0ull, 0x082EFA98EC4E6C89ull};
  size_t i = 0;
  for (; i + kStride <= n; i += kStride) {
    lanes[0] = lane_round(lanes[0], load_word(p + i));
    lanes[1] = lane_round(lanes[1], load_word(p + i + 8));
    lanes[2] = lane_round(lanes[2], load_word(p + i + 16));
    lanes[3] = lane_round(lanes[3], load_word(p + i + 24));
  }
  for (size_t lane = 0; i + 8 <= n; i += 8, ++lane) {
    lanes[lane] = lane_round(lanes[lane], load_word(p + i));
  }
  uint64_t tail = 0;
  if (i < n) std::memcpy(&tail, p + i, n - i);

  uint64_t h = hash_mix(hash_mix(0x5041594C4F414444ull, n),
                        static_cast<uint64_t>(tensor.dtype()));
  for (uint64_t lane : lanes) h = hash_mix(h, lane);
  return splitmix(hash_mix(h, tail));
}

size_t WeightDigests::KeyHash::operator()(const Key& key) const {
  const uint64_t h =
      hash_mix(hash_mix(reinterpret_cast<uintptr_t>(key.data), key.bytes),
               static_cast<uint64_t>(key.dtype));
  return static_cast<size_t>(h);
}

WeightDigests::Key WeightDigests::key_of(const Tensor& tensor) {
  return {tensor.raw_data(), tensor.byte_size(), tensor.dtype()};
}

WeightDigests::WeightDigests(const Graph& graph) {
  // One slot per distinct storage; workers fill the slots in place (the map
  // does not change shape meanwhile), taking the next-largest payload
  // dynamically so one big embedding table does not serialize a chunk.
  std::vector<std::pair<const Tensor*, uint64_t*>> work;
  for (const Node& node : graph.nodes()) {
    if (!node.is_constant() || !node.value.defined()) continue;
    auto [it, fresh] = map_.emplace(key_of(node.value), 0);
    if (fresh) work.emplace_back(&node.value, &it->second);
  }
  std::stable_sort(work.begin(), work.end(), [](const auto& a, const auto& b) {
    return a.first->byte_size() > b.first->byte_size();
  });
  std::atomic<size_t> next{0};
  ThreadPool& pool = global_thread_pool();
  pool.parallel_for(
      std::min(pool.size(), work.size()),
      [&](size_t) {
        for (size_t i = next.fetch_add(1); i < work.size();
             i = next.fetch_add(1)) {
          *work[i].second = payload_digest(*work[i].first);
        }
      },
      /*inline_below=*/2);
}

std::optional<uint64_t> WeightDigests::find(const Tensor& tensor) const {
  auto it = map_.find(key_of(tensor));
  if (it == map_.end()) return std::nullopt;
  return it->second;
}

uint64_t hash_mix(uint64_t h, uint64_t v) {
  // boost::hash_combine's 64-bit shape with a splitmix-strengthened operand:
  // order-sensitive (positional inputs matter) and avalanche-complete.
  return (h ^ (splitmix(v) + kGolden + (h << 6) + (h >> 2))) * 0x100000001B3ull;
}

uint64_t hash_bytes(const void* data, size_t n, uint64_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t h = seed ^ hash_mix(0, n);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    uint64_t word = 0;
    std::memcpy(&word, p + i, 8);
    h = hash_mix(h, word);
  }
  if (i < n) {
    uint64_t word = 0;
    std::memcpy(&word, p + i, n - i);
    h = hash_mix(h, word);
  }
  return h;
}

std::string fingerprint_hex(uint64_t fp) {
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<size_t>(i)] = digits[fp & 0xF];
    fp >>= 4;
  }
  return out;
}

uint64_t fingerprint_names(const Graph& graph) {
  uint64_t h = hash_mix(0x4E414D4548415348ull, graph.num_nodes());
  for (const Node& node : graph.nodes()) h = hash_string(node.name, h);
  return h;
}

GraphFingerprint fingerprint_graph(const Graph& graph,
                                   const WeightDigests* digests) {
  const size_t n = graph.num_nodes();
  // Per-node canonical hashes, structural and value-inclusive. nodes_ is
  // topological by construction (inputs must pre-exist), so every input hash
  // is final before its consumer needs it.
  std::vector<uint64_t> hs(n, 0);
  std::vector<uint64_t> hv(n, 0);

  // kInput identity = ordinal in the graph signature, not name or id.
  std::vector<int> input_ordinal(n, -1);
  {
    int ord = 0;
    for (NodeId id : graph.input_ids()) {
      input_ordinal[static_cast<size_t>(id)] = ord++;
    }
  }

  for (const Node& node : graph.nodes()) {
    const size_t i = static_cast<size_t>(node.id);
    uint64_t h = hash_mix(0x5343484544554554ull, static_cast<uint64_t>(node.op));
    if (node.is_input()) {
      h = hash_mix(h, static_cast<uint64_t>(input_ordinal[i]));
    }
    for (const auto& [key, attr] : node.attrs.raw()) {
      h = hash_string(key, h);
      h = hash_attr(attr, h);
    }
    h = hash_shape(node.out_shape, h);
    h = hash_mix(h, static_cast<uint64_t>(node.out_dtype));
    uint64_t v = h;
    for (NodeId in : node.inputs) {
      DUET_CHECK_GE(in, 0);
      DUET_CHECK_LT(static_cast<size_t>(in), i) << "graph is not topological";
      h = hash_mix(h, hs[static_cast<size_t>(in)]);
      v = hash_mix(v, hv[static_cast<size_t>(in)]);
    }
    if (node.is_constant()) {
      v = hash_mix(v, constant_digest(node.value, digests));
    }
    hs[i] = h;
    hv[i] = v;
  }

  // Fold every node in commutatively (a graph may carry nodes outside the
  // output cone — no DCE in framework mode — and they still become kernels),
  // then the outputs positionally: the output tuple order is semantic.
  uint64_t acc_s = 0;
  uint64_t acc_v = 0;
  for (size_t i = 0; i < n; ++i) {
    acc_s += splitmix(hs[i]);
    acc_v += splitmix(hv[i]);
  }
  GraphFingerprint fp;
  fp.structural = hash_mix(hash_mix(0, n), acc_s);
  fp.values = hash_mix(hash_mix(0, n), acc_v);
  fp.structural = hash_mix(fp.structural, graph.outputs().size());
  fp.values = hash_mix(fp.values, graph.outputs().size());
  for (NodeId out : graph.outputs()) {
    fp.structural = hash_mix(fp.structural, hs[static_cast<size_t>(out)]);
    fp.values = hash_mix(fp.values, hv[static_cast<size_t>(out)]);
  }
  return fp;
}

}  // namespace duet
