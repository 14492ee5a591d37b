// Tests for the content-addressed caches: fingerprint discrimination and
// canonicalization, constant payload digests and the per-engine
// WeightDigests table, the transparent CompileCache inside compile_for_device,
// the disk-backed ProfileCache (round trip + calibration invalidation), the
// profiler's once-per-equivalence-class compile guarantee, and the engine-
// level guarantees (bit-identical outputs cache on/off, warm runs skip
// profiling entirely).

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "compiler/compile_cache.hpp"
#include "duet/duet.hpp"
#include "graph/builder.hpp"
#include "graph/fingerprint.hpp"
#include "profile/profile_cache.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/telemetry.hpp"

namespace duet {
namespace {

// The caches are process-wide singletons shared by every test in this
// binary: start each test from a clean, enabled, memory-only state.
class CacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ProfileCache::instance().close_disk();
    ProfileCache::instance().clear();
    ProfileCache::instance().reset_stats();
    ProfileCache::instance().set_enabled(true);
    CompileCache::instance().clear();
    CompileCache::instance().reset_stats();
    CompileCache::instance().set_enabled(true);
  }
  void TearDown() override { SetUp(); }
};

// --- fingerprint discrimination -------------------------------------------------

// A small MLP with a weight, so both structure and constant payloads exist.
Graph mlp(const std::string& prefix, uint64_t seed = 42, int64_t width = 32,
          int64_t units = 8) {
  GraphBuilder b(prefix + "-mlp", seed);
  const NodeId x = b.input(Shape{1, width}, prefix + ".x");
  const NodeId h = b.dense(x, units, "relu", prefix + ".fc1");
  return b.finish({b.dense(h, 4, "", prefix + ".fc2")});
}

TEST(Fingerprint, DeterministicAcrossBuilds) {
  const GraphFingerprint a = fingerprint_graph(mlp("m"));
  const GraphFingerprint b = fingerprint_graph(mlp("m"));
  EXPECT_EQ(a, b);
  EXPECT_EQ(fingerprint_names(mlp("m")), fingerprint_names(mlp("m")));
}

TEST(Fingerprint, RenamingChangesNeitherStructureNorValues) {
  const Graph a = mlp("alpha");
  const Graph b = mlp("beta");
  EXPECT_EQ(fingerprint_graph(a).structural, fingerprint_graph(b).structural);
  EXPECT_EQ(fingerprint_graph(a).values, fingerprint_graph(b).values);
  // ...but the name hash (the compile cache's extra key component) differs.
  EXPECT_NE(fingerprint_names(a), fingerprint_names(b));
}

TEST(Fingerprint, ConstantPayloadFlipsValuesOnly) {
  // Same architecture, different weight init: one structural class, two
  // distinct numeric artifacts.
  const GraphFingerprint a = fingerprint_graph(mlp("m", /*seed=*/1));
  const GraphFingerprint b = fingerprint_graph(mlp("m", /*seed=*/2));
  EXPECT_EQ(a.structural, b.structural);
  EXPECT_NE(a.values, b.values);
}

TEST(Fingerprint, ShapePerturbationChangesStructural) {
  EXPECT_NE(fingerprint_graph(mlp("m", 42, /*width=*/32)).structural,
            fingerprint_graph(mlp("m", 42, /*width=*/33)).structural);
  EXPECT_NE(fingerprint_graph(mlp("m", 42, 32, /*units=*/8)).structural,
            fingerprint_graph(mlp("m", 42, 32, /*units=*/9)).structural);
}

TEST(Fingerprint, AttrPerturbationChangesStructural) {
  // slice_rows(0,2) vs slice_rows(1,3): identical ops, shapes and dtypes —
  // only the begin/end attributes differ.
  const auto sliced = [](int64_t begin) {
    GraphBuilder b("slice");
    const NodeId x = b.input(Shape{4, 16}, "x");
    return b.finish({b.slice_rows(x, begin, begin + 2)});
  };
  const Graph a = sliced(0);
  const Graph c = sliced(1);
  ASSERT_EQ(a.node(a.outputs()[0]).out_shape, c.node(c.outputs()[0]).out_shape);
  EXPECT_NE(fingerprint_graph(a).structural, fingerprint_graph(c).structural);
}

TEST(Fingerprint, DtypePerturbationChangesStructural) {
  const auto typed = [](DType dtype) {
    GraphBuilder b("typed");
    const NodeId x = b.input(Shape{1, 16}, "x", dtype);
    return b.finish({b.relu(x)});
  };
  EXPECT_NE(fingerprint_graph(typed(DType::kFloat32)).structural,
            fingerprint_graph(typed(DType::kInt32)).structural);
}

TEST(Fingerprint, TopologyPerturbationChangesStructural) {
  // add(a, mul(a, b)) vs add(b, mul(a, b)): same node multiset, one edge
  // rewired. And add(x, x) vs add(x, y): positional input hashing.
  const auto rewired = [](bool to_b) {
    GraphBuilder b("rewired");
    const NodeId a = b.input(Shape{1, 8}, "a");
    const NodeId c = b.input(Shape{1, 8}, "b");
    const NodeId m = b.mul(a, c);
    return b.finish({b.add(to_b ? c : a, m)});
  };
  EXPECT_NE(fingerprint_graph(rewired(false)).structural,
            fingerprint_graph(rewired(true)).structural);

  const auto fanin = [](bool same) {
    GraphBuilder b("fanin");
    const NodeId x = b.input(Shape{1, 8}, "x");
    const NodeId y = b.input(Shape{1, 8}, "y");
    return b.finish({b.add(x, same ? x : y), b.relu(y)});
  };
  EXPECT_NE(fingerprint_graph(fanin(true)).structural,
            fingerprint_graph(fanin(false)).structural);
}

TEST(Fingerprint, InsertionOrderDoesNotMatter) {
  // The same two-branch computation built left-first and right-first: node
  // ids and stored order differ, the computation does not.
  const auto branches = [](bool left_first) {
    GraphBuilder b("branches");
    const NodeId x = b.input(Shape{1, 8}, "x");
    const NodeId y = b.input(Shape{1, 8}, "y");
    NodeId left = -1;
    NodeId right = -1;
    if (left_first) {
      left = b.relu(x);
      right = b.tanh(y);
    } else {
      right = b.tanh(y);
      left = b.relu(x);
    }
    return b.finish({b.add(left, right)});
  };
  const GraphFingerprint a = fingerprint_graph(branches(true));
  const GraphFingerprint b = fingerprint_graph(branches(false));
  EXPECT_EQ(a.structural, b.structural);
  EXPECT_EQ(a.values, b.values);
}

// --- payload digests and the WeightDigests table ---------------------------------

// For every zoo model and every one of its partition subgraphs, the
// fingerprint with the model's table equals the one digested inline, and the
// table covers every subgraph constant (they alias the model's buffers).
TEST(WeightDigests, TableFingerprintsMatchInlineOnEveryZooSubgraph) {
  for (const std::string& name : models::zoo_model_names()) {
    const Graph model = models::build_by_name_batched(name, 1, /*tiny=*/true);
    const WeightDigests table(model);
    EXPECT_EQ(fingerprint_graph(model, &table), fingerprint_graph(model)) << name;
    const Partition partition = partition_phased(model);
    for (const Subgraph& sub : partition.subgraphs) {
      EXPECT_EQ(fingerprint_graph(sub.graph, &table),
                fingerprint_graph(sub.graph))
          << name << " " << sub.label;
      for (const Node& node : sub.graph.nodes()) {
        if (!node.is_constant()) continue;
        EXPECT_TRUE(table.find(node.value).has_value())
            << name << " " << sub.label << " " << node.name;
      }
    }
  }
}

// 1003 float32s = 4012 bytes: 125 four-lane strides, one leftover full word
// at bytes [4000, 4008) and a 4-byte sub-word tail.
TEST(WeightDigests, EveryBitOfEveryRegionReachesTheDigest) {
  Rng rng(7);
  const Tensor base = Tensor::randn(Shape{1003}, rng);
  ASSERT_EQ(base.byte_size(), 4012u);
  const uint64_t digest = payload_digest(base);
  std::set<uint64_t> seen = {digest};
  size_t flips = 0;
  const auto flip_all_bits = [&](size_t offset, size_t bytes) {
    for (size_t bit = 0; bit < bytes * 8; ++bit) {
      Tensor t = base.clone();
      static_cast<unsigned char*>(t.raw_data())[offset + bit / 8] ^=
          static_cast<unsigned char>(1u << (bit % 8));
      seen.insert(payload_digest(t));
      ++flips;
    }
  };
  flip_all_bits(0, 8);     // first word (lane 0 of the first stride)
  flip_all_bits(2008, 8);  // a middle word (lane 3)
  flip_all_bits(4000, 8);  // the last full word (leftover, past the strides)
  flip_all_bits(4008, 4);  // the sub-word tail
  EXPECT_EQ(seen.size(), flips + 1) << "a bit flip left the digest unchanged";
}

TEST(WeightDigests, DigestIsItsBytesLengthAndDtypeOnly) {
  Rng rng(8);
  const Tensor t = Tensor::randn(Shape{6, 5}, rng);
  // Shape and storage are not part of the digest: a reshaped alias and a
  // deep copy digest alike.
  EXPECT_EQ(payload_digest(t), payload_digest(t.reshaped(Shape{30})));
  EXPECT_EQ(payload_digest(t), payload_digest(t.clone()));
  // Same bytes under another dtype differ.
  Tensor as_int(Shape{6, 5}, DType::kInt32);
  std::memcpy(as_int.raw_data(), t.raw_data(), t.byte_size());
  EXPECT_NE(payload_digest(t), payload_digest(as_int));
  // A zero appended to the payload differs (length is mixed in).
  Tensor longer = Tensor::zeros(Shape{31});
  std::memcpy(longer.raw_data(), t.raw_data(), t.byte_size());
  EXPECT_NE(payload_digest(t), payload_digest(longer));
}

// A table only answers for the storages it was built from: equal bytes in
// another buffer are digested inline (and, being equal, digest alike).
TEST(WeightDigests, TableIsKeyedByStorage) {
  const Graph model = mlp("wd");
  const WeightDigests table(model);
  for (const Node& node : model.nodes()) {
    if (!node.is_constant()) continue;
    ASSERT_TRUE(table.find(node.value).has_value()) << node.name;
    EXPECT_EQ(*table.find(node.value), payload_digest(node.value));
    EXPECT_FALSE(table.find(node.value.clone()).has_value()) << node.name;
  }
}

// One engine build digests each weight byte exactly once; a later plan build
// reuses the engine's table and digests nothing.
TEST_F(CacheTest, EngineDigestsEveryWeightByteOnce) {
  telemetry::ScopedTelemetry on(true);
  for (const char* name : {"wide-deep", "dlrm"}) {
    const Graph model = models::build_by_name_batched(name, 1, /*tiny=*/true);
    telemetry::Counter& bytes = telemetry::counter("fingerprint.payload_bytes");
    bytes.reset();
    DuetEngine engine(model);
    EXPECT_EQ(bytes.value(), model.param_bytes()) << name;
    const ExecutionPlan plan =
        engine.build_plan_for(engine.report().schedule.placement);
    EXPECT_EQ(bytes.value(), model.param_bytes()) << name;
    EXPECT_EQ(plan.placement(), engine.plan().placement());
  }
}

// --- CompileCache ----------------------------------------------------------------

// A compile with the cache switched off, restoring the caller's setting.
CompiledSubgraph compile_uncached(const Graph& g, DeviceKind device,
                                  const CompileOptions& options,
                                  const DeviceCostParams& params) {
  CompileCache& cache = CompileCache::instance();
  const bool was_enabled = cache.enabled();
  cache.set_enabled(false);
  CompiledSubgraph out = compile_for_device(g, device, options, params);
  cache.set_enabled(was_enabled);
  return out;
}

// Same kernels with bit-equal modeled costs.
void expect_same_costs(const CompiledSubgraph& got, const CompiledSubgraph& want) {
  EXPECT_EQ(got.device(), want.device());
  ASSERT_EQ(got.kernels().size(), want.kernels().size());
  for (size_t i = 0; i < got.kernels().size(); ++i) {
    const CompiledKernel& k = got.kernels()[i];
    const CompiledKernel& w = want.kernels()[i];
    EXPECT_EQ(k.node, w.node) << "kernel " << i;
    EXPECT_EQ(k.flops, w.flops) << "kernel " << i;
    EXPECT_EQ(k.bytes_read, w.bytes_read) << "kernel " << i;
    EXPECT_EQ(k.bytes_written, w.bytes_written) << "kernel " << i;
    EXPECT_EQ(k.launches, w.launches) << "kernel " << i;
    EXPECT_EQ(k.est_time_s, w.est_time_s) << "kernel " << i;
  }
  EXPECT_EQ(got.est_total_time_s(), want.est_total_time_s());
}

TEST_F(CacheTest, CompileForDeviceHitsOnRecompile) {
  const Graph g = mlp("cc");
  DevicePair devices = make_default_device_pair(3);
  const CompileOptions options = CompileOptions::compiler_defaults();

  const CompiledSubgraph first =
      compile_for_device(g, DeviceKind::kCpu, options, devices.cpu->params());
  CompileCache::Stats s = CompileCache::instance().stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 0u);

  const CompiledSubgraph second =
      compile_for_device(g, DeviceKind::kCpu, options, devices.cpu->params());
  s = CompileCache::instance().stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(first.graph().num_nodes(), second.graph().num_nodes());

  // The optimized graph is device-independent: the GPU compile hits, and
  // lowering it gives exactly the costs of an uncached GPU compile.
  const CompiledSubgraph gpu =
      compile_for_device(g, DeviceKind::kGpu, options, devices.gpu->params());
  s = CompileCache::instance().stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 2u);
  EXPECT_EQ(gpu.device(), DeviceKind::kGpu);
  expect_same_costs(gpu, compile_uncached(g, DeviceKind::kGpu, options,
                                          devices.gpu->params()));

  // Perturbed cost params (the hardware-sensitivity sweeps) hit too, and
  // equal their own uncached compile.
  DeviceCostParams perturbed = devices.gpu->params();
  perturbed.peak_gflops *= 0.5;
  perturbed.conv.eff *= 1.25;
  const CompiledSubgraph swept =
      compile_for_device(g, DeviceKind::kGpu, options, perturbed);
  s = CompileCache::instance().stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 3u);
  expect_same_costs(swept,
                    compile_uncached(g, DeviceKind::kGpu, options, perturbed));
  EXPECT_NE(swept.est_total_time_s(), gpu.est_total_time_s());
}

TEST_F(CacheTest, RenamedTwinMissesCompileCacheButSharesProfileKey) {
  // Renamed twins: same structural class (one profile) but distinct compile
  // artifacts (the plan matches feeds by input name).
  const Graph a = mlp("one");
  const Graph b = mlp("two");
  DevicePair devices = make_default_device_pair(3);
  const CompileOptions options = CompileOptions::compiler_defaults();

  compile_for_device(a, DeviceKind::kCpu, options, devices.cpu->params());
  compile_for_device(b, DeviceKind::kCpu, options, devices.cpu->params());
  const CompileCache::Stats s = CompileCache::instance().stats();
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.hits, 0u);

  ProfileOptions popts;
  EXPECT_EQ(profile_stats_key(fingerprint_graph(a), DeviceKind::kCpu, popts,
                              devices.cpu->params(), devices.cpu->noise_sigma()),
            profile_stats_key(fingerprint_graph(b), DeviceKind::kCpu, popts,
                              devices.cpu->params(), devices.cpu->noise_sigma()));
}

// schedule_quality is read only while lowering, so hooked and unhooked
// compiles share one optimized graph, and each lowers to the costs of its
// own uncached compile.
TEST_F(CacheTest, ScheduleQualityHookSharesTheOptimizedGraph) {
  const Graph g = mlp("hook");
  DevicePair devices = make_default_device_pair(3);
  const CompileOptions plain = CompileOptions::compiler_defaults();
  CompileOptions hooked = plain;
  hooked.schedule_quality = [](const Node&, int) { return 1e-3; };
  EXPECT_EQ(compile_options_key(hooked), compile_options_key(plain));

  const CompiledSubgraph a =
      compile_for_device(g, DeviceKind::kCpu, plain, devices.cpu->params());
  const CompiledSubgraph b =
      compile_for_device(g, DeviceKind::kCpu, hooked, devices.cpu->params());
  const CompileCache::Stats s = CompileCache::instance().stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.entries, 1u);

  expect_same_costs(
      a, compile_uncached(g, DeviceKind::kCpu, plain, devices.cpu->params()));
  expect_same_costs(
      b, compile_uncached(g, DeviceKind::kCpu, hooked, devices.cpu->params()));
  EXPECT_GT(b.est_total_time_s(), a.est_total_time_s());
}

// --- ProfileCache disk persistence ----------------------------------------------

TEST_F(CacheTest, DiskRoundTripAndCalibrationInvalidation) {
  const std::string dir = ::testing::TempDir() + "/duet-cache-test";
  std::filesystem::remove_all(dir);
  const std::string path = dir + "/profile_cache.v1.txt";
  ProfileCache& pc = ProfileCache::instance();

  EXPECT_EQ(pc.open_disk(path, 0xAAu), 0u);  // nothing on disk yet
  SummaryStats s;
  s.count = 500;
  s.mean = 1.2500000000000001e-3;
  s.stddev = 3.0517578125e-5;
  s.min = 1.1e-3;
  s.max = 1.9e-3;
  s.p50 = 1.24e-3;
  s.p90 = 1.5e-3;
  s.p99 = 1.7e-3;
  s.p999 = 1.89e-3;
  pc.insert(0x1234u, s);
  pc.flush();

  // Same calibration: full-precision round trip.
  pc.clear();
  EXPECT_EQ(pc.open_disk(path, 0xAAu), 1u);
  SummaryStats out;
  ASSERT_TRUE(pc.lookup(0x1234u, &out));
  EXPECT_EQ(out.count, s.count);
  EXPECT_EQ(out.mean, s.mean);
  EXPECT_EQ(out.stddev, s.stddev);
  EXPECT_EQ(out.min, s.min);
  EXPECT_EQ(out.max, s.max);
  EXPECT_EQ(out.p50, s.p50);
  EXPECT_EQ(out.p90, s.p90);
  EXPECT_EQ(out.p99, s.p99);
  EXPECT_EQ(out.p999, s.p999);

  // Different calibration: the file is ignored (recalibration invalidates
  // every persisted profile) and the next flush rewrites it.
  pc.clear();
  EXPECT_EQ(pc.open_disk(path, 0xBBu), 0u);
  pc.flush();
  pc.clear();
  EXPECT_EQ(pc.open_disk(path, 0xAAu), 0u);
  pc.close_disk();
  std::filesystem::remove_all(dir);
}

// Rows the schedulers must not see — NaN, infinite or negative statistics,
// min > max — are skipped and counted; the valid row beside them loads.
TEST_F(CacheTest, DiskLoadSkipsOutOfRangeRows) {
  telemetry::ScopedTelemetry on(true);
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "duet-cache-range";
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "profile_cache.v1.txt").string();
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs(
        "duet-profile-cache v1 calib dd\n"
        "a1 500 nan 1e-05 0.001 0.002 0.0015 0.0018 0.0019 0.002\n"
        "a2 500 0.0015 1e-05 0.001 inf 0.0015 0.0018 0.0019 0.002\n"
        "a3 500 0.0015 1e-05 0.001 0.002 -0.0015 0.0018 0.0019 0.002\n"
        "b0 500 0.0015 1e-05 0.001 0.002 0.0015 0.0018 0.0019 0.002\n"
        "a4 500 0.0015 1e-05 0.003 0.002 0.0015 0.0018 0.0019 0.002\n"
        "a5 500 0.0015 -inf 0.001 0.002 0.0015 0.0018 0.0019 0.002\n",
        f);
    std::fclose(f);
  }
  telemetry::Counter& rejected = telemetry::counter("profile.cache.disk_rejected");
  const uint64_t rejected_before = rejected.value();

  ProfileCache& pc = ProfileCache::instance();
  EXPECT_EQ(pc.open_disk(path, 0xDDu), 1u);
  const ProfileCache::Stats s = pc.stats();
  EXPECT_EQ(s.disk_loaded, 1u);
  EXPECT_EQ(s.disk_rejected, 5u);
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(rejected.value() - rejected_before, 5u);
  SummaryStats out;
  ASSERT_TRUE(pc.lookup(0xB0u, &out));
  EXPECT_EQ(out.mean, 0.0015);
  for (uint64_t bad : {0xA1u, 0xA2u, 0xA3u, 0xA4u, 0xA5u}) {
    EXPECT_FALSE(pc.lookup(bad, nullptr)) << std::hex << bad;
  }
  pc.close_disk();
  std::filesystem::remove_all(dir);
}

TEST_F(CacheTest, FlushReplacesTheFileAtomically) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "duet-cache-flush";
  std::filesystem::remove_all(dir);
  const std::filesystem::path path = dir / "profile_cache.v1.txt";
  ProfileCache& pc = ProfileCache::instance();
  SummaryStats s;
  s.count = 3;
  s.mean = 2.5e-3;

  pc.open_disk(path.string(), 0xCCu);
  pc.insert(0x1u, s);
  pc.flush();
  ASSERT_TRUE(std::filesystem::exists(path));

  // Flush over the existing file with more entries.
  pc.insert(0x2u, s);
  pc.flush();
  pc.close_disk();

  pc.clear();
  EXPECT_EQ(pc.open_disk(path.string(), 0xCCu), 2u);
  SummaryStats out;
  EXPECT_TRUE(pc.lookup(0x2u, &out));
  EXPECT_EQ(out.mean, s.mean);
  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    files.push_back(entry.path().filename().string());
  }
  EXPECT_EQ(files, std::vector<std::string>{"profile_cache.v1.txt"})
      << "flush left a temporary behind";
  pc.close_disk();
  std::filesystem::remove_all(dir);
}

// --- profiler: once per structural equivalence class -----------------------------

TEST_F(CacheTest, ColdRunCompilesOncePerClassWarmRunHitsEverything) {
  telemetry::ScopedTelemetry on(true);
  telemetry::MetricsRegistry::instance().reset();

  // Siamese: the two branch subgraphs are structurally identical (different
  // weights, different names) — a genuine duplicate class.
  const Graph model = models::build_siamese(models::SiameseConfig::tiny());
  const Partition partition = partition_phased(model);
  const size_t n = partition.subgraphs.size();

  std::set<uint64_t> classes;
  for (const Subgraph& sub : partition.subgraphs) {
    classes.insert(fingerprint_graph(sub.graph).structural);
  }
  ASSERT_LT(classes.size(), n) << "fixture must contain duplicate classes";

  DevicePair devices = make_default_device_pair(3);
  Profiler profiler(devices);
  ProfileOptions opts;
  opts.runs = 3;
  opts.with_noise = false;

  const auto profiles = profiler.profile_partition(partition, model, opts);
  ProfileCache::Stats s = ProfileCache::instance().stats();
  EXPECT_EQ(s.misses, classes.size() * 2);  // one lookup per class per device
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(telemetry::counter("profile.compiles").value(), classes.size() * 2);

  // Duplicate members carry the representative's statistics.
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      if (fingerprint_graph(partition.subgraphs[i].graph).structural !=
          fingerprint_graph(partition.subgraphs[j].graph).structural) {
        continue;
      }
      EXPECT_EQ(profiles[i].time_on(DeviceKind::kCpu),
                profiles[j].time_on(DeviceKind::kCpu));
      EXPECT_EQ(profiles[i].time_on(DeviceKind::kGpu),
                profiles[j].time_on(DeviceKind::kGpu));
    }
  }

  // Warm re-profile: zero compiles, 100% hit rate, identical stats.
  ProfileCache::instance().reset_stats();
  const uint64_t compiles_before = telemetry::counter("profile.compiles").value();
  const auto warm = profiler.profile_partition(partition, model, opts);
  s = ProfileCache::instance().stats();
  EXPECT_EQ(s.misses, 0u);
  EXPECT_EQ(s.hits, classes.size() * 2);
  EXPECT_EQ(telemetry::counter("profile.compiles").value(), compiles_before);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(warm[i].time_on(DeviceKind::kCpu),
              profiles[i].time_on(DeviceKind::kCpu));
    EXPECT_EQ(warm[i].time_on(DeviceKind::kGpu),
              profiles[i].time_on(DeviceKind::kGpu));
  }
}

TEST_F(CacheTest, DisabledCacheTakesLegacyPath) {
  ProfileCache::instance().set_enabled(false);
  const Graph model = models::build_siamese(models::SiameseConfig::tiny());
  const Partition partition = partition_phased(model);
  DevicePair devices = make_default_device_pair(3);
  Profiler profiler(devices);
  ProfileOptions opts;
  opts.runs = 2;
  opts.with_noise = false;
  const auto profiles = profiler.profile_partition(partition, model, opts);
  EXPECT_EQ(profiles.size(), partition.subgraphs.size());
  // No cache traffic at all.
  const ProfileCache::Stats s = ProfileCache::instance().stats();
  EXPECT_EQ(s.hits + s.misses, 0u);
  for (const SubgraphProfile& p : profiles) {
    EXPECT_GT(p.time_on(DeviceKind::kCpu), 0.0);
    EXPECT_GT(p.time_on(DeviceKind::kGpu), 0.0);
  }
}

// --- engine-level guarantees ----------------------------------------------------

TEST_F(CacheTest, EngineOutputsBitIdenticalCacheOnOff) {
  const auto run = [](bool caches_on) {
    ProfileCache::instance().clear();
    ProfileCache::instance().set_enabled(caches_on);
    CompileCache::instance().clear();
    CompileCache::instance().set_enabled(caches_on);
    DuetOptions opts;
    opts.seed = 5;
    DuetEngine engine(models::build_wide_deep(models::WideDeepConfig::tiny()),
                      opts);
    Rng rng(9);
    const auto feeds = models::make_random_feeds(engine.model(), rng);
    return engine.infer(feeds).outputs;
  };
  const std::vector<Tensor> with_cache = run(true);
  const std::vector<Tensor> without_cache = run(false);
  ASSERT_EQ(with_cache.size(), without_cache.size());
  ASSERT_FALSE(with_cache.empty());
  for (size_t i = 0; i < with_cache.size(); ++i) {
    ASSERT_EQ(with_cache[i].byte_size(), without_cache[i].byte_size());
    EXPECT_EQ(std::memcmp(with_cache[i].raw_data(), without_cache[i].raw_data(),
                          with_cache[i].byte_size()),
              0)
        << "output " << i << " differs between cached and uncached runs";
  }
}

// The cached pipeline and the uncached one reach bit-identical estimates and
// placements: the profiler shares a structural class's measurement with or
// without the caches (siamese and mtdnn have duplicate classes).
TEST_F(CacheTest, EnginePlacementsBitIdenticalCacheOnOff) {
  for (const char* name : {"wide-deep", "siamese", "mtdnn"}) {
    const auto build = [&](bool caches_on) {
      ProfileCache::instance().clear();
      ProfileCache::instance().set_enabled(caches_on);
      CompileCache::instance().clear();
      CompileCache::instance().set_enabled(caches_on);
      return DuetEngine(models::build_by_name_batched(name, 1, /*tiny=*/true));
    };
    const DuetEngine cached = build(true);
    const DuetEngine uncached = build(false);
    EXPECT_EQ(cached.report().schedule.placement,
              uncached.report().schedule.placement)
        << name;
    EXPECT_EQ(cached.report().est_hetero_s, uncached.report().est_hetero_s)
        << name;
    EXPECT_EQ(cached.report().fell_back, uncached.report().fell_back) << name;
  }
}

// A cold engine build runs the pass pipeline once per distinct graph: each
// structural class representative (optimized once, lowered for both
// devices) plus the whole model (both baselines). A warm rebuild runs it
// not at all.
TEST_F(CacheTest, ColdBuildRunsThePassPipelineOncePerGraph) {
  telemetry::ScopedTelemetry on(true);
  const size_t passes =
      PassManager::standard(CompileOptions::compiler_defaults()).passes().size();
  for (const char* name : {"resnet101", "wide-deep"}) {
    CompileCache::instance().clear();
    ProfileCache::instance().clear();
    const Graph model = models::build_by_name_batched(name, 1, /*tiny=*/true);
    const Partition partition = partition_phased(model);
    std::set<uint64_t> classes;
    for (const Subgraph& sub : partition.subgraphs) {
      classes.insert(fingerprint_graph(sub.graph).structural);
    }
    // Every subgraph is its class's representative, so the plan build
    // (which compiles every subgraph) finds each one already optimized.
    ASSERT_EQ(classes.size(), partition.subgraphs.size()) << name;

    telemetry::Counter& pass_runs = telemetry::counter("compiler.pass_runs");
    const uint64_t before = pass_runs.value();
    const DuetEngine cold(model);
    EXPECT_EQ(pass_runs.value() - before, passes * (classes.size() + 1)) << name;

    const uint64_t warm_before = pass_runs.value();
    const DuetEngine warm(model);
    EXPECT_EQ(pass_runs.value() - warm_before, 0u) << name;
    EXPECT_EQ(warm.report().schedule.placement, cold.report().schedule.placement)
        << name;
  }
}

TEST_F(CacheTest, WarmDiskCacheSkipsProfilingInANewProcess) {
  const std::string dir = ::testing::TempDir() + "/duet-warm-engine";
  std::filesystem::remove_all(dir);
  DuetOptions opts;
  opts.profile_cache_dir = dir;

  // Cold run: populates and flushes the disk cache.
  DuetEngine cold(models::build_wide_deep(models::WideDeepConfig::tiny()), opts);
  ASSERT_GT(ProfileCache::instance().stats().misses, 0u);

  // Simulate a fresh process: drop the in-memory map, keep the disk file.
  ProfileCache::instance().close_disk();
  ProfileCache::instance().clear();
  ProfileCache::instance().reset_stats();

  DuetEngine warm(models::build_wide_deep(models::WideDeepConfig::tiny()), opts);
  const ProfileCache::Stats s = ProfileCache::instance().stats();
  EXPECT_EQ(s.misses, 0u) << "warm run must not re-profile anything";
  EXPECT_GT(s.hits, 0u);
  EXPECT_GT(s.disk_loaded, 0u);

  // Same profiles, same decisions, same estimate.
  EXPECT_EQ(cold.report().schedule.placement, warm.report().schedule.placement);
  EXPECT_EQ(cold.report().est_hetero_s, warm.report().est_hetero_s);
  ProfileCache::instance().close_disk();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace duet
