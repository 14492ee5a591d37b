// Tests for the serving runtime: batch-bucket tables, request coalescing
// numerics (batched execution bit-identical to singles, across the zoo), the
// WFQ + EDF + coalescing pickup policy, the ModelRegistry's cross-model
// cache sharing (content-addressed dedup), the virtual-time fleet
// simulator's accounting, and the real-threaded FleetServer: conservation
// per tenant, deterministic rejects, coalesced responses, per-tenant SLO
// windows, bucket-0 swaps, and — serving one model as a fleet of one —
// worker-count determinism, shedding, drain, swap stress, recalibration and
// triggered flight dumps.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <sstream>
#include <thread>
#include <vector>

#include "compiler/compile_cache.hpp"
#include "duet/engine.hpp"
#include "models/model_zoo.hpp"
#include "profile/profile_cache.hpp"
#include "runtime/executor.hpp"
#include "runtime/plan.hpp"
#include "sched/batch_buckets.hpp"
#include "serve/batching.hpp"
#include "serve/fleet.hpp"
#include "serve/fleet_policy.hpp"
#include "serve/model_registry.hpp"
#include "serve/simulator.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/metrics.hpp"

namespace duet {
namespace {

using serve::FleetQueue;
using serve::FleetRequest;
using serve::ModelRegistry;
using serve::ModelRegistryOptions;
using serve::PickResult;
using serve::TenantClass;

// ---------------------------------------------------------------------------
// Batch buckets

TEST(BatchBuckets, SingleBucketWithoutBoundaries) {
  const auto buckets = make_batch_buckets({}, 8);
  ASSERT_EQ(buckets.size(), 1u);
  EXPECT_EQ(buckets[0].lo, 1);
  EXPECT_EQ(buckets[0].hi, 8);
  EXPECT_EQ(bucket_for(buckets, 1), 0u);
  EXPECT_EQ(bucket_for(buckets, 8), 0u);
}

TEST(BatchBuckets, BoundariesSplitTheRange) {
  // Crossover flips at 4 and 16 over [1, 32]: three buckets.
  const auto buckets = make_batch_buckets({4, 16}, 32);
  ASSERT_EQ(buckets.size(), 3u);
  EXPECT_EQ(buckets[0].lo, 1);
  EXPECT_EQ(buckets[0].hi, 3);
  EXPECT_EQ(buckets[1].lo, 4);
  EXPECT_EQ(buckets[1].hi, 15);
  EXPECT_EQ(buckets[2].lo, 16);
  EXPECT_EQ(buckets[2].hi, 32);
  EXPECT_EQ(bucket_for(buckets, 3), 0u);
  EXPECT_EQ(bucket_for(buckets, 4), 1u);
  EXPECT_EQ(bucket_for(buckets, 32), 2u);
  EXPECT_EQ(buckets[1].rep(), 4);
}

TEST(BatchBuckets, DropsOutOfRangeAndDuplicateBoundaries) {
  const auto buckets = make_batch_buckets({0, 1, 4, 4, 99}, 8);
  ASSERT_EQ(buckets.size(), 2u);
  EXPECT_EQ(buckets[1].lo, 4);
}

TEST(BatchBuckets, TruncatesToMaxBucketsKeepingSmallest) {
  const auto buckets = make_batch_buckets({2, 3, 4, 5, 6}, 32, 3);
  ASSERT_EQ(buckets.size(), 3u);
  EXPECT_EQ(buckets[1].lo, 2);
  EXPECT_EQ(buckets[2].lo, 3);
  EXPECT_EQ(buckets[2].hi, 32);
}

TEST(BatchBuckets, BucketForRejectsBadBatch) {
  const auto buckets = make_batch_buckets({}, 8);
  EXPECT_THROW(bucket_for(buckets, 0), Error);
  // Beyond the table clamps to the last bucket (the registry range-checks
  // the batch itself).
  EXPECT_EQ(bucket_for(buckets, 9), 0u);
}

// ---------------------------------------------------------------------------
// Coalescing numerics: batched execution must be bit-identical to singles.

// Runs `name` (tiny) at batch 1 x B and at batch B on an all-CPU plan and
// compares every output byte. Placement does not affect numerics, so the
// all-CPU plan keeps the sweep cheap enough to cover the whole zoo.
void expect_batching_bit_identical(const std::string& name, int64_t batch) {
  SCOPED_TRACE(name);
  Rng rng(7);
  Graph g1 = models::build_by_name_batched(name, 1, /*tiny=*/true);
  Graph gb = models::build_by_name_batched(name, batch, /*tiny=*/true);

  DevicePair devices = make_default_device_pair(42);
  const CompileOptions copts;
  Partition p1 = partition_phased(g1);
  Partition pb = partition_phased(gb);
  ASSERT_EQ(p1.subgraphs.size(), pb.subgraphs.size())
      << "factory(" << batch << ") must partition like factory(1)";
  const Placement cpu(p1.subgraphs.size(), DeviceKind::kCpu);
  const ExecutionPlan plan1 =
      ExecutionPlan::build(g1, std::move(p1), cpu, devices, copts);
  const ExecutionPlan planb =
      ExecutionPlan::build(gb, std::move(pb), cpu, devices, copts);
  SimExecutor executor(devices);

  std::vector<std::map<NodeId, Tensor>> feeds;
  std::vector<ExecutionResult> singles;
  for (int64_t i = 0; i < batch; ++i) {
    feeds.push_back(models::make_random_feeds(g1, rng));
    singles.push_back(executor.run(plan1, feeds.back()));
  }
  std::vector<const std::map<NodeId, Tensor>*> ptrs;
  for (const auto& f : feeds) ptrs.push_back(&f);
  const ExecutionResult batched =
      executor.run(planb, serve::stack_feeds(ptrs));
  const auto rows =
      serve::split_outputs(batched.outputs, static_cast<size_t>(batch));

  ASSERT_EQ(rows.size(), static_cast<size_t>(batch));
  for (int64_t i = 0; i < batch; ++i) {
    ASSERT_EQ(rows[i].size(), singles[i].outputs.size());
    for (size_t o = 0; o < rows[i].size(); ++o) {
      ASSERT_EQ(rows[i][o].shape(), singles[i].outputs[o].shape());
      EXPECT_EQ(std::memcmp(rows[i][o].raw_data(),
                            singles[i].outputs[o].raw_data(),
                            rows[i][o].byte_size()),
                0)
          << name << " output " << o << " row " << i
          << " differs between batched and single execution";
    }
  }
}

TEST(FleetBatching, BitIdenticalAcrossTheZoo) {
  for (const std::string& name : models::zoo_model_names()) {
    expect_batching_bit_identical(name, 3);
  }
}

TEST(FleetBatching, StackFeedsRejectsMismatchedInputSets) {
  Graph g = models::build_by_name_batched("wide-deep", 1, /*tiny=*/true);
  Rng rng(3);
  auto a = models::make_random_feeds(g, rng);
  auto b = a;
  b.erase(b.begin());
  std::vector<const std::map<NodeId, Tensor>*> ptrs{&a, &b};
  EXPECT_THROW(serve::stack_feeds(ptrs), Error);
}

TEST(FleetBatching, SplitOutputsRejectsIndivisibleRows) {
  std::vector<Tensor> outputs;
  outputs.push_back(Tensor::zeros(Shape({3, 2})));
  EXPECT_THROW(serve::split_outputs(outputs, 2), Error);
}

// ---------------------------------------------------------------------------
// FleetQueue: WFQ across tenants, EDF within, coalescing, shedding.

FleetRequest fr(uint64_t id, int tenant, int model, double arrival,
                double deadline = 0.0) {
  FleetRequest r;
  r.id = id;
  r.tenant = tenant;
  r.model = model;
  r.arrival_s = arrival;
  r.deadline_s = deadline;
  return r;
}

TEST(FleetQueue, RejectsWhenFull) {
  FleetQueue q({TenantClass{}}, 2);
  EXPECT_TRUE(q.push(fr(1, 0, 0, 0.0)));
  EXPECT_TRUE(q.push(fr(2, 0, 0, 0.0)));
  EXPECT_FALSE(q.push(fr(3, 0, 0, 0.0)));
  EXPECT_EQ(q.size(), 2u);
}

TEST(FleetQueue, EdfWithinTenant) {
  FleetQueue q({TenantClass{}}, 8);
  ASSERT_TRUE(q.push(fr(1, 0, 0, 0.0, /*deadline=*/9.0)));
  ASSERT_TRUE(q.push(fr(2, 0, 0, 0.0, /*deadline=*/5.0)));
  ASSERT_TRUE(q.push(fr(3, 0, 0, 0.0)));  // no deadline: after deadlined
  const PickResult picked = q.pick(0.0, 1);
  ASSERT_EQ(picked.batch.size(), 1u);
  EXPECT_EQ(picked.batch[0].id, 2u);
}

TEST(FleetQueue, WeightedFairShareUnderContention) {
  // gold weight 2, bronze weight 1, same model, continuous backlog: gold
  // should be served twice as often.
  std::vector<TenantClass> tenants(2);
  tenants[0] = {"gold", 2.0, 0.0};
  tenants[1] = {"bronze", 1.0, 0.0};
  FleetQueue q(tenants, 256);
  uint64_t id = 1;
  for (int i = 0; i < 60; ++i) {
    ASSERT_TRUE(q.push(fr(id++, 0, 0, 0.0)));
    ASSERT_TRUE(q.push(fr(id++, 1, 0, 0.0)));
  }
  int served[2] = {0, 0};
  for (int round = 0; round < 90; ++round) {
    const PickResult picked = q.pick(0.0, 1);
    ASSERT_EQ(picked.batch.size(), 1u);
    const FleetRequest& r = picked.batch[0];
    ++served[r.tenant];
    q.charge(r.tenant, 1.0);  // unit service
  }
  EXPECT_EQ(served[0], 60);
  EXPECT_EQ(served[1], 30);
}

TEST(FleetQueue, IdleTenantBanksNoCredit) {
  // Tenant 1 sleeps while tenant 0 is served; on waking it snaps to the
  // current virtual time instead of replaying the backlog it never had.
  std::vector<TenantClass> tenants(2);
  tenants[0] = {"a", 1.0, 0.0};
  tenants[1] = {"b", 1.0, 0.0};
  FleetQueue q(tenants, 64);
  uint64_t id = 1;
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(q.push(fr(id++, 0, 0, 0.0)));
  for (int i = 0; i < 10; ++i) {
    const PickResult picked = q.pick(0.0, 1);
    ASSERT_EQ(picked.batch.size(), 1u);
    q.charge(0, 1.0);
  }
  // b wakes up: it must not monopolize for 10 picks.
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(q.push(fr(id++, 0, 0, 0.0)));
    ASSERT_TRUE(q.push(fr(id++, 1, 0, 0.0)));
  }
  int first_two[2] = {0, 0};
  for (int i = 0; i < 2; ++i) {
    const PickResult picked = q.pick(0.0, 1);
    ASSERT_EQ(picked.batch.size(), 1u);
    ++first_two[picked.batch[0].tenant];
    q.charge(picked.batch[0].tenant, 1.0);
  }
  EXPECT_EQ(first_two[0], 1);
  EXPECT_EQ(first_two[1], 1);
}

TEST(FleetQueue, CoalescesSameModelAcrossTenants) {
  std::vector<TenantClass> tenants(2);
  tenants[0] = {"a", 1.0, 0.0};
  tenants[1] = {"b", 1.0, 0.0};
  FleetQueue q(tenants, 64);
  ASSERT_TRUE(q.push(fr(1, 0, /*model=*/7, 0.0)));
  ASSERT_TRUE(q.push(fr(2, 1, /*model=*/7, 0.0)));
  ASSERT_TRUE(q.push(fr(3, 0, /*model=*/9, 0.0)));  // different model stays
  const PickResult picked = q.pick(0.0, 8);
  ASSERT_EQ(picked.batch.size(), 2u);
  EXPECT_EQ(picked.batch[0].model, 7);
  EXPECT_EQ(picked.batch[1].model, 7);
  EXPECT_EQ(q.size(), 1u);
  const PickResult rest = q.pick(0.0, 8);
  ASSERT_EQ(rest.batch.size(), 1u);
  EXPECT_EQ(rest.batch[0].model, 9);
}

TEST(FleetQueue, CoalescingRespectsMaxBatch) {
  FleetQueue q({TenantClass{}}, 64);
  for (uint64_t i = 1; i <= 10; ++i) ASSERT_TRUE(q.push(fr(i, 0, 0, 0.0)));
  const PickResult picked = q.pick(0.0, 4);
  EXPECT_EQ(picked.batch.size(), 4u);
  EXPECT_EQ(q.size(), 6u);
}

TEST(FleetQueue, ShedsExpiredRequests) {
  FleetQueue q({TenantClass{}}, 64);
  ASSERT_TRUE(q.push(fr(1, 0, 0, 0.0, /*deadline=*/1.0)));
  ASSERT_TRUE(q.push(fr(2, 0, 0, 0.0, /*deadline=*/10.0)));
  const PickResult picked = q.pick(/*now=*/5.0, 8);
  ASSERT_EQ(picked.shed.size(), 1u);
  EXPECT_EQ(picked.shed[0].id, 1u);
  ASSERT_EQ(picked.batch.size(), 1u);
  EXPECT_EQ(picked.batch[0].id, 2u);
}

TEST(FleetQueue, DeterministicAcrossRuns) {
  const auto run = [] {
    std::vector<TenantClass> tenants = serve::default_tenant_classes(3);
    FleetQueue q(tenants, 128);
    uint64_t id = 1;
    std::vector<uint64_t> order;
    for (int i = 0; i < 30; ++i) {
      EXPECT_TRUE(q.push(fr(id, static_cast<int>(id % 3),
                            static_cast<int>(id % 2), 0.01 * i)));
      ++id;
    }
    while (!q.empty()) {
      const PickResult picked = q.pick(1.0, 3);
      for (const FleetRequest& r : picked.batch) {
        order.push_back(r.id);
        q.charge(r.tenant, 0.5);
      }
    }
    return order;
  };
  const std::vector<uint64_t> a = run();
  const std::vector<uint64_t> b = run();
  EXPECT_EQ(a.size(), 30u);
  EXPECT_EQ(a, b);
}

// ---------------------------------------------------------------------------
// ModelRegistry: bucket plans + the PR-4 cache dedup surface (S4).

class FleetRegistryTest : public ::testing::Test {
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

  static ModelRegistryOptions tiny_options(int64_t max_batch = 4) {
    ModelRegistryOptions o;
    o.max_batch = max_batch;
    o.engine.enable_fallback = false;
    return o;
  }
};

TEST_F(FleetRegistryTest, BucketTableCoversTheRangeWithAlignedPlacements) {
  ModelRegistry registry(tiny_options(8));
  const int idx = registry.register_model(
      "wide-deep", models::zoo_batched_factory("wide-deep", /*tiny=*/true));
  serve::ResidentModel& m = registry.model(idx);
  ASSERT_FALSE(m.buckets().empty());
  EXPECT_EQ(m.buckets().front().lo, 1);
  EXPECT_EQ(m.buckets().back().hi, 8);
  for (size_t b = 0; b < m.buckets().size(); ++b) {
    EXPECT_EQ(m.bucket_placement(b).size(),
              m.engine().partition().subgraphs.size());
  }
  for (int64_t batch = 1; batch <= 8; ++batch) {
    EXPECT_LT(m.bucket_of(batch), m.buckets().size());
  }
}

TEST_F(FleetRegistryTest, PlanSnapshotsAreSharedAcrossLookups) {
  ModelRegistry registry(tiny_options());
  const int idx = registry.register_model(
      "wide-deep", models::zoo_batched_factory("wide-deep", /*tiny=*/true));
  serve::ResidentModel& m = registry.model(idx);
  const auto first = m.plan_for_batch(2);
  const auto second = m.plan_for_batch(2);
  EXPECT_EQ(first.get(), second.get()) << "plan cache must share snapshots";
  EXPECT_THROW(m.plan_for_batch(0), Error);
  EXPECT_THROW(m.plan_for_batch(99), Error);
  EXPECT_GT(m.modeled_service_s(2), 0.0);
  EXPECT_GT(m.baseline_service_s(2), 0.0);
}

TEST_F(FleetRegistryTest, StructurallyIdenticalTwinIsFullyCacheWarm) {
  // The S4 gate: a second registration of a structurally identical model
  // must compile nothing new — 100% warm compile-cache hits and zero new
  // profiler compiles (the profile.compiles counter stands still).
  ModelRegistry registry(tiny_options());
  registry.register_model(
      "wide-deep-a", models::zoo_batched_factory("wide-deep", /*tiny=*/true));
  const uint64_t compiles_before =
      telemetry::counter("profile.compiles").value();

  registry.register_model(
      "wide-deep-b", models::zoo_batched_factory("wide-deep", /*tiny=*/true));

  const uint64_t compiles_after =
      telemetry::counter("profile.compiles").value();
  EXPECT_EQ(compiles_after, compiles_before)
      << "second registration must not re-compile for profiling";

  const serve::RegistryCacheStats& stats = registry.cache_stats();
  ASSERT_EQ(stats.registrations.size(), 2u);
  const serve::RegistrationCacheDelta& twin = stats.registrations[1];
  EXPECT_EQ(twin.model, "wide-deep-b");
  EXPECT_EQ(twin.compile_misses, 0u)
      << "twin registration compiled something the cache should have had";
  EXPECT_GT(twin.compile_hits, 0u);
  EXPECT_DOUBLE_EQ(twin.compile_hit_rate(), 1.0);
  EXPECT_EQ(twin.profile_misses, 0u);
  EXPECT_GT(twin.profile_hits, 0u);
  EXPECT_FALSE(stats.to_string().empty());
}

TEST_F(FleetRegistryTest, RejectsDuplicateNamesAndUnknownIndices) {
  ModelRegistry registry(tiny_options());
  registry.register_model(
      "wide-deep", models::zoo_batched_factory("wide-deep", /*tiny=*/true));
  EXPECT_THROW(registry.register_model(
                   "wide-deep",
                   models::zoo_batched_factory("wide-deep", /*tiny=*/true)),
               Error);
  EXPECT_EQ(registry.index_of("nope"), -1);
  EXPECT_THROW(registry.model(5), Error);
}

// ---------------------------------------------------------------------------
// Virtual-time fleet simulator

TEST(FleetSim, ConservationPerTenant) {
  serve::FleetSimConfig config;
  config.workers = 1;
  config.queue_capacity = 4;
  config.tenants = serve::default_tenant_classes(2, /*deadline_s=*/0.05);
  config.max_batch = 2;
  std::vector<serve::FleetSimRequest> requests;
  for (int i = 0; i < 40; ++i) {
    serve::FleetSimRequest r;
    r.arrival_s = 0.001 * i;
    r.tenant = i % 2;
    r.model = 0;
    requests.push_back(r);
  }
  const serve::FleetSimStats stats = serve::simulate_fleet(
      requests, [](int, int64_t) { return 0.02; }, config);
  uint64_t offered = 0;
  for (const serve::FleetTenantStats& t : stats.tenants) {
    EXPECT_EQ(t.admission.offered, t.admission.completed + t.admission.shed +
                                       t.admission.rejected)
        << "conservation violated for tenant " << t.name;
    offered += t.admission.offered;
  }
  EXPECT_EQ(offered, 40u);
  EXPECT_EQ(stats.total.offered, 40u);
}

TEST(FleetSim, BurstsCoalesceIntoBatches) {
  serve::FleetSimConfig config;
  config.workers = 1;
  config.queue_capacity = 64;
  config.max_batch = 8;
  std::vector<serve::FleetSimRequest> requests;
  for (int i = 0; i < 32; ++i) {
    serve::FleetSimRequest r;
    r.arrival_s = 0.0;  // one burst
    r.tenant = 0;
    r.model = 0;
    requests.push_back(r);
  }
  const serve::FleetSimStats stats = serve::simulate_fleet(
      requests, [](int, int64_t b) { return 0.01 + 0.001 * double(b); },
      config);
  EXPECT_EQ(stats.total.completed, 32u);
  EXPECT_EQ(stats.batches, 4u) << "a burst of 32 at max_batch 8 is 4 batches";
  EXPECT_DOUBLE_EQ(stats.mean_batch, 8.0);
  EXPECT_EQ(stats.coalesced_requests, 32u);
}

TEST(FleetSim, BatchingBeatsSinglesOnThroughput) {
  // Sub-linear batch service (the whole point of coalescing): the batched
  // fleet finishes the same open-loop burst strictly faster.
  std::vector<serve::FleetSimRequest> requests;
  for (int i = 0; i < 64; ++i) {
    serve::FleetSimRequest r;
    r.arrival_s = 0.0001 * i;
    requests.push_back(r);
  }
  const auto service = [](int, int64_t b) {
    return 0.01 + 0.002 * static_cast<double>(b);
  };
  serve::FleetSimConfig batched;
  batched.queue_capacity = 128;
  batched.max_batch = 8;
  serve::FleetSimConfig singles = batched;
  singles.max_batch = 1;
  const auto with = serve::simulate_fleet(requests, service, batched);
  const auto without = serve::simulate_fleet(requests, service, singles);
  EXPECT_EQ(with.total.completed, 64u);
  EXPECT_EQ(without.total.completed, 64u);
  EXPECT_GT(with.throughput_qps, without.throughput_qps);
  EXPECT_LT(with.makespan_s, without.makespan_s);
}

TEST(FleetSim, WeightsShapeThroughputUnderOverload) {
  // Deadlined overload: the heavier tenant completes more and sheds less.
  serve::FleetSimConfig config;
  config.workers = 1;
  config.queue_capacity = 256;
  config.tenants = serve::default_tenant_classes(2, /*deadline_s=*/0.2);
  config.max_batch = 1;
  std::vector<serve::FleetSimRequest> requests;
  for (int i = 0; i < 200; ++i) {
    serve::FleetSimRequest r;
    r.arrival_s = 0.0005 * i;
    r.tenant = i % 2;
    requests.push_back(r);
  }
  const auto stats = serve::simulate_fleet(
      requests, [](int, int64_t) { return 0.01; }, config);
  EXPECT_GT(stats.tenants[0].admission.completed,
            stats.tenants[1].admission.completed)
      << "gold (weight 4) must outrun silver (weight 2) under overload";
}

// ---------------------------------------------------------------------------
// FleetServer (real threads)

class FleetServerTest : public FleetRegistryTest {};

TEST_F(FleetServerTest, CoalescedResponsesAreBitIdenticalToSingles) {
  ModelRegistry registry(tiny_options());
  const int idx = registry.register_model(
      "wide-deep", models::zoo_batched_factory("wide-deep", /*tiny=*/true));
  serve::ResidentModel& m = registry.model(idx);

  Rng rng(11);
  const Graph& g = m.engine().model();
  std::vector<std::map<NodeId, Tensor>> feeds;
  for (int i = 0; i < 3; ++i) feeds.push_back(models::make_random_feeds(g, rng));

  // Reference: each request alone through the batch-1 plan.
  DevicePair devices = make_default_device_pair(42);
  SimExecutor executor(devices);
  const auto plan1 = m.plan_for_batch(1);
  std::vector<ExecutionResult> singles;
  for (const auto& f : feeds) singles.push_back(executor.run(*plan1, f));

  serve::FleetOptions options;
  options.workers = 1;
  options.max_batch = 4;
  options.start_paused = true;  // all three queue before the single pickup
  serve::FleetServer server(registry, options);
  std::vector<std::future<serve::FleetResponse>> futures;
  for (const auto& f : feeds) futures.push_back(server.submit(idx, 0, f));
  server.resume();
  for (size_t i = 0; i < futures.size(); ++i) {
    const serve::FleetResponse r = futures[i].get();
    ASSERT_EQ(r.status, serve::RequestStatus::kOk);
    EXPECT_EQ(r.batch, 3) << "paused submits must coalesce into one batch";
    ASSERT_EQ(r.outputs.size(), singles[i].outputs.size());
    for (size_t o = 0; o < r.outputs.size(); ++o) {
      EXPECT_EQ(std::memcmp(r.outputs[o].raw_data(),
                            singles[i].outputs[o].raw_data(),
                            r.outputs[o].byte_size()),
                0)
          << "coalesced row " << i << " output " << o << " diverged";
    }
  }
  server.shutdown();
  const serve::FleetServerStats stats = server.stats();
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.coalesced_requests, 3u);
  EXPECT_EQ(stats.batch_histogram.at(3), 1u);
}

TEST_F(FleetServerTest, PerTenantConservationAndRejects) {
  ModelRegistry registry(tiny_options());
  const int idx = registry.register_model(
      "wide-deep", models::zoo_batched_factory("wide-deep", /*tiny=*/true));

  serve::FleetOptions options;
  options.workers = 1;
  options.queue_capacity = 4;
  options.tenants = serve::default_tenant_classes(2);
  options.start_paused = true;  // deterministic rejects: nothing drains
  serve::FleetServer server(registry, options);

  Rng rng(5);
  const auto feeds =
      models::make_random_feeds(registry.model(idx).engine().model(), rng);
  std::vector<std::future<serve::FleetResponse>> futures;
  for (int i = 0; i < 6; ++i) {
    futures.push_back(server.submit(idx, i % 2, feeds));
  }
  // Capacity 4: the last two must have been rejected immediately.
  int rejected = 0;
  for (int i = 4; i < 6; ++i) {
    if (futures[i].get().status == serve::RequestStatus::kRejected) ++rejected;
  }
  EXPECT_EQ(rejected, 2);
  server.resume();
  server.drain();
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(futures[i].get().status, serve::RequestStatus::kOk);
  }
  const serve::FleetServerStats stats = server.stats();
  ASSERT_EQ(stats.tenants.size(), 2u);
  uint64_t offered = 0;
  for (const serve::FleetTenantStats& t : stats.tenants) {
    EXPECT_EQ(t.admission.offered, t.admission.completed + t.admission.shed +
                                       t.admission.rejected)
        << "conservation violated for tenant " << t.name;
    offered += t.admission.offered;
  }
  EXPECT_EQ(offered, 6u);
  EXPECT_EQ(stats.total.rejected, 2u);
  EXPECT_EQ(stats.total.completed, 4u);
}

// The fleet.offered.<tenant> series counts every arrival, rejected or not,
// as the admission counters in stats() do.
TEST_F(FleetServerTest, OfferedMetricCountsRejectedArrivals) {
  telemetry::ScopedTelemetry on(true);
  ModelRegistry registry(tiny_options());
  const int idx = registry.register_model(
      "wide-deep", models::zoo_batched_factory("wide-deep", /*tiny=*/true));

  serve::FleetOptions options;
  options.workers = 1;
  options.queue_capacity = 1;
  options.tenants = serve::default_tenant_classes(2);
  options.start_paused = true;  // the first arrival fills the queue
  // Metrics live for the process, so the test reads their deltas.
  std::vector<uint64_t> offered_before;
  std::vector<uint64_t> rejected_before;
  for (const TenantClass& t : options.tenants) {
    offered_before.push_back(telemetry::counter("fleet.offered." + t.name).value());
    rejected_before.push_back(telemetry::counter("fleet.rejected." + t.name).value());
  }
  serve::FleetServer server(registry, options);

  Rng rng(5);
  const auto feeds =
      models::make_random_feeds(registry.model(idx).engine().model(), rng);
  std::vector<std::future<serve::FleetResponse>> futures;
  for (int i = 0; i < 6; ++i) futures.push_back(server.submit(idx, i % 2, feeds));
  server.resume();
  server.drain();
  for (auto& f : futures) f.get();

  const serve::FleetServerStats stats = server.stats();
  ASSERT_EQ(stats.tenants.size(), 2u);
  EXPECT_EQ(stats.total.rejected, 5u);
  for (size_t t = 0; t < options.tenants.size(); ++t) {
    const std::string& name = options.tenants[t].name;
    const uint64_t offered =
        telemetry::counter("fleet.offered." + name).value() - offered_before[t];
    const uint64_t rejected =
        telemetry::counter("fleet.rejected." + name).value() - rejected_before[t];
    const auto& admission = stats.tenants[t].admission;
    EXPECT_GT(rejected, 0u) << name;
    EXPECT_EQ(rejected, admission.rejected) << name;
    EXPECT_EQ(offered, admission.accepted + rejected) << name;
    EXPECT_EQ(offered, admission.offered) << name;
  }
}

TEST_F(FleetServerTest, ServesMultipleResidentModels) {
  ModelRegistry registry(tiny_options());
  const int wd = registry.register_model(
      "wide-deep", models::zoo_batched_factory("wide-deep", /*tiny=*/true));
  const int sm = registry.register_model(
      "siamese", models::zoo_batched_factory("siamese", /*tiny=*/true));

  serve::FleetOptions options;
  options.workers = 2;
  serve::FleetServer server(registry, options);
  Rng rng(9);
  const auto wd_feeds =
      models::make_random_feeds(registry.model(wd).engine().model(), rng);
  const auto sm_feeds =
      models::make_random_feeds(registry.model(sm).engine().model(), rng);
  std::vector<std::future<serve::FleetResponse>> futures;
  for (int i = 0; i < 4; ++i) {
    futures.push_back(server.submit(wd, 0, wd_feeds));
    futures.push_back(server.submit(sm, 0, sm_feeds));
  }
  server.drain();
  for (auto& f : futures) {
    EXPECT_EQ(f.get().status, serve::RequestStatus::kOk);
  }
  EXPECT_EQ(server.stats().total.completed, 8u);
}

TEST_F(FleetServerTest, ExpiredDeadlinesAreShedNotExecuted) {
  ModelRegistry registry(tiny_options());
  const int idx = registry.register_model(
      "wide-deep", models::zoo_batched_factory("wide-deep", /*tiny=*/true));
  serve::FleetOptions options;
  options.workers = 1;
  options.start_paused = true;
  serve::FleetServer server(registry, options);
  Rng rng(5);
  const auto feeds =
      models::make_random_feeds(registry.model(idx).engine().model(), rng);
  auto doomed = server.submit(idx, 0, feeds, /*deadline_s=*/1e-4);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  server.resume();
  const serve::FleetResponse r = doomed.get();
  EXPECT_EQ(r.status, serve::RequestStatus::kShed);
  EXPECT_TRUE(r.outputs.empty());
  server.drain();
  EXPECT_EQ(server.stats().total.shed, 1u);
}

TEST_F(FleetServerTest, PerTenantSloBreachAccounting) {
  ModelRegistry registry(tiny_options());
  const int idx = registry.register_model(
      "wide-deep", models::zoo_batched_factory("wide-deep", /*tiny=*/true));
  serve::FleetOptions options;
  options.workers = 2;
  options.tenants = serve::default_tenant_classes(3);
  // A window far longer than the test, so slow (sanitizer) runs cannot age
  // the submits out of it before the snapshot.
  options.observability.slo_window_s = 3600.0;
  serve::FleetServer server(registry, options);
  Rng rng(24);
  const auto feeds =
      models::make_random_feeds(registry.model(idx).engine().model(), rng);

  // Gold and bronze send healthy traffic; every silver request arrives with
  // a deadline that has already expired, so each one sheds and breaches.
  std::vector<std::future<serve::FleetResponse>> healthy;
  std::vector<std::future<serve::FleetResponse>> doomed;
  for (int i = 0; i < 4; ++i) healthy.push_back(server.submit(idx, 0, feeds));
  for (int i = 0; i < 3; ++i) {
    doomed.push_back(server.submit(idx, 1, feeds, /*deadline_s=*/1e-9));
  }
  for (int i = 0; i < 2; ++i) healthy.push_back(server.submit(idx, 2, feeds));
  server.drain();
  for (auto& f : healthy) EXPECT_EQ(f.get().status, serve::RequestStatus::kOk);
  for (auto& f : doomed) EXPECT_EQ(f.get().status, serve::RequestStatus::kShed);

  const telemetry::SloSnapshot gold = server.slo_snapshot(0);
  const telemetry::SloSnapshot silver = server.slo_snapshot(1);
  const telemetry::SloSnapshot bronze = server.slo_snapshot(2);
  EXPECT_EQ(gold.offered, 4u);
  EXPECT_EQ(gold.completed, 4u);
  EXPECT_EQ(gold.breaches, 0u);
  EXPECT_EQ(silver.offered, 3u);
  EXPECT_EQ(silver.completed, 0u);
  EXPECT_EQ(silver.shed, 3u);
  EXPECT_EQ(silver.breaches, 3u) << "a shed is a breach of its own tenant";
  EXPECT_EQ(bronze.offered, 2u);
  EXPECT_EQ(bronze.completed, 2u);
  EXPECT_EQ(bronze.breaches, 0u);
  EXPECT_EQ(server.stats().slo_breaches, 3u);
}

TEST_F(FleetServerTest, BaseSwapLeavesOtherBucketPlansUntouched) {
  // Full-size wide-deep flips placement inside [1, 4]: buckets [1,3][4,4].
  ModelRegistry registry(tiny_options(4));
  const int idx = registry.register_model(
      "wide-deep", models::zoo_batched_factory("wide-deep"));
  serve::ResidentModel& m = registry.model(idx);
  ASSERT_EQ(m.buckets().size(), 2u) << buckets_to_string(m.buckets());
  const auto b1 = m.plan_for_batch(1);
  const auto b3 = m.plan_for_batch(3);
  const auto b4 = m.plan_for_batch(4);
  const Placement upper = m.bucket_placement(1);

  serve::FleetOptions options;
  options.workers = 1;
  serve::FleetServer server(registry, options);
  Placement flipped = m.bucket_placement(0);
  flipped.flip(0);
  server.apply_placement(idx, flipped);

  EXPECT_EQ(m.plan_version(), 2u);
  EXPECT_EQ(server.stats().swap_count, 1u);
  EXPECT_EQ(m.bucket_placement(0), flipped);
  EXPECT_EQ(m.bucket_placement(1), upper);
  EXPECT_EQ(m.plan_for_batch(4).get(), b4.get())
      << "a bucket-0 swap must leave bucket 1's plan in place";
  EXPECT_NE(m.plan_for_batch(1).get(), b1.get());
  EXPECT_EQ(m.plan_for_batch(1)->placement(), flipped);
  EXPECT_NE(m.plan_for_batch(3).get(), b3.get());
  EXPECT_EQ(m.plan_for_batch(3)->placement(), flipped)
      << "every bucket-0 batch size rebuilds under the new placement";
}

TEST_F(FleetServerTest, CoalescedRunsAddNoDriftSamples) {
  ModelRegistry registry(tiny_options());
  const int idx = registry.register_model(
      "wide-deep", models::zoo_batched_factory("wide-deep", /*tiny=*/true));
  serve::FleetOptions options;
  options.workers = 1;
  options.max_batch = 4;
  options.start_paused = true;  // all three queue before the single pickup
  serve::FleetServer server(registry, options);
  Rng rng(26);
  const auto feeds =
      models::make_random_feeds(registry.model(idx).engine().model(), rng);
  std::vector<std::future<serve::FleetResponse>> futures;
  for (int i = 0; i < 3; ++i) futures.push_back(server.submit(idx, 0, feeds));
  server.resume();
  for (auto& f : futures) ASSERT_EQ(f.get().batch, 3);
  EXPECT_EQ(server.stats().drift_samples, 0u)
      << "a B=3 execution must not feed bucket 0's B=1 recalibration";

  const serve::FleetResponse single = server.submit(idx, 0, feeds).get();
  ASSERT_EQ(single.batch, 1);
  EXPECT_GT(server.stats().drift_samples, 0u);
}

// ---------------------------------------------------------------------------
// One model served as a fleet of one (one resident model at max_batch 1,
// one tenant): worker-count determinism, shedding, rejects, drain, plan
// swaps, recalibration, SLO windows and triggered flight dumps.

Graph tiny_model() {
  return models::build_wide_deep(models::WideDeepConfig::tiny());
}

serve::ModelRegistry tiny_fleet_of_one() {
  DuetOptions o;
  o.enable_fallback = false;  // keep the heterogeneous plan
  return serve::single_model_registry(tiny_model(), o);
}

serve::FleetOptions one_model_options() {
  serve::FleetOptions o;
  o.max_batch = 1;
  return o;
}

// A flipped copy of the served placement, for forced swaps.
Placement flipped_placement(serve::ModelRegistry& registry) {
  Placement flipped = registry.model(0).bucket_placement(0);
  flipped.flip(0);
  return flipped;
}

// Stress knobs for the threaded-server tests. The defaults keep CI fast;
// the TSan job turns them up (more workers, more in-flight requests) so the
// race detector sees far more interleavings without a code change:
//   DUET_SERVE_STRESS_WORKERS  worker-thread count        (default: base)
//   DUET_SERVE_STRESS_ITERS    request-count multiplier   (default: 1)
int stress_workers(int base) {
  if (const char* env = std::getenv("DUET_SERVE_STRESS_WORKERS")) {
    const int v = std::atoi(env);
    if (v > 0) return v;
  }
  return base;
}

int stress_iters(int base) {
  if (const char* env = std::getenv("DUET_SERVE_STRESS_ITERS")) {
    const int mult = std::atoi(env);
    if (mult > 0) return base * mult;
  }
  return base;
}

TEST(ServeServer, OutputsBitIdenticalForOneAndManyWorkers) {
  DuetOptions eopts;
  eopts.enable_fallback = false;
  DuetEngine reference(tiny_model(), eopts);
  Rng rng(4);
  const auto feeds = models::make_random_feeds(reference.model(), rng);
  const ExecutionResult expect = reference.infer(feeds);

  for (int workers : {1, stress_workers(4)}) {
    serve::ModelRegistry registry = tiny_fleet_of_one();
    serve::FleetOptions opts = one_model_options();
    opts.workers = workers;
    serve::FleetServer server(registry, opts);
    std::vector<std::future<serve::FleetResponse>> futures;
    const int requests = stress_iters(6);
    for (int i = 0; i < requests; ++i) {
      futures.push_back(server.submit(0, 0, feeds));
    }
    for (auto& f : futures) {
      const serve::FleetResponse r = f.get();
      ASSERT_EQ(r.status, serve::RequestStatus::kOk);
      ASSERT_EQ(r.outputs.size(), expect.outputs.size());
      for (size_t i = 0; i < r.outputs.size(); ++i) {
        ASSERT_EQ(r.outputs[i].byte_size(), expect.outputs[i].byte_size());
        EXPECT_EQ(std::memcmp(r.outputs[i].raw_data(),
                              expect.outputs[i].raw_data(),
                              r.outputs[i].byte_size()),
                  0)
            << workers << " workers must serve bit-identical outputs";
      }
      EXPECT_DOUBLE_EQ(r.modeled_latency_s, expect.latency_s)
          << "modeled service time is a property of the plan, not the worker";
    }
    server.shutdown();
  }
}

TEST(ServeServer, ExpiredDeadlinesAreShedNotExecuted) {
  serve::ModelRegistry registry = tiny_fleet_of_one();
  serve::FleetOptions opts = one_model_options();
  opts.workers = 2;
  opts.start_paused = true;
  opts.tenants = {TenantClass{}};
  opts.tenants.front().deadline_s = 1e-4;
  serve::FleetServer server(registry, opts);
  Rng rng(6);
  const auto feeds =
      models::make_random_feeds(registry.model(0).engine().model(), rng);
  std::vector<std::future<serve::FleetResponse>> futures;
  for (int i = 0; i < 4; ++i) futures.push_back(server.submit(0, 0, feeds));
  // Workers are paused; every deadline expires before service can start.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  server.resume();
  server.drain();
  for (auto& f : futures) {
    EXPECT_EQ(f.get().status, serve::RequestStatus::kShed);
  }
  const serve::FleetServerStats s = server.stats();
  EXPECT_EQ(s.total.offered, 4u);
  EXPECT_EQ(s.total.accepted, 4u);
  EXPECT_EQ(s.total.shed, 4u);
  EXPECT_EQ(s.total.completed, 0u);
}

TEST(ServeServer, FullQueueRejectsImmediately) {
  serve::ModelRegistry registry = tiny_fleet_of_one();
  serve::FleetOptions opts = one_model_options();
  opts.workers = 1;
  opts.queue_capacity = 3;
  opts.start_paused = true;
  serve::FleetServer server(registry, opts);
  Rng rng(8);
  const auto feeds =
      models::make_random_feeds(registry.model(0).engine().model(), rng);
  std::vector<std::future<serve::FleetResponse>> futures;
  for (int i = 0; i < 5; ++i) futures.push_back(server.submit(0, 0, feeds));
  // Paused workers: arrivals 4 and 5 found the 3-deep queue full and must
  // already be resolved as rejected.
  for (int i = 3; i < 5; ++i) {
    ASSERT_EQ(futures[static_cast<size_t>(i)].wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    EXPECT_EQ(futures[static_cast<size_t>(i)].get().status,
              serve::RequestStatus::kRejected);
  }
  server.resume();
  server.drain();
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(futures[static_cast<size_t>(i)].get().status,
              serve::RequestStatus::kOk);
  }
  const serve::FleetServerStats s = server.stats();
  EXPECT_EQ(s.total.offered, 5u);
  EXPECT_EQ(s.total.accepted, 3u);
  EXPECT_EQ(s.total.rejected, 2u);
  EXPECT_EQ(s.total.completed, 3u);
}

TEST(ServeServer, DrainResolvesEveryInFlightRequest) {
  serve::ModelRegistry registry = tiny_fleet_of_one();
  serve::FleetOptions opts = one_model_options();
  opts.workers = stress_workers(2);
  const int requests = stress_iters(8);
  // Scale capacity with the request count so the stress run never trades
  // drain coverage for reject coverage.
  opts.queue_capacity = static_cast<size_t>(requests);
  serve::FleetServer server(registry, opts);
  Rng rng(10);
  const auto feeds =
      models::make_random_feeds(registry.model(0).engine().model(), rng);
  std::vector<std::future<serve::FleetResponse>> futures;
  for (int i = 0; i < requests; ++i) {
    futures.push_back(server.submit(0, 0, feeds));
  }
  server.drain();
  for (auto& f : futures) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready)
        << "drain must not return while a request is unresolved";
    EXPECT_EQ(f.get().status, serve::RequestStatus::kOk);
  }
  EXPECT_EQ(server.stats().total.completed, static_cast<uint64_t>(requests));
  // A drained server is closed for business.
  EXPECT_EQ(server.submit(0, 0, feeds).get().status,
            serve::RequestStatus::kRejected);
}

// The threaded twin of the model checker's abstract protocol
// (analysis/model_check): producers submitting, workers picking, a swapper
// flipping placements mid-stream, then drain. Under TSan with the stress env
// knobs turned up this is the main interleaving amplifier.
TEST(ServeServer, ConcurrentSubmitSwapDrainStress) {
  serve::ModelRegistry registry = tiny_fleet_of_one();
  serve::FleetOptions opts = one_model_options();
  opts.workers = stress_workers(2);
  const int per_producer = stress_iters(4);
  constexpr int kProducers = 2;
  opts.queue_capacity = static_cast<size_t>(kProducers * per_producer);
  serve::FleetServer server(registry, opts);
  Rng rng(16);
  const auto feeds =
      models::make_random_feeds(registry.model(0).engine().model(), rng);

  std::vector<std::future<serve::FleetResponse>> futures[kProducers];
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < per_producer; ++i) {
        futures[p].push_back(server.submit(0, 0, feeds));
      }
    });
  }
  std::thread swapper(
      [&] { server.apply_placement(0, flipped_placement(registry)); });
  for (auto& t : producers) t.join();
  swapper.join();
  server.drain();

  uint64_t ok = 0;
  for (auto& fs : futures) {
    for (auto& f : fs) {
      const serve::FleetResponse r = f.get();
      // Admission is closed-loop here (capacity == total submissions), so
      // every request resolves kOk regardless of swap timing.
      ASSERT_EQ(r.status, serve::RequestStatus::kOk);
      ++ok;
    }
  }
  const serve::FleetServerStats stats = server.stats();
  EXPECT_EQ(stats.swap_count, 1u);
  EXPECT_EQ(stats.total.completed, ok);
  // Conservation — the invariant the model checker proves exhaustively on
  // the abstraction must hold on the real implementation too.
  EXPECT_EQ(stats.total.offered,
            stats.total.completed + stats.total.shed + stats.total.rejected);
}

TEST(ServeServer, PlacementSwapPreservesNumericsExactly) {
  serve::ModelRegistry registry = tiny_fleet_of_one();
  serve::FleetOptions opts = one_model_options();
  opts.workers = 1;
  serve::FleetServer server(registry, opts);
  Rng rng(12);
  const auto feeds =
      models::make_random_feeds(registry.model(0).engine().model(), rng);
  const serve::FleetResponse before = server.submit(0, 0, feeds).get();
  ASSERT_EQ(before.status, serve::RequestStatus::kOk);

  const Placement flipped = flipped_placement(registry);
  server.apply_placement(0, flipped);
  EXPECT_EQ(server.stats().swap_count, 1u);
  EXPECT_EQ(registry.model(0).bucket_placement(0), flipped);

  const serve::FleetResponse after = server.submit(0, 0, feeds).get();
  ASSERT_EQ(after.status, serve::RequestStatus::kOk);
  EXPECT_GT(after.plan_version, before.plan_version);
  ASSERT_EQ(after.outputs.size(), before.outputs.size());
  for (size_t i = 0; i < after.outputs.size(); ++i) {
    ASSERT_EQ(after.outputs[i].byte_size(), before.outputs[i].byte_size());
    EXPECT_EQ(std::memcmp(after.outputs[i].raw_data(),
                          before.outputs[i].raw_data(),
                          after.outputs[i].byte_size()),
              0)
        << "a placement swap must never change what the model computes";
  }
}

TEST(ServeServer, RecalibrateNowUsesObservedDrift) {
  serve::ModelRegistry registry = tiny_fleet_of_one();
  serve::FleetOptions opts = one_model_options();
  opts.workers = 2;
  opts.recalibration.min_samples = 1;
  serve::FleetServer server(registry, opts);
  Rng rng(14);
  const auto feeds =
      models::make_random_feeds(registry.model(0).engine().model(), rng);
  std::vector<std::future<serve::FleetResponse>> futures;
  for (int i = 0; i < 4; ++i) futures.push_back(server.submit(0, 0, feeds));
  for (auto& f : futures) ASSERT_EQ(f.get().status, serve::RequestStatus::kOk);
  server.drain();

  const serve::FleetServerStats stats = server.stats();
  EXPECT_GT(stats.drift_samples, 0u);
  const serve::RecalibrationResult r = server.recalibrate_now(0);
  EXPECT_GT(r.overridden_cells, 0u);
  EXPECT_GT(r.predicted_current_s, 0.0);
  // Noise-free serving observes exactly the profiled costs, so recalibration
  // must see no win worth a swap.
  EXPECT_FALSE(r.swapped);
  EXPECT_EQ(server.stats().swap_count, 0u);
  EXPECT_EQ(server.stats().recalibrations, 1u);
}

TEST(ServeRecal, EmptyWindowRecalibrationIsSafeNoOp) {
  // A server that has served nothing has empty SLO windows and zero drift
  // samples; recalibrate_now must skip the scheduler rerun entirely instead
  // of re-deriving (and possibly swapping to) the offline decision.
  serve::ModelRegistry registry = tiny_fleet_of_one();
  serve::FleetOptions opts = one_model_options();
  opts.workers = 1;
  serve::FleetServer server(registry, opts);
  const Placement before = registry.model(0).bucket_placement(0);
  for (int i = 0; i < 2; ++i) {
    const serve::RecalibrationResult r = server.recalibrate_now(0);
    EXPECT_FALSE(r.swapped);
    EXPECT_EQ(r.overridden_cells, 0u);
    EXPECT_EQ(r.placement, before);
  }
  EXPECT_EQ(server.stats().swap_count, 0u);
  EXPECT_EQ(registry.model(0).bucket_placement(0), before);
}

// Drift recording (workers, under the model's drift mutex) racing
// recalibration's snapshot-and-swap. The TSan job turns the stress knobs
// up; the assertion here is conservation plus "no crash, no torn
// accumulator".
TEST(ServeServer, ConcurrentRecordDuringSwapStress) {
  serve::ModelRegistry registry = tiny_fleet_of_one();
  serve::FleetOptions opts = one_model_options();
  opts.workers = stress_workers(2);
  opts.recalibration.min_samples = 1;
  const int requests = stress_iters(8);
  opts.queue_capacity = static_cast<size_t>(requests);
  serve::FleetServer server(registry, opts);
  Rng rng(18);
  const auto feeds =
      models::make_random_feeds(registry.model(0).engine().model(), rng);

  std::vector<std::future<serve::FleetResponse>> futures;
  std::thread producer([&] {
    for (int i = 0; i < requests; ++i) {
      futures.push_back(server.submit(0, 0, feeds));
    }
  });
  std::thread recalibrator([&] {
    for (int i = 0; i < 4; ++i) server.recalibrate_now(0);
  });
  std::thread swapper(
      [&] { server.apply_placement(0, flipped_placement(registry)); });
  producer.join();
  recalibrator.join();
  swapper.join();
  server.drain();

  uint64_t ok = 0;
  for (auto& f : futures) {
    ok += f.get().status == serve::RequestStatus::kOk ? 1 : 0;
  }
  const serve::FleetServerStats stats = server.stats();
  EXPECT_EQ(stats.total.completed, ok);
  EXPECT_GE(stats.swap_count, 1u);
  EXPECT_EQ(stats.total.offered,
            stats.total.completed + stats.total.shed + stats.total.rejected);
}

TEST(ServeServer, SloSnapshotReflectsWindowedTraffic) {
  serve::ModelRegistry registry = tiny_fleet_of_one();
  serve::FleetOptions opts = one_model_options();
  opts.workers = 2;
  serve::FleetServer server(registry, opts);
  Rng rng(20);
  const auto feeds =
      models::make_random_feeds(registry.model(0).engine().model(), rng);
  std::vector<std::future<serve::FleetResponse>> futures;
  for (int i = 0; i < 6; ++i) futures.push_back(server.submit(0, 0, feeds));
  for (auto& f : futures) ASSERT_EQ(f.get().status, serve::RequestStatus::kOk);
  server.drain();

  const telemetry::SloSnapshot snap = server.slo_snapshot(0);
  EXPECT_EQ(snap.offered, 6u);
  EXPECT_EQ(snap.completed, 6u);
  EXPECT_EQ(snap.shed, 0u);
  EXPECT_EQ(snap.rejected, 0u);
  EXPECT_EQ(snap.breaches, 0u) << "no deadlines -> no breaches";
  EXPECT_GT(snap.latency_p50_us, 0.0);
  EXPECT_LE(snap.latency_p50_us, snap.latency_p99_us);
  EXPECT_EQ(snap.plan_version, 1u)
      << "no swap in the window -> the live plan version";
}

// The flight-recorder acceptance scenario: a seeded deadline-miss storm must
// produce a validated post-mortem dump whose summary reconstructs at least
// one full request path (enqueue -> pickup -> launch -> complete).
TEST(ServeServer, DeadlineMissStormTriggersFlightDump) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::path(::testing::TempDir()) / "duet-flight-storm-test";
  fs::remove_all(dir);
  telemetry::FlightRecorder::instance().clear();

  serve::ModelRegistry registry = tiny_fleet_of_one();
  serve::FleetOptions opts = one_model_options();
  opts.workers = 2;
  opts.queue_capacity = 32;
  opts.observability.dump_dir = dir.string();
  opts.observability.trigger.miss_burst = 3;
  opts.observability.trigger.miss_window_ms = 10e3;
  serve::FleetServer server(registry, opts);
  Rng rng(22);
  const auto feeds =
      models::make_random_feeds(registry.model(0).engine().model(), rng);

  // Healthy phase: full request paths land in the rings.
  std::vector<std::future<serve::FleetResponse>> futures;
  for (int i = 0; i < 6; ++i) futures.push_back(server.submit(0, 0, feeds));
  for (auto& f : futures) ASSERT_EQ(f.get().status, serve::RequestStatus::kOk);
  futures.clear();

  // Storm: deadlines already expired at admission, every pickup sheds.
  for (int i = 0; i < 6; ++i) {
    futures.push_back(server.submit(0, 0, feeds, /*deadline_s=*/1e-9));
  }
  for (auto& f : futures) {
    EXPECT_EQ(f.get().status, serve::RequestStatus::kShed);
  }
  server.drain();

  const serve::FleetServerStats stats = server.stats();
  EXPECT_EQ(stats.flight_dumps, 1u) << "the trigger fires exactly once";
  EXPECT_GE(stats.slo_breaches, 6u);
  ASSERT_TRUE(fs::exists(dir / "flight_trace.json"));
  ASSERT_TRUE(fs::exists(dir / "flight_summary.json"));

  std::ifstream in(dir / "flight_summary.json");
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string summary = buffer.str();
  EXPECT_NE(summary.find("\"reason\":\"deadline-miss-burst\""),
            std::string::npos);
  const size_t pos = summary.find("\"complete_paths\":");
  ASSERT_NE(pos, std::string::npos);
  const int paths =
      std::atoi(summary.c_str() + pos + std::strlen("\"complete_paths\":"));
  EXPECT_GE(paths, 1) << "the dump must reconstruct a full request path";
  fs::remove_all(dir);
}

}  // namespace
}  // namespace duet
