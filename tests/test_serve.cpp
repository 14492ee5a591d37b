// Tests for the serving runtime's building blocks: workload generators, the
// virtual-time simulator serving one model (a fleet of one: one tenant,
// max_batch = 1), online recalibration, plus PipelinedRunner determinism
// the serving stack leans on. The real-threaded FleetServer is tested in
// test_fleet.cpp.

#include <gtest/gtest.h>

#include <vector>

#include "device/calibration.hpp"
#include "duet/engine.hpp"
#include "models/model_zoo.hpp"
#include "runtime/pipeline.hpp"
#include "serve/recalibration.hpp"
#include "serve/simulator.hpp"
#include "serve/workload.hpp"

namespace duet {
namespace {

// ---------------------------------------------------------------------------
// Workload generators

TEST(ServeWorkload, PoissonIsDeterministicAscendingAtRate) {
  Rng a(7);
  Rng b(7);
  const auto t1 = serve::poisson_trace(500.0, 2000, a);
  const auto t2 = serve::poisson_trace(500.0, 2000, b);
  EXPECT_EQ(t1, t2) << "same seed must replay the same arrival process";
  ASSERT_EQ(t1.size(), 2000u);
  EXPECT_GT(t1.front(), 0.0);
  for (size_t i = 1; i < t1.size(); ++i) EXPECT_GE(t1[i], t1[i - 1]);
  EXPECT_NEAR(serve::offered_qps(t1), 500.0, 500.0 * 0.15);
}

TEST(ServeWorkload, BurstyRateSitsBetweenBaseAndBurst) {
  Rng rng(11);
  const auto trace = serve::bursty_trace(100.0, 1000.0, 0.1, 0.4, 2000, rng);
  ASSERT_EQ(trace.size(), 2000u);
  for (size_t i = 1; i < trace.size(); ++i) EXPECT_GE(trace[i], trace[i - 1]);
  const double rate = serve::offered_qps(trace);
  EXPECT_GT(rate, 100.0);
  EXPECT_LT(rate, 1000.0);
}

// ---------------------------------------------------------------------------
// Virtual-time simulator serving one model: simulate_fleet with one tenant
// and max_batch = 1 (single_model_config) is the FIFO multi-worker queue.

serve::FleetSimStats simulate_one_model(const std::vector<double>& arrivals,
                                        int workers, size_t queue_capacity,
                                        double deadline_s = 0.0) {
  return serve::simulate_fleet(
      serve::single_model_trace(arrivals), [](int, int64_t) { return 1e-3; },
      serve::single_model_config(workers, queue_capacity, deadline_s));
}

TEST(ServeSim, DeterministicReplay) {
  Rng rng(3);
  const auto arrivals = serve::poisson_trace(800.0, 500, rng);
  const serve::FleetSimStats a = simulate_one_model(arrivals, 2, 128);
  const serve::FleetSimStats b = simulate_one_model(arrivals, 2, 128);
  EXPECT_EQ(a.throughput_qps, b.throughput_qps);
  EXPECT_EQ(a.sojourn.p99, b.sojourn.p99);
  EXPECT_EQ(a.total.completed, b.total.completed);
}

TEST(ServeSim, WorkersScaleSaturatedThroughput) {
  // 2x the 4-worker saturation rate, no deadline, queue big enough to
  // absorb everything: completion-bound throughput must scale with workers.
  Rng rng(5);
  const auto arrivals = serve::poisson_trace(8000.0, 800, rng);
  const serve::FleetSimStats one = simulate_one_model(arrivals, 1, 1u << 20);
  const serve::FleetSimStats four = simulate_one_model(arrivals, 4, 1u << 20);
  EXPECT_EQ(one.total.completed, 800u);
  EXPECT_EQ(four.total.completed, 800u);
  EXPECT_NEAR(one.throughput_qps, 1000.0, 30.0);
  EXPECT_GT(four.throughput_qps, 3.8 * one.throughput_qps);
  EXPECT_LT(four.throughput_qps, 4.2 * one.throughput_qps);
}

TEST(ServeSim, AdmissionAccountingConserves) {
  Rng rng(9);
  const auto arrivals = serve::poisson_trace(4000.0, 1000, rng);
  const serve::FleetSimStats s =
      simulate_one_model(arrivals, 1, 16, /*deadline_s=*/5e-3);
  EXPECT_EQ(s.total.offered, 1000u);
  EXPECT_EQ(s.total.offered,
            s.total.completed + s.total.shed + s.total.rejected);
  EXPECT_GT(s.total.rejected, 0u) << "4x overload on a 16-deep queue";
  EXPECT_GT(s.total.shed, 0u) << "5 ms deadline at 4x overload";
  EXPECT_LE(s.total.completed_late, s.total.completed);
}

TEST(ServeSim, NoDeadlineNeverSheds) {
  Rng rng(13);
  const auto arrivals = serve::poisson_trace(3000.0, 500, rng);
  const serve::FleetSimStats s = simulate_one_model(arrivals, 2, 1u << 20);
  EXPECT_EQ(s.total.shed, 0u);
  EXPECT_EQ(s.total.completed, 500u);
  EXPECT_GT(s.max_queue_depth, 0u);
}

// ---------------------------------------------------------------------------
// Online recalibration

struct RecalFixture {
  Graph model;
  DuetOptions options;
  DuetEngine engine;

  RecalFixture()
      : model(models::build_wide_deep(models::WideDeepConfig::tiny())),
        options([] {
          DuetOptions o;
          o.enable_fallback = false;  // keep the heterogeneous plan
          return o;
        }()),
        engine(models::build_wide_deep(models::WideDeepConfig::tiny()),
               options) {}

  // Observed times that exactly reproduce the profiles (plus the dispatch
  // overhead SimExecutor folds into every exec span).
  serve::DriftAccumulator faithful_observations(uint64_t samples) const {
    const auto& profiles = engine.report().profiles;
    serve::DriftAccumulator obs(profiles.size());
    const double dispatch = executor_dispatch_overhead();
    for (size_t i = 0; i < profiles.size(); ++i) {
      for (int d = 0; d < kNumDeviceKinds; ++d) {
        const DeviceKind kind = static_cast<DeviceKind>(d);
        for (uint64_t s = 0; s < samples; ++s) {
          obs.record(static_cast<int>(i), kind,
                     profiles[i].time_on(kind) + dispatch);
        }
      }
    }
    return obs;
  }
};

TEST(ServeRecal, FaithfulObservationsDoNotSwap) {
  RecalFixture f;
  const serve::DriftAccumulator obs = f.faithful_observations(8);
  serve::RecalibrationOptions opts;
  const serve::RecalibrationResult r = serve::recalibrate(
      f.engine.model(), f.engine.partition(), f.engine.report().profiles, obs,
      f.engine.report().schedule.placement,
      f.engine.devices().link->params(), opts);
  EXPECT_FALSE(r.swapped);
  EXPECT_EQ(r.placement, f.engine.report().schedule.placement);
  EXPECT_GT(r.overridden_cells, 0u);
  // Observed costs equal profiled costs, so the prediction for the current
  // placement must match the scheduler's original estimate.
  EXPECT_NEAR(r.predicted_current_s, f.engine.report().schedule.est_latency_s,
              f.engine.report().schedule.est_latency_s * 1e-6);
}

TEST(ServeRecal, UnderSampledCellsKeepOfflineProfile) {
  RecalFixture f;
  const serve::DriftAccumulator obs = f.faithful_observations(2);
  serve::RecalibrationOptions opts;
  opts.min_samples = 8;
  const serve::RecalibrationResult r = serve::recalibrate(
      f.engine.model(), f.engine.partition(), f.engine.report().profiles, obs,
      f.engine.report().schedule.placement,
      f.engine.devices().link->params(), opts);
  EXPECT_EQ(r.overridden_cells, 0u);
  EXPECT_FALSE(r.swapped);
}

TEST(ServeRecal, DriftedDeviceTriggersSwap) {
  RecalFixture f;
  const Placement& current = f.engine.report().schedule.placement;
  const auto& profiles = f.engine.report().profiles;
  serve::DriftAccumulator obs = f.faithful_observations(8);
  // The runtime now observes every subgraph running 25x slower than profiled
  // on its currently-assigned device: the corrected schedule must abandon
  // the stale placement.
  const double dispatch = executor_dispatch_overhead();
  for (size_t i = 0; i < profiles.size(); ++i) {
    const DeviceKind assigned = current.of(static_cast<int>(i));
    for (uint64_t s = 0; s < 16; ++s) {
      obs.record(static_cast<int>(i), assigned,
                 25.0 * profiles[i].time_on(assigned) + dispatch);
    }
  }
  serve::RecalibrationOptions opts;
  const serve::RecalibrationResult r = serve::recalibrate(
      f.engine.model(), f.engine.partition(), profiles, obs, current,
      f.engine.devices().link->params(), opts);
  EXPECT_TRUE(r.swapped);
  EXPECT_NE(r.placement, current);
  EXPECT_LT(r.predicted_new_s,
            r.predicted_current_s * (1.0 - opts.swap_threshold));
}

TEST(ServeRecal, DriftAccumulatorRecordsTimelines) {
  RecalFixture f;
  Rng rng(2);
  const auto feeds = models::make_random_feeds(f.engine.model(), rng);
  const ExecutionResult result = f.engine.infer(feeds);
  serve::DriftAccumulator obs(f.engine.partition().subgraphs.size());
  obs.record(result.timeline);
  EXPECT_GT(obs.total_samples(), 0u);
  obs.reset();
  EXPECT_EQ(obs.total_samples(), 0u);
}

TEST(ServeRecal, SingleSampleDriftIsUsableAtMinSamplesOne) {
  RecalFixture f;
  const auto& profiles = f.engine.report().profiles;
  serve::DriftAccumulator obs(profiles.size());
  // Exactly one observation, for one cell: with min_samples=1 that cell is
  // overridden and the schedule still comes out well-formed.
  const DeviceKind assigned = f.engine.report().schedule.placement.of(0);
  obs.record(0, assigned,
             profiles[0].time_on(assigned) + executor_dispatch_overhead());
  EXPECT_EQ(obs.total_samples(), 1u);
  serve::RecalibrationOptions opts;
  opts.min_samples = 1;
  const serve::RecalibrationResult r = serve::recalibrate(
      f.engine.model(), f.engine.partition(), profiles, obs,
      f.engine.report().schedule.placement, f.engine.devices().link->params(),
      opts);
  EXPECT_EQ(r.overridden_cells, 1u);
  EXPECT_FALSE(r.swapped) << "one faithful sample is no reason to move";
  EXPECT_GT(r.predicted_current_s, 0.0);
}

// ---------------------------------------------------------------------------
// PipelinedRunner properties the serving stack relies on

Graph tiny_model() {
  return models::build_wide_deep(models::WideDeepConfig::tiny());
}

TEST(ServePipeline, NoiseFreeRunsAreIdentical) {
  DuetOptions eopts;
  eopts.enable_fallback = false;
  DuetEngine engine(tiny_model(), eopts);
  PipelinedRunner runner(engine.devices());
  const auto a = runner.run(engine.plan(), 16, false);
  const auto b = runner.run(engine.plan(), 16, false);
  EXPECT_DOUBLE_EQ(a.makespan_s, b.makespan_s);
  EXPECT_DOUBLE_EQ(a.throughput_qps, b.throughput_qps);
  ASSERT_EQ(a.query_latency_s.size(), 16u);
  EXPECT_EQ(a.query_latency_s, b.query_latency_s);
}

TEST(ServePipeline, ThroughputBoundedByBottleneckDevice) {
  DuetOptions eopts;
  eopts.enable_fallback = false;
  DuetEngine engine(tiny_model(), eopts);
  PipelinedRunner runner(engine.devices());
  const auto r = runner.run(engine.plan(), 32, false);
  ASSERT_GT(r.bottleneck_busy_s, 0.0);
  // Steady state: at most one query per bottleneck-busy interval (small
  // slack for the pipeline fill/drain ramps).
  EXPECT_LE(r.throughput_qps, 1.0 / r.bottleneck_busy_s * 1.05);
  EXPECT_GE(r.mean_latency_s, 0.0);
}

}  // namespace
}  // namespace duet
