// Tests for the telemetry layer: metrics registry semantics, histogram
// percentile math, span nesting and thread attribution (including under the
// real-thread executor), Chrome-trace JSON validity, the predicted-vs-
// observed drift join, and the disabled-mode guarantee that instrumentation
// never perturbs numeric results.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "common/logging.hpp"
#include "duet/engine.hpp"
#include "models/model_zoo.hpp"
#include "runtime/executor.hpp"
#include "telemetry/chrome_trace.hpp"
#include "telemetry/drift.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace_export.hpp"

namespace duet {
namespace {

// Fresh global state for every test: zeroed metrics, empty span buffers.
class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    telemetry::MetricsRegistry::instance().reset();
    telemetry::SpanCollector::instance().clear();
  }
  void TearDown() override {
    telemetry::set_enabled(false);
    telemetry::SpanCollector::instance().clear();
    telemetry::MetricsRegistry::instance().reset();
  }
};

TEST_F(TelemetryTest, DisabledByDefaultAndCountersAreGuarded) {
  EXPECT_FALSE(telemetry::enabled());
  telemetry::Counter& c = telemetry::counter("test.guarded");
  c.add(5);
  EXPECT_EQ(c.value(), 0u) << "disabled counter must not record";

  telemetry::ScopedTelemetry on(true);
  c.add(5);
  EXPECT_EQ(c.value(), 5u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST_F(TelemetryTest, ResetPreservesRegisteredReferences) {
  telemetry::ScopedTelemetry on(true);
  telemetry::Counter& c = telemetry::counter("test.stable_ref");
  c.add(3);
  telemetry::MetricsRegistry::instance().reset();
  // The same reference stays valid and records again after reset.
  c.add(2);
  EXPECT_EQ(c.value(), 2u);
  EXPECT_EQ(&telemetry::counter("test.stable_ref"), &c);
}

TEST_F(TelemetryTest, KindClashThrows) {
  telemetry::counter("test.kind_clash");
  EXPECT_THROW(telemetry::gauge("test.kind_clash"), std::runtime_error);
  EXPECT_THROW(telemetry::histogram("test.kind_clash"), std::runtime_error);
}

TEST_F(TelemetryTest, GaugeRecordMaxKeepsHighWatermark) {
  telemetry::ScopedTelemetry on(true);
  telemetry::Gauge& g = telemetry::gauge("test.watermark");
  g.record_max(10.0);
  g.record_max(4.0);
  g.record_max(25.0);
  EXPECT_DOUBLE_EQ(g.value(), 25.0);
  g.set(7.0);
  EXPECT_DOUBLE_EQ(g.value(), 7.0);
}

TEST_F(TelemetryTest, HistogramPercentilesOnKnownDistribution) {
  telemetry::ScopedTelemetry on(true);
  telemetry::Histogram& h =
      telemetry::histogram("test.uniform", {25.0, 50.0, 75.0, 100.0});
  for (int v = 1; v <= 100; ++v) h.observe(static_cast<double>(v));

  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.sum(), 5050.0);
  EXPECT_DOUBLE_EQ(h.observed_min(), 1.0);
  EXPECT_DOUBLE_EQ(h.observed_max(), 100.0);
  EXPECT_DOUBLE_EQ(h.mean(), 50.5);
  // Bucket interpolation is exact for a uniform fill of aligned buckets.
  EXPECT_NEAR(h.percentile(0.50), 50.0, 2.0);
  EXPECT_NEAR(h.percentile(0.95), 95.0, 2.0);
  EXPECT_NEAR(h.percentile(0.99), 99.0, 2.0);
  // Quantiles clamp to the observed range.
  EXPECT_GE(h.percentile(0.0), 1.0);
  EXPECT_LE(h.percentile(1.0), 100.0);
}

TEST_F(TelemetryTest, HistogramOverflowBucketAndReset) {
  telemetry::ScopedTelemetry on(true);
  telemetry::Histogram& h = telemetry::histogram("test.overflow", {1.0, 2.0});
  h.observe(1e9);  // way past the last bound
  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.observed_max(), 1e9);
  EXPECT_LE(h.percentile(0.99), 1e9);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);
}

TEST_F(TelemetryTest, RejectsNonAscendingBounds) {
  EXPECT_THROW(telemetry::histogram("test.bad_bounds", {3.0, 2.0}),
               std::runtime_error);
}

TEST_F(TelemetryTest, SpanNestingDepthAndOrdering) {
  telemetry::ScopedTelemetry on(true);
  {
    telemetry::ScopedSpan outer("outer", "test");
    {
      telemetry::ScopedSpan inner("inner", "test", "annotation");
    }
  }
  std::vector<telemetry::Span> spans =
      telemetry::SpanCollector::instance().drain();
  ASSERT_EQ(spans.size(), 2u);
  // drain() sorts by start time: outer opened first.
  EXPECT_EQ(spans[0].name, "outer");
  EXPECT_EQ(spans[0].depth, 0);
  EXPECT_EQ(spans[1].name, "inner");
  EXPECT_EQ(spans[1].depth, 1);
  EXPECT_EQ(spans[1].detail, "annotation");
  EXPECT_EQ(spans[0].tid, spans[1].tid);
  EXPECT_GE(spans[0].dur_us, spans[1].dur_us);
  EXPECT_LE(spans[0].start_us, spans[1].start_us);
  EXPECT_EQ(telemetry::SpanCollector::instance().pending(), 0u);
}

TEST_F(TelemetryTest, DisabledSpansRecordNothing) {
  {
    telemetry::ScopedSpan span("ghost", "test");
    EXPECT_FALSE(span.active());
  }
  EXPECT_EQ(telemetry::SpanCollector::instance().pending(), 0u);
}

TEST_F(TelemetryTest, ThreadedExecutorSpansFromMultipleThreads) {
  telemetry::ScopedTelemetry on(true);
  Graph model = models::build_wide_deep(models::WideDeepConfig::tiny());
  DevicePair devices = make_default_device_pair(7);
  Partition partition = partition_phased(model);
  const size_t n = partition.subgraphs.size();
  ASSERT_GE(n, 2u);
  // Split placement so both workers execute subgraphs.
  Placement placement(n);
  for (size_t i = 0; i < n; ++i) {
    placement.set(static_cast<int>(i),
                  i % 2 == 0 ? DeviceKind::kCpu : DeviceKind::kGpu);
  }
  ExecutionPlan plan = ExecutionPlan::build(model, partition, placement,
                                            devices,
                                            CompileOptions::compiler_defaults());
  Rng rng(11);
  const auto feeds = models::make_random_feeds(model, rng);
  ThreadedExecutor executor(devices);
  ExecutionResult result = executor.run(plan, feeds);
  ASSERT_FALSE(result.outputs.empty());

  std::vector<telemetry::Span> spans =
      telemetry::SpanCollector::instance().drain();
  std::set<uint32_t> exec_tids;
  size_t exec_spans = 0;
  for (const telemetry::Span& s : spans) {
    if (s.category != "exec") continue;
    exec_tids.insert(s.tid);
    if (s.name.rfind("worker:", 0) != 0) ++exec_spans;
  }
  EXPECT_GE(exec_tids.size(), 2u) << "both workers should record spans";
  EXPECT_EQ(exec_spans, n) << "one exec span per planned subgraph";
  EXPECT_GT(telemetry::counter("executor.threaded.launches").value(), 0u);
  EXPECT_GT(telemetry::counter("executor.threaded.transfers").value(), 0u);
  EXPECT_GT(telemetry::histogram("executor.threaded.queue_wait_us").count(), 0u);
}

TEST_F(TelemetryTest, JsonEscapeAndNumber) {
  EXPECT_EQ(telemetry::json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(telemetry::json_escape(std::string("x\x01y", 3)), "x\\u0001y");
  EXPECT_EQ(telemetry::json_number(1.5), "1.5");
  EXPECT_EQ(telemetry::json_number(0.0 / 0.0), "0");  // NaN stays valid JSON
}

TEST_F(TelemetryTest, ValidateJsonAcceptsAndRejects) {
  std::string err;
  EXPECT_TRUE(telemetry::validate_json("{\"a\":[1,2.5,\"x\",true,null]}", &err))
      << err;
  EXPECT_FALSE(telemetry::validate_json("{", &err));
  EXPECT_FALSE(telemetry::validate_json("[1,2,}", &err));
  EXPECT_FALSE(telemetry::validate_json("{} trailing", &err));
  EXPECT_FALSE(telemetry::validate_json("", &err));
}

TEST_F(TelemetryTest, ChromeTraceExportIsValidJson) {
  telemetry::ScopedTelemetry on(true);
  {
    // Hostile characters must survive the escaping path.
    telemetry::ScopedSpan span("quote\"back\\slash", "exec", "line\nbreak");
  }
  Graph model = models::build_wide_deep(models::WideDeepConfig::tiny());
  DevicePair devices = make_default_device_pair(7);
  Partition partition = partition_phased(model);
  Placement placement(partition.subgraphs.size(), DeviceKind::kCpu);
  ExecutionPlan plan = ExecutionPlan::build(model, partition, placement,
                                            devices,
                                            CompileOptions::compiler_defaults());
  Rng rng(3);
  const auto feeds = models::make_random_feeds(model, rng);
  SimExecutor executor(devices);
  ExecutionResult result = executor.run(plan, feeds, false);

  std::vector<telemetry::Span> spans =
      telemetry::SpanCollector::instance().drain();
  ASSERT_FALSE(spans.empty());
  const std::string merged =
      telemetry::export_chrome_trace(spans, &result.timeline);
  std::string err;
  EXPECT_TRUE(telemetry::validate_json(merged, &err)) << err;
  // Both halves are present: wall-clock pid and the modeled CPU pid.
  EXPECT_NE(merged.find("\"pid\":10"), std::string::npos);
  EXPECT_NE(merged.find("\"pid\":0"), std::string::npos);
  EXPECT_NE(merged.find("CPU (modeled)"), std::string::npos);

  // The standalone Timeline export rides the same writer and stays valid.
  EXPECT_TRUE(telemetry::validate_json(result.timeline.to_chrome_trace(), &err))
      << err;
}

TEST_F(TelemetryTest, DriftJoinMatchesSimObservation) {
  telemetry::ScopedTelemetry on(true);
  DuetOptions options;
  options.enable_fallback = false;
  DuetEngine engine(models::build_wide_deep(models::WideDeepConfig::tiny()),
                    options);
  Rng rng(5);
  const auto feeds = models::make_random_feeds(engine.model(), rng);
  ExecutionResult sim = engine.infer(feeds);

  const DriftReport report = compute_drift(
      "tiny-wd", "sim", engine.partition(), engine.plan().placement(),
      engine.report().profiles, sim.timeline,
      engine.report().schedule.est_latency_s, sim.latency_s);

  ASSERT_EQ(report.entries.size(), engine.partition().subgraphs.size());
  for (const DriftEntry& e : report.entries) {
    EXPECT_GT(e.est_s, 0.0);
    EXPECT_GT(e.observed_s, 0.0) << "subgraph " << e.subgraph
                                 << " has no exec event";
    // The sim executor replays the same modeled costs the scheduler used, so
    // per-subgraph skew must be small (noise-free run).
    EXPECT_LT(std::abs(e.rel_err()), 0.10) << report.to_string();
  }
  EXPECT_LT(std::abs(report.total_rel_err()), 0.10) << report.to_string();
  EXPECT_GE(report.max_abs_rel_err(), report.mean_abs_rel_err());

  std::string err;
  EXPECT_TRUE(telemetry::validate_json(report.to_json(), &err)) << err;
}

// Host wall-clock is not comparable with modeled time: a host-clock report
// labels its clock and shows the two side by side, with no signed skew.
TEST(Drift, HostClockReportShowsTimesWithoutSkew) {
  DriftReport report;
  report.model = "m";
  report.source = "threaded";
  report.clock = DriftClock::kHost;
  DriftEntry e;
  e.subgraph = 0;
  e.label = "rnn";
  e.est_s = 1e-3;
  e.observed_s = 0.5;
  report.entries.push_back(e);
  report.est_total_s = 1e-3;
  report.observed_total_s = 0.5;

  const std::string text = report.to_string();
  EXPECT_NE(text.find("host clock"), std::string::npos) << text;
  EXPECT_NE(text.find("host time"), std::string::npos) << text;
  EXPECT_EQ(text.find('%'), std::string::npos) << text;

  const std::string json = report.to_json();
  std::string err;
  EXPECT_TRUE(telemetry::validate_json(json, &err)) << err;
  EXPECT_NE(json.find("\"clock\":\"host\""), std::string::npos) << json;
  EXPECT_EQ(json.find("rel_err"), std::string::npos) << json;

  report.clock = DriftClock::kModeled;
  EXPECT_NE(report.to_string().find("modeled clock"), std::string::npos);
  EXPECT_NE(report.to_json().find("\"clock\":\"modeled\""), std::string::npos);
  EXPECT_NE(report.to_json().find("rel_err"), std::string::npos);
}

TEST_F(TelemetryTest, MetricsToJsonIsValid) {
  telemetry::ScopedTelemetry on(true);
  telemetry::counter("test.json_counter").add(2);
  telemetry::gauge("test.json_gauge").set(1.25);
  telemetry::histogram("test.json_hist").observe(42.0);
  const std::string doc = telemetry::MetricsRegistry::instance().to_json();
  std::string err;
  EXPECT_TRUE(telemetry::validate_json(doc, &err)) << err;
  EXPECT_NE(doc.find("test.json_counter"), std::string::npos);
}

TEST_F(TelemetryTest, DisabledModeLeavesExecutorOutputsIdentical) {
  Graph model = models::build_wide_deep(models::WideDeepConfig::tiny());
  DevicePair devices = make_default_device_pair(13);
  Partition partition = partition_phased(model);
  const size_t n = partition.subgraphs.size();
  Placement placement(n);
  for (size_t i = 0; i < n; ++i) {
    placement.set(static_cast<int>(i),
                  i % 2 == 0 ? DeviceKind::kGpu : DeviceKind::kCpu);
  }
  ExecutionPlan plan = ExecutionPlan::build(model, partition, placement,
                                            devices,
                                            CompileOptions::compiler_defaults());
  Rng rng(17);
  const auto feeds = models::make_random_feeds(model, rng);
  SimExecutor executor(devices);

  ExecutionResult off = executor.run(plan, feeds, false);
  ExecutionResult on_result;
  {
    telemetry::ScopedTelemetry on(true);
    on_result = executor.run(plan, feeds, false);
  }
  ASSERT_EQ(off.outputs.size(), on_result.outputs.size());
  for (size_t i = 0; i < off.outputs.size(); ++i) {
    // Bit-identical: telemetry must never touch the numeric path.
    EXPECT_TRUE(Tensor::allclose(off.outputs[i], on_result.outputs[i], 0.0f, 0.0f));
  }
  EXPECT_DOUBLE_EQ(off.latency_s, on_result.latency_s);
}

TEST_F(TelemetryTest, ParseLogLevelSpecs) {
  EXPECT_EQ(parse_log_level("debug", LogLevel::kWarn), LogLevel::kDebug);
  EXPECT_EQ(parse_log_level("INFO", LogLevel::kWarn), LogLevel::kInfo);
  EXPECT_EQ(parse_log_level("Warning", LogLevel::kOff), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("error", LogLevel::kWarn), LogLevel::kError);
  EXPECT_EQ(parse_log_level("off", LogLevel::kWarn), LogLevel::kOff);
  EXPECT_EQ(parse_log_level("3", LogLevel::kWarn), LogLevel::kError);
  EXPECT_EQ(parse_log_level("bogus", LogLevel::kInfo), LogLevel::kInfo);
  EXPECT_EQ(parse_log_level("", LogLevel::kError), LogLevel::kError);
}

TEST_F(TelemetryTest, LogWarningsFeedCountersEvenWhenSilenced) {
  telemetry::ScopedTelemetry on(true);
  const LogLevel before = Logger::level();
  Logger::set_level(LogLevel::kOff);  // nothing printed...
  DUET_LOG_WARN << "synthetic warning";
  DUET_LOG_ERROR << "synthetic error";
  DUET_LOG_INFO << "info is not counted";
  Logger::set_level(before);
  // ...but the counters still saw both.
  EXPECT_EQ(telemetry::counter("log.warnings").value(), 1u);
  EXPECT_EQ(telemetry::counter("log.errors").value(), 1u);
}

}  // namespace
}  // namespace duet
