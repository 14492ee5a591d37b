// duet_hostbench — host-clock benchmark of the DUET library.
//
//   duet_hostbench --workload compile|infer|serve|serve-burst --seed N
//                  --seconds S --trace 0|1
//
// Runs one workload through the library's public API, exactly as a user
// builds it (checked mode stays at its default), and prints one JSON object
// on stdout: every metric with its unit and clock, the output checks, and a
// host fingerprint. With --trace 0 the metrics are the end-to-end set; with
// --trace 1 a separate traced run times the calls into each module from this
// file and reports the per-layer set. hostbench/run.py builds this binary
// and turns its output into the benchmark's result line; README.md maps
// every metric to its layer and workload.
//
// Every input (model weights, feeds, arrivals, model and tenant draws) is
// generated here from --seed; the library only sees the generated inputs.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <future>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>
#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "analysis/lint/lint.hpp"
#include "analysis/plan_validator.hpp"
#include "analysis/race_checker.hpp"
#include "compiler/compile_cache.hpp"
#include "duet/engine.hpp"
#include "models/model_zoo.hpp"
#include "profile/profile_cache.hpp"
#include "serve/batching.hpp"
#include "serve/fleet.hpp"

namespace duet::hostbench {
namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Statistics

// Linear-interpolation quantile (the numpy / Python "inclusive" default).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0.0;
  for (double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

double sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

// splitmix64: independent sub-seeds from the workload seed.
uint64_t derive(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// ---------------------------------------------------------------------------
// Result document

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string clock;  // "host", "modeled" or "count"
};

class Result {
 public:
  void metric(const std::string& name, double value, const std::string& unit,
              const std::string& clock) {
    metrics_.push_back({name, value, unit, clock});
  }
  // One operation whose output was checked.
  void op(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) fail(what);
  }
  // A failed check that is not tied to one operation (conservation, ...).
  void fail(const std::string& what) {
    ++failed_;
    if (failures_.size() < 20) failures_.push_back(what);
  }
  // Free-form per-model / per-tenant breakdown, printed under "detail".
  void detail(const std::string& key, double value) {
    detail_.emplace_back(key, value);
  }
  void digest(const std::string& key, const std::vector<double>& values) {
    digests_.emplace_back(key, values);
  }

  std::string to_json(const std::string& workload, uint64_t seed,
                      double seconds, bool trace) const;

 private:
  std::vector<Metric> metrics_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> failures_;
  std::vector<std::pair<std::string, double>> detail_;
  std::vector<std::pair<std::string, std::vector<double>>> digests_;
};

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const size_t b = s.find_first_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b);
  }
#endif
  return "unknown";
}

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string Result::to_json(const std::string& workload, uint64_t seed,
                            double seconds, bool trace) const {
  std::ostringstream os;
  os << "{\"workload\": " << json_string(workload) << ", \"seed\": " << seed
     << ", \"seconds\": " << json_number(seconds)
     << ", \"trace\": " << (trace ? 1 : 0)
     << ", \"correct\": " << (failed_ == 0 ? "true" : "false")
     << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_;
  os << ", \"failures\": [";
  for (size_t i = 0; i < failures_.size(); ++i) {
    os << (i ? ", " : "") << json_string(failures_[i]);
  }
  os << "], \"fingerprint\": {\"cpu\": " << json_string(cpu_model())
     << ", \"nproc\": " << std::thread::hardware_concurrency()
     << ", \"compiler\": " << json_string(HOSTBENCH_COMPILER)
     << ", \"build_type\": " << json_string(HOSTBENCH_BUILD_TYPE)
     << ", \"cxx_flags\": " << json_string(HOSTBENCH_CXX_FLAGS)
     << ", \"checked_mode\": " << (verification_enabled() ? "true" : "false")
     << "}, \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    os << (i ? ", " : "") << json_string(m.name)
       << ": {\"value\": " << json_number(m.value)
       << ", \"unit\": " << json_string(m.unit)
       << ", \"clock\": " << json_string(m.clock) << "}";
  }
  os << "}, \"detail\": {";
  for (size_t i = 0; i < detail_.size(); ++i) {
    os << (i ? ", " : "") << json_string(detail_[i].first) << ": "
       << json_number(detail_[i].second);
  }
  os << "}, \"digests\": {";
  for (size_t i = 0; i < digests_.size(); ++i) {
    os << (i ? ", " : "") << json_string(digests_[i].first) << ": [";
    for (size_t j = 0; j < digests_[i].second.size(); ++j) {
      os << (j ? ", " : "") << json_number(digests_[i].second[j]);
    }
    os << "]";
  }
  os << "}}";
  return os.str();
}

// ---------------------------------------------------------------------------
// Workload configuration

// The paper's heterogeneous trio, plus the largest graph (fallback path) and
// the heaviest weights.
const std::vector<std::string> kCompileModels = {"wide-deep", "siamese",
                                                 "mtdnn", "resnet101", "dlrm"};
const std::vector<std::string> kInferModels = {"wide-deep", "siamese",
                                               "mtdnn"};
// Tiny variants resident in the serving fleet.
const std::vector<std::string> kFleetModels = {"mtdnn", "siamese", "dlrm"};

// Set-ups per run; setup_s is their median. Generating the full-size models'
// weights dominates compile and infer set-up (about 14 s and 5 s), so those
// two set up twice.
constexpr int kSetups = 3;
constexpr int kHeavySetups = 2;
constexpr int kModeledDraws = 101;   // noisy modeled runs per engine
constexpr int kFeedPool = 16;        // distinct feed sets per fleet model
constexpr int kWorkers = 2;
constexpr int64_t kMaxBatch = 8;
constexpr size_t kQueueCapacity = 128;
constexpr int kTenants = 3;
constexpr double kLimitS = 0.010;    // serving latency limit
constexpr double kSteadyQps = 3000.0;
constexpr double kBurstBaseQps = 2000.0;
constexpr double kBurstPeakQps = 30000.0;
constexpr double kBurstPeriodS = 0.100;
constexpr double kBurstDuty = 0.20;

DuetOptions engine_options(uint64_t seed) {
  DuetOptions options;
  options.seed = derive(seed, 1);
  return options;
}

// ---------------------------------------------------------------------------
// Compile leg: engine construction with cold, then warm, caches.

struct CacheCounts {
  uint64_t compile_hits = 0;
  uint64_t compile_misses = 0;
  uint64_t profile_hits = 0;
  uint64_t profile_misses = 0;
};

CacheCounts cache_counts() {
  const CompileCache::Stats c = CompileCache::instance().stats();
  const ProfileCache::Stats p = ProfileCache::instance().stats();
  return {c.hits, c.misses, p.hits, p.misses};
}

void reset_cache_stats() {
  CompileCache::instance().reset_stats();
  ProfileCache::instance().reset_stats();
}

void clear_caches() {
  CompileCache::instance().clear();
  ProfileCache::instance().clear();
  reset_cache_stats();
}

struct Model {
  std::string name;
  Graph graph;  // as generated: the unoptimized reference graph
  std::map<NodeId, Tensor> feeds;
  std::unique_ptr<DuetEngine> engine;  // the warm engine, kept for running
  std::vector<double> cold_s;
  std::vector<double> warm_s;
  double modeled_ms = 0.0;
  double speedup = 0.0;
};

// Median modeled latency over kModeledDraws noisy runs of a fresh engine.
// The draws come from the engine's seeded device noise, so the value repeats
// exactly for one seed and differs between seeds.
double noisy_modeled_ms(DuetEngine& engine) {
  std::vector<double> draws;
  draws.reserve(kModeledDraws);
  for (int i = 0; i < kModeledDraws; ++i) draws.push_back(engine.latency(true));
  return median(draws) * 1e3;
}

// Builds `m.graph` with both caches cleared, then again with them warm, and
// keeps the warm engine. Both legs must agree on the placement and on the
// modeled latency.
void compile_cold_warm(Model& m, const DuetOptions& options, Result& result) {
  clear_caches();
  Clock::time_point t0 = Clock::now();
  auto cold = std::make_unique<DuetEngine>(m.graph, options);
  m.cold_s.push_back(since(t0));
  const double cold_modeled = noisy_modeled_ms(*cold);

  reset_cache_stats();
  t0 = Clock::now();
  auto warm = std::make_unique<DuetEngine>(m.graph, options);
  m.warm_s.push_back(since(t0));
  const double warm_modeled = noisy_modeled_ms(*warm);

  const bool same_placement =
      cold->report().schedule.placement == warm->report().schedule.placement;
  result.op(same_placement, m.name + ": cold and warm placements differ (" +
                                cold->report().schedule.placement.to_string() +
                                " vs " +
                                warm->report().schedule.placement.to_string() +
                                ")");
  result.op(cold_modeled == warm_modeled,
            m.name + ": cold and warm modeled latency differ");
  m.modeled_ms = warm_modeled;
  const double best_single = std::min(warm->report().est_single_cpu_s,
                                      warm->report().est_single_gpu_s);
  m.speedup = best_single / warm->latency(false);
  m.engine = std::move(warm);
}

void report_compile_metrics(const std::vector<Model>& models, Result& result) {
  std::vector<double> cold, warm, modeled, speedup;
  for (const Model& m : models) {
    cold.push_back(median(m.cold_s));
    warm.push_back(median(m.warm_s));
    modeled.push_back(m.modeled_ms);
    speedup.push_back(m.speedup);
    result.detail("compile_cold_s." + m.name, cold.back());
    result.detail("compile_warm_s." + m.name, warm.back());
    result.detail("modeled_ms." + m.name, m.modeled_ms);
    result.detail("modeled_speedup." + m.name, m.speedup);
  }
  // Host compile times are per-layer and detail only: on the serving
  // workloads' tiny models they swung by up to 50 % with the host's load.
  result.detail("compile_cold_s", geomean(cold));
  result.detail("compile_warm_s", geomean(warm));
  result.metric("modeled_ms", geomean(modeled), "ms", "modeled");
  result.metric("modeled_speedup", geomean(speedup), "x", "modeled");
}

// Every workload reports the same end-to-end set. `ops[m]` are the host
// latencies (s) of the workload's completed operations on model m;
// op_p50_ms is the geometric mean over models of each model's median.
// Refused requests are misses in ok_frac and goodput_per_s.
void report_op_metrics(const std::vector<std::vector<double>>& ops,
                       uint64_t offered, uint64_t good, double duration_s,
                       Result& result) {
  std::vector<double> medians;
  size_t count = 0;
  for (const std::vector<double>& per_model : ops) {
    medians.push_back(median(per_model));
    count += per_model.size();
  }
  result.metric("op_p50_ms", geomean(medians) * 1e3, "ms", "host");
  result.metric("ok_frac",
                offered > 0 ? static_cast<double>(good) /
                                  static_cast<double>(offered)
                            : 0.0,
                "ratio", "host");
  result.metric("goodput_per_s", static_cast<double>(good) / duration_s, "1/s",
                "host");
  result.detail("ops", static_cast<double>(count));
}

// ---------------------------------------------------------------------------
// Traced compile: the engine's stages driven one by one through their public
// functions, in the order DuetEngine::DuetEngine runs them.

using LayerTotals = std::map<std::string, double>;  // metric -> sum over models

constexpr int kTraceReps = 3;  // untraced/traced pairs per model; medians

using Samples = std::map<std::string, std::vector<double>>;

// What one staged compile produces. The evaluator refers to `partition`, so
// the struct stays where the caller made it.
struct Staged {
  Partition partition;
  std::vector<SubgraphProfile> profiles;
  std::unique_ptr<LatencyEvaluator> evaluator;
  ExecutionPlan plan;
};

// One cold compile of `model`, stage by stage, into `out`; adds each stage's
// host time to `samples`.
void staged_compile(const Graph& model, const DuetOptions& options,
                    Samples& samples, Staged& out) {
  clear_caches();
  Partition& partition = out.partition;
  const Clock::time_point staged0 = Clock::now();
  double verify_s = 0.0;

  Clock::time_point t0 = Clock::now();
  partition = partition_phased(model, options.partition);
  samples["partition.s"].push_back(since(t0));

  t0 = Clock::now();
  verify_partition(model, partition).throw_if_failed("partition");
  verify_s += since(t0);

  DevicePair devices = make_default_device_pair(options.seed);
  t0 = Clock::now();
  out.profiles =
      Profiler(devices).profile_partition(partition, model, options.profile);
  samples["profile.s"].push_back(since(t0));
  devices = make_default_device_pair(options.seed ^ 0x5EEDFACEull);

  t0 = Clock::now();
  out.evaluator = std::make_unique<LatencyEvaluator>(
      partition, model, out.profiles, devices.link->params());
  Rng sched_rng(options.seed + 1000);
  SchedulingContext ctx;
  ctx.partition = &partition;
  ctx.profiles = &out.profiles;
  ctx.evaluator = out.evaluator.get();
  ctx.rng = &sched_rng;
  ScheduleResult schedule = make_scheduler(options.scheduler)->schedule(ctx);
  samples["sched.s"].push_back(since(t0));

  t0 = Clock::now();
  double single_cpu = 0.0;
  double single_gpu = 0.0;
  {
    Baseline cpu(model, BaselineKind::kTvmCpu, devices);
    Baseline gpu(model, BaselineKind::kTvmGpu, devices);
    single_cpu = cpu.latency(false);
    single_gpu = gpu.latency(false);
  }
  const double best_single = std::min(single_cpu, single_gpu);
  if (options.enable_fallback &&
      schedule.est_latency_s >= best_single * (1.0 - options.fallback_margin)) {
    // The engine also builds the fallback's single-device executable.
    const bool cpu_best = single_cpu <= single_gpu;
    schedule.placement =
        Placement(partition.subgraphs.size(),
                  cpu_best ? DeviceKind::kCpu : DeviceKind::kGpu);
    Baseline fallback(model,
                      cpu_best ? BaselineKind::kTvmCpu : BaselineKind::kTvmGpu,
                      devices);
  }
  samples["duet.baseline_s"].push_back(since(t0));

  t0 = Clock::now();
  verify_placement(schedule.placement, partition).throw_if_failed("placement");
  verify_s += since(t0);

  t0 = Clock::now();
  out.plan = ExecutionPlan::build(model, partition, schedule.placement, devices,
                                  options.compile);
  samples["runtime.plan_build_s"].push_back(since(t0));

  t0 = Clock::now();
  verify_plan(out.plan).throw_if_failed("plan");
  verify_races(out.plan).throw_if_failed("races");
  lint::LintSuite::standard().run(out.plan).throw_if_failed("lint");
  verify_s += since(t0);
  samples["analysis.verify_s"].push_back(verify_s);
  samples["trace.staged_s"].push_back(since(staged0));
}

void trace_compile(const Model& m, const DuetOptions& base, LayerTotals& layers,
                   std::vector<double>& evaluate_us, Result& result) {
  DuetOptions options = base;
  options.profile.compile = options.compile;

  // Cache counts of one cold and one warm construction; they repeat exactly.
  clear_caches();
  { DuetEngine cold(m.graph, options); }
  const CacheCounts cold = cache_counts();
  reset_cache_stats();
  const Clock::time_point warm0 = Clock::now();
  { DuetEngine warm(m.graph, options); }
  layers["compile.warm_s"] += since(warm0);
  const CacheCounts warm = cache_counts();
  for (const auto& [leg, c] :
       {std::pair{".cold", cold}, std::pair{".warm", warm}}) {
    layers[std::string("compiler.cache_hits") + leg] += c.compile_hits;
    layers[std::string("compiler.cache_misses") + leg] += c.compile_misses;
    layers[std::string("profile.cache_hits") + leg] += c.profile_hits;
    layers[std::string("profile.cache_misses") + leg] += c.profile_misses;
  }

  // Untraced cold constructions interleaved with staged ones; each stage is
  // the median over the repetitions.
  Samples samples;
  Staged staged;
  for (int r = 0; r < kTraceReps; ++r) {
    clear_caches();
    const Clock::time_point t0 = Clock::now();
    DuetEngine engine(m.graph, options);
    samples["compile.engine_s"].push_back(since(t0));
    staged_compile(m.graph, options, samples, staged);
    result.op(staged.plan.placement() == engine.report().schedule.placement,
              m.name + ": staged placement differs from the engine's");
  }
  for (const auto& [name, values] : samples) layers[name] += median(values);

  // The scheduler's evaluator, memo off, on the chosen placement.
  staged.evaluator->set_memo_enabled(false);
  std::vector<double> eval;
  for (int i = 0; i < 51; ++i) {
    const Clock::time_point t0 = Clock::now();
    const double v = staged.evaluator->evaluate(staged.plan.placement());
    eval.push_back(since(t0) * 1e6);
    if (v <= 0.0) result.fail(m.name + ": evaluator returned no latency");
  }
  evaluate_us.push_back(median(eval));

  // Compiler: the whole pipeline, then each pass alone on the model.
  const PassManager pm = PassManager::standard(options.compile);
  Clock::time_point t0 = Clock::now();
  const Graph optimized = pm.run(m.graph);
  layers["compiler.passes_s"] += since(t0);
  layers["compiler.nodes_after"] += static_cast<double>(optimized.num_nodes());
  for (const NamedPass& pass : pm.passes()) {
    t0 = Clock::now();
    const Graph out = pass.run(m.graph);
    layers["compiler.pass." + pass.name + "_s"] += since(t0);
  }
}

// Sums the staged compile of `models` into per-layer metrics; returns the
// tracing overhead (staged time / untraced engine time - 1).
double report_compile_layers(const std::vector<Model>& models,
                           const DuetOptions& options, Result& result) {
  LayerTotals layers;
  std::vector<double> evaluate_us;
  for (const Model& m : models) {
    trace_compile(m, options, layers, evaluate_us, result);
  }
  const char* stages[] = {"partition.s",         "profile.s",
                          "sched.s",             "duet.baseline_s",
                          "runtime.plan_build_s", "analysis.verify_s"};
  double staged_sum = 0.0;
  for (const char* stage : stages) {
    result.metric(stage, layers[stage], "s", "host");
    staged_sum += layers[stage];
  }
  const double engine_s = layers["compile.engine_s"];
  result.metric("compile.engine_s", engine_s, "s", "host");
  result.metric("compile.unattributed_s", engine_s - staged_sum, "s", "host");
  result.metric("compile.warm_s", layers["compile.warm_s"], "s", "host");
  const double overhead = layers["trace.staged_s"] / engine_s - 1.0;
  result.detail("trace.overhead_frac.compile", overhead);
  result.metric("compiler.passes_s", layers["compiler.passes_s"], "s", "host");
  for (const auto& [name, value] : layers) {
    if (name.rfind("compiler.pass.", 0) == 0) {
      result.metric(name, value, "s", "host");
    }
  }
  result.metric("compiler.nodes_after", layers["compiler.nodes_after"],
                "count", "count");
  for (const char* leg : {"cold", "warm"}) {
    for (const char* key : {"compiler.cache_hits", "compiler.cache_misses",
                            "profile.cache_hits", "profile.cache_misses"}) {
      const std::string name = std::string(key) + "." + leg;
      result.metric(name, layers[name], "count", "count");
    }
  }
  result.metric("sched.evaluate_us", geomean(evaluate_us), "us", "host");
  return overhead;
}

// ---------------------------------------------------------------------------
// Traced execution: walk a plan's subgraphs in step order and time each
// CompiledSubgraph::run, routing values exactly as the executors do.

struct KernelWalk {
  double kernel_s[kNumDeviceKinds] = {0.0, 0.0};
  double flops = 0.0;
  double bytes = 0.0;
  std::vector<Tensor> outputs;
};

KernelWalk walk_plan(const ExecutionPlan& plan,
                     const std::map<NodeId, Tensor>& feeds) {
  KernelWalk walk;
  std::map<NodeId, Tensor> values = feeds;
  for (int id : plan.step_order()) {
    const PlannedSubgraph& ps = plan.subgraph(id);
    std::map<NodeId, Tensor> sub_feeds;
    for (const PlannedSubgraph::Feed& f : ps.feeds) {
      const auto it = values.find(f.parent_producer);
      if (it == values.end()) {
        throw std::runtime_error("walk: no value for a subgraph feed");
      }
      sub_feeds[f.input_node] = it->second;
    }
    const Clock::time_point t0 = Clock::now();
    std::vector<Tensor> outs = ps.compiled.run(sub_feeds);
    walk.kernel_s[static_cast<int>(ps.device)] += since(t0);
    for (const CompiledKernel& k : ps.compiled.kernels()) {
      walk.flops += k.flops;
      walk.bytes += static_cast<double>(k.bytes_read + k.bytes_written);
    }
    for (size_t o = 0; o < ps.produces.size(); ++o) {
      values[ps.produces[o]] = std::move(outs[o]);
    }
  }
  for (NodeId out : plan.parent().outputs()) {
    walk.outputs.push_back(values.at(out));
  }
  return walk;
}

bool bit_identical(const std::vector<Tensor>& a, const std::vector<Tensor>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].shape() != b[i].shape() || a[i].dtype() != b[i].dtype() ||
        a[i].byte_size() != b[i].byte_size() ||
        std::memcmp(a[i].raw_data(), b[i].raw_data(), a[i].byte_size()) != 0) {
      return false;
    }
  }
  return true;
}

struct ExecLayers {
  std::vector<double> kernel_s[kNumDeviceKinds];
  std::vector<double> run_s;  // the untraced whole, per model
  double flops = 0.0;
  double bytes = 0.0;
  double walk_s = 0.0;
};

// `run` is the untraced whole (DuetEngine::infer or SimExecutor::run).
template <typename Run>
void trace_exec(const std::string& name, const ExecutionPlan& plan,
                const std::map<NodeId, Tensor>& feeds, Run run,
                ExecLayers& layers, Result& result) {
  std::vector<double> run_s, walk_s, kernel_s[kNumDeviceKinds];
  KernelWalk walk;
  for (int r = 0; r < kTraceReps; ++r) {
    Clock::time_point t0 = Clock::now();
    const std::vector<Tensor> whole = run();
    run_s.push_back(since(t0));
    t0 = Clock::now();
    walk = walk_plan(plan, feeds);
    walk_s.push_back(since(t0));
    for (int d = 0; d < kNumDeviceKinds; ++d) {
      kernel_s[d].push_back(walk.kernel_s[d]);
    }
    result.op(bit_identical(walk.outputs, whole),
              name + ": traced walk differs from the untraced run");
  }
  layers.run_s.push_back(median(run_s));
  layers.walk_s += median(walk_s);
  for (int d = 0; d < kNumDeviceKinds; ++d) {
    layers.kernel_s[d].push_back(median(kernel_s[d]));
  }
  layers.flops += walk.flops;
  layers.bytes += walk.bytes;
}

// Returns the tracing overhead (walk time / untraced run time - 1).
double report_exec_layers(const ExecLayers& layers, Result& result) {
  const double cpu = sum(layers.kernel_s[0]);
  const double gpu = sum(layers.kernel_s[1]);
  const double kernel = cpu + gpu;
  const double whole = sum(layers.run_s);
  result.metric("tensor.kernel_s", kernel, "s", "host");
  result.metric("tensor.kernel_s.cpu", cpu, "s", "host");
  result.metric("tensor.kernel_s.gpu", gpu, "s", "host");
  // Computed from the compiler's per-kernel flop and byte counts, divided by
  // measured host kernel time: not hardware counters.
  result.metric("tensor.gflops_computed",
                kernel > 0.0 ? layers.flops / kernel / 1e9 : 0.0, "GFLOP/s",
                "host");
  result.metric("tensor.gbps_computed",
                kernel > 0.0 ? layers.bytes / kernel / 1e9 : 0.0, "GB/s",
                "host");
  result.metric("runtime.run_s", whole, "s", "host");
  result.metric("runtime.overhead_s", whole - kernel, "s", "host");
  const double overhead = layers.walk_s / whole - 1.0;
  result.detail("trace.overhead_frac.run", overhead);
  return overhead;
}

// ---------------------------------------------------------------------------
// Workloads

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

std::vector<Model> named_models(const std::vector<std::string>& names) {
  std::vector<Model> models(names.size());
  for (size_t i = 0; i < names.size(); ++i) models[i].name = names[i];
  return models;
}

uint64_t graph_seed(uint64_t seed, size_t model) {
  return derive(seed, 100 + model);
}

// (Re)generates every model's graph, and its feeds when asked, from the
// seed. Engines are dropped first; compile samples carry over.
void generate(std::vector<Model>& models, uint64_t seed, bool tiny,
              bool with_feeds) {
  for (size_t i = 0; i < models.size(); ++i) {
    Model& m = models[i];
    m.engine.reset();
    m.graph = Graph();
    m.graph =
        models::build_by_name_batched(m.name, 1, tiny, graph_seed(seed, i));
    if (with_feeds) {
      Rng rng(derive(seed, 200 + i));
      m.feeds = models::make_random_feeds(m.graph, rng);
    }
  }
}

void report_setup(const std::vector<double>& setups, Result& result) {
  result.metric("setup_s", median(setups), "s", "host");
}

void report_rss(Result& result) {
  result.metric("peak_rss_mb", peak_rss_mb(), "MB", "host");
}

// compile: cold and warm engine construction of five models, round after
// round, in a seeded order.
void run_compile(const Args& args, Result& result) {
  const DuetOptions options = engine_options(args.seed);
  std::vector<double> setups;
  std::vector<Model> models = named_models(kCompileModels);
  for (int k = 0; k < (args.trace ? 1 : kHeavySetups); ++k) {
    const Clock::time_point t0 = Clock::now();
    generate(models, args.seed, false, false);
    setups.push_back(since(t0));
  }

  if (args.trace) {
    result.metric("trace.overhead_frac",
                  report_compile_layers(models, options, result), "ratio",
                  "host");
    return;
  }

  Rng order_rng(derive(args.seed, 2));
  const Clock::time_point start = Clock::now();
  int rounds = 0;
  for (; rounds < 2 || since(start) < args.seconds; ++rounds) {
    std::vector<size_t> order(models.size());
    std::iota(order.begin(), order.end(), 0);
    order_rng.shuffle(order);
    for (size_t i : order) {
      compile_cold_warm(models[i], options, result);
      models[i].engine.reset();
    }
  }
  const double duration = since(start);
  // The operation is one cold build; the warm builds count toward goodput.
  std::vector<std::vector<double>> ops;
  for (const Model& m : models) ops.push_back(m.cold_s);
  const uint64_t builds = 2 * models.size() * static_cast<uint64_t>(rounds);
  result.detail("rounds", rounds);
  report_setup(setups, result);
  report_rss(result);
  report_compile_metrics(models, result);
  report_op_metrics(ops, builds, builds, duration, result);
}

// Per-output digest of the program's outputs: numel, sum, sum of |x|, L2
// norm and the first four values. run.py compares them with the committed
// goldens for the seeds that have one.
std::vector<double> digest(const Tensor& t) {
  std::vector<double> d = {static_cast<double>(t.numel()), 0.0, 0.0, 0.0};
  if (t.dtype() != DType::kFloat32) return d;
  const float* p = t.data<float>();
  for (int64_t i = 0; i < t.numel(); ++i) {
    d[1] += p[i];
    d[2] += std::fabs(p[i]);
    d[3] += static_cast<double>(p[i]) * p[i];
  }
  d[3] = std::sqrt(d[3]);
  for (int64_t i = 0; i < std::min<int64_t>(4, t.numel()); ++i) {
    d.push_back(p[i]);
  }
  return d;
}

bool outputs_close(const std::vector<Tensor>& got,
                   const std::vector<Tensor>& want) {
  if (got.size() != want.size()) return false;
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].shape() != want[i].shape() ||
        !Tensor::allclose(got[i], want[i], 1e-3f, 1e-4f)) {
      return false;
    }
  }
  return true;
}

// infer: one caller runs numeric DuetEngine::infer on the prebuilt trio,
// interleaved in a seeded order each round. Not among BENCHMARK.json's
// workloads: its kernels spread over the thread pool on every core, and on a
// shared host its times moved by up to 40 % between runs, beyond any bound
// the benchmark may set. Run it by hand with many seeds.
void run_infer(const Args& args, Result& result) {
  const DuetOptions options = engine_options(args.seed);
  std::vector<double> setups;
  std::vector<Model> models = named_models(kInferModels);
  for (int k = 0; k < (args.trace ? 1 : kHeavySetups); ++k) {
    const Clock::time_point t0 = Clock::now();
    generate(models, args.seed, false, true);
    for (Model& m : models) compile_cold_warm(m, options, result);
    setups.push_back(since(t0));
  }

  // Reference: the reference interpreter on the unoptimized graph.
  std::vector<std::vector<Tensor>> reference;
  for (const Model& m : models) {
    reference.push_back(evaluate_graph(m.graph, m.feeds));
  }

  if (args.trace) {
    report_compile_layers(models, options, result);
    ExecLayers layers;
    for (size_t i = 0; i < models.size(); ++i) {
      Model& m = models[i];
      trace_exec(m.name, m.engine->plan(), m.feeds,
                 [&] { return m.engine->infer(m.feeds).outputs; }, layers,
                 result);
      result.op(outputs_close(m.engine->infer(m.feeds).outputs, reference[i]),
                m.name + ": outputs differ from the reference interpreter");
    }
    result.metric("trace.overhead_frac", report_exec_layers(layers, result),
                  "ratio", "host");
    return;
  }

  Rng order_rng(derive(args.seed, 2));
  std::vector<std::vector<double>> ops(models.size());
  uint64_t count = 0;
  const Clock::time_point start = Clock::now();
  for (int round = 0; round < 2 || since(start) < args.seconds; ++round) {
    std::vector<size_t> order(models.size());
    std::iota(order.begin(), order.end(), 0);
    order_rng.shuffle(order);
    for (size_t i : order) {
      Model& m = models[i];
      const Clock::time_point t0 = Clock::now();
      ExecutionResult out = m.engine->infer(m.feeds);
      ops[i].push_back(since(t0));
      ++count;
      result.op(outputs_close(out.outputs, reference[i]),
                m.name + ": outputs differ from the reference interpreter");
      if (round == 0) {
        for (size_t o = 0; o < out.outputs.size(); ++o) {
          result.digest(m.name + "." + std::to_string(o),
                        digest(out.outputs[o]));
        }
      }
    }
  }
  const double duration = since(start);
  report_setup(setups, result);
  report_rss(result);
  report_compile_metrics(models, result);
  report_op_metrics(ops, count, count, duration, result);
  for (size_t i = 0; i < models.size(); ++i) {
    result.detail("infer_s." + models[i].name, median(ops[i]));
  }
}

// ---------------------------------------------------------------------------
// Serving

struct Arrival {
  double due_s = 0.0;
  int model = 0;
  int tenant = 0;
  int feed = 0;
};

// Open-loop arrivals over [0, duration): Poisson at kSteadyQps, or on/off
// (by thinning): kBurstPeakQps during the first kBurstDuty of every
// kBurstPeriodS, kBurstBaseQps in the rest.
std::vector<Arrival> make_arrivals(uint64_t seed, double duration,
                                   bool bursty) {
  Rng rng(derive(seed, 3));
  const double max_rate = bursty ? kBurstPeakQps : kSteadyQps;
  std::vector<Arrival> out;
  double t = 0.0;
  while (true) {
    t += -std::log(1.0 - rng.uniform()) / max_rate;
    if (t >= duration) break;
    if (bursty) {
      const bool on = std::fmod(t, kBurstPeriodS) < kBurstDuty * kBurstPeriodS;
      if (!on && !rng.coin(kBurstBaseQps / kBurstPeakQps)) continue;
    }
    Arrival a;
    a.due_s = t;
    a.model = static_cast<int>(rng.uniform_int(0, kFleetModels.size() - 1));
    a.tenant = static_cast<int>(rng.uniform_int(0, kTenants - 1));
    a.feed = static_cast<int>(rng.uniform_int(0, kFeedPool - 1));
    out.push_back(a);
  }
  return out;
}

struct Fleet {
  std::vector<Model> compiled;  // batch-1 fleet graphs, for compile metrics
  std::unique_ptr<serve::ModelRegistry> registry;
  std::vector<std::vector<std::map<NodeId, Tensor>>> feeds;    // [model][k]
  std::vector<std::vector<std::vector<Tensor>>> reference;     // [model][k]
  std::vector<Arrival> arrivals;
};

std::map<NodeId, Tensor> stacked(
    const std::vector<std::map<NodeId, Tensor>>& pool, int64_t batch) {
  std::vector<const std::map<NodeId, Tensor>*> ptrs;
  for (int64_t b = 0; b < batch; ++b) {
    ptrs.push_back(&pool[static_cast<size_t>(b) % pool.size()]);
  }
  return serve::stack_feeds(ptrs);
}

void build_fleet(const Args& args, double duration, bool bursty, Fleet& fleet,
                 Result& result) {
  const DuetOptions options = engine_options(args.seed);
  fleet.registry.reset();
  fleet.feeds.clear();
  fleet.reference.clear();
  generate(fleet.compiled, args.seed, true, false);
  for (Model& m : fleet.compiled) {
    compile_cold_warm(m, options, result);
    m.engine.reset();
  }

  serve::ModelRegistryOptions ro;
  ro.engine = options;
  ro.max_batch = kMaxBatch;
  fleet.registry = std::make_unique<serve::ModelRegistry>(ro);
  DevicePair devices = make_default_device_pair(options.seed ^ 0x5EEDFACEull);
  SimExecutor executor(devices);
  for (size_t i = 0; i < kFleetModels.size(); ++i) {
    const int index = fleet.registry->register_model(
        kFleetModels[i],
        models::zoo_batched_factory(kFleetModels[i], true,
                                    graph_seed(args.seed, i)));
    serve::ResidentModel& resident = fleet.registry->model(index);
    for (int64_t b = 1; b <= kMaxBatch; ++b) resident.plan_for_batch(b);

    Rng rng(derive(args.seed, 300 + i));
    std::vector<std::map<NodeId, Tensor>> pool;
    std::vector<std::vector<Tensor>> refs;
    for (int k = 0; k < kFeedPool; ++k) {
      pool.push_back(models::make_random_feeds(resident.engine().model(), rng));
      refs.push_back(
          executor.run(*resident.plan_for_batch(1), pool.back()).outputs);
    }
    fleet.feeds.push_back(std::move(pool));
    fleet.reference.push_back(std::move(refs));
  }
  fleet.arrivals = make_arrivals(args.seed, duration, bursty);
}

struct ServeLeg {
  std::vector<double> latency_s;  // from due time; refused count as misses
  std::vector<double> wait_s;
  std::vector<double> overhead_s;
  std::vector<double> lag_s;
  std::vector<double> submit_s;
  std::vector<double> tenant_latency_s[kTenants];
  std::vector<std::vector<double>> model_latency_s =  // completed, from submit
      std::vector<std::vector<double>>(kFleetModels.size());
  uint64_t offered = 0;
  uint64_t good = 0;  // correct and within the limit
  uint64_t completed = 0;
  uint64_t shed = 0;
  uint64_t rejected = 0;
  double busy_s = 0.0;
  double duration_s = 0.0;
  serve::FleetServerStats stats;
};

// One open-loop leg. The calling thread is the load generator. It checks and
// times responses (from the server's own timestamps) only in its idle time
// before the next request is due, and never spins, so it takes no core from
// the server it measures.
ServeLeg serve_leg(Fleet& fleet, const std::vector<Arrival>& arrivals,
                   double duration, double deadline_s, uint64_t seed,
                   bool time_submit,
                   const std::vector<std::vector<double>>* exec_s,
                   Result& result) {
  serve::FleetOptions fo;
  fo.workers = kWorkers;
  fo.queue_capacity = kQueueCapacity;
  fo.tenants = serve::default_tenant_classes(kTenants, deadline_s);
  fo.max_batch = kMaxBatch;
  fo.seed = derive(seed, 5);

  ServeLeg leg;
  leg.offered = arrivals.size();
  leg.duration_s = duration;
  leg.lag_s.reserve(arrivals.size());
  std::vector<double> call_s(arrivals.size());  // submit time, from start
  std::vector<std::future<serve::FleetResponse>> futures(arrivals.size());

  const auto collect = [&](size_t i) {
    const Arrival& a = arrivals[i];
    const size_t model = static_cast<size_t>(a.model);
    const serve::FleetResponse r = futures[i].get();
    const double latency = call_s[i] - a.due_s + r.wall_latency_s;
    const bool refused = r.status != serve::RequestStatus::kOk;
    if (r.status == serve::RequestStatus::kShed) ++leg.shed;
    if (r.status == serve::RequestStatus::kRejected) ++leg.rejected;
    // A refused request counts as missing the latency limit.
    const double counted = refused ? std::max(latency, kLimitS) : latency;
    leg.latency_s.push_back(counted);
    leg.tenant_latency_s[a.tenant].push_back(counted);
    if (refused) return;
    ++leg.completed;
    // op_p50_ms times a request from the submit call, so the host's own
    // stalls, which the generator absorbs as lag, stay out of the median.
    leg.model_latency_s[model].push_back(r.wall_latency_s);
    const bool ok = bit_identical(
        r.outputs, fleet.reference[model][static_cast<size_t>(a.feed)]);
    result.op(ok, kFleetModels[model] +
                      ": served outputs differ from a standalone batch-1 run");
    if (ok && latency <= kLimitS) ++leg.good;
    leg.wait_s.push_back(r.wall_wait_s);
    if (exec_s != nullptr) {
      const double exec = (*exec_s)[model][static_cast<size_t>(r.batch)];
      leg.overhead_s.push_back(r.wall_latency_s - r.wall_wait_s - exec);
      leg.busy_s += exec / static_cast<double>(r.batch);
    }
  };

  size_t collected = 0;
  {
    serve::FleetServer server(*fleet.registry, fo);
    const Clock::time_point start = Clock::now();
    for (size_t i = 0; i < arrivals.size(); ++i) {
      const Arrival& a = arrivals[i];
      while (collected < i && a.due_s - since(start) > 200e-6 &&
             futures[collected].wait_for(std::chrono::seconds(0)) ==
                 std::future_status::ready) {
        collect(collected++);
      }
      const double ahead = a.due_s - since(start);
      if (ahead > 0.0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(ahead));
      }
      call_s[i] = since(start);
      leg.lag_s.push_back(call_s[i] - a.due_s);
      std::map<NodeId, Tensor> feeds = fleet.feeds[static_cast<size_t>(a.model)]
                                                  [static_cast<size_t>(a.feed)];
      if (time_submit) {
        const Clock::time_point t0 = Clock::now();
        futures[i] = server.submit(a.model, a.tenant, std::move(feeds));
        leg.submit_s.push_back(since(t0));
      } else {
        futures[i] = server.submit(a.model, a.tenant, std::move(feeds));
      }
    }
    server.drain();
    leg.stats = server.stats();
  }
  while (collected < arrivals.size()) collect(collected++);

  // Conservation, per tenant, against the server's own counters and against
  // what the client saw.
  std::vector<uint64_t> client_offered(kTenants, 0);
  for (const Arrival& a : arrivals) {
    ++client_offered[static_cast<size_t>(a.tenant)];
  }
  for (int t = 0; t < kTenants; ++t) {
    const serve::AdmissionCounters::Snapshot& s =
        leg.stats.tenants[t].admission;
    if (s.offered != client_offered[static_cast<size_t>(t)] ||
        s.offered != s.completed + s.shed + s.rejected) {
      result.fail("tenant " + leg.stats.tenants[t].name +
                  ": offered != completed + shed + rejected");
    }
  }
  if (leg.stats.total.offered != leg.offered ||
      leg.stats.total.completed != leg.completed ||
      leg.stats.total.shed != leg.shed ||
      leg.stats.total.rejected != leg.rejected) {
    result.fail("server counters disagree with the responses received");
  }
  // The generator's own lateness must stay under the latency limit, or the
  // run measures the generator rather than the server. The host's own
  // millisecond stalls reach the generator's tail, so the test is at p90.
  if (quantile(leg.lag_s, 0.90) > kLimitS) {
    result.fail("load generator ran late: p90 lag " +
                std::to_string(quantile(leg.lag_s, 0.90) * 1e3) + " ms");
  }
  return leg;
}

double completed_p50(const ServeLeg& leg) {
  std::vector<double> all;
  for (const std::vector<double>& per_model : leg.model_latency_s) {
    all.insert(all.end(), per_model.begin(), per_model.end());
  }
  return quantile(all, 0.5);
}

void run_serve(const Args& args, bool bursty, Result& result) {
  const double deadline = bursty ? kLimitS : 0.0;
  std::vector<double> setups;
  Fleet fleet;
  fleet.compiled = named_models(kFleetModels);
  for (int k = 0; k < (args.trace ? 1 : kSetups); ++k) {
    const Clock::time_point t0 = Clock::now();
    build_fleet(args, args.seconds, bursty, fleet, result);
    setups.push_back(since(t0));
  }

  if (!args.trace) {
    ServeLeg leg = serve_leg(fleet, fleet.arrivals, args.seconds, deadline,
                             args.seed, false, nullptr, result);
    report_setup(setups, result);
    report_rss(result);
    report_compile_metrics(fleet.compiled, result);
    report_op_metrics(leg.model_latency_s, leg.offered, leg.good,
                      leg.duration_s, result);
    result.detail("completed", static_cast<double>(leg.completed));
    result.detail("shed", static_cast<double>(leg.shed));
    result.detail("rejected", static_cast<double>(leg.rejected));
    result.detail("batch_mean", leg.stats.mean_batch);
    result.detail("gen_lag_p50_ms", quantile(leg.lag_s, 0.50) * 1e3);
    result.detail("gen_lag_p90_ms", quantile(leg.lag_s, 0.90) * 1e3);
    result.detail("gen_lag_p99_ms", quantile(leg.lag_s, 0.99) * 1e3);
    result.detail("gen_lag_max_ms", quantile(leg.lag_s, 1.0) * 1e3);
    return;
  }

  report_compile_layers(fleet.compiled, engine_options(args.seed), result);

  // Standalone executions: batch-1 plans walked kernel by kernel, and every
  // batch size's plan timed whole.
  DevicePair devices =
      make_default_device_pair(engine_options(args.seed).seed ^ 0x5EEDFACEull);
  SimExecutor executor(devices);
  ExecLayers layers;
  std::vector<std::vector<double>> exec_s(kFleetModels.size(),
                                          std::vector<double>(kMaxBatch + 1));
  for (size_t i = 0; i < kFleetModels.size(); ++i) {
    serve::ResidentModel& resident = fleet.registry->model(static_cast<int>(i));
    const auto plan1 = resident.plan_for_batch(1);
    const std::map<NodeId, Tensor>& feeds = fleet.feeds[i][0];
    trace_exec(kFleetModels[i], *plan1, feeds,
               [&] { return executor.run(*plan1, feeds).outputs; }, layers,
               result);
    for (int64_t b = 1; b <= kMaxBatch; ++b) {
      const auto plan = resident.plan_for_batch(b);
      const std::map<NodeId, Tensor> batch_feeds = stacked(fleet.feeds[i], b);
      std::vector<double> reps;
      for (int r = 0; r < 21; ++r) {
        const Clock::time_point t0 = Clock::now();
        executor.run(*plan, batch_feeds);
        reps.push_back(since(t0));
      }
      exec_s[i][static_cast<size_t>(b)] = median(reps);
    }
  }
  report_exec_layers(layers, result);

  // Two legs over the first half of the trace each: untraced, then with
  // every submit timed.
  std::vector<Arrival> half;
  for (const Arrival& a : fleet.arrivals) {
    if (a.due_s < args.seconds / 2) half.push_back(a);
  }
  const ServeLeg plain = serve_leg(fleet, half, args.seconds / 2, deadline,
                                   args.seed, false, nullptr, result);
  const ServeLeg leg = serve_leg(fleet, half, args.seconds / 2, deadline,
                                 args.seed, true, &exec_s, result);

  std::vector<double> b1, bmax;
  for (const auto& per_batch : exec_s) {
    b1.push_back(per_batch[1] * 1e6);
    bmax.push_back(per_batch[kMaxBatch] * 1e6);
  }
  result.metric("serve.submit_us.p50", quantile(leg.submit_s, 0.50) * 1e6, "us",
                "host");
  result.metric("serve.submit_us.p99", quantile(leg.submit_s, 0.99) * 1e6, "us",
                "host");
  result.metric("serve.wait_ms.p50", quantile(leg.wait_s, 0.50) * 1e3, "ms",
                "host");
  result.metric("serve.wait_ms.p90", quantile(leg.wait_s, 0.90) * 1e3, "ms",
                "host");
  result.metric("serve.exec_us.b1", geomean(b1), "us", "host");
  result.metric("serve.exec_us.bmax", geomean(bmax), "us", "host");
  result.metric("serve.overhead_us", quantile(leg.overhead_s, 0.50) * 1e6, "us",
                "host");
  result.metric("serve.busy_frac", leg.busy_s / (kWorkers * leg.duration_s),
                "ratio", "host");
  result.metric("serve.batch_mean", leg.stats.mean_batch, "count", "count");
  for (int64_t b = 1; b <= kMaxBatch; ++b) {
    const auto it = leg.stats.batch_histogram.find(b);
    result.metric("serve.batches.b" + std::to_string(b),
                  it == leg.stats.batch_histogram.end()
                      ? 0.0
                      : static_cast<double>(it->second),
                  "count", "count");
  }
  result.metric("serve.completed", static_cast<double>(leg.completed), "count",
                "count");
  result.metric("serve.shed", static_cast<double>(leg.shed), "count", "count");
  result.metric("serve.rejected", static_cast<double>(leg.rejected), "count",
                "count");
  const std::vector<serve::TenantClass> tenants =
      serve::default_tenant_classes(kTenants);
  for (int t = 0; t < kTenants; ++t) {
    result.metric("serve.p90_ms." + tenants[t].name,
                  quantile(leg.tenant_latency_s[t], 0.90) * 1e3, "ms", "host");
  }
  result.metric("serve.p50_ms", quantile(leg.latency_s, 0.50) * 1e3, "ms",
                "host");
  result.metric("serve.p90_ms", quantile(leg.latency_s, 0.90) * 1e3, "ms",
                "host");
  result.metric("serve.p99_ms", quantile(leg.latency_s, 0.99) * 1e3, "ms",
                "host");
  result.metric("gen.lag_p99_ms", quantile(leg.lag_s, 0.99) * 1e3, "ms",
                "host");
  result.metric("gen.lag_max_ms", quantile(leg.lag_s, 1.0) * 1e3, "ms", "host");
  result.metric("trace.overhead_frac",
                completed_p50(leg) / completed_p50(plain) - 1.0, "ratio",
                "host");
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (args.seconds <= 0.0) throw std::invalid_argument("--seconds must be > 0");
  return args;
}

}  // namespace
}  // namespace duet::hostbench

int main(int argc, char** argv) {
  using namespace duet::hostbench;
  try {
    const Args args = parse_args(argc, argv);
    Result result;
    if (args.workload == "compile") {
      run_compile(args, result);
    } else if (args.workload == "infer") {
      run_infer(args, result);
    } else if (args.workload == "serve") {
      run_serve(args, false, result);
    } else if (args.workload == "serve-burst") {
      run_serve(args, true, result);
    } else {
      throw std::invalid_argument("unknown workload '" + args.workload + "'");
    }
    std::cout << result.to_json(args.workload, args.seed, args.seconds,
                                args.trace)
              << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "duet_hostbench: " << e.what() << "\n";
    return 1;
  }
}
