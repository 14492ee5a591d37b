#include "serve/model_registry.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "analysis/symbolic/crossover.hpp"
#include "analysis/symbolic/sym_shape_inference.hpp"
#include "common/error.hpp"
#include "compiler/compile_cache.hpp"
#include "compiler/pass.hpp"
#include "profile/profile_cache.hpp"

namespace duet::serve {

std::string RegistryCacheStats::to_string() const {
  std::ostringstream os;
  os << "registry caches: compile " << compile_hits << "/" << (compile_hits + compile_misses)
     << " hits (dedup " << compile_dedup_ratio() << "), profile "
     << profile_hits << "/" << (profile_hits + profile_misses) << " hits\n";
  for (const RegistrationCacheDelta& d : registrations) {
    os << "  " << d.model << ": compile +" << d.compile_misses << " miss/+"
       << d.compile_hits << " hit, profile +" << d.profile_misses << " miss/+"
       << d.profile_hits << " hit\n";
  }
  return os.str();
}

ResidentModel::ResidentModel(std::string name, BatchedGraphFactory factory,
                             const ModelRegistryOptions& options)
    : name_(std::move(name)),
      factory_(std::move(factory)),
      options_(options) {
  DUET_CHECK_GE(options_.max_batch, 1);
  engine_ = std::make_unique<DuetEngine>(factory_(1), options_.engine);

  // Bucket boundaries from the PR-7 certificates: scan the batch symbol over
  // the coalescing range on the same optimized/partitioned graph the
  // analysis CLI certifies.
  std::vector<int64_t> boundaries;
  if (options_.crossover_buckets && options_.max_batch > 1) {
    const Graph optimized =
        PassManager::standard(options_.engine.compile).run(factory_(1));
    const Partition partition =
        partition_phased(optimized, options_.engine.partition);
    const symbolic::SymbolicShapes shapes =
        symbolic::infer_symbolic(optimized, symbolic::SymbolicOptions{});
    symbolic::CrossoverOptions x_opts;
    x_opts.lo = 1;
    x_opts.hi = options_.max_batch;
    const symbolic::CrossoverReport report =
        symbolic::analyze_crossover(optimized, partition, shapes, x_opts);
    boundaries = symbolic::serving_bucket_boundaries(report, options_.max_batch);
  }
  buckets_ = make_batch_buckets(std::move(boundaries), options_.max_batch,
                                options_.max_buckets);

  // One scheduler run per bucket at its representative batch. Bucket 0's
  // representative is batch 1, which is exactly the base engine.
  placements_.reserve(buckets_.size());
  for (const BatchBucket& bucket : buckets_) {
    if (bucket.rep() == 1) {
      placements_.push_back(engine_->report().schedule.placement);
      continue;
    }
    DuetEngine bucket_engine(factory_(bucket.rep()), options_.engine);
    const Placement& placement = bucket_engine.report().schedule.placement;
    DUET_CHECK_EQ(placement.size(),
                  engine_->report().schedule.placement.size())
        << "factory(" << bucket.rep()
        << ") partitions differently from factory(1) for model " << name_;
    placements_.push_back(placement);
  }
  // The B=1 bucket plan is the base engine's own (verified) plan.
  plans_.emplace(1, std::make_shared<const ExecutionPlan>(engine_->plan()));
}

Placement ResidentModel::bucket_placement(size_t bucket) const {
  DUET_CHECK_LT(bucket, buckets_.size());
  std::lock_guard<std::mutex> lock(plans_mutex_);
  return placements_[bucket];
}

size_t ResidentModel::bucket_of(int64_t batch) const {
  return bucket_for(buckets_, batch);
}

uint64_t ResidentModel::plan_version() const {
  std::lock_guard<std::mutex> lock(plans_mutex_);
  return plan_version_;
}

ExecutionPlan ResidentModel::build_plan(int64_t batch,
                                        const Placement& placement) const {
  Graph graph = factory_(batch);
  Partition partition = partition_phased(graph, options_.engine.partition);
  DUET_CHECK_EQ(partition.subgraphs.size(), placement.size())
      << "batched partition diverged for model " << name_;
  return ExecutionPlan::build(graph, std::move(partition), placement,
                              engine_->devices(), options_.engine.compile);
}

const Placement& ResidentModel::placement_for(int64_t batch,
                                              bool bucketed) const {
  return bucketed ? placements_[bucket_of(batch)]
                  : engine_->report().schedule.placement;
}

uint64_t ResidentModel::swap_base_placement(const Placement& placement) {
  // Build outside the lock: in-flight executions keep their snapshot and
  // new pickups keep the old plan until the publish below.
  auto plan = std::make_shared<const ExecutionPlan>(
      engine_->build_plan_for(placement));
  const int64_t bucket0_hi = buckets_.front().hi;
  std::lock_guard<std::mutex> lock(plans_mutex_);
  placements_.front() = placement;
  for (int64_t batch = 1; batch <= bucket0_hi; ++batch) {
    plans_.erase(batch);
    service_cache_.erase({batch, true});
  }
  plans_[1] = std::move(plan);
  return ++plan_version_;
}

std::shared_ptr<const ExecutionPlan> ResidentModel::plan_for_batch(
    int64_t batch, uint64_t* version) {
  DUET_CHECK_GE(batch, 1);
  DUET_CHECK_LE(batch, options_.max_batch)
      << "batch beyond the registry's coalescing range";
  Placement placement;
  uint64_t built_version = 0;
  {
    std::lock_guard<std::mutex> lock(plans_mutex_);
    if (version != nullptr) *version = plan_version_;
    const auto it = plans_.find(batch);
    if (it != plans_.end()) return it->second;
    placement = placement_for(batch, /*bucketed=*/true);
    built_version = plan_version_;
  }

  // Build outside the lock (compiles are slow; the caches keep them warm),
  // publish under it. A losing racer just adopts the winner's snapshot.
  auto plan =
      std::make_shared<const ExecutionPlan>(build_plan(batch, placement));

  std::lock_guard<std::mutex> lock(plans_mutex_);
  if (plan_version_ != built_version) return plan;  // built pre-swap
  auto [it, inserted] = plans_.emplace(batch, std::move(plan));
  (void)inserted;
  return it->second;
}

double ResidentModel::probe_service_s(int64_t batch, bool bucketed) {
  DUET_CHECK_GE(batch, 1);
  DUET_CHECK_LE(batch, options_.max_batch);
  const std::pair<int64_t, bool> key{batch, bucketed};
  Placement placement;
  uint64_t built_version = 0;
  {
    std::lock_guard<std::mutex> lock(plans_mutex_);
    const auto it = service_cache_.find(key);
    if (it != service_cache_.end()) return it->second;
    placement = placement_for(batch, bucketed);
    built_version = plan_version_;
  }
  // Throwaway plan: measured, never published. Racing probes duplicate a
  // little work and agree on the (deterministic) answer.
  const ExecutionPlan plan = build_plan(batch, placement);
  SimExecutor executor(engine_->devices());
  const double s = executor.run_latency_only(plan, /*with_noise=*/false);
  std::lock_guard<std::mutex> lock(plans_mutex_);
  if (plan_version_ == built_version) service_cache_.emplace(key, s);
  return s;
}

double ResidentModel::interpolated_service_s(int64_t batch, bool bucketed) {
  DUET_CHECK_GE(batch, 1);
  const int64_t b = std::min(batch, options_.max_batch);
  const BatchBucket& bucket = buckets_[bucket_of(b)];
  const double at_lo = probe_service_s(bucket.lo, bucketed);
  if (b == bucket.lo || bucket.lo == bucket.hi) return at_lo;
  const double at_hi = probe_service_s(bucket.hi, bucketed);
  const double t = static_cast<double>(b - bucket.lo) /
                   static_cast<double>(bucket.hi - bucket.lo);
  return at_lo + t * (at_hi - at_lo);
}

double ResidentModel::modeled_service_s(int64_t batch) {
  return interpolated_service_s(batch, /*bucketed=*/true);
}

double ResidentModel::baseline_service_s(int64_t batch) {
  return interpolated_service_s(batch, /*bucketed=*/false);
}

ModelRegistry::ModelRegistry(ModelRegistryOptions options)
    : options_(std::move(options)) {}

int ModelRegistry::register_model(const std::string& name,
                                  BatchedGraphFactory factory) {
  DUET_CHECK(index_of(name) < 0) << "model already registered: " << name;
  const CompileCache::Stats compile_before = CompileCache::instance().stats();
  const ProfileCache::Stats profile_before = ProfileCache::instance().stats();

  models_.push_back(
      std::make_unique<ResidentModel>(name, std::move(factory), options_));

  const CompileCache::Stats compile_after = CompileCache::instance().stats();
  const ProfileCache::Stats profile_after = ProfileCache::instance().stats();
  RegistrationCacheDelta delta;
  delta.model = name;
  delta.compile_hits = compile_after.hits - compile_before.hits;
  delta.compile_misses = compile_after.misses - compile_before.misses;
  delta.profile_hits = profile_after.hits - profile_before.hits;
  delta.profile_misses = profile_after.misses - profile_before.misses;
  cache_stats_.registrations.push_back(delta);
  cache_stats_.compile_hits += delta.compile_hits;
  cache_stats_.compile_misses += delta.compile_misses;
  cache_stats_.profile_hits += delta.profile_hits;
  cache_stats_.profile_misses += delta.profile_misses;
  return static_cast<int>(models_.size()) - 1;
}

int ModelRegistry::index_of(const std::string& name) const {
  for (size_t i = 0; i < models_.size(); ++i) {
    if (models_[i]->name() == name) return static_cast<int>(i);
  }
  return -1;
}

ResidentModel& ModelRegistry::model(int index) {
  DUET_CHECK_GE(index, 0);
  DUET_CHECK_LT(static_cast<size_t>(index), models_.size());
  return *models_[index];
}

const ResidentModel& ModelRegistry::model(int index) const {
  DUET_CHECK_GE(index, 0);
  DUET_CHECK_LT(static_cast<size_t>(index), models_.size());
  return *models_[index];
}

ModelRegistry single_model_registry(Graph model, const DuetOptions& engine) {
  ModelRegistryOptions options;
  options.engine = engine;
  options.max_batch = 1;
  ModelRegistry registry(options);
  const std::string name = model.name();
  registry.register_model(name, [model = std::move(model)](int64_t batch) {
    DUET_CHECK_EQ(batch, 1) << "model \"" << model.name()
                            << "\" is served at batch 1 only";
    return model;
  });
  return registry;
}

}  // namespace duet::serve
