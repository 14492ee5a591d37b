#include "serve/fleet.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace_context.hpp"

namespace duet::serve {

using telemetry::FlightKind;
using telemetry::FlightRecorder;

namespace {

std::vector<TenantClass> normalize_tenants(std::vector<TenantClass> tenants) {
  if (tenants.empty()) tenants.push_back(TenantClass{});
  return tenants;
}

}  // namespace

FleetServer::FleetServer(ModelRegistry& registry, FleetOptions options)
    : registry_(registry),
      options_([&] {
        options.tenants = normalize_tenants(std::move(options.tenants));
        options.max_batch =
            std::min(options.max_batch, registry.options().max_batch);
        return std::move(options);
      }()),
      paused_(options_.start_paused),
      policy_(options_.tenants, options_.queue_capacity),
      counters_(options_.tenants.size()),
      dump_trigger_(options_.observability.trigger) {
  DUET_CHECK_GT(options_.workers, 0);
  DUET_CHECK_GT(options_.queue_capacity, 0u);
  DUET_CHECK_GE(options_.max_batch, 1);
  DUET_CHECK_GT(registry_.size(), 0u) << "fleet over an empty registry";
  for (size_t m = 0; m < registry_.size(); ++m) {
    const ResidentModel& resident = registry_.model(static_cast<int>(m));
    drift_.emplace_back(resident.engine().partition().subgraphs.size());
  }
  completed_b1_.assign(drift_.size(), 0);
  for (const TenantClass& t : options_.tenants) {
    slo_.push_back(std::make_unique<telemetry::SloMonitor>(
        options_.observability.slo_window_s,
        options_.observability.slo_buckets));
    tenant_metrics_.push_back(
        {&telemetry::counter("fleet.offered." + t.name),
         &telemetry::counter("fleet.rejected." + t.name),
         &telemetry::counter("fleet.shed." + t.name),
         &telemetry::counter("fleet.completed." + t.name)});
  }
  workers_.reserve(static_cast<size_t>(options_.workers));
  for (int w = 0; w < options_.workers; ++w) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  DUET_LOG_INFO << "FleetServer up: " << options_.workers << " workers, "
                << registry_.size() << " resident models, "
                << options_.tenants.size() << " tenant classes, max batch "
                << options_.max_batch;
}

FleetServer::~FleetServer() { shutdown(); }

std::future<FleetResponse> FleetServer::submit(int model, int tenant,
                                               std::map<NodeId, Tensor> feeds,
                                               double deadline_s) {
  DUET_CHECK_GE(model, 0);
  DUET_CHECK_LT(static_cast<size_t>(model), drift_.size());
  DUET_CHECK_GE(tenant, 0);
  DUET_CHECK_LT(static_cast<size_t>(tenant), options_.tenants.size());
  const size_t t = static_cast<size_t>(tenant);

  const uint64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
  const double arrival_s = clock_.elapsed();
  const double rel = deadline_s < 0.0 ? options_.tenants[t].deadline_s
                                      : deadline_s;

  Pending pending;
  pending.trace_id = id;
  pending.tenant = tenant;
  pending.arrival_s = arrival_s;
  pending.deadline_s = rel > 0.0 ? arrival_s + rel : 0.0;
  pending.feeds = std::move(feeds);
  std::future<FleetResponse> future = pending.promise.get_future();

  FleetRequest request;
  request.id = id;
  request.tenant = tenant;
  request.model = model;
  request.arrival_s = arrival_s;
  request.deadline_s = pending.deadline_s;

  counters_[t].offered.fetch_add(1, std::memory_order_relaxed);
  tenant_metrics_[t].offered->add(1);

  bool accepted = false;
  uint64_t depth = 0;
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    depth = policy_.size();
    if (!draining_ && policy_.push(request)) {
      accepted = true;
      pending_.emplace(id, std::move(pending));
      ++inflight_;
      max_queue_depth_ = std::max(max_queue_depth_, policy_.size());
    }
  }
  telemetry::SloMonitor& slo = *slo_[t];
  const double now_us = telemetry::now_us();
  slo.record_offered(now_us);
  slo.record_queue_depth(now_us, static_cast<double>(depth));
  if (accepted) {
    counters_[t].accepted.fetch_add(1, std::memory_order_relaxed);
    FlightRecorder::instance().record(FlightKind::kEnqueue, id, depth);
    queue_cv_.notify_one();
    return future;
  }

  // Refused (full or draining): the request never entered the queue, so
  // the rejection resolves the caller's future immediately.
  counters_[t].rejected.fetch_add(1, std::memory_order_relaxed);
  tenant_metrics_[t].rejected->add(1);
  rejected_metric_.add(1);
  slo.record_rejected(now_us);
  FlightRecorder::instance().record(FlightKind::kReject, id, depth);
  FleetResponse response;
  response.status = RequestStatus::kRejected;
  response.wall_latency_s = clock_.elapsed() - arrival_s;
  pending.promise.set_value(std::move(response));
  return future;
}

void FleetServer::resume() {
  {
    std::lock_guard<std::mutex> lock(pause_mutex_);
    paused_ = false;
  }
  pause_cv_.notify_all();
}

void FleetServer::drain() {
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    draining_ = true;
  }
  resume();  // a paused server can never drain its backlog
  queue_cv_.notify_all();
  std::unique_lock<std::mutex> lock(queue_mutex_);
  inflight_cv_.wait(lock, [this] { return inflight_ == 0; });
}

void FleetServer::shutdown() {
  if (shut_down_.exchange(true)) return;
  drain();
  queue_cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

FleetServer::Pending FleetServer::take_pending(uint64_t id) {
  const auto it = pending_.find(id);
  DUET_CHECK(it != pending_.end()) << "picked request has no payload";
  Pending out = std::move(it->second);
  pending_.erase(it);
  return out;
}

void FleetServer::resolve(Pending& pending, FleetResponse&& response) {
  response.wall_latency_s = clock_.elapsed() - pending.arrival_s;
  pending.promise.set_value(std::move(response));
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    DUET_CHECK_GT(inflight_, 0u);
    --inflight_;
  }
  inflight_cv_.notify_all();
}

void FleetServer::shed(Pending& pending, double pickup_s) {
  const size_t t = static_cast<size_t>(pending.tenant);
  const double wait_s = pickup_s - pending.arrival_s;
  const double now_us = telemetry::now_us();
  slo_[t]->record_queue_wait(now_us, wait_s * 1e6);
  slo_[t]->record_shed(now_us);
  counters_[t].shed.fetch_add(1, std::memory_order_relaxed);
  tenant_metrics_[t].shed->add(1);
  shed_metric_.add(1);
  slo_breaches_.fetch_add(1, std::memory_order_relaxed);
  breaches_metric_.add(1);
  FlightRecorder::instance().record(FlightKind::kShed, pending.trace_id,
                                    static_cast<uint64_t>(wait_s * 1e6));
  // Triggers before resolve(), as on the completion path: once the last
  // request resolves, drain() returns and the dump must already exist.
  if (dump_trigger_.on_deadline_miss(now_us)) {
    maybe_flight_dump("deadline-miss-burst");
  }
  if (dump_trigger_.on_outcome(/*shed=*/true)) maybe_flight_dump("shed-rate");
  FleetResponse response;
  response.status = RequestStatus::kShed;
  response.wall_wait_s = wait_s;
  resolve(pending, std::move(response));
}

void FleetServer::worker_loop() {
  // Each worker is a full engine replica: its own device pair (same seed
  // derivation as the engine's post-profiling devices, so modeled times
  // match DuetEngine::latency) and per-run arenas inside SimExecutor::run.
  DevicePair devices =
      make_default_device_pair(registry_.options().engine.seed ^
                               0x5EEDFACEull);
  SimExecutor executor(devices);

  {
    std::unique_lock<std::mutex> lock(pause_mutex_);
    pause_cv_.wait(lock, [this] { return !paused_; });
  }

  while (true) {
    PickResult picked;
    std::vector<Pending> batch_pending;
    std::vector<Pending> shed_pending;
    double pickup_s = 0.0;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock, [this] { return draining_ || !policy_.empty(); });
      if (policy_.empty()) return;  // draining and nothing left
      pickup_s = clock_.elapsed();
      picked = policy_.pick(pickup_s, options_.max_batch);
      shed_pending.reserve(picked.shed.size());
      for (const FleetRequest& r : picked.shed) {
        shed_pending.push_back(take_pending(r.id));
      }
      batch_pending.reserve(picked.batch.size());
      for (const FleetRequest& r : picked.batch) {
        batch_pending.push_back(take_pending(r.id));
      }
    }

    for (Pending& p : shed_pending) shed(p, pickup_s);
    if (picked.batch.empty()) continue;

    const int model = picked.batch.front().model;
    const int64_t batch = static_cast<int64_t>(picked.batch.size());
    ResidentModel& resident = registry_.model(model);
    uint64_t version = 0;
    const std::shared_ptr<const ExecutionPlan> plan =
        resident.plan_for_batch(batch, &version);
    const size_t bucket = resident.bucket_of(batch);

    std::vector<const std::map<NodeId, Tensor>*> feed_ptrs;
    feed_ptrs.reserve(batch_pending.size());
    for (const Pending& p : batch_pending) feed_ptrs.push_back(&p.feeds);

    const double pickup_us = telemetry::now_us();
    for (const Pending& p : batch_pending) {
      const double wait_us = (pickup_s - p.arrival_s) * 1e6;
      slo_[static_cast<size_t>(p.tenant)]->record_queue_wait(pickup_us,
                                                             wait_us);
      FlightRecorder::instance().record(FlightKind::kPickup, p.trace_id,
                                        static_cast<uint64_t>(wait_us));
    }
    if (batch > 1) {
      FlightRecorder::instance().record(FlightKind::kCoalesce,
                                        batch_pending.front().trace_id,
                                        static_cast<uint64_t>(batch),
                                        static_cast<uint64_t>(model));
    }

    ExecutionResult result;
    {
      const uint64_t head = batch_pending.front().trace_id;
      telemetry::ScopedSpan span(
          telemetry::enabled() ? "request:" + std::to_string(head)
                               : std::string(),
          "serve", resident.name());
      // Request context for the executor: timeline events and flight
      // launch/transfer records inside run() tag themselves with this id.
      telemetry::TraceScope trace(head);
      result = executor.run(*plan, stack_feeds(feed_ptrs), options_.with_noise);
    }
    std::vector<std::vector<Tensor>> rows =
        split_outputs(result.outputs, batch_pending.size());

    {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      for (const FleetRequest& r : picked.batch) {
        policy_.charge(r.tenant,
                       result.latency_s / static_cast<double>(batch));
      }
    }
    const double done_s = clock_.elapsed();
    batch_size_metric_.observe(static_cast<double>(batch));
    bool recalibrate_due = false;
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      // Drift feeds recalibration of bucket 0, whose plans are the B=1
      // plans; a coalesced run's per-subgraph times belong to another shape.
      if (batch == 1) {
        const size_t m = static_cast<size_t>(model);
        drift_[m].record(result.timeline);
        recalibrate_due = options_.recalibrate_every > 0 &&
                          ++completed_b1_[m] % options_.recalibrate_every == 0;
      }
      ++batches_;
      served_ += static_cast<uint64_t>(batch);
      if (batch > 1) coalesced_ += static_cast<uint64_t>(batch);
      ++batch_histogram_[batch];
      for (const Pending& p : batch_pending) {
        modeled_latency_.add(result.latency_s);
        wall_wait_.add(pickup_s - p.arrival_s);
      }
    }
    const double slo_s = options_.observability.slo_latency_s;
    for (size_t i = 0; i < batch_pending.size(); ++i) {
      Pending& p = batch_pending[i];
      const size_t t = static_cast<size_t>(p.tenant);
      const double latency_s = done_s - p.arrival_s;
      const bool late = p.deadline_s > 0.0 && done_s > p.deadline_s;
      counters_[t].completed.fetch_add(1, std::memory_order_relaxed);
      if (late) {
        counters_[t].completed_late.fetch_add(1, std::memory_order_relaxed);
      }
      // SLO breach: over the configured latency target, or — with no
      // explicit target — over the request's own deadline.
      const bool breach = slo_s > 0.0 ? latency_s > slo_s : late;
      const double now_us = telemetry::now_us();
      slo_[t]->record_completed(now_us, latency_s * 1e6, breach);
      if (breach) {
        slo_breaches_.fetch_add(1, std::memory_order_relaxed);
        breaches_metric_.add(1);
        if (dump_trigger_.on_deadline_miss(now_us)) {
          maybe_flight_dump("deadline-miss-burst");
        }
      }
      if (dump_trigger_.on_outcome(/*shed=*/false)) {
        maybe_flight_dump("shed-rate");
      }
      tenant_metrics_[t].completed->add(1);
      completed_metric_.add(1);
      FlightRecorder::instance().record(
          FlightKind::kComplete, p.trace_id, version,
          static_cast<uint64_t>(latency_s * 1e6));
      FleetResponse response;
      response.status = RequestStatus::kOk;
      response.outputs = std::move(rows[i]);
      response.modeled_latency_s = result.latency_s;
      response.batch = batch;
      response.bucket = bucket;
      response.plan_version = version;
      response.wall_wait_s = pickup_s - p.arrival_s;
      resolve(p, std::move(response));
    }

    if (recalibrate_due) recalibrate_now(model);
  }
}

RecalibrationResult FleetServer::recalibrate_now(int model) {
  DUET_CHECK_GE(model, 0);
  DUET_CHECK_LT(static_cast<size_t>(model), drift_.size());
  ResidentModel& resident = registry_.model(model);
  std::lock_guard<std::mutex> serialize(recalibrate_mutex_);
  DriftAccumulator observed(0);
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    observed = drift_[static_cast<size_t>(model)];
  }
  recalibrations_.fetch_add(1, std::memory_order_relaxed);
  // The windowed SLO view gates the work: empty windows with no drift
  // samples mean nothing ran since the last reset, so re-running the
  // scheduler would only reproduce the offline decision.
  uint64_t completed = 0;
  uint64_t breaches = 0;
  const double now_us = telemetry::now_us();
  for (const auto& slo : slo_) {
    const telemetry::SloSnapshot snap = slo->snapshot(now_us);
    completed += snap.completed;
    breaches += snap.breaches;
  }
  const Placement current = resident.bucket_placement(0);
  if (observed.total_samples() == 0 && completed == 0) {
    telemetry::counter("serve.recalibrations.skipped_empty").add(1);
    RecalibrationResult empty;
    empty.placement = current;
    return empty;
  }
  if (breaches > 0) {
    DUET_LOG_INFO << "recalibrating \"" << resident.name() << "\" with "
                  << breaches << " SLO breaches in the last "
                  << options_.observability.slo_window_s << "s window";
  }
  const DuetEngine& engine = resident.engine();
  RecalibrationResult result =
      recalibrate(engine.model(), engine.partition(), engine.report().profiles,
                  observed, current, engine.devices().link->params(),
                  options_.recalibration);
  telemetry::counter("serve.recalibrations").add(1);
  if (result.swapped) {
    DUET_LOG_INFO << "recalibration swap for \"" << resident.name()
                  << "\": predicted " << result.predicted_current_s
                  << "s -> " << result.predicted_new_s << "s";
    swap_plan(model, result.placement);
  }
  return result;
}

void FleetServer::apply_placement(int model, const Placement& placement) {
  DUET_CHECK_GE(model, 0);
  DUET_CHECK_LT(static_cast<size_t>(model), drift_.size());
  std::lock_guard<std::mutex> serialize(recalibrate_mutex_);
  swap_plan(model, placement);
}

void FleetServer::swap_plan(int model, const Placement& placement) {
  const uint64_t version =
      registry_.model(model).swap_base_placement(placement);
  swap_count_.fetch_add(1, std::memory_order_relaxed);
  telemetry::counter("serve.plan_swaps").add(1);
  const double now_us = telemetry::now_us();
  for (const auto& slo : slo_) slo->record_plan_version(now_us, version);
  FlightRecorder::instance().record(FlightKind::kSwap, 0, version);
}

void FleetServer::maybe_flight_dump(const std::string& reason) {
  if (options_.observability.dump_dir.empty()) return;
  const telemetry::FlightDumpSummary summary = FlightRecorder::instance().dump(
      options_.observability.dump_dir, reason,
      options_.observability.dump_window_ms);
  flight_dumps_.fetch_add(1, std::memory_order_relaxed);
  telemetry::counter("serve.flight_dumps").add(1);
  DUET_LOG_WARN << "flight dump (" << reason << "): " << summary.events
                << " events, " << summary.complete_paths
                << " complete request paths -> " << summary.trace_path;
}

FleetServerStats FleetServer::stats() const {
  FleetServerStats s;
  for (size_t t = 0; t < options_.tenants.size(); ++t) {
    FleetTenantStats ts;
    ts.name = options_.tenants[t].name;
    ts.admission = counters_[t].snapshot();
    s.total += ts.admission;
    s.tenants.push_back(std::move(ts));
  }
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    s.batches = batches_;
    s.coalesced_requests = coalesced_;
    s.mean_batch = batches_ > 0 ? static_cast<double>(served_) /
                                      static_cast<double>(batches_)
                                : 0.0;
    s.batch_histogram = batch_histogram_;
    s.modeled_latency = modeled_latency_.summarize();
    s.wall_wait = wall_wait_.summarize();
    for (const DriftAccumulator& drift : drift_) {
      s.drift_samples += drift.total_samples();
    }
  }
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    s.max_queue_depth = max_queue_depth_;
  }
  s.swap_count = swap_count_.load(std::memory_order_relaxed);
  s.recalibrations = recalibrations_.load(std::memory_order_relaxed);
  s.slo_breaches = slo_breaches_.load(std::memory_order_relaxed);
  s.flight_dumps = flight_dumps_.load(std::memory_order_relaxed);
  return s;
}

telemetry::SloSnapshot FleetServer::slo_snapshot(int tenant) const {
  DUET_CHECK_GE(tenant, 0);
  DUET_CHECK_LT(static_cast<size_t>(tenant), slo_.size());
  telemetry::SloSnapshot snap =
      slo_[static_cast<size_t>(tenant)]->snapshot(telemetry::now_us());
  // No swap landed inside the window: report the live plan version rather
  // than 0, so operators always see which plan is serving (the newest one
  // when several models are resident).
  if (snap.plan_version == 0) {
    for (size_t m = 0; m < drift_.size(); ++m) {
      snap.plan_version =
          std::max(snap.plan_version,
                   registry_.model(static_cast<int>(m)).plan_version());
    }
  }
  return snap;
}

}  // namespace duet::serve
