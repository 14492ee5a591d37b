#include "serve/server.hpp"

#include <utility>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace_context.hpp"

namespace duet::serve {

using telemetry::FlightKind;
using telemetry::FlightRecorder;

DuetServer::DuetServer(Graph model, ServeOptions options)
    : options_(std::move(options)),
      engine_(std::make_unique<DuetEngine>(std::move(model), options_.engine)),
      queue_(options_.queue_capacity),
      admission_(options_.queue_capacity),
      paused_(options_.start_paused),
      plan_(std::make_shared<const ExecutionPlan>(engine_->plan())),
      placement_(engine_->report().schedule.placement),
      drift_(engine_->partition().subgraphs.size()),
      slo_(options_.observability.slo_window_s,
           options_.observability.slo_buckets),
      dump_trigger_(options_.observability.trigger) {
  DUET_CHECK_GT(options_.workers, 0);
  DUET_CHECK_GT(options_.queue_capacity, 0u);
  workers_.reserve(static_cast<size_t>(options_.workers));
  for (int w = 0; w < options_.workers; ++w) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  DUET_LOG_INFO << "DuetServer up: " << options_.workers << " workers, queue "
                << options_.queue_capacity << ", model \""
                << engine_->model().name() << "\"";
}

DuetServer::~DuetServer() { shutdown(); }

std::future<Response> DuetServer::submit(std::map<NodeId, Tensor> feeds,
                                         double deadline_s) {
  Request request;
  request.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  request.trace_id = request.id;  // minted at admission, unique per request
  request.feeds = std::move(feeds);
  request.deadline_s =
      deadline_s < 0.0 ? options_.default_deadline_s : deadline_s;
  request.arrival_s = clock_.elapsed();
  std::future<Response> future = request.promise.get_future();
  const uint64_t trace_id = request.trace_id;
  const double now_us = telemetry::now_us();
  const uint64_t depth = queue_.size();
  slo_.record_offered(now_us);
  slo_.record_queue_depth(now_us, static_cast<double>(depth));

  admission_.counters().offered.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(pending_mutex_);
    ++pending_;
  }
  if (queue_.try_push(std::move(request)) ==
      BoundedQueue<Request>::Push::kAccepted) {
    admission_.counters().accepted.fetch_add(1, std::memory_order_relaxed);
    FlightRecorder::instance().record(FlightKind::kEnqueue, trace_id, depth);
    return future;
  }

  // Refused (full or draining): try_push left `request` untouched, so the
  // rejection resolves the caller's future immediately.
  {
    std::lock_guard<std::mutex> lock(pending_mutex_);
    --pending_;
  }
  pending_cv_.notify_all();
  admission_.counters().rejected.fetch_add(1, std::memory_order_relaxed);
  telemetry::counter("serve.rejected").add(1);
  slo_.record_rejected(telemetry::now_us());
  FlightRecorder::instance().record(FlightKind::kReject, trace_id, depth);
  Response response;
  response.status = RequestStatus::kRejected;
  response.wall_latency_s = clock_.elapsed() - request.arrival_s;
  request.promise.set_value(std::move(response));
  return future;
}

void DuetServer::resume() {
  {
    std::lock_guard<std::mutex> lock(pause_mutex_);
    paused_ = false;
  }
  pause_cv_.notify_all();
}

void DuetServer::drain() {
  {
    std::lock_guard<std::mutex> lock(pending_mutex_);
    draining_ = true;
  }
  resume();  // a paused server can never drain its backlog
  queue_.close();
  std::unique_lock<std::mutex> lock(pending_mutex_);
  pending_cv_.wait(lock, [this] { return pending_ == 0; });
}

void DuetServer::shutdown() {
  if (shut_down_.exchange(true)) return;
  drain();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

void DuetServer::worker_loop() {
  // Each worker is a full engine replica: its own device pair (same seed
  // derivation as the engine's post-profiling devices, so modeled times
  // match DuetEngine::latency) and per-run arenas inside SimExecutor::run.
  DevicePair devices =
      make_default_device_pair(options_.engine.seed ^ 0x5EEDFACEull);
  SimExecutor executor(devices);

  {
    std::unique_lock<std::mutex> lock(pause_mutex_);
    pause_cv_.wait(lock, [this] { return !paused_; });
  }

  while (std::optional<Request> item = queue_.pop()) {
    Request request = std::move(*item);
    const double pickup_s = clock_.elapsed();
    Response response;
    response.wall_wait_s = pickup_s - request.arrival_s;
    const double wait_us = response.wall_wait_s * 1e6;
    slo_.record_queue_wait(telemetry::now_us(), wait_us);

    if (admission_.should_shed(pickup_s, request.arrival_s,
                               request.deadline_s)) {
      admission_.counters().shed.fetch_add(1, std::memory_order_relaxed);
      telemetry::counter("serve.shed").add(1);
      const double now_us = telemetry::now_us();
      slo_.record_shed(now_us);
      slo_breaches_.fetch_add(1, std::memory_order_relaxed);
      telemetry::counter("serve.slo_breaches").add(1);
      FlightRecorder::instance().record(FlightKind::kShed, request.trace_id,
                                        static_cast<uint64_t>(wait_us));
      response.status = RequestStatus::kShed;
      // Triggers before resolve(), as on the completion path: once the last
      // request resolves, drain() returns and the dump must already exist.
      if (dump_trigger_.on_deadline_miss(now_us)) {
        maybe_flight_dump("deadline-miss-burst");
      }
      if (dump_trigger_.on_outcome(/*shed=*/true)) {
        maybe_flight_dump("shed-rate");
      }
      resolve(request, std::move(response));
      continue;
    }
    FlightRecorder::instance().record(FlightKind::kPickup, request.trace_id,
                                      static_cast<uint64_t>(wait_us));

    std::shared_ptr<const ExecutionPlan> plan;
    uint64_t version = 0;
    {
      std::lock_guard<std::mutex> lock(plan_mutex_);
      plan = plan_;
      version = plan_version_;
    }

    ExecutionResult result;
    {
      const bool telemetry_on = telemetry::enabled();
      telemetry::ScopedSpan span(
          telemetry_on ? "request:" + std::to_string(request.id)
                       : std::string(),
          "serve", engine_->model().name());
      // Request context for the executor: timeline events and flight
      // launch/transfer records inside run() tag themselves with this id.
      telemetry::TraceScope trace(request.trace_id);
      result = executor.run(*plan, request.feeds, options_.with_noise);
    }

    response.status = RequestStatus::kOk;
    response.outputs = std::move(result.outputs);
    response.modeled_latency_s = result.latency_s;
    response.plan_version = version;

    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      drift_.record(result.timeline);
      modeled_latency_.add(result.latency_s);
      wall_wait_.add(response.wall_wait_s);
    }
    admission_.counters().completed.fetch_add(1, std::memory_order_relaxed);
    const double done_s = clock_.elapsed();
    const double latency_s = done_s - request.arrival_s;
    const bool late = request.deadline_s > 0.0 &&
                      done_s > request.arrival_s + request.deadline_s;
    if (late) {
      admission_.counters().completed_late.fetch_add(1,
                                                     std::memory_order_relaxed);
    }
    // SLO breach: over the configured latency target, or — with no explicit
    // target — over the request's own deadline.
    const double slo_s = options_.observability.slo_latency_s;
    const bool breach = slo_s > 0.0 ? latency_s > slo_s : late;
    const double now_us = telemetry::now_us();
    slo_.record_completed(now_us, latency_s * 1e6, breach);
    if (breach) {
      slo_breaches_.fetch_add(1, std::memory_order_relaxed);
      telemetry::counter("serve.slo_breaches").add(1);
      if (dump_trigger_.on_deadline_miss(now_us)) {
        maybe_flight_dump("deadline-miss-burst");
      }
    }
    if (dump_trigger_.on_outcome(/*shed=*/false)) {
      maybe_flight_dump("shed-rate");
    }
    telemetry::counter("serve.completed").add(1);
    FlightRecorder::instance().record(FlightKind::kComplete, request.trace_id,
                                      version,
                                      static_cast<uint64_t>(latency_s * 1e6));
    resolve(request, std::move(response));

    if (options_.recalibrate_every > 0) {
      const uint64_t done =
          completed_since_recalibration_.fetch_add(1,
                                                   std::memory_order_relaxed) +
          1;
      if (done % options_.recalibrate_every == 0) recalibrate_now();
    }
  }
}

void DuetServer::resolve(Request& request, Response&& response) {
  response.wall_latency_s = clock_.elapsed() - request.arrival_s;
  request.promise.set_value(std::move(response));
  {
    std::lock_guard<std::mutex> lock(pending_mutex_);
    DUET_CHECK_GT(pending_, 0u);
    --pending_;
  }
  pending_cv_.notify_all();
}

RecalibrationResult DuetServer::recalibrate_now() {
  std::lock_guard<std::mutex> serialize(recalibrate_mutex_);
  DriftAccumulator observed(0);
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    observed = drift_;
    ++recalibrations_;
  }
  // The windowed SLO view gates the work: an empty window with no drift
  // samples means nothing ran since the last reset, so re-running the
  // scheduler would only reproduce the offline decision.
  const telemetry::SloSnapshot slo = slo_.snapshot(telemetry::now_us());
  if (observed.total_samples() == 0 && slo.completed == 0) {
    telemetry::counter("serve.recalibrations.skipped_empty").add(1);
    RecalibrationResult empty;
    empty.placement = current_placement();
    return empty;
  }
  if (slo.breaches > 0) {
    DUET_LOG_INFO << "recalibrating with " << slo.breaches
                  << " SLO breaches in the last " << slo.window_s
                  << "s window (p99 " << slo.latency_p99_us << "us)";
  }
  RecalibrationResult result =
      recalibrate(engine_->model(), engine_->partition(),
                  engine_->report().profiles, observed, current_placement(),
                  engine_->devices().link->params(), options_.recalibration);
  telemetry::counter("serve.recalibrations").add(1);
  if (result.swapped) {
    DUET_LOG_INFO << "recalibration swap: predicted "
                  << result.predicted_current_s << "s -> "
                  << result.predicted_new_s << "s";
    swap_plan(result.placement);
  }
  return result;
}

void DuetServer::apply_placement(const Placement& placement) {
  std::lock_guard<std::mutex> serialize(recalibrate_mutex_);
  swap_plan(placement);
}

void DuetServer::swap_plan(const Placement& placement) {
  // Build outside the plan lock: in-flight requests keep their snapshot and
  // new pickups keep the old plan until the swap below.
  std::shared_ptr<const ExecutionPlan> next =
      std::make_shared<const ExecutionPlan>(
          engine_->build_plan_for(placement));
  uint64_t version = 0;
  {
    std::lock_guard<std::mutex> lock(plan_mutex_);
    plan_ = std::move(next);
    placement_ = placement;
    ++plan_version_;
    ++swap_count_;
    version = plan_version_;
  }
  telemetry::counter("serve.plan_swaps").add(1);
  const double now_us = telemetry::now_us();
  slo_.record_plan_version(now_us, version);
  FlightRecorder::instance().record(FlightKind::kSwap, 0, version);
}

void DuetServer::maybe_flight_dump(const std::string& reason) {
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

std::shared_ptr<const ExecutionPlan> DuetServer::plan_snapshot() const {
  std::lock_guard<std::mutex> lock(plan_mutex_);
  return plan_;
}

Placement DuetServer::current_placement() const {
  std::lock_guard<std::mutex> lock(plan_mutex_);
  return placement_;
}

uint64_t DuetServer::swap_count() const {
  std::lock_guard<std::mutex> lock(plan_mutex_);
  return swap_count_;
}

uint64_t DuetServer::plan_version() const {
  std::lock_guard<std::mutex> lock(plan_mutex_);
  return plan_version_;
}

ServerStats DuetServer::stats() const {
  ServerStats s;
  s.admission = admission_.counters().snapshot();
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    s.modeled_latency = modeled_latency_.summarize();
    s.wall_wait = wall_wait_.summarize();
    s.recalibrations = recalibrations_;
    s.drift_samples = drift_.total_samples();
  }
  {
    std::lock_guard<std::mutex> lock(plan_mutex_);
    s.swap_count = swap_count_;
    s.plan_version = plan_version_;
  }
  s.slo_breaches = slo_breaches_.load(std::memory_order_relaxed);
  s.flight_dumps = flight_dumps_.load(std::memory_order_relaxed);
  return s;
}

telemetry::SloSnapshot DuetServer::slo_snapshot() const {
  telemetry::SloSnapshot snap = slo_.snapshot(telemetry::now_us());
  // No swap landed inside the window: report the live plan version rather
  // than 0, so operators always see which plan is serving.
  if (snap.plan_version == 0) snap.plan_version = plan_version();
  return snap;
}

}  // namespace duet::serve
