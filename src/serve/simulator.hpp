#pragma once

// Virtual-time serving simulator — the deterministic twin of FleetServer
// (serve/fleet.hpp). Each worker is an independent engine replica (its own
// CPU-GPU pair), service time is the plan's modeled makespan per (model,
// batch), and arrivals come from an open-loop trace (workload.hpp) — so
// throughput, tail sojourn, shed rate, and reject rate under any offered
// load are exact, reproducible numbers, the same way every benchmark in
// this repo reports modeled time rather than wall clock of the build
// machine.
//
// The pickup policy is the FleetServer's, shared verbatim
// (serve/fleet_policy.hpp): weighted fair queueing across tenants, EDF
// within, same-model coalescing up to max_batch, reject-on-full at arrival
// and shed-on-expired-deadline at pickup. Service time per (model, batch)
// is what makes the plan-per-bucket efficacy CI gate machine-independent:
// feed it ResidentModel::modeled_service_s for the bucketed run and
// baseline_service_s for the single-plan baseline and compare.
//
// A single model is a fleet of one (single_model_config): one tenant whose
// deadline_s is the request deadline, and max_batch = 1. EDF under one
// relative deadline is FIFO, so that configuration is the plain
// multi-worker FIFO queue.

#include <functional>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "serve/admission.hpp"
#include "serve/fleet_policy.hpp"

namespace duet::serve {

struct FleetSimRequest {
  double arrival_s = 0.0;  // ascending across the trace
  int tenant = 0;
  int model = 0;
};

struct FleetSimConfig {
  int workers = 1;
  size_t queue_capacity = 128;
  // Tenant classes (weights + per-class relative deadlines). Empty = one
  // default tenant, no deadline.
  std::vector<TenantClass> tenants;
  int64_t max_batch = 8;
};

struct FleetTenantStats {
  std::string name;
  AdmissionCounters::Snapshot admission;
};

struct FleetSimStats {
  // Per-tenant conservation holds classwise:
  // offered = completed + shed + rejected.
  std::vector<FleetTenantStats> tenants;
  AdmissionCounters::Snapshot total;
  double makespan_s = 0.0;
  double throughput_qps = 0.0;
  SummaryStats sojourn;
  SummaryStats queue_wait;
  double worker_busy_frac = 0.0;
  size_t max_queue_depth = 0;
  uint64_t batches = 0;             // executions launched
  uint64_t coalesced_requests = 0;  // requests served in batches of > 1
  double mean_batch = 0.0;          // completed requests / batches
};

FleetSimStats simulate_fleet(
    const std::vector<FleetSimRequest>& requests,
    const std::function<double(int model, int64_t batch)>& service_s,
    const FleetSimConfig& config);

// One tenant, max_batch = 1, and `deadline_s` (<= 0: none) on every request.
FleetSimConfig single_model_config(int workers, size_t queue_capacity,
                                   double deadline_s);
// A single-model arrival trace (ascending seconds) as fleet requests of
// tenant 0. Request i names model i, so a service function can index
// per-request draws by it; at max_batch = 1 the ids never coalesce.
std::vector<FleetSimRequest> single_model_trace(
    const std::vector<double>& arrivals);

}  // namespace duet::serve
