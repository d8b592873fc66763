#ifndef TASKBENCH_SERVICE_LOAD_H_
#define TASKBENCH_SERVICE_LOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "service/arrival.h"
#include "service/workflow_service.h"

namespace taskbench::service {

/// One tenant's offered load for RunOpenLoad. The seed drives both
/// the interarrival stream and the per-submission workload specs
/// (check::GenerateSpec), so a load config is fully reproducible.
struct TenantLoad {
  std::string tenant = "default";
  ArrivalOptions arrivals;
  uint64_t seed = 0;
  int priority = 0;
  double deadline_s = 0;
  /// Cancel every Nth admitted submission immediately after
  /// submitting it (0 = never). Exercises the cancel-queued path
  /// under load: each cancellation frees an admission slot.
  int cancel_every = 0;
};

/// Validates one tenant's load before any of it is offered: its
/// arrival options (ValidateArrivalOptions), deadline_s finite and
/// >= 0 (0 = no deadline) and cancel_every >= 0 (0 = never). The
/// error names the tenant, the field and its value.
Status ValidateTenantLoad(const TenantLoad& load);

/// What the driver offered vs. what the service took, summed over
/// tenants. Per-tenant outcome detail lives in the ServiceReport.
struct LoadStats {
  int64_t offered = 0;    ///< Submit calls made
  int64_t admitted = 0;   ///< accepted by admission control
  int64_t rejected = 0;   ///< kRejectedAdmission backpressure
  int64_t cancelled = 0;  ///< driver-issued cancellations
};

/// Open-loop driver: one submitter thread per tenant draws seeded
/// interarrival delays and submits generated workloads for
/// `duration_s` wall seconds, never waiting for completions (the
/// offered rate is independent of service throughput — saturation
/// surfaces as admission rejections, not a slowed generator). After
/// the window closes, every admitted submission is waited to a
/// terminal state, so the service is quiescent on return and a
/// ServiceReport taken afterwards has still_queued == 0 and
/// still_running == 0. Every load is validated first
/// (ValidateTenantLoad); an invalid one fails the call before anything
/// is submitted.
Result<LoadStats> RunOpenLoad(WorkflowService* service,
                              const std::vector<TenantLoad>& loads,
                              double duration_s);

}  // namespace taskbench::service

#endif  // TASKBENCH_SERVICE_LOAD_H_
