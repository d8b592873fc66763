#include "service/load.h"

#include <chrono>
#include <cmath>
#include <mutex>
#include <thread>
#include <utility>

#include "check/workload.h"
#include "common/random.h"
#include "common/strings.h"

namespace taskbench::service {

namespace {

using Clock = std::chrono::steady_clock;

}  // namespace

Status ValidateTenantLoad(const TenantLoad& load) {
  const auto check = [&]() -> Status {
    TB_RETURN_IF_ERROR(ValidateArrivalOptions(load.arrivals));
    if (!std::isfinite(load.deadline_s) || load.deadline_s < 0) {
      return Status::InvalidArgument(StrFormat(
          "TenantLoad.deadline_s = %g: must be finite and >= 0 (0 = none)",
          load.deadline_s));
    }
    if (load.cancel_every < 0) {
      return Status::InvalidArgument(StrFormat(
          "TenantLoad.cancel_every = %d: must be >= 0 (0 = never)",
          load.cancel_every));
    }
    return Status::OK();
  };
  return check().WithContext(StrFormat("tenant '%s'", load.tenant.c_str()));
}

Result<LoadStats> RunOpenLoad(WorkflowService* service,
                              const std::vector<TenantLoad>& loads,
                              double duration_s) {
  if (service == nullptr) {
    return Status::InvalidArgument("RunOpenLoad needs a service");
  }
  if (loads.empty()) {
    return Status::InvalidArgument("RunOpenLoad needs at least one tenant");
  }
  for (const TenantLoad& load : loads) {
    TB_RETURN_IF_ERROR(ValidateTenantLoad(load));
  }

  LoadStats total;
  Status first_error;
  std::mutex mu;  // guards total + first_error
  const Clock::time_point end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(duration_s));

  auto submitter = [&](const TenantLoad& load) {
    ArrivalGenerator arrivals(load.arrivals, load.seed);
    // Decorrelate workload shapes from interarrival times: both stem
    // from load.seed but through separate streams.
    Rng body_seeds(load.seed * 0x9e3779b97f4a7c15ull + 1);
    SubmitOptions opts;
    opts.tenant = load.tenant;
    opts.priority = load.priority;
    opts.deadline_s = load.deadline_s;

    LoadStats local;
    std::vector<SubmissionHandle> admitted;
    for (;;) {
      const auto next =
          Clock::now() + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(
                                 arrivals.NextDelay()));
      if (next >= end) break;
      std::this_thread::sleep_until(next);

      const check::WorkloadSpec spec =
          check::GenerateSpec(body_seeds.NextUint64());
      Result<check::BuiltWorkload> built = check::BuildWorkload(spec);
      if (!built.ok()) {
        std::lock_guard<std::mutex> lock(mu);
        if (first_error.ok()) first_error = built.status();
        break;
      }
      ++local.offered;
      Result<SubmissionHandle> handle =
          service->Submit(std::move(built->graph), opts);
      if (!handle.ok()) {
        if (handle.status().IsRejectedAdmission()) {
          ++local.rejected;
          continue;
        }
        std::lock_guard<std::mutex> lock(mu);
        if (first_error.ok()) first_error = handle.status();
        break;
      }
      ++local.admitted;
      admitted.push_back(*handle);
      if (load.cancel_every > 0 && local.admitted % load.cancel_every == 0) {
        const Result<bool> cancelled = service->Cancel(*handle);
        if (cancelled.ok() && *cancelled) ++local.cancelled;
      }
    }

    // Drain: every admitted submission must reach a terminal state
    // (the zero-stuck-submissions property the soak test asserts).
    for (const SubmissionHandle& handle : admitted) {
      const Result<runtime::RunReport> ignored = service->Wait(handle);
      (void)ignored;
    }

    std::lock_guard<std::mutex> lock(mu);
    total.offered += local.offered;
    total.admitted += local.admitted;
    total.rejected += local.rejected;
    total.cancelled += local.cancelled;
  };

  std::vector<std::thread> threads;
  threads.reserve(loads.size());
  for (const TenantLoad& load : loads) {
    threads.emplace_back(submitter, std::cref(load));
  }
  for (std::thread& t : threads) t.join();

  if (!first_error.ok()) return first_error;
  return total;
}

}  // namespace taskbench::service
