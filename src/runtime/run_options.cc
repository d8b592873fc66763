// Boundary validation of RunOptions and the SchedulerConfig it carries.

#include "runtime/run_options.h"

#include <cmath>
#include <utility>

#include "common/strings.h"
#include "runtime/scheduler_config.h"

namespace taskbench::runtime {

namespace {

Status Invalid(const char* field, double value, const char* rule) {
  return Status::InvalidArgument(
      StrFormat("%s = %g: must be %s", field, value, rule));
}

}  // namespace

Status SchedulerConfig::Validate() const {
  const std::pair<const char*, double> weights[] = {
      {"SchedulerConfig.alpha", alpha},
      {"SchedulerConfig.beta", beta},
      {"SchedulerConfig.gamma", gamma}};
  for (const auto& [field, value] : weights) {
    if (!std::isfinite(value)) return Invalid(field, value, "finite");
  }
  if (!std::isfinite(hedge_threshold) || hedge_threshold < 1) {
    return Invalid("SchedulerConfig.hedge_threshold", hedge_threshold,
                   "finite and >= 1");
  }
  if (!std::isfinite(hedge_min_s) || hedge_min_s < 0) {
    return Invalid("SchedulerConfig.hedge_min_s", hedge_min_s,
                   "finite and >= 0");
  }
  if (!std::isfinite(escalate_benefit) || escalate_benefit <= 0) {
    return Invalid("SchedulerConfig.escalate_benefit", escalate_benefit,
                   "finite and > 0");
  }
  return Status::OK();
}

Status RunOptions::Validate() const {
  if (num_threads < 1) {
    return Invalid("RunOptions.num_threads", num_threads, ">= 1");
  }
  if (num_procs < 1) {
    return Invalid("RunOptions.num_procs", num_procs, ">= 1");
  }
  if (max_retries < 0) {
    return Invalid("RunOptions.max_retries", max_retries, ">= 0");
  }
  if (!std::isfinite(retry_backoff_s) || retry_backoff_s < 0) {
    return Invalid("RunOptions.retry_backoff_s", retry_backoff_s,
                   "finite and >= 0");
  }
  return sched.Validate();
}

}  // namespace taskbench::runtime
