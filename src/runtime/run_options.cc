// Boundary validation of RunOptions and the SchedulerConfig it carries.

#include "runtime/run_options.h"

#include <cmath>

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
  if (!std::isfinite(hedge_min_s) || hedge_min_s < 0) {
    return Invalid("SchedulerConfig.hedge_min_s", hedge_min_s,
                   "finite and >= 0");
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
  if (block_dim < 0) {
    return Invalid("RunOptions.block_dim", static_cast<double>(block_dim),
                   ">= 0 (0 picks one)");
  }
  return sched.Validate();
}

}  // namespace taskbench::runtime
