#ifndef TASKBENCH_RUNTIME_SCHEDULER_CONFIG_H_
#define TASKBENCH_RUNTIME_SCHEDULER_CONFIG_H_

#include "common/status.h"

namespace taskbench::runtime {

/// Knobs of the cost-model scheduler family (docs/SCHEDULERS.md).
/// Consumed only when `RunOptions::policy == SchedulingPolicy::
/// kCostModel`; the paper's two policies ignore every field, so a
/// default-constructed config never perturbs existing runs. The score
/// weights and the simulated path's hedging and escalation thresholds
/// are fixed constants of the simulated executor.
struct SchedulerConfig {
  /// Ablation flag: disable speculative duplicate execution of
  /// straggler tasks. Hedging only ever activates for kCostModel runs
  /// with an active fault plan (simulated path) or multi-worker
  /// fault-free runs (thread pool), so fault-free simulated reports
  /// are identical with hedging on or off by construction — a
  /// differential leg enforces exactly that.
  bool disable_hedging = false;
  /// Ablation flag: disable CPU->GPU escalation (hybrid mode only).
  bool disable_escalation = false;

  /// Straggler threshold for the thread pool, where there is no
  /// modeled duration: an idle worker duplicates a running task once
  /// it has been executing for at least this many wall-clock seconds.
  double hedge_min_s = 0.05;

  /// InvalidArgument naming hedge_min_s and its value unless it is
  /// finite and >= 0.
  Status Validate() const;
};

}  // namespace taskbench::runtime

#endif  // TASKBENCH_RUNTIME_SCHEDULER_CONFIG_H_
