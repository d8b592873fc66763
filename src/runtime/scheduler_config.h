#ifndef TASKBENCH_RUNTIME_SCHEDULER_CONFIG_H_
#define TASKBENCH_RUNTIME_SCHEDULER_CONFIG_H_

#include "common/status.h"

namespace taskbench::runtime {

/// Knobs of the cost-model scheduler family (docs/SCHEDULERS.md).
/// Consumed only when `RunOptions::policy == SchedulingPolicy::
/// kCostModel`; the paper's two policies ignore every field, so a
/// default-constructed config never perturbs existing runs.
///
/// The score of a ready task is
///
///   score(t) = alpha * rank(t) - beta * slack(t) + gamma * age(t)
///
/// where rank(t) is the task's upward rank (modeled time of the
/// longest dependency chain from t to any sink, t included — the
/// HEFT ranking), slack(t) = critical_path - toplevel(t) - rank(t)
/// is how far t sits off the critical path (0 for critical tasks),
/// and age(t) is how long t has been ready. rank and slack are
/// static per graph and age grows uniformly for all ready tasks, so
/// the relative order is fixed at ready time: the executor pushes
/// each task with the static key alpha*rank - beta*slack -
/// gamma*ready_time and the per-class heaps stay O(log ready).
struct SchedulerConfig {
  /// Weight of the remaining-critical-path (upward rank) term.
  double alpha = 1.0;
  /// Weight of the slack penalty: off-critical-path tasks yield to
  /// critical ones.
  double beta = 0.5;
  /// Weight of the age term (anti-starvation): 0 disables aging;
  /// larger values converge toward FIFO within a class.
  double gamma = 0.1;

  /// Ablation flag: disable speculative duplicate execution of
  /// straggler tasks. Hedging only ever activates for kCostModel runs
  /// with an active fault plan (simulated path) or multi-worker
  /// fault-free runs (thread pool), so fault-free simulated reports
  /// are identical with hedging on or off by construction — a
  /// differential leg enforces exactly that.
  bool disable_hedging = false;
  /// Ablation flag: disable CPU->GPU escalation (hybrid mode only).
  bool disable_escalation = false;

  /// Straggler threshold for the simulated path: a running attempt is
  /// hedged once its elapsed time exceeds this multiple of its
  /// modeled (unslowed) duration and its node is degraded.
  double hedge_threshold = 1.5;
  /// Straggler threshold for the thread pool, where there is no
  /// modeled duration: an idle worker duplicates a running task once
  /// it has been executing for at least this many wall-clock seconds.
  double hedge_min_s = 0.05;

  /// CPU->GPU escalation threshold (hybrid + kCostModel): a
  /// CPU-targeted task whose modeled CPU parallel time is at least
  /// this multiple of its GPU time (and which fits device memory) is
  /// classified GPU-or-CPU, so it takes an idle device instead of
  /// queueing for a core.
  double escalate_benefit = 2.0;

  /// InvalidArgument naming the first bad field and its value: a
  /// non-finite score weight, hedge_threshold < 1, hedge_min_s < 0 or
  /// escalate_benefit <= 0 (the last three must also be finite).
  Status Validate() const;
};

}  // namespace taskbench::runtime

#endif  // TASKBENCH_RUNTIME_SCHEDULER_CONFIG_H_
