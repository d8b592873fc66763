#ifndef TASKBENCH_CHECK_INVARIANTS_H_
#define TASKBENCH_CHECK_INVARIANTS_H_

#include "common/status.h"
#include "hw/cluster.h"
#include "runtime/metrics.h"
#include "runtime/task_graph.h"

namespace taskbench::check {

/// What VerifyReport may assume about the run that produced a report.
struct InvariantContext {
  /// Simulated runs: the cluster the report was replayed on, enabling
  /// the per-node busy-time <= makespan x slot-capacity check. Null
  /// disables it.
  const hw::ClusterSpec* cluster = nullptr;
  /// Thread-pool runs: worker count, enabling the total-busy-time
  /// bound. 0 disables it.
  int num_threads = 0;
  /// The report came from the simulated executor (scheduler phases
  /// and event counters are meaningful).
  bool simulated = false;
  /// A fault plan / faulty storage was active: relaxes the checks
  /// recovery legitimately breaks (dependency start ordering, exactly
  /// one attempt per task, zero fault counters).
  bool faulted = false;
};

/// Post-hoc invariant verification of a *successful* run's report
/// against the graph it executed. This is the reusable half of the
/// checking subsystem — the executors run the same laws online behind
/// RunOptions::check_invariants; the fuzz driver and the tests call
/// this on every report they see, so a bug has to fool both an
/// inline check and an independent re-derivation to slip through.
///
/// Verified (fault-free; [f] = also under faults):
///   [f] exactly one record per task, matching task/type/level,
///       0 <= start <= end <= makespan, makespan == max end
///   -   every task starts at/after each dependency's end
///   [f] scheduler phase breakdown sums to the decision overhead and
///       is zero on non-simulated reports
///   [f] per-node (cluster) / total (num_threads) busy-time bounds
///   [f] attempt log, on every executor: per-task attempt numbers
///       strictly increase; a non-empty log holds every task, and each
///       task's last completed attempt is the one its record names;
///       logged attempts beyond each task's first equal retries +
///       hedges + recomputes (all zero without a log); retries never
///       exceed failed attempts, nor hedge cancellations hedges
///   -   fault counters all zero, attempt log empty (simulated)
///
/// Returns OK or a FailedPrecondition whose message starts with
/// "invariant violation".
Status VerifyReport(const runtime::TaskGraph& graph,
                    const runtime::RunReport& report,
                    const InvariantContext& context);

}  // namespace taskbench::check

#endif  // TASKBENCH_CHECK_INVARIANTS_H_
