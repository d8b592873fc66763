#ifndef TASKBENCH_RUNTIME_INVARIANT_CHECK_H_
#define TASKBENCH_RUNTIME_INVARIANT_CHECK_H_

#include <cstddef>
#include <vector>

#include "common/status.h"
#include "runtime/metrics.h"
#include "runtime/task_graph.h"

namespace taskbench::runtime {

/// Precomputed writer ordinals backing the executors' online version
/// checks (RunOptions::check_invariants).
///
/// For every (task, param) pair the oracle knows which version of the
/// datum the access must observe, derived purely from submission
/// order — the same order the TaskGraph used to derive dependencies:
///
///   - a read (IN) must see version = number of writers submitted
///     before the reading task;
///   - a write (OUT / INOUT) publishes version = its 1-based ordinal
///     among the datum's writers. An INOUT's read side expects its
///     write ordinal minus one.
///
/// Ordinals are *set*, never incremented, by the executors, so a
/// retried or recomputed attempt republishing an output is idempotent
/// and cannot trip the check.
class VersionOracle {
 public:
  VersionOracle() = default;

  static VersionOracle Build(const TaskGraph& graph);

  bool empty() const { return offsets_.empty(); }

  /// Ordinal of param `param_index` of task `t` (see class comment).
  int ordinal(TaskId t, size_t param_index) const {
    return ordinals_[offsets_[static_cast<size_t>(t)] + param_index];
  }

 private:
  /// One entry per task param, tasks concatenated in id order.
  std::vector<int> ordinals_;
  /// Start of each task's params in `ordinals_`.
  std::vector<size_t> offsets_;
};

/// Conservation check of the real executors: each of `workers` runs
/// one task at a time and every record lies inside [0, makespan] on
/// one clock, so the records' total busy time cannot exceed `workers`
/// x makespan (the latest record end). FailedPrecondition starting
/// with "invariant violation" otherwise.
Status CheckBusyTimeBound(const std::vector<TaskRecord>& records,
                          int workers);

}  // namespace taskbench::runtime

#endif  // TASKBENCH_RUNTIME_INVARIANT_CHECK_H_
