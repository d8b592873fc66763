#ifndef TASKBENCH_RUNTIME_ATTEMPT_LEDGER_H_
#define TASKBENCH_RUNTIME_ATTEMPT_LEDGER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "runtime/metrics.h"
#include "runtime/run_options.h"
#include "runtime/task_graph.h"

namespace taskbench::runtime {

/// The lifecycle of a run's task attempts, shared by all three
/// executors (docs/FAULT_TOLERANCE.md), which keep only how a retry
/// waits, what a crash means and where blocks live. It owns the
/// exactly-once claim and completion of each task, the order check,
/// the retry budget, and the attempt log with its counters: every
/// launch beyond a task's first is exactly one retry, hedge or
/// recompute (check::VerifyReport holds every report to that).
///
/// A datum's version is its writer ordinal: a read sees the number of
/// writers submitted before its task, a write publishes its 1-based
/// ordinal, and an INOUT reads the ordinal before its own. Versions
/// are published when a task completes, so a retry reads exactly what
/// its first attempt read.
///
/// Thread-safe: the thread pool's workers share one ledger. Claims,
/// completions and the check are lock-free; failures and the log take
/// a mutex.
class AttemptLedger {
 public:
  /// `simulated` selects the simulator's attempt-log rule.
  AttemptLedger(const TaskGraph& graph, const RunOptions& options,
                bool simulated);

  AttemptLedger(const AttemptLedger&) = delete;
  AttemptLedger& operator=(const AttemptLedger&) = delete;

  /// Claims open task `t`; true for exactly one caller until the task
  /// is reopened.
  [[nodiscard]] bool Claim(TaskId t);
  /// Completes the task `rec` records, whose claim the caller holds (or
  /// which no other attempt can finish: the simulator cancels a hedge
  /// loser first): keeps the record, logs the attempt, publishes the
  /// task's versions, then marks it completed (release: whoever sees
  /// that sees the versions). Returns the number of completed tasks.
  int64_t Complete(TaskRecord rec);
  /// Reopens completed task `t` for a lineage recompute, whose reads
  /// the check exempts: the simulator keeps one version per datum, so
  /// a recompute's inputs may have moved on.
  void Reopen(TaskId t);
  bool claimed(TaskId t) const { return state(t) != kOpen; }
  bool completed(TaskId t) const { return state(t) == kCompleted; }
  /// Reopened and not completed again yet.
  bool reopened(TaskId t) const {
    return !recompute_.empty() && recompute_[static_cast<size_t>(t)] != 0;
  }
  int64_t num_completed() const {
    return num_completed_.load(std::memory_order_seq_cst);
  }

  /// The version param `param` of `t` reads, the one it writes, and
  /// how many writers datum `d` has.
  int read_version(TaskId t, size_t param) const {
    const bool inout = graph_.task(t).spec.params[param].dir == Dir::kInOut;
    return write_version(t, param) - (inout ? 1 : 0);
  }
  int write_version(TaskId t, size_t param) const {
    return ordinals_[offsets_[static_cast<size_t>(t)] + param];
  }
  int writers(DataId d) const { return writers_[static_cast<size_t>(d)]; }

  /// The order check (OK when RunOptions::check_invariants is off; a
  /// violation is FailedPrecondition starting "invariant violation"):
  /// every dependency of `t` completed; param `param` of `t` finds its
  /// datum at the version it reads; both, for every read of `t`.
  Status CheckDeps(TaskId t) const {
    if (check_) {
      for (TaskId dep : graph_.task(t).deps) {
        if (!completed(dep)) return EarlyStart(t, dep);
      }
    }
    return Status::OK();
  }
  Status CheckRead(TaskId t, size_t param) const {
    if (!check_ || reopened(t)) return Status::OK();
    const DataId d = graph_.task(t).spec.params[param].data;
    const int actual =
        version_[static_cast<size_t>(d)].load(std::memory_order_acquire);
    return actual == read_version(t, param) ? Status::OK()
                                            : StaleRead(t, param, actual);
  }
  Status CheckStart(TaskId t) const;

  /// `cause`, its code kept, in the context of attempt `attempt` of `t`
  /// on `unit` `index` ("node 3", "worker 1").
  Status Failure(TaskId t, int attempt, std::string_view unit, int index,
                 const Status& cause) const;
  /// After attempt `attempt` of `t` failed with `cause`: OK grants the
  /// next attempt and counts a retry; a spent budget returns the run's
  /// failure, naming max_retries.
  Status Retry(TaskId t, int attempt, std::string_view unit, int index,
               const Status& cause);

  /// Logs one ended attempt, when the run keeps a log: the simulator
  /// under a fault plan, the real executors under a retry budget.
  void Log(const TaskAttempt& attempt) {
    if (log_) Append(attempt);
  }
  /// Counts one speculative duplicate launched.
  void CountHedge();

  /// The run's records, makespan, attempt log and retry, hedge and
  /// recompute counts. The log keeps the order attempts ended in,
  /// except that a task's attempts appear in attempt order (a hedge
  /// twin that ended before its primary is listed after it).
  RunReport TakeReport();

 private:
  enum : uint8_t { kOpen = 0, kClaimed = 1, kCompleted = 2 };
  uint8_t state(TaskId t) const {
    return state_[static_cast<size_t>(t)].load(std::memory_order_acquire);
  }
  void Append(const TaskAttempt& attempt);
  Status EarlyStart(TaskId t, TaskId dep) const;
  Status StaleRead(TaskId t, size_t param, int actual) const;

  const TaskGraph& graph_;
  const bool check_;
  const bool log_;
  const int max_retries_;
  std::vector<int> ordinals_;     ///< per task param, tasks in id order
  std::vector<size_t> offsets_;   ///< each task's first entry
  std::vector<int> writers_;      ///< per datum
  std::vector<std::atomic<uint8_t>> state_;  ///< per task
  std::vector<std::atomic<int>> version_;    ///< published, per datum
  std::vector<char> recompute_;   ///< per task; sized on first Reopen
  std::vector<TaskRecord> records_;
  std::atomic<int64_t> num_completed_{0};

  std::mutex mu_;  // guards the log and the counters
  std::vector<TaskAttempt> log_entries_;
  std::vector<int> last_logged_;  ///< per task: highest attempt logged
  FaultStats counts_;  ///< retries, hedges, recomputed_tasks
};

/// End-of-run conservation check of the real executors: each of
/// `workers` runs one task at a time and every record lies inside
/// [0, makespan] on one clock, so the records' total busy time cannot
/// exceed `workers` x makespan (the latest record end).
/// FailedPrecondition starting with "invariant violation" otherwise.
Status CheckBusyTimeBound(const std::vector<TaskRecord>& records,
                          int workers);

}  // namespace taskbench::runtime

#endif  // TASKBENCH_RUNTIME_ATTEMPT_LEDGER_H_
