#ifndef TASKBENCH_RUNTIME_MULTIPROC_EXECUTOR_H_
#define TASKBENCH_RUNTIME_MULTIPROC_EXECUTOR_H_

#include <atomic>
#include <memory>
#include <string>

#include "common/result.h"
#include "data/matrix.h"
#include "runtime/executor.h"
#include "runtime/metrics.h"
#include "runtime/run_options.h"
#include "runtime/task_graph.h"

namespace taskbench::runtime {

/// Scale-out execution plane: runs a TaskGraph on forked worker
/// *processes* that exchange blocks through a POSIX shared-memory
/// arena — the single-box stand-in for the paper's distributed
/// cluster, with NUMA domains playing the role of nodes.
///
/// Architecture (docs/SCALE_OUT.md has the full picture):
///  - The plane is resident. The first Execute maps a control segment
///    (the per-worker rings) and a block arena, and forks
///    `options.num_procs` single-threaded workers; later Execute calls
///    reuse all three. Each run resets the arena and writes a run
///    header into it: a generation number, the clock origin, the block
///    directory and a task table holding each task's kernel as plain
///    data (a function pointer plus argument bytes, see KernelFn) and
///    its params. Workers forked before a graph existed run its tasks
///    from that table; a function has the same address in every
///    worker because workers are forked, never exec'd.
///  - Dispatch is per-worker lock-free SPSC rings in the control
///    segment: a task ring in, a completion ring out, with futex
///    doorbells so an idle side sleeps until it is rung. The coordinator
///    touches no block bytes but the initial values it stages on
///    dispatch; workers serialize results straight into the arena
///    (`Serializer` wire format, same as the storage path) and *stage*
///    them — the coordinator performs the directory stores when it
///    consumes the completion, so a block still moves between workers
///    without being copied through the coordinator, but publication is
///    atomic with completion: a worker dying after staging leaves the
///    directory untouched and a retried attempt re-reads pre-attempt
///    values (INOUT tasks are never double-applied).
///  - Placement is topology-aware: workers are striped over the NUMA
///    domains (and optionally pinned), and a ready task prefers a
///    worker in the domain that produced most of its input bytes —
///    the same locality policy the simulated scheduler applies across
///    cluster nodes.
///  - Fault tolerance shares the attempt lifecycle of the other
///    executors (runtime::AttemptLedger): a worker death (detected via
///    waitpid) turns its in-flight tasks into kNodeLost attempts that
///    are re-dispatched to surviving workers under
///    `options.max_retries`, and a worker's failure keeps its status
///    code; the coordinator runs the order check at dispatch.
///    Published blocks live in the arena, not in the dead worker, so
///    nothing is recomputed.
///
/// Lifecycle. A run that succeeds keeps the plane. A run that fails,
/// is cancelled or loses a worker shuts its workers down (SIGKILL is
/// the backstop) and reaps them, as does a graph that needs more arena
/// than the plane mapped; the next Execute forks a fresh plane. The
/// destructor shuts the workers down and reaps them, so no worker
/// outlives its executor. A worker whose coordinator dies exits on its
/// own, mid-run or idle between runs.
///
/// POSIX-only (fork + shm_open); `Supported()` is false on platforms
/// without them and Execute fails with Unimplemented there.
///
/// An Execute that forks must be called from a single-threaded
/// process: workers are forked without exec, so a lock held by any
/// other caller thread at fork time (allocator, logging, metrics
/// mutexes) stays locked forever inside every worker, deadlocking its
/// first allocation. Such an Execute detects extra threads (via
/// /proc/self/task, Linux) and fails with FailedPrecondition instead of
/// hanging; join worker threads (the thread-pool executor joins inside
/// its own Execute) before running this one. An Execute on a resident
/// plane does not fork and has no such rule. Process-global state that
/// kernels read (data::SetDefaultKernelVariant) is fixed in the
/// workers at their fork.
///
/// Execute is not reentrant: a second call on the same executor while
/// one is running fails with FailedPrecondition.
class MultiProcExecutor final : public Executor {
 public:
  explicit MultiProcExecutor(RunOptions options);
  ~MultiProcExecutor() override;
  MultiProcExecutor(const MultiProcExecutor&) = delete;
  MultiProcExecutor& operator=(const MultiProcExecutor&) = delete;

  /// True when this platform can run the multi-process plane.
  static bool Supported();

  /// Runs the graph across the worker processes. Initial data values
  /// are taken from the graph and staged on dispatch: the coordinator
  /// serializes a task's initial inputs into the arena just before it
  /// sends the task, while earlier tasks run, and a value no task
  /// reads is never staged. Staging time shows as worker idle time,
  /// inside the run's timeline. Results stay in the arena, read them
  /// with FetchData. The graph's entries are never written.
  /// Cancellation (RunContext::cancel) is polled on every coordinator
  /// scheduling pass; RunContext::scope is ignored (one run at a time
  /// owns the arena).
  Result<RunReport> Execute(TaskGraph& graph, const RunContext& ctx);
  Result<RunReport> Execute(TaskGraph& graph) {
    return Execute(graph, RunContext{});
  }

  /// Reads a datum's value after Execute. When `graph` is the graph
  /// of this executor's last successful run, a datum that run wrote is
  /// deserialized from the arena; every other datum (and any datum of
  /// another graph) comes from the graph entry. The next Execute resets
  /// the arena, so fetch a run's results before starting another; do
  /// not call FetchData while Execute runs.
  Result<data::Matrix> FetchData(const TaskGraph& graph, DataId id) const;

  // Executor interface.
  using Executor::Run;
  std::string name() const override { return "multi-proc"; }
  const RunOptions& options() const override { return options_; }
  Result<RunReport> Run(TaskGraph& graph, const RunContext& ctx) override {
    return Execute(graph, ctx);
  }
  bool materializes() const override { return true; }
  Result<data::Matrix> Fetch(const TaskGraph& graph,
                             DataId id) const override {
    return FetchData(graph, id);
  }

 private:
  /// The resident workers, their control segment and the arena; plus
  /// what FetchData needs of the last successful run.
  struct Plane;

  RunOptions options_;
  std::unique_ptr<Plane> plane_;
  std::atomic<bool> executing_{false};
};

}  // namespace taskbench::runtime

#endif  // TASKBENCH_RUNTIME_MULTIPROC_EXECUTOR_H_
