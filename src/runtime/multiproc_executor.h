#ifndef TASKBENCH_RUNTIME_MULTIPROC_EXECUTOR_H_
#define TASKBENCH_RUNTIME_MULTIPROC_EXECUTOR_H_

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
///  - The coordinator (the calling process) builds the graph, maps a
///    shared-memory block arena plus a control segment, and forks
///    `options.num_procs` single-threaded workers. Forking *after*
///    graph construction means kernels (std::function, inherently
///    unserializable) ride into the workers via copy-on-write for
///    free — no code shipping, no kernel registry.
///  - Dispatch is per-worker lock-free SPSC rings in the control
///    segment: a task ring in, a completion ring out, with futex
///    doorbells so an idle side sleeps until it is rung. The coordinator
///    never touches block bytes; workers serialize results straight
///    into the arena (`Serializer` wire format, same as the storage
///    path) and *stage* them — the coordinator performs the shared-
///    directory stores when it consumes the completion, so a block
///    still moves between workers without being copied through the
///    coordinator, but publication is atomic with completion: a
///    worker dying after staging leaves the directory untouched and a
///    retried attempt re-reads pre-attempt values (INOUT tasks are
///    never double-applied).
///  - Placement is topology-aware: workers are striped over the NUMA
///    domains (and optionally pinned), and a ready task prefers a
///    worker in the domain that produced most of its input bytes —
///    the same locality policy the simulated scheduler applies across
///    cluster nodes.
///  - Fault tolerance reuses the retry semantics of the thread-pool
///    path: a worker death (detected via waitpid) turns its in-flight
///    tasks into kNodeLost attempts that are re-dispatched to
///    surviving workers under `options.max_retries`; published blocks
///    live in the arena, not in the dead worker, so nothing is
///    recomputed.
///
/// POSIX-only (fork + shm_open); `Supported()` is false on platforms
/// without them and Execute fails with Unimplemented there.
///
/// Execute must be called from a single-threaded process: workers are
/// forked without exec, so a lock held by any other caller thread at
/// fork time (allocator, logging, metrics mutexes) stays locked
/// forever inside every worker, deadlocking its first allocation.
/// Execute detects extra threads (via /proc/self/task, Linux) and
/// fails with FailedPrecondition instead of hanging; join worker
/// threads (the thread-pool executor joins inside its own Execute)
/// before running this one.
class MultiProcExecutor final : public Executor {
 public:
  explicit MultiProcExecutor(RunOptions options);

  /// True when this platform can run the multi-process plane.
  static bool Supported();

  /// Runs the graph across worker processes. Initial data values are
  /// taken from the graph; on success every datum the run wrote is
  /// written back onto the graph entries (read them with FetchData).
  /// Cancellation (RunContext::cancel) is polled on every coordinator
  /// scheduling pass; RunContext::scope is ignored (each Execute maps
  /// a private arena, so concurrent runs cannot collide — but the
  /// single-threaded-caller rule below rules concurrent callers out
  /// anyway).
  Result<RunReport> Execute(TaskGraph& graph, const RunContext& ctx);
  Result<RunReport> Execute(TaskGraph& graph) {
    return Execute(graph, RunContext{});
  }

  /// Reads a datum's final value after Execute.
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
  RunOptions options_;
};

}  // namespace taskbench::runtime

#endif  // TASKBENCH_RUNTIME_MULTIPROC_EXECUTOR_H_
