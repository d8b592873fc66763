#ifndef TASKBENCH_RUNTIME_RUN_OPTIONS_H_
#define TASKBENCH_RUNTIME_RUN_OPTIONS_H_

#include <algorithm>
#include <cstdint>

#include "common/status.h"
#include "common/types.h"
#include "hw/cluster.h"
#include "runtime/fault.h"
#include "runtime/scheduler_config.h"

namespace taskbench::obs {
class MetricsRegistry;
}

namespace taskbench::runtime {

/// The one knob struct of workflow execution, consumed through the
/// common `runtime::Executor` interface by every executor, so
/// policies that cut across executors — fault injection, retry
/// budgets — plug in exactly once. Each executor reads the fields
/// that apply to it and ignores the rest. Per-*submission* knobs
/// (cancellation, metrics scoping, storage-key namespacing) live in
/// `RunContext` instead: one executor instance with fixed RunOptions
/// serves many concurrent runs with different contexts.
struct RunOptions {
  // ---------------------------------------------------------------
  // Shared: run telemetry.
  // ---------------------------------------------------------------
  /// When set, the executor records run telemetry (queue depths,
  /// ready-set sizes, steal counts, retries, per-stage time
  /// histograms by task type) into this registry. Null (the default)
  /// disables collection entirely — the hot paths then pay one
  /// pointer test per task, keeping fault-free runs bit-identical
  /// and performance-neutral. The registry is not thread-safe;
  /// executors with worker threads collect into per-worker instances
  /// and merge after join.
  obs::MetricsRegistry* metrics = nullptr;

  // ---------------------------------------------------------------
  // Shared: online invariant checking.
  // ---------------------------------------------------------------
  /// Verify runtime invariants while executing, on every executor:
  /// every attempt starts only after all its task's dependencies
  /// completed, and every datum access observes exactly the version
  /// its writer ordinal predicts (no stale read, no read of a block
  /// that was never published). It holds for first attempts, retries
  /// and hedged duplicates, and under every fault plan; the one
  /// exemption is a simulated lineage recompute's reads
  /// (runtime::AttemptLedger). After the run, the real executors bound
  /// total busy time by workers x makespan, and the simulator checks
  /// per-node busy time against makespan x slot capacity, storage byte
  /// counters against the graph's block sizes, and the scheduler phase
  /// breakdown against the decision overhead. Violations fail the run
  /// with a FailedPrecondition status whose message starts with
  /// "invariant violation".
  ///
  /// On by default: the checks read counters that are maintained
  /// anyway, never perturb the event sequence or any floating-point
  /// accumulation, and cost well under 5% on the thread-pool stress
  /// suite.
  bool check_invariants = true;

  // ---------------------------------------------------------------
  // Shared: fault tolerance.
  // ---------------------------------------------------------------
  /// Fault-injection plan (simulated executor only; the thread-pool
  /// path takes real faults from its storage backend instead).
  FaultPlan faults;
  /// Failed task attempts are retried up to this many times before
  /// the whole run fails. 0 = fail fast (the pre-fault-tolerance
  /// behaviour).
  int max_retries = 0;
  /// Base of the exponential retry backoff: after attempt k fails,
  /// the task waits RetryDelay(k) = retry_backoff_s * 2^min(k-1, 30)
  /// before its next attempt re-enters the ready queue (simulated
  /// seconds on the simulated path, wall-clock seconds on the thread
  /// pool and the multi-process plane).
  double retry_backoff_s = 0.05;
  double RetryDelay(int attempt) const {
    return retry_backoff_s *
           static_cast<double>(1ull << std::min(attempt - 1, 30));
  }

  // ---------------------------------------------------------------
  // Shared: workload partitioning hint of the high-level algos API.
  // ---------------------------------------------------------------
  /// Block dimension (square b x b blocks for matmul; b-row blocks
  /// for kmeans). 0 = pick one block per ~worker for matmul /
  /// 4 blocks per worker for kmeans; negative is invalid.
  int64_t block_dim = 0;

  // ---------------------------------------------------------------
  // Thread-pool (real execution) path.
  // ---------------------------------------------------------------
  /// Worker threads (the "CPU cores" of the local mini-cluster).
  int num_threads = 4;
  /// When true, blocks move through storage between tasks (serialize
  /// on write, deserialize on read), exercising the data movement
  /// stages for real. When false, blocks are passed in memory and the
  /// (de)serialization stage times are zero.
  bool use_storage = true;

  // ---------------------------------------------------------------
  // Shared (storage-backed real execution): versioned block cache.
  // ---------------------------------------------------------------
  /// Cache deserialized blocks per worker (see docs/BLOCK_CACHE.md).
  /// Hot read-mostly inputs are then deserialized once per worker
  /// instead of once per read; entries are version-keyed against the
  /// data plane's own commit bookkeeping (writer ordinals on the
  /// thread pool, shm directory tags on the multi-process plane), so
  /// INOUT rewrites and crash-retry republication can never serve
  /// stale data. Cached values are bit-identical to a fresh
  /// deserialize (the wire format is lossless), so results are
  /// unchanged — the differential fuzzer holds cache-on legs
  /// bit-exact against cache-off baselines. Off by default: fault
  /// injection schedules (FaultyStorage op counts) and existing bench
  /// baselines assume the uncached storage-op sequence. Each worker's
  /// budget is storage::kDefaultBlockCacheBytes (64 MiB).
  bool block_cache = false;

  // ---------------------------------------------------------------
  // Multi-process (scale-out) path — MultiProcExecutor.
  // ---------------------------------------------------------------
  /// Worker processes. Each worker is a forked single-threaded
  /// process executing tasks out of the shared-memory arena; the
  /// coordinator schedules over them with topology-aware placement
  /// (NUMA domains stand in for the paper's cluster nodes). On hosts
  /// with more than one NUMA domain, each worker process (and each
  /// thread-pool worker) is pinned to its domain's CPUs, best effort.
  int num_procs = 2;
  /// Shared-memory arena capacity in bytes. 0 = size automatically
  /// from the graph's registered block sizes (with headroom); raise
  /// explicitly when kernels emit blocks much larger than their
  /// registered nominal sizes.
  uint64_t shm_arena_bytes = 0;

  // ---------------------------------------------------------------
  // Simulated path.
  // ---------------------------------------------------------------
  /// Storage architecture the blocks are read from / written to.
  /// Under local-disk storage, a node reading a block that lives on
  /// another node also crosses the Minotauro fabric
  /// (hw::kMinotauroNetwork*).
  hw::StorageArchitecture storage = hw::StorageArchitecture::kSharedDisk;
  /// Scheduling policy the master uses.
  SchedulingPolicy policy = SchedulingPolicy::kTaskGenerationOrder;
  /// Knobs of the cost-model policy family (ablation flags and the
  /// thread pool's hedging threshold). Ignored unless `policy ==
  /// SchedulingPolicy::kCostModel`. Consumed by both the simulated
  /// and thread-pool paths (hedging applies to each).
  SchedulerConfig sched;
  /// When >= 0, overrides the policy's per-decision master overhead
  /// (seconds). Used by the scheduler-overhead ablation study.
  double scheduler_overhead_override_s = -1;
  /// Hybrid CPU+GPU placement: GPU-targeted tasks may run on free CPU
  /// cores when every device is busy (unless that is over 4x slower),
  /// and fall back to CPU when their working set exceeds device
  /// memory (instead of failing with OOM).
  bool hybrid = false;

  /// InvalidArgument naming the first bad field and its value:
  /// num_threads or num_procs < 1, max_retries < 0, a negative or
  /// non-finite retry_backoff_s, block_dim < 0, or an invalid `sched`.
  /// MakeExecutor and every executor's Execute call it, so no run
  /// starts from a knob it would clamp or abort on.
  Status Validate() const;
};

}  // namespace taskbench::runtime

#endif  // TASKBENCH_RUNTIME_RUN_OPTIONS_H_
