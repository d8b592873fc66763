#ifndef TASKBENCH_RUNTIME_EXECUTOR_H_
#define TASKBENCH_RUNTIME_EXECUTOR_H_

#include <cstdint>
#include <optional>
#include <string>

#include "common/result.h"
#include "data/matrix.h"
#include "runtime/cancellation.h"
#include "runtime/metrics.h"
#include "runtime/run_options.h"
#include "runtime/task_graph.h"

namespace taskbench::obs {
class MetricsRegistry;
}

namespace taskbench::runtime {

/// Per-run execution context — the knobs that vary per *submission*
/// where RunOptions vary per *executor*. A resident service runs many
/// graphs through one executor concurrently; each run carries its own
/// cancellation token, its own metrics sink, and a scope id that
/// namespaces storage keys so concurrent graphs never collide.
///
/// The default-constructed context is the exact legacy behaviour:
/// no cancellation, metrics from RunOptions::metrics, scope 0 (the
/// unprefixed storage keys) — so the single-graph batch path stays
/// bit-identical.
struct RunContext {
  /// Cooperative cancellation flag; null = not cancellable.
  const CancellationToken* cancel = nullptr;
  /// Per-run telemetry sink. Null = use options().metrics. Lets a
  /// multi-tenant service scope counters/histograms to one submission
  /// instead of mixing every tenant into the executor-wide registry.
  obs::MetricsRegistry* metrics = nullptr;
  /// Storage-key namespace. 0 = the legacy unprefixed keys; a service
  /// assigns each submission a unique nonzero scope so concurrent
  /// runs through one executor keep disjoint keys in the shared
  /// block store.
  uint64_t scope = 0;
  /// Per-submission scheduling-policy override. Unset = use
  /// RunOptions::policy. Lets a multi-tenant service give each tenant
  /// its own policy (TenantConfig::policy) over one shared executor.
  std::optional<SchedulingPolicy> policy;
};

/// The common executor interface: run a TaskGraph, get a RunReport.
///
/// Both execution paths implement it — `ThreadPoolExecutor` computes
/// real matrices on host threads, `SimulatedExecutor` replays the
/// graph on a modeled CPU-GPU cluster — so workload entry points
/// (`algos::RunDistributedMatmul`, `analysis::RunExperiment`, the
/// CLI) are written once against `Executor&` and work on either.
/// Cross-cutting execution policy (retry budgets, fault plans) lives
/// in the shared `RunOptions` and therefore plugs in exactly once;
/// per-submission policy (cancellation, metrics scoping) rides in the
/// RunContext.
class Executor {
 public:
  virtual ~Executor() = default;

  /// Short human-readable identifier ("thread-pool", "simulated").
  virtual std::string name() const = 0;

  /// The options this executor was constructed with.
  virtual const RunOptions& options() const = 0;

  /// Runs `graph` to completion under `ctx` and returns the report.
  /// Implementations must either finish or fail with a Status — never
  /// hang — including under injected faults with retries exhausted.
  /// A cancelled context fails with StatusCode::kCancelled at the
  /// next scheduling point.
  virtual Result<RunReport> Run(TaskGraph& graph, const RunContext& ctx) = 0;

  /// Single-graph convenience: Run with the default context. This is
  /// the legacy batch entry point; its reports are bit-identical to
  /// the pre-RunContext executor.
  Result<RunReport> Run(TaskGraph& graph) { return Run(graph, RunContext{}); }

  /// True when Run computes real data (Fetch returns values).
  /// Simulation-only executors return false; callers that need the
  /// numeric result must check before fetching.
  virtual bool materializes() const { return false; }

  /// Reads a datum's current value after Run. Default: Unimplemented
  /// (simulation-only executors model timing, not values).
  virtual Result<data::Matrix> Fetch(const TaskGraph& graph,
                                     DataId id) const;
};

/// InvalidArgument unless `id` names one of the graph's data.
Status CheckDataId(const TaskGraph& graph, DataId id);

/// The value held on datum `id`'s graph entry, where the executors
/// that write results back onto the graph (the memory-mode thread
/// pool, the multi-process plane) leave it. CheckDataId's error for
/// an unknown id, NotFound for a datum that has no value.
Result<data::Matrix> FetchGraphValue(const TaskGraph& graph, DataId id);

}  // namespace taskbench::runtime

#endif  // TASKBENCH_RUNTIME_EXECUTOR_H_
