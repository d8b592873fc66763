#ifndef TASKBENCH_SERVICE_WORKFLOW_SERVICE_H_
#define TASKBENCH_SERVICE_WORKFLOW_SERVICE_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/result.h"
#include "common/types.h"
#include "obs/metrics.h"
#include "runtime/executor.h"
#include "runtime/metrics.h"
#include "runtime/task_graph.h"

namespace taskbench::service {

/// Per-tenant policy knobs. Zero means "unlimited" for the caps.
struct TenantConfig {
  /// Weighted-fair share: a tenant with weight 2 is dispatched twice
  /// as often as a weight-1 tenant when both have work queued.
  double weight = 1.0;
  /// Max submissions admitted and not yet finished (queued + running)
  /// for this tenant; further Submits get kRejectedAdmission.
  int max_in_flight = 0;
  /// Max submissions waiting in this tenant's queue.
  int max_queued = 0;
  /// Sustained submission rate (token bucket, tokens/second); 0 =
  /// unlimited. Unlike the in-flight caps — which bound *concurrent*
  /// resource use — this bounds submission *frequency*, so a tenant
  /// whose workflows finish instantly still cannot monopolize the
  /// admission path. Over-rate Submits get kRejectedAdmission.
  double rate_per_s = 0;
  /// Bucket ceiling: how many Submits may arrive back-to-back before
  /// the rate gates. 0 = max(1, rate_per_s); ignored when unlimited.
  double burst = 0;
  /// Scheduling policy for this tenant's runs; unset means the
  /// executor's own RunOptions::policy. Forwarded per submission as
  /// RunContext::policy, so tenants sharing one executor can run
  /// different schedulers.
  std::optional<SchedulingPolicy> policy;
};

/// Validates a tenant config at service-configuration time: finite,
/// non-negative rate_per_s and burst (0 = unlimited / derived burst),
/// finite positive weight, non-negative caps. A tenant with an invalid
/// config has every Submit rejected with this status instead of the
/// knob being silently clamped.
Status ValidateTenantConfig(const TenantConfig& config);

struct ServiceOptions {
  /// Runner threads = submissions executing concurrently. Each runner
  /// drives one Executor::Run at a time through the shared executor.
  int num_runners = 2;
  /// Global cap on admitted-and-unfinished submissions (queued +
  /// running, all tenants); 0 = unlimited. This is the backpressure
  /// edge: Submit fails with kRejectedAdmission instead of queueing
  /// without bound.
  int max_in_flight = 0;
  /// Global cap on queued submissions; 0 = unlimited.
  int max_queued = 0;
  /// Per-tenant policy; tenants not listed here get `default_tenant`.
  std::map<std::string, TenantConfig> tenants;
  TenantConfig default_tenant;
  /// Service-wide telemetry sink (distinct from the per-submission
  /// SubmitOptions::metrics, which scopes one run). When set, the
  /// service maintains admission counters (`service.admitted`,
  /// `service.rejected`, `service.rate_limited`, terminal-state
  /// counts), per-tenant `service.tenant.<name>.queued` /
  /// `.in_flight` gauges, and a `service.queue_wait_s` histogram.
  /// The registry is not thread-safe; the service only touches it
  /// under its own mutex. Must outlive the service. Null disables
  /// collection.
  obs::MetricsRegistry* metrics = nullptr;
};

/// Validates service options before a service is built: num_runners
/// >= 1, max_in_flight >= 0 and max_queued >= 0 (0 = unlimited). The
/// error names the field and its value. The constructor still runs at
/// least one runner; callers that take options from users check here,
/// so a bad value fails instead of being silently replaced.
Status ValidateServiceOptions(const ServiceOptions& options);

struct SubmitOptions {
  std::string tenant = "default";
  /// Higher priority dequeues first within the tenant's own queue
  /// (fair queueing still arbitrates *between* tenants).
  int priority = 0;
  /// Max seconds the submission may wait in the queue; a submission
  /// dequeued after its deadline finishes with kDeadlineExceeded
  /// without running. 0 = no deadline.
  double deadline_s = 0;
  /// Optional per-submission telemetry sink, forwarded as
  /// RunContext::metrics. Must outlive the submission.
  obs::MetricsRegistry* metrics = nullptr;
};

/// Ticket for one submitted workflow. Copyable; all service calls
/// taking a handle are valid until the service is destroyed.
struct SubmissionHandle {
  uint64_t id = 0;
};

enum class SubmissionState {
  kQueued,   ///< admitted, waiting for a runner
  kRunning,  ///< executing on the shared executor
  kDone,     ///< terminal: completed, failed, cancelled, or expired
};

std::string_view ToString(SubmissionState state);

/// Snapshot returned by Poll. `result` is meaningful only once
/// `state == kDone`.
struct SubmissionStatus {
  SubmissionState state = SubmissionState::kQueued;
  Status result;
};

/// Nearest-rank percentile (p in (0, 1]) over `sorted` ascending
/// samples; 0 when empty. Exposed for the report tests.
double Percentile(const std::vector<double>& sorted, double p);

/// Latency distribution summary: nearest-rank p50/p95/p99 plus the
/// sample count and mean.
struct LatencySummary {
  int64_t count = 0;
  double mean = 0;
  double p50 = 0;
  double p95 = 0;
  double p99 = 0;
};

/// One tenant's slice of a ServiceReport.
struct TenantReport {
  std::string tenant;
  int64_t submitted = 0;     ///< admitted submissions
  int64_t rejected = 0;      ///< kRejectedAdmission at Submit
  int64_t rate_limited = 0;  ///< subset of rejected: over rate_per_s
  int64_t completed = 0;     ///< ran to success
  int64_t failed = 0;      ///< ran and failed (non-cancel statuses)
  int64_t cancelled = 0;   ///< cancelled while queued or running
  int64_t expired = 0;     ///< deadline exceeded before dispatch
  /// Makespan of completed runs: simulated seconds on the simulated
  /// executor (deterministic under a fixed seed), wall-clock seconds
  /// on the thread pool.
  LatencySummary makespan;
  /// Wall-clock seconds from Submit to dispatch (completed, failed
  /// and expired submissions; cancelled-in-queue ones never dispatch).
  LatencySummary queue_wait;
};

/// Service-wide stats snapshot. Tenants are sorted by name.
struct ServiceReport {
  std::vector<TenantReport> tenants;
  int64_t submitted = 0;
  int64_t rejected = 0;
  int64_t rate_limited = 0;
  int64_t completed = 0;
  int64_t failed = 0;
  int64_t cancelled = 0;
  int64_t expired = 0;
  int64_t still_queued = 0;   ///< non-terminal at snapshot time
  int64_t still_running = 0;  ///< non-terminal at snapshot time

  /// Single JSON document (passes ValidateJson, common/json.h).
  std::string ToJson() const;
};

/// Resident multi-tenant workflow service: the online counterpart of
/// the batch `Executor::Run` path. One shared executor, N runner
/// threads, per-tenant queues with weighted-fair arbitration, and an
/// admission controller that rejects (kRejectedAdmission) instead of
/// queueing without bound.
///
/// Lifecycle of a submission: Submit -> admission check -> tenant
/// queue -> weighted-fair dequeue by a runner (deadline checked here)
/// -> Executor::Run with a per-submission RunContext (cancellation
/// token, metrics sink, storage scope = submission id) -> terminal
/// state. Wait blocks for the terminal state; Poll never blocks;
/// Cancel takes effect immediately for queued submissions and at the
/// executor's next scheduling edge for running ones.
///
/// Works with the thread-pool and simulated executors, whose Run is
/// safe to call concurrently on one instance. The multi-process
/// executor refuses multi-threaded callers by design (workers are
/// forked; see docs/SCALE_OUT.md), so it cannot back a service.
///
/// Thread-safe: all public methods may be called from any thread.
class WorkflowService {
 public:
  /// The executor must outlive the service. `options.num_runners`
  /// threads are started immediately.
  WorkflowService(std::shared_ptr<runtime::Executor> executor,
                  ServiceOptions options);

  /// Cancels everything still pending and joins the runners.
  ~WorkflowService();

  WorkflowService(const WorkflowService&) = delete;
  WorkflowService& operator=(const WorkflowService&) = delete;

  /// Admits `graph` under `opts`, or fails with kRejectedAdmission
  /// when an admission cap is hit (FailedPrecondition after
  /// Shutdown). The graph is consumed either way.
  Result<SubmissionHandle> Submit(runtime::TaskGraph graph,
                                  const SubmitOptions& opts = {});

  /// Blocks until the submission reaches a terminal state; returns
  /// its RunReport on success, its failure status otherwise
  /// (kCancelled, kDeadlineExceeded, or the executor's error).
  Result<runtime::RunReport> Wait(SubmissionHandle handle);

  /// Non-blocking state snapshot.
  Result<SubmissionStatus> Poll(SubmissionHandle handle) const;

  /// Requests cancellation. Returns true when the submission was
  /// still live: a queued one finishes with kCancelled immediately
  /// (freeing its admission slot); a running one is torn down at the
  /// executor's next scheduling edge. False once already terminal.
  /// Idempotent.
  Result<bool> Cancel(SubmissionHandle handle);

  /// Stops admission, cancels all queued and running submissions and
  /// joins the runners. Idempotent; the destructor calls it.
  void Shutdown();

  /// Per-tenant and global stats snapshot.
  ServiceReport Report() const;

  const ServiceOptions& options() const { return options_; }

 private:
  struct Submission;
  struct Tenant;

  void RunnerLoop();
  /// Picks the next submission by weighted fair queueing; null when
  /// every queue is empty. Caller holds mu_.
  Submission* DequeueLocked();
  /// Moves `sub` to kDone with `result`, releases its graph memory
  /// and records stats. Caller holds mu_.
  void FinishLocked(Submission* sub, Status result,
                    runtime::RunReport report);
  Tenant& TenantFor(const std::string& name);
  /// Seconds since the service started — the time axis of the
  /// per-tenant token buckets.
  double NowS() const;
  /// Pushes `tenant`'s queued/in-flight occupancy into the service
  /// metrics registry (no-op when none is configured). Caller holds
  /// mu_.
  void SyncTenantGaugesLocked(const Tenant& tenant);

  std::shared_ptr<runtime::Executor> executor_;
  ServiceOptions options_;
  const std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();

  mutable std::mutex mu_;
  std::condition_variable work_cv_;  ///< runners: work or shutdown
  std::condition_variable done_cv_;  ///< waiters: terminal states
  std::map<std::string, std::unique_ptr<Tenant>> tenants_;
  std::map<uint64_t, std::unique_ptr<Submission>> submissions_;
  uint64_t next_id_ = 1;
  int64_t queued_ = 0;
  int64_t running_ = 0;
  double global_vtime_ = 0;
  bool shutdown_ = false;

  std::vector<std::thread> runners_;
};

}  // namespace taskbench::service

#endif  // TASKBENCH_SERVICE_WORKFLOW_SERVICE_H_
