#include "service/workflow_service.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <sstream>
#include <utility>

#include "common/logging.h"
#include "common/strings.h"
#include "service/token_bucket.h"

namespace taskbench::service {

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point origin) {
  return std::chrono::duration<double>(Clock::now() - origin).count();
}

LatencySummary Summarize(std::vector<double> samples) {
  LatencySummary s;
  s.count = static_cast<int64_t>(samples.size());
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  double sum = 0;
  for (double v : samples) sum += v;
  s.mean = sum / static_cast<double>(samples.size());
  s.p50 = Percentile(samples, 0.50);
  s.p95 = Percentile(samples, 0.95);
  s.p99 = Percentile(samples, 0.99);
  return s;
}

void AppendLatencyJson(std::ostringstream* out, const char* name,
                       const LatencySummary& s) {
  *out << '"' << name << "\": {\"count\": " << s.count
       << ", \"mean_s\": " << s.mean << ", \"p50_s\": " << s.p50
       << ", \"p95_s\": " << s.p95 << ", \"p99_s\": " << s.p99 << '}';
}

}  // namespace

std::string_view ToString(SubmissionState state) {
  switch (state) {
    case SubmissionState::kQueued:
      return "queued";
    case SubmissionState::kRunning:
      return "running";
    case SubmissionState::kDone:
      return "done";
  }
  return "unknown";
}

Status ValidateTenantConfig(const TenantConfig& config) {
  // The rate limiter knobs are validated instead of clamped: a
  // negative or NaN rate once slipped through to TokenBucket, whose
  // refill arithmetic turned it into an always-empty (or NaN-poisoned)
  // bucket that silently rejected every Submit.
  if (std::isnan(config.rate_per_s) || config.rate_per_s < 0) {
    return Status::InvalidArgument(StrFormat(
        "TenantConfig.rate_per_s must be >= 0 (0 = unlimited), got %g",
        config.rate_per_s));
  }
  if (std::isnan(config.burst) || config.burst < 0) {
    return Status::InvalidArgument(StrFormat(
        "TenantConfig.burst must be >= 0 (0 = derived from rate), got %g",
        config.burst));
  }
  if (std::isinf(config.rate_per_s) || std::isinf(config.burst)) {
    return Status::InvalidArgument(
        "TenantConfig rate_per_s/burst must be finite");
  }
  if (!(config.weight > 0) || std::isinf(config.weight)) {
    return Status::InvalidArgument(StrFormat(
        "TenantConfig.weight must be a finite positive number, got %g",
        config.weight));
  }
  if (config.max_in_flight < 0 || config.max_queued < 0) {
    return Status::InvalidArgument(
        "TenantConfig.max_in_flight/max_queued must be >= 0");
  }
  return Status::OK();
}

Status ValidateServiceOptions(const ServiceOptions& options) {
  if (options.num_runners < 1) {
    return Status::InvalidArgument(StrFormat(
        "ServiceOptions.num_runners = %d: must be >= 1", options.num_runners));
  }
  if (options.max_in_flight < 0) {
    return Status::InvalidArgument(StrFormat(
        "ServiceOptions.max_in_flight = %d: must be >= 0 (0 = unlimited)",
        options.max_in_flight));
  }
  if (options.max_queued < 0) {
    return Status::InvalidArgument(StrFormat(
        "ServiceOptions.max_queued = %d: must be >= 0 (0 = unlimited)",
        options.max_queued));
  }
  return Status::OK();
}

double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  const double rank = std::ceil(p * static_cast<double>(sorted.size()));
  const auto idx = static_cast<size_t>(std::max(rank, 1.0)) - 1;
  return sorted[std::min(idx, sorted.size() - 1)];
}

/// One admitted workflow, owned by the service until it is destroyed.
/// The graph is released (moved-from) at the terminal transition so a
/// resident service does not pin every past submission's matrices.
struct WorkflowService::Submission {
  uint64_t id = 0;
  Tenant* tenant = nullptr;
  int priority = 0;
  double deadline_s = 0;
  obs::MetricsRegistry* metrics = nullptr;
  Clock::time_point submitted_at;
  runtime::TaskGraph graph;
  runtime::CancellationToken cancel;
  SubmissionState state = SubmissionState::kQueued;
  Status result;
  runtime::RunReport report;
  double queue_wait_s = 0;
};

struct WorkflowService::Tenant {
  std::string name;
  TenantConfig config;
  /// ValidateTenantConfig(config), computed once when the tenant is
  /// first seen; a non-OK status fails every Submit for this tenant.
  Status config_status;
  /// Submission-rate limiter (unlimited unless config.rate_per_s > 0).
  TokenBucket bucket;
  /// Weighted-fair virtual time: bumped by 1/weight per dispatch; the
  /// runner always dequeues the eligible tenant with the smallest
  /// vtime (ties: lexicographic name, via the ordered tenant map).
  double vtime = 0;
  /// Queued submissions, ordered by (priority desc, id asc).
  std::deque<Submission*> queue;
  /// Admitted and not yet terminal (queued + running).
  int64_t in_flight = 0;

  int64_t submitted = 0;
  int64_t rejected = 0;
  int64_t rate_limited = 0;  ///< subset of rejected: token bucket dry
  int64_t completed = 0;
  int64_t failed = 0;
  int64_t cancelled = 0;
  int64_t expired = 0;
  std::vector<double> makespans;
  std::vector<double> queue_waits;
};

WorkflowService::WorkflowService(std::shared_ptr<runtime::Executor> executor,
                                 ServiceOptions options)
    : executor_(std::move(executor)), options_(std::move(options)) {
  TB_CHECK(executor_ != nullptr);
  const int runners = std::max(1, options_.num_runners);
  runners_.reserve(static_cast<size_t>(runners));
  for (int i = 0; i < runners; ++i) {
    runners_.emplace_back([this] { RunnerLoop(); });
  }
}

WorkflowService::~WorkflowService() { Shutdown(); }

WorkflowService::Tenant& WorkflowService::TenantFor(const std::string& name) {
  auto it = tenants_.find(name);
  if (it == tenants_.end()) {
    auto tenant = std::make_unique<Tenant>();
    tenant->name = name;
    const auto cfg = options_.tenants.find(name);
    tenant->config = cfg != options_.tenants.end() ? cfg->second
                                                   : options_.default_tenant;
    tenant->config_status = ValidateTenantConfig(tenant->config);
    if (tenant->config_status.ok() && tenant->config.rate_per_s > 0) {
      const double burst = tenant->config.burst > 0
                               ? tenant->config.burst
                               : std::max(1.0, tenant->config.rate_per_s);
      tenant->bucket = TokenBucket(tenant->config.rate_per_s, burst, NowS());
    }
    it = tenants_.emplace(name, std::move(tenant)).first;
  }
  return *it->second;
}

double WorkflowService::NowS() const { return SecondsSince(origin_); }

void WorkflowService::SyncTenantGaugesLocked(const Tenant& tenant) {
  if (options_.metrics == nullptr) return;
  options_.metrics
      ->gauge(StrFormat("service.tenant.%s.queued", tenant.name.c_str()))
      ->Set(static_cast<double>(tenant.queue.size()));
  options_.metrics
      ->gauge(StrFormat("service.tenant.%s.in_flight", tenant.name.c_str()))
      ->Set(static_cast<double>(tenant.in_flight));
}

Result<SubmissionHandle> WorkflowService::Submit(runtime::TaskGraph graph,
                                                 const SubmitOptions& opts) {
  std::lock_guard<std::mutex> lock(mu_);
  if (shutdown_) {
    return Status::FailedPrecondition(
        "WorkflowService is shut down; no new submissions");
  }
  Tenant& tenant = TenantFor(opts.tenant);
  // A misconfigured tenant is a caller error, not backpressure: the
  // config status is surfaced verbatim (no kRejectedAdmission, no
  // rejected-counter bump) so it cannot be mistaken for load.
  if (!tenant.config_status.ok()) {
    return Status::InvalidArgument(
        StrFormat("tenant '%s' misconfigured: %s", opts.tenant.c_str(),
                  tenant.config_status.message().c_str()));
  }
  // Admission control: reject (backpressure the client) rather than
  // queue without bound. Every cap is checked before any state is
  // mutated, so a rejected Submit leaves no trace but the counter.
  const auto reject = [&](const char* what, long long have,
                          int cap) -> Status {
    ++tenant.rejected;
    if (options_.metrics != nullptr) {
      options_.metrics->counter("service.rejected")->Add();
    }
    return Status::RejectedAdmission(StrFormat(
        "tenant '%s' rejected: %s at capacity (%lld of %d)",
        opts.tenant.c_str(), what, have, cap));
  };
  if (options_.max_in_flight > 0 &&
      queued_ + running_ >= options_.max_in_flight) {
    return reject("service in-flight submissions", queued_ + running_,
                  options_.max_in_flight);
  }
  if (options_.max_queued > 0 && queued_ >= options_.max_queued) {
    return reject("service queue", queued_, options_.max_queued);
  }
  if (tenant.config.max_in_flight > 0 &&
      tenant.in_flight >= tenant.config.max_in_flight) {
    return reject("tenant in-flight submissions", tenant.in_flight,
                  tenant.config.max_in_flight);
  }
  if (tenant.config.max_queued > 0 &&
      static_cast<int64_t>(tenant.queue.size()) >= tenant.config.max_queued) {
    return reject("tenant queue",
                  static_cast<long long>(tenant.queue.size()),
                  tenant.config.max_queued);
  }
  // Rate limiting is checked last: a Submit that would be rejected by
  // a capacity cap anyway must not also burn a token.
  if (!tenant.bucket.TryAcquire(NowS())) {
    ++tenant.rejected;
    ++tenant.rate_limited;
    if (options_.metrics != nullptr) {
      options_.metrics->counter("service.rejected")->Add();
      options_.metrics->counter("service.rate_limited")->Add();
    }
    return Status::RejectedAdmission(StrFormat(
        "tenant '%s' rejected: over submission rate (%.3g/s, burst %.3g)",
        opts.tenant.c_str(), tenant.config.rate_per_s,
        tenant.config.burst > 0 ? tenant.config.burst
                                : std::max(1.0, tenant.config.rate_per_s)));
  }

  auto sub = std::make_unique<Submission>();
  sub->id = next_id_++;
  sub->tenant = &tenant;
  sub->priority = opts.priority;
  sub->deadline_s = opts.deadline_s;
  sub->metrics = opts.metrics;
  sub->submitted_at = Clock::now();
  sub->graph = std::move(graph);
  Submission* raw = sub.get();

  // A tenant re-entering the active set resumes at the current global
  // virtual time — it must not bank credit for the time it was idle.
  if (tenant.queue.empty()) {
    tenant.vtime = std::max(tenant.vtime, global_vtime_);
  }
  const auto pos = std::upper_bound(
      tenant.queue.begin(), tenant.queue.end(), raw,
      [](const Submission* a, const Submission* b) {
        return a->priority > b->priority;
      });
  tenant.queue.insert(pos, raw);
  submissions_.emplace(raw->id, std::move(sub));
  ++tenant.in_flight;
  ++tenant.submitted;
  ++queued_;
  if (options_.metrics != nullptr) {
    options_.metrics->counter("service.admitted")->Add();
  }
  SyncTenantGaugesLocked(tenant);
  work_cv_.notify_one();
  return SubmissionHandle{raw->id};
}

WorkflowService::Submission* WorkflowService::DequeueLocked() {
  Tenant* best = nullptr;
  for (auto& [name, tenant] : tenants_) {
    if (tenant->queue.empty()) continue;
    if (best == nullptr || tenant->vtime < best->vtime) best = tenant.get();
  }
  if (best == nullptr) return nullptr;
  Submission* sub = best->queue.front();
  best->queue.pop_front();
  global_vtime_ = best->vtime;
  best->vtime += 1.0 / std::max(best->config.weight, 1e-9);
  return sub;
}

void WorkflowService::FinishLocked(Submission* sub, Status result,
                                   runtime::RunReport report) {
  sub->state = SubmissionState::kDone;
  sub->result = std::move(result);
  sub->report = std::move(report);
  sub->graph = runtime::TaskGraph();  // release the matrices now
  Tenant& tenant = *sub->tenant;
  --tenant.in_flight;
  obs::MetricsRegistry* metrics = options_.metrics;
  const auto record_wait = [&] {
    tenant.queue_waits.push_back(sub->queue_wait_s);
    if (metrics != nullptr) {
      metrics->histogram("service.queue_wait_s")->Record(sub->queue_wait_s);
    }
  };
  if (sub->result.ok()) {
    ++tenant.completed;
    if (metrics != nullptr) metrics->counter("service.completed")->Add();
    tenant.makespans.push_back(sub->report.makespan);
    record_wait();
  } else if (sub->result.IsDeadlineExceeded()) {
    ++tenant.expired;
    if (metrics != nullptr) metrics->counter("service.expired")->Add();
    record_wait();
  } else if (sub->result.IsCancelled()) {
    ++tenant.cancelled;
    if (metrics != nullptr) metrics->counter("service.cancelled")->Add();
  } else {
    ++tenant.failed;
    if (metrics != nullptr) metrics->counter("service.failed")->Add();
    record_wait();
  }
  SyncTenantGaugesLocked(tenant);
  done_cv_.notify_all();
}

void WorkflowService::RunnerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [&] { return shutdown_ || queued_ > 0; });
    if (queued_ == 0) {
      if (shutdown_) return;
      continue;
    }
    Submission* sub = DequeueLocked();
    if (sub == nullptr) continue;
    --queued_;
    SyncTenantGaugesLocked(*sub->tenant);
    sub->queue_wait_s = SecondsSince(sub->submitted_at);

    // Shutdown and deadlines are decided at dispatch time: the
    // submission never touches the executor.
    if (shutdown_) {
      FinishLocked(sub, Status::Cancelled("service shut down"),
                   runtime::RunReport{});
      continue;
    }
    if (sub->deadline_s > 0 && sub->queue_wait_s > sub->deadline_s) {
      FinishLocked(sub,
                   Status::DeadlineExceeded(StrFormat(
                       "queued %.3fs, deadline %.3fs", sub->queue_wait_s,
                       sub->deadline_s)),
                   runtime::RunReport{});
      continue;
    }

    sub->state = SubmissionState::kRunning;
    ++running_;
    runtime::RunContext ctx;
    ctx.cancel = &sub->cancel;
    ctx.metrics = sub->metrics;
    ctx.scope = sub->id;
    ctx.policy = sub->tenant->config.policy;
    lock.unlock();
    Result<runtime::RunReport> run = executor_->Run(sub->graph, ctx);
    lock.lock();
    --running_;
    if (run.ok()) {
      FinishLocked(sub, Status::OK(), std::move(*run));
    } else {
      FinishLocked(sub, run.status(), runtime::RunReport{});
    }
  }
}

Result<runtime::RunReport> WorkflowService::Wait(SubmissionHandle handle) {
  std::unique_lock<std::mutex> lock(mu_);
  const auto it = submissions_.find(handle.id);
  if (it == submissions_.end()) {
    return Status::InvalidArgument(StrFormat(
        "unknown submission %llu",
        static_cast<unsigned long long>(handle.id)));
  }
  Submission* sub = it->second.get();
  done_cv_.wait(lock, [&] { return sub->state == SubmissionState::kDone; });
  if (!sub->result.ok()) return sub->result;
  return sub->report;
}

Result<SubmissionStatus> WorkflowService::Poll(SubmissionHandle handle) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = submissions_.find(handle.id);
  if (it == submissions_.end()) {
    return Status::InvalidArgument(StrFormat(
        "unknown submission %llu",
        static_cast<unsigned long long>(handle.id)));
  }
  SubmissionStatus status;
  status.state = it->second->state;
  status.result = it->second->result;
  return status;
}

Result<bool> WorkflowService::Cancel(SubmissionHandle handle) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = submissions_.find(handle.id);
  if (it == submissions_.end()) {
    return Status::InvalidArgument(StrFormat(
        "unknown submission %llu",
        static_cast<unsigned long long>(handle.id)));
  }
  Submission* sub = it->second.get();
  if (sub->state == SubmissionState::kDone) return false;
  sub->cancel.Cancel();
  if (sub->state == SubmissionState::kQueued) {
    // Remove from the tenant queue and finish immediately: the
    // admission slot frees right here, so a backpressured client's
    // next Submit can be admitted without waiting for a runner.
    auto& queue = sub->tenant->queue;
    queue.erase(std::find(queue.begin(), queue.end(), sub));
    --queued_;
    FinishLocked(sub, Status::Cancelled("cancelled while queued"),
                 runtime::RunReport{});
  }
  // A running submission tears down at the executor's next scheduling
  // edge; its runner performs the terminal transition.
  return true;
}

void WorkflowService::Shutdown() {
  std::vector<std::thread> to_join;
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
    for (auto& [id, sub] : submissions_) {
      if (sub->state == SubmissionState::kDone) continue;
      sub->cancel.Cancel();
      if (sub->state == SubmissionState::kQueued) {
        auto& queue = sub->tenant->queue;
        queue.erase(std::find(queue.begin(), queue.end(), sub.get()));
        --queued_;
        FinishLocked(sub.get(), Status::Cancelled("service shut down"),
                     runtime::RunReport{});
      }
    }
    work_cv_.notify_all();
    // Claim the runner threads under the lock so concurrent Shutdown
    // calls never join the same thread twice.
    to_join.swap(runners_);
  }
  for (std::thread& t : to_join) t.join();
}

ServiceReport WorkflowService::Report() const {
  std::lock_guard<std::mutex> lock(mu_);
  ServiceReport report;
  report.still_queued = queued_;
  report.still_running = running_;
  for (const auto& [name, tenant] : tenants_) {
    TenantReport t;
    t.tenant = name;
    t.submitted = tenant->submitted;
    t.rejected = tenant->rejected;
    t.rate_limited = tenant->rate_limited;
    t.completed = tenant->completed;
    t.failed = tenant->failed;
    t.cancelled = tenant->cancelled;
    t.expired = tenant->expired;
    t.makespan = Summarize(tenant->makespans);
    t.queue_wait = Summarize(tenant->queue_waits);
    report.submitted += t.submitted;
    report.rejected += t.rejected;
    report.rate_limited += t.rate_limited;
    report.completed += t.completed;
    report.failed += t.failed;
    report.cancelled += t.cancelled;
    report.expired += t.expired;
    report.tenants.push_back(std::move(t));
  }
  return report;
}

std::string ServiceReport::ToJson() const {
  std::ostringstream out;
  out << "{\"submitted\": " << submitted << ", \"rejected\": " << rejected
      << ", \"rate_limited\": " << rate_limited
      << ", \"completed\": " << completed << ", \"failed\": " << failed
      << ", \"cancelled\": " << cancelled << ", \"expired\": " << expired
      << ", \"still_queued\": " << still_queued
      << ", \"still_running\": " << still_running << ", \"tenants\": [";
  for (size_t i = 0; i < tenants.size(); ++i) {
    const TenantReport& t = tenants[i];
    if (i > 0) out << ", ";
    out << "{\"tenant\": \"" << JsonEscape(t.tenant)
        << "\", \"submitted\": " << t.submitted
        << ", \"rejected\": " << t.rejected
        << ", \"rate_limited\": " << t.rate_limited
        << ", \"completed\": " << t.completed << ", \"failed\": " << t.failed
        << ", \"cancelled\": " << t.cancelled
        << ", \"expired\": " << t.expired << ", ";
    AppendLatencyJson(&out, "makespan", t.makespan);
    out << ", ";
    AppendLatencyJson(&out, "queue_wait", t.queue_wait);
    out << '}';
  }
  out << "]}";
  return out.str();
}

}  // namespace taskbench::service
