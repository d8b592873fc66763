// WorkflowService behaviour: admission control, weighted-fair
// dequeue, deadlines, cancellation through the session API, shutdown,
// and the deterministic per-tenant percentile report. Thread-pool
// backed tests gate the single runner on a blocking kernel so queue
// states are reached deterministically, never by sleeping.

#include <atomic>
#include <condition_variable>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "check/workload.h"
#include "common/json.h"
#include "hw/cluster.h"
#include "runtime/executor_factory.h"
#include "runtime/simulated_executor.h"
#include "runtime/thread_pool_executor.h"
#include "service/token_bucket.h"
#include "service/workflow_service.h"

namespace taskbench::service {
namespace {

using runtime::DataId;
using runtime::Dir;
using runtime::KernelFn;
using runtime::TaskGraph;
using runtime::TaskSpec;

/// Shared gate: kernels built over it block until Open() is called.
/// Lets a test park the service's runner inside Executor::Run and
/// build up queue state behind it deterministically.
class Gate {
 public:
  void Open() {
    std::lock_guard<std::mutex> lock(mu_);
    open_ = true;
    cv_.notify_all();
  }
  void Await() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return open_; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
};

/// One-task graph; the kernel optionally records `tag` into `order`
/// (mutex-protected) and optionally blocks on `gate`.
TaskGraph TaggedGraph(std::string tag, std::vector<std::string>* order,
                      std::mutex* order_mu, Gate* gate = nullptr,
                      std::atomic<bool>* entered = nullptr) {
  TaskGraph graph;
  const DataId in = graph.AddData(data::Matrix(2, 2, 1.0));
  const DataId out = graph.AddData(static_cast<uint64_t>(32));
  TaskSpec spec;
  spec.type = "tagged";
  spec.params = {{in, Dir::kIn}, {out, Dir::kOut}};
  spec.kernel = [tag = std::move(tag), order, order_mu, gate, entered](
                    const std::vector<const data::Matrix*>& inputs,
                    const std::vector<data::Matrix*>& outputs) -> Status {
    if (entered != nullptr) entered->store(true);
    if (gate != nullptr) gate->Await();
    if (order != nullptr) {
      std::lock_guard<std::mutex> lock(*order_mu);
      order->push_back(tag);
    }
    *outputs[0] = *inputs[0];
    return Status::OK();
  };
  EXPECT_TRUE(graph.Submit(std::move(spec)).ok());
  return graph;
}

std::shared_ptr<runtime::Executor> ThreadExecutor() {
  runtime::RunOptions options;
  options.num_threads = 2;
  options.use_storage = false;
  return std::make_shared<runtime::ThreadPoolExecutor>(options);
}

std::shared_ptr<runtime::Executor> SimExecutor() {
  return std::make_shared<runtime::SimulatedExecutor>(
      hw::MinotauroCluster(), runtime::RunOptions{});
}

TEST(PercentileTest, NearestRank) {
  std::vector<double> sorted;
  for (int i = 1; i <= 100; ++i) sorted.push_back(i);
  EXPECT_EQ(Percentile(sorted, 0.50), 50);
  EXPECT_EQ(Percentile(sorted, 0.95), 95);
  EXPECT_EQ(Percentile(sorted, 0.99), 99);
  EXPECT_EQ(Percentile(sorted, 1.0), 100);
  EXPECT_EQ(Percentile({7.0}, 0.5), 7.0);
  EXPECT_EQ(Percentile({}, 0.5), 0.0);
}

TEST(StatusTest, RejectedAdmissionPredicate) {
  const Status status = Status::RejectedAdmission("full");
  EXPECT_FALSE(status.ok());
  EXPECT_TRUE(status.IsRejectedAdmission());
  EXPECT_FALSE(Status::Cancelled("x").IsRejectedAdmission());
}

TEST(WorkflowServiceTest, SubmitWaitPollLifecycle) {
  WorkflowService service(SimExecutor(), ServiceOptions{});
  auto built = check::BuildWorkload(check::GenerateSpec(1));
  ASSERT_TRUE(built.ok());
  auto handle = service.Submit(std::move(built->graph));
  ASSERT_TRUE(handle.ok());
  auto report = service.Wait(*handle);
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->makespan, 0.0);
  auto polled = service.Poll(*handle);
  ASSERT_TRUE(polled.ok());
  EXPECT_EQ(polled->state, SubmissionState::kDone);
  EXPECT_TRUE(polled->result.ok());
  // Unknown handles are errors, not hangs.
  EXPECT_FALSE(service.Wait(SubmissionHandle{999}).ok());
  EXPECT_FALSE(service.Poll(SubmissionHandle{999}).ok());
  EXPECT_FALSE(service.Cancel(SubmissionHandle{999}).ok());
}

TEST(WorkflowServiceTest, AdmissionCapRejectsAndCancelFreesSlot) {
  Gate gate;
  std::atomic<bool> entered{false};
  ServiceOptions options;
  options.num_runners = 1;
  options.max_in_flight = 2;
  WorkflowService service(ThreadExecutor(), options);

  // First submission occupies the runner; second fills the queue.
  auto running =
      service.Submit(TaggedGraph("r", nullptr, nullptr, &gate, &entered));
  ASSERT_TRUE(running.ok());
  while (!entered.load()) std::this_thread::yield();
  auto queued = service.Submit(TaggedGraph("q", nullptr, nullptr));
  ASSERT_TRUE(queued.ok());

  // At the cap: the third submission is rejected, not queued.
  auto rejected = service.Submit(TaggedGraph("x", nullptr, nullptr));
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().IsRejectedAdmission())
      << rejected.status().ToString();

  // Cancelling the queued submission frees its slot immediately —
  // before any runner touches it.
  auto cancel = service.Cancel(*queued);
  ASSERT_TRUE(cancel.ok());
  EXPECT_TRUE(*cancel);
  auto admitted = service.Submit(TaggedGraph("y", nullptr, nullptr));
  EXPECT_TRUE(admitted.ok()) << admitted.status().ToString();

  gate.Open();
  EXPECT_TRUE(service.Wait(*running).ok());
  auto cancelled_result = service.Wait(*queued);
  ASSERT_FALSE(cancelled_result.ok());
  EXPECT_TRUE(cancelled_result.status().IsCancelled());
  EXPECT_TRUE(service.Wait(*admitted).ok());

  // Cancel after terminal: idempotent, reports "was already done".
  auto again = service.Cancel(*queued);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(*again);

  const ServiceReport report = service.Report();
  EXPECT_EQ(report.submitted, 3);
  EXPECT_EQ(report.rejected, 1);
  EXPECT_EQ(report.completed, 2);
  EXPECT_EQ(report.cancelled, 1);
}

TEST(WorkflowServiceTest, CancelRunningSubmission) {
  Gate gate;
  std::atomic<bool> entered{false};
  ServiceOptions options;
  options.num_runners = 1;
  WorkflowService service(ThreadExecutor(), options);

  // The blocking task plus a follow-up that reads its output, so the
  // tail cannot start before the gate opens: cancellation lands at
  // the scheduling edge between them once the kernel is released.
  // (An independent tail could finish first, and the run would then
  // complete the instant the gated task returns — a flaky race.)
  TaskGraph graph =
      TaggedGraph("first", nullptr, nullptr, &gate, &entered);
  const DataId first_out = 1;  // TaggedGraph: datum 0 = in, 1 = out
  const DataId out = graph.AddData(static_cast<uint64_t>(32));
  TaskSpec tail;
  tail.type = "tail";
  tail.params = {{first_out, Dir::kIn}, {out, Dir::kOut}};
  tail.kernel = [](const std::vector<const data::Matrix*>& inputs,
                   const std::vector<data::Matrix*>& outputs) -> Status {
    *outputs[0] = *inputs[0];
    return Status::OK();
  };
  ASSERT_TRUE(graph.Submit(std::move(tail)).ok());

  auto handle = service.Submit(std::move(graph));
  ASSERT_TRUE(handle.ok());
  while (!entered.load()) std::this_thread::yield();
  auto polled = service.Poll(*handle);
  ASSERT_TRUE(polled.ok());
  EXPECT_EQ(polled->state, SubmissionState::kRunning);

  auto cancel = service.Cancel(*handle);
  ASSERT_TRUE(cancel.ok());
  EXPECT_TRUE(*cancel);
  gate.Open();
  auto result = service.Wait(*handle);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCancelled()) << result.status().ToString();
  EXPECT_EQ(service.Report().cancelled, 1);
}

TEST(WorkflowServiceTest, DeadlineExceededBeforeDispatch) {
  Gate gate;
  std::atomic<bool> entered{false};
  ServiceOptions options;
  options.num_runners = 1;
  WorkflowService service(ThreadExecutor(), options);

  auto running =
      service.Submit(TaggedGraph("r", nullptr, nullptr, &gate, &entered));
  ASSERT_TRUE(running.ok());
  while (!entered.load()) std::this_thread::yield();

  SubmitOptions tight;
  tight.deadline_s = 1e-4;
  auto doomed = service.Submit(TaggedGraph("d", nullptr, nullptr), tight);
  ASSERT_TRUE(doomed.ok());
  // Hold the runner well past the deadline, then let it dispatch.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  gate.Open();
  auto result = service.Wait(*doomed);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsDeadlineExceeded())
      << result.status().ToString();
  EXPECT_TRUE(service.Wait(*running).ok());
  const ServiceReport report = service.Report();
  EXPECT_EQ(report.expired, 1);
  EXPECT_EQ(report.completed, 1);
}

TEST(WorkflowServiceTest, WeightedFairDequeue) {
  // Park the single runner behind a gate tenant, queue 6 submissions
  // for heavy (weight 3) and 2 for light (weight 1), then drain. The
  // first four dispatches must split 3:1 in heavy's favour.
  Gate gate;
  std::atomic<bool> entered{false};
  std::vector<std::string> order;
  std::mutex order_mu;

  ServiceOptions options;
  options.num_runners = 1;
  options.tenants["heavy"].weight = 3;
  options.tenants["light"].weight = 1;
  WorkflowService service(ThreadExecutor(), options);

  auto gate_handle = service.Submit(
      TaggedGraph("gate", nullptr, nullptr, &gate, &entered),
      SubmitOptions{.tenant = "zz-gate"});
  ASSERT_TRUE(gate_handle.ok());
  while (!entered.load()) std::this_thread::yield();

  std::vector<SubmissionHandle> handles;
  for (int i = 0; i < 6; ++i) {
    auto h = service.Submit(TaggedGraph("heavy", &order, &order_mu),
                            SubmitOptions{.tenant = "heavy"});
    ASSERT_TRUE(h.ok());
    handles.push_back(*h);
  }
  for (int i = 0; i < 2; ++i) {
    auto h = service.Submit(TaggedGraph("light", &order, &order_mu),
                            SubmitOptions{.tenant = "light"});
    ASSERT_TRUE(h.ok());
    handles.push_back(*h);
  }
  gate.Open();
  ASSERT_TRUE(service.Wait(*gate_handle).ok());
  for (const SubmissionHandle h : handles) {
    ASSERT_TRUE(service.Wait(h).ok());
  }

  ASSERT_EQ(order.size(), 8u);
  int heavy_in_first_four = 0;
  for (int i = 0; i < 4; ++i) {
    if (order[static_cast<size_t>(i)] == "heavy") ++heavy_in_first_four;
  }
  EXPECT_EQ(heavy_in_first_four, 3) << "weighted-fair share violated";
}

TEST(WorkflowServiceTest, PriorityOrdersWithinTenant) {
  Gate gate;
  std::atomic<bool> entered{false};
  std::vector<std::string> order;
  std::mutex order_mu;

  ServiceOptions options;
  options.num_runners = 1;
  WorkflowService service(ThreadExecutor(), options);
  auto gate_handle = service.Submit(
      TaggedGraph("gate", nullptr, nullptr, &gate, &entered),
      SubmitOptions{.tenant = "zz-gate"});
  ASSERT_TRUE(gate_handle.ok());
  while (!entered.load()) std::this_thread::yield();

  std::vector<SubmissionHandle> handles;
  const struct {
    const char* tag;
    int priority;
  } subs[] = {{"low", 0}, {"high", 5}, {"mid", 3}, {"high2", 5}};
  for (const auto& s : subs) {
    auto h = service.Submit(TaggedGraph(s.tag, &order, &order_mu),
                            SubmitOptions{.priority = s.priority});
    ASSERT_TRUE(h.ok());
    handles.push_back(*h);
  }
  gate.Open();
  for (const SubmissionHandle h : handles) {
    ASSERT_TRUE(service.Wait(h).ok());
  }
  ASSERT_TRUE(service.Wait(*gate_handle).ok());
  // Priority desc, FIFO within equal priority.
  EXPECT_EQ(order,
            (std::vector<std::string>{"high", "high2", "mid", "low"}));
}

TEST(WorkflowServiceTest, ShutdownCancelsPendingAndRefusesNew) {
  Gate gate;
  std::atomic<bool> entered{false};
  ServiceOptions options;
  options.num_runners = 1;
  WorkflowService service(ThreadExecutor(), options);

  auto running =
      service.Submit(TaggedGraph("r", nullptr, nullptr, &gate, &entered));
  ASSERT_TRUE(running.ok());
  while (!entered.load()) std::this_thread::yield();
  auto queued = service.Submit(TaggedGraph("q", nullptr, nullptr));
  ASSERT_TRUE(queued.ok());

  std::thread shutdown_thread([&] { service.Shutdown(); });
  // Release the running graph only once Shutdown has cancelled the
  // queued one; opened earlier, the runner can dequeue it first.
  while (service.Poll(*queued)->state != SubmissionState::kDone) {
    std::this_thread::yield();
  }
  gate.Open();
  shutdown_thread.join();

  auto queued_result = service.Wait(*queued);
  ASSERT_FALSE(queued_result.ok());
  EXPECT_TRUE(queued_result.status().IsCancelled());
  auto refused = service.Submit(TaggedGraph("new", nullptr, nullptr));
  ASSERT_FALSE(refused.ok());
  EXPECT_FALSE(refused.status().IsRejectedAdmission());

  const ServiceReport report = service.Report();
  EXPECT_EQ(report.still_queued, 0);
  EXPECT_EQ(report.still_running, 0);
}

TEST(WorkflowServiceTest, ReportJsonValidates) {
  WorkflowService service(SimExecutor(), ServiceOptions{});
  for (uint64_t seed = 0; seed < 3; ++seed) {
    auto built = check::BuildWorkload(check::GenerateSpec(seed));
    ASSERT_TRUE(built.ok());
    SubmitOptions opts;
    opts.tenant = seed % 2 == 0 ? "even \"tenant\"" : "odd";
    auto handle = service.Submit(std::move(built->graph), opts);
    ASSERT_TRUE(handle.ok());
    ASSERT_TRUE(service.Wait(*handle).ok());
  }
  const std::string json = service.Report().ToJson();
  EXPECT_TRUE(ValidateJson(json).ok()) << json;
}

/// Runs the same seeded submission set through a fresh sim-backed
/// service and returns the per-tenant makespan summaries.
ServiceReport RunDeterministicBatch(int runners) {
  ServiceOptions options;
  options.num_runners = runners;
  WorkflowService service(SimExecutor(), options);
  std::vector<SubmissionHandle> handles;
  for (uint64_t seed = 0; seed < 12; ++seed) {
    auto built = check::BuildWorkload(check::GenerateSpec(seed));
    EXPECT_TRUE(built.ok());
    SubmitOptions opts;
    opts.tenant = seed % 3 == 0 ? "alpha" : (seed % 3 == 1 ? "beta" : "gamma");
    auto handle = service.Submit(std::move(built->graph), opts);
    EXPECT_TRUE(handle.ok());
    handles.push_back(*handle);
  }
  for (const SubmissionHandle h : handles) {
    EXPECT_TRUE(service.Wait(h).ok());
  }
  return service.Report();
}

TEST(WorkflowServiceTest, PerTenantPercentilesAreDeterministic) {
  // Sim-executor makespans are simulated seconds: bit-equal across
  // runs and independent of runner interleaving, so the per-tenant
  // percentile summaries must reproduce exactly — including across
  // different runner counts.
  const ServiceReport a = RunDeterministicBatch(2);
  const ServiceReport b = RunDeterministicBatch(2);
  const ServiceReport c = RunDeterministicBatch(4);
  ASSERT_EQ(a.tenants.size(), 3u);
  ASSERT_EQ(b.tenants.size(), 3u);
  ASSERT_EQ(c.tenants.size(), 3u);
  for (size_t i = 0; i < a.tenants.size(); ++i) {
    EXPECT_EQ(a.tenants[i].tenant, b.tenants[i].tenant);
    EXPECT_EQ(a.tenants[i].makespan.p50, b.tenants[i].makespan.p50);
    EXPECT_EQ(a.tenants[i].makespan.p95, b.tenants[i].makespan.p95);
    EXPECT_EQ(a.tenants[i].makespan.p99, b.tenants[i].makespan.p99);
    EXPECT_EQ(a.tenants[i].makespan.mean, b.tenants[i].makespan.mean);
    EXPECT_EQ(a.tenants[i].makespan.p50, c.tenants[i].makespan.p50);
    EXPECT_EQ(a.tenants[i].makespan.p95, c.tenants[i].makespan.p95);
    EXPECT_EQ(a.tenants[i].makespan.p99, c.tenants[i].makespan.p99);
    EXPECT_GT(a.tenants[i].makespan.p50, 0.0);
  }
}

TEST(TokenBucketTest, DeterministicRefillAndBurst) {
  // Time is explicit, so the whole trajectory is exact arithmetic:
  // 2 tokens/s, burst 3, starting full at t=0.
  TokenBucket bucket(2.0, 3.0, 0.0);
  EXPECT_TRUE(bucket.TryAcquire(0.0));
  EXPECT_TRUE(bucket.TryAcquire(0.0));
  EXPECT_TRUE(bucket.TryAcquire(0.0));  // burst exhausted
  EXPECT_FALSE(bucket.TryAcquire(0.0));
  // 0.25s refills half a token: still not enough for a whole one.
  EXPECT_FALSE(bucket.TryAcquire(0.25));
  EXPECT_TRUE(bucket.TryAcquire(0.5));  // one full token at t=0.5
  EXPECT_FALSE(bucket.TryAcquire(0.5));
  // Time going backwards refills nothing but never faults.
  EXPECT_FALSE(bucket.TryAcquire(0.1));
  // A long idle stretch caps at the burst ceiling, not rate * dt.
  EXPECT_EQ(bucket.TokensAt(1000.0), 3.0);
  EXPECT_TRUE(bucket.TryAcquire(1000.0));
  EXPECT_TRUE(bucket.TryAcquire(1000.0));
  EXPECT_TRUE(bucket.TryAcquire(1000.0));
  EXPECT_FALSE(bucket.TryAcquire(1000.0));

  // Default-constructed and zero-rate buckets are unlimited.
  TokenBucket unlimited;
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(unlimited.TryAcquire(0.0));
}

TEST(WorkflowServiceTest, RateLimitRejectsBurstOverflow) {
  // A near-zero refill rate makes the test time-independent: exactly
  // `burst` submissions are admitted no matter how fast or slow the
  // test runs, and the bucket never meaningfully refills.
  ServiceOptions options;
  options.default_tenant.rate_per_s = 1e-9;
  options.default_tenant.burst = 2;
  obs::MetricsRegistry metrics;
  options.metrics = &metrics;
  WorkflowService service(SimExecutor(), options);

  std::vector<SubmissionHandle> admitted;
  for (int i = 0; i < 2; ++i) {
    auto built = check::BuildWorkload(check::GenerateSpec(1));
    ASSERT_TRUE(built.ok());
    auto handle = service.Submit(std::move(built->graph));
    ASSERT_TRUE(handle.ok()) << handle.status().ToString();
    admitted.push_back(*handle);
  }
  auto built = check::BuildWorkload(check::GenerateSpec(1));
  ASSERT_TRUE(built.ok());
  auto rejected = service.Submit(std::move(built->graph));
  ASSERT_FALSE(rejected.ok());
  EXPECT_TRUE(rejected.status().IsRejectedAdmission())
      << rejected.status().ToString();
  for (const SubmissionHandle h : admitted) {
    EXPECT_TRUE(service.Wait(h).ok());
  }

  const ServiceReport report = service.Report();
  EXPECT_EQ(report.submitted, 2);
  EXPECT_EQ(report.rejected, 1);
  EXPECT_EQ(report.rate_limited, 1);
  EXPECT_EQ(report.completed, 2);
  EXPECT_EQ(metrics.counter("service.rate_limited")->value(), 1);
  EXPECT_EQ(metrics.counter("service.rejected")->value(), 1);
  // The report JSON carries the new field and still validates.
  const std::string json = report.ToJson();
  EXPECT_TRUE(ValidateJson(json).ok()) << json;
  EXPECT_NE(json.find("\"rate_limited\": 1"), std::string::npos) << json;
}

TEST(WorkflowServiceTest, ServiceMetricsSurfaceThroughObs) {
  Gate gate;
  std::atomic<bool> entered{false};
  obs::MetricsRegistry metrics;
  ServiceOptions options;
  options.num_runners = 1;
  options.max_in_flight = 2;
  options.metrics = &metrics;
  WorkflowService service(ThreadExecutor(), options);

  // Park the runner behind the gate and stack one submission behind
  // it, so queue/in-flight occupancy is observable deterministically.
  auto running =
      service.Submit(TaggedGraph("r", nullptr, nullptr, &gate, &entered));
  ASSERT_TRUE(running.ok());
  while (!entered.load()) std::this_thread::yield();
  auto queued = service.Submit(TaggedGraph("q", nullptr, nullptr));
  ASSERT_TRUE(queued.ok());
  EXPECT_EQ(metrics.gauge("service.tenant.default.queued")->value(), 1.0);
  EXPECT_EQ(metrics.gauge("service.tenant.default.in_flight")->value(), 2.0);

  // Over the in-flight cap: rejected, and the counter records it.
  auto bounced = service.Submit(TaggedGraph("x", nullptr, nullptr));
  ASSERT_FALSE(bounced.ok());
  EXPECT_TRUE(bounced.status().IsRejectedAdmission());
  EXPECT_EQ(metrics.counter("service.rejected")->value(), 1);

  gate.Open();
  EXPECT_TRUE(service.Wait(*running).ok());
  EXPECT_TRUE(service.Wait(*queued).ok());

  EXPECT_EQ(metrics.counter("service.admitted")->value(), 2);
  EXPECT_EQ(metrics.counter("service.completed")->value(), 2);
  EXPECT_EQ(metrics.histogram("service.queue_wait_s")->count(), 2);
  EXPECT_GE(metrics.histogram("service.queue_wait_s")->max(), 0.0);
  // Terminal gauges: nothing queued or in flight once everything
  // finished.
  EXPECT_EQ(metrics.gauge("service.tenant.default.queued")->value(), 0.0);
  EXPECT_EQ(metrics.gauge("service.tenant.default.in_flight")->value(), 0.0);
}

TEST(TenantConfigTest, ValidateAcceptsZeroRateAsUnlimited) {
  TenantConfig config;
  EXPECT_TRUE(ValidateTenantConfig(config).ok());
  config.rate_per_s = 0;
  config.burst = 0;
  EXPECT_TRUE(ValidateTenantConfig(config).ok());
  config.rate_per_s = 3.5;
  config.burst = 10;
  EXPECT_TRUE(ValidateTenantConfig(config).ok());
}

TEST(TenantConfigTest, ValidateRejectsNegativeAndNaNRateKnobs) {
  const double bad_values[] = {-1.0, -1e-9,
                               std::numeric_limits<double>::quiet_NaN(),
                               std::numeric_limits<double>::infinity()};
  for (double v : bad_values) {
    TenantConfig config;
    config.rate_per_s = v;
    EXPECT_FALSE(ValidateTenantConfig(config).ok()) << "rate " << v;
    config = TenantConfig{};
    config.burst = v;
    EXPECT_FALSE(ValidateTenantConfig(config).ok()) << "burst " << v;
  }
  TenantConfig config;
  config.weight = 0;
  EXPECT_FALSE(ValidateTenantConfig(config).ok());
  config.weight = -2;
  EXPECT_FALSE(ValidateTenantConfig(config).ok());
  config = TenantConfig{};
  config.max_queued = -1;
  EXPECT_FALSE(ValidateTenantConfig(config).ok());
}

TEST(WorkflowServiceTest, MisconfiguredTenantFailsSubmitNotClamped) {
  // A negative or NaN rate is a configuration error the caller must
  // see — not something to clamp into an always-empty bucket that
  // silently rejects every Submit as "rate limited".
  runtime::ExecutorSpec spec;
  spec.kind = runtime::ExecutorKind::kSim;
  auto executor = runtime::MakeExecutor(spec);
  ASSERT_TRUE(executor.ok());
  ServiceOptions options;
  options.tenants["bad-rate"].rate_per_s = -3;
  options.tenants["bad-burst"].rate_per_s = 1;
  options.tenants["bad-burst"].burst =
      std::numeric_limits<double>::quiet_NaN();
  WorkflowService service(std::move(*executor), options);

  for (const char* tenant : {"bad-rate", "bad-burst"}) {
    auto built = check::BuildWorkload(check::GenerateSpec(2));
    ASSERT_TRUE(built.ok());
    SubmitOptions submit;
    submit.tenant = tenant;
    auto handle = service.Submit(std::move(built->graph), submit);
    ASSERT_FALSE(handle.ok()) << tenant;
    EXPECT_TRUE(handle.status().IsInvalidArgument())
        << tenant << ": " << handle.status().ToString();
    EXPECT_FALSE(handle.status().IsRejectedAdmission()) << tenant;
  }
  // A well-configured tenant on the same service is unaffected.
  auto built = check::BuildWorkload(check::GenerateSpec(2));
  ASSERT_TRUE(built.ok());
  auto handle = service.Submit(std::move(built->graph));
  ASSERT_TRUE(handle.ok());
  EXPECT_TRUE(service.Wait(*handle).ok());
  const ServiceReport report = service.Report();
  for (const TenantReport& t : report.tenants) {
    if (t.tenant == "default") continue;
    EXPECT_EQ(t.rejected, 0) << t.tenant;  // config errors != load
    EXPECT_EQ(t.rate_limited, 0) << t.tenant;
  }
}

TEST(WorkflowServiceTest, PerTenantPolicyOverridesExecutorDefault) {
  // Two tenants share one simulated executor; the cost-model tenant's
  // runs must be scheduled by the cost-model dispatcher (visible as
  // its strictly higher modeled per-decision overhead), while the
  // other tenant stays on the executor's generation-order default.
  runtime::ExecutorSpec spec;
  spec.kind = runtime::ExecutorKind::kSim;
  auto executor = runtime::MakeExecutor(spec);
  ASSERT_TRUE(executor.ok());
  ServiceOptions options;
  options.num_runners = 1;
  options.tenants["cost"].policy = SchedulingPolicy::kCostModel;
  WorkflowService service(std::move(*executor), options);

  auto submit_as = [&](const std::string& tenant) {
    auto built = check::BuildWorkload(check::GenerateSpec(2));
    EXPECT_TRUE(built.ok());
    SubmitOptions submit;
    submit.tenant = tenant;
    return service.Submit(std::move(built->graph), submit);
  };
  auto default_handle = submit_as("default");
  auto cost_handle = submit_as("cost");
  ASSERT_TRUE(default_handle.ok());
  ASSERT_TRUE(cost_handle.ok());
  auto default_report = service.Wait(*default_handle);
  auto cost_report = service.Wait(*cost_handle);
  ASSERT_TRUE(default_report.ok());
  ASSERT_TRUE(cost_report.ok());
  EXPECT_GT(default_report->scheduler_overhead, 0);
  EXPECT_GT(cost_report->scheduler_overhead,
            default_report->scheduler_overhead);
}

TEST(WorkflowServiceTest, MakeExecutorBacksService) {
  runtime::ExecutorSpec spec;
  spec.kind = runtime::ExecutorKind::kSim;
  auto executor = runtime::MakeExecutor(spec);
  ASSERT_TRUE(executor.ok());
  WorkflowService service(std::move(*executor), ServiceOptions{});
  auto built = check::BuildWorkload(check::GenerateSpec(2));
  ASSERT_TRUE(built.ok());
  auto handle = service.Submit(std::move(built->graph));
  ASSERT_TRUE(handle.ok());
  EXPECT_TRUE(service.Wait(*handle).ok());
}

}  // namespace
}  // namespace taskbench::service
