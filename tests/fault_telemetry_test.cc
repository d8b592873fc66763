// Fault x telemetry: a run that survives injected faults via retries
// must still produce well-formed observability output — a valid
// Chrome trace, a valid metrics document, a monotonic per-task
// attempt log — and pass the post-hoc invariant checker. Covers both
// executors: the thread pool over FaultyStorage and the simulator
// under a FaultPlan.

#include <map>
#include <memory>
#include <sstream>

#include <gtest/gtest.h>

#include "check/invariants.h"
#include "check/workload.h"
#include "common/json.h"
#include "hw/cluster.h"
#include "obs/metrics.h"
#include "runtime/fault.h"
#include "runtime/metrics_export.h"
#include "runtime/run_options.h"
#include "runtime/simulated_executor.h"
#include "runtime/thread_pool_executor.h"
#include "runtime/trace.h"
#include "storage/faulty_storage.h"

namespace taskbench {
namespace {

using runtime::RunReport;
using runtime::TaskAttempt;
using runtime::TaskGraph;
using runtime::TaskId;

check::WorkloadSpec SmallChain() {
  check::WorkloadSpec spec;
  spec.family = check::Family::kChain;
  spec.seed = 7;
  spec.dim = 12;
  spec.length = 10;
  spec.gpu_every = 0;
  return spec;
}

void ExpectValidExports(const RunReport& report) {
  std::ostringstream trace;
  runtime::StreamChromeTrace(report, trace);
  Status s = ValidateJson(trace.str());
  EXPECT_TRUE(s.ok()) << "trace: " << s.ToString();

  obs::MetricsRegistry registry;
  std::ostringstream metrics;
  runtime::StreamMetricsJson(report, &registry, metrics);
  s = ValidateJson(metrics.str());
  EXPECT_TRUE(s.ok()) << "metrics: " << s.ToString();
}

void ExpectMonotonicAttempts(const RunReport& report) {
  std::map<TaskId, int> last;
  for (const TaskAttempt& a : report.attempts) {
    EXPECT_GE(a.end, a.start);
    auto it = last.find(a.task);
    if (it != last.end()) {
      EXPECT_GT(a.attempt, it->second)
          << "task " << a.task << " attempt numbers must increase";
      it->second = a.attempt;
    } else {
      last[a.task] = a.attempt;
    }
  }
}

TEST(FaultTelemetryTest, ThreadPoolRetriedRunExportsCleanly) {
  auto built = check::BuildWorkload(SmallChain());
  ASSERT_TRUE(built.ok()) << built.status().ToString();

  auto faulty = std::make_shared<storage::FaultyStorage>(
      std::make_shared<storage::InMemoryStorage>());
  // Arm after staging (one initial datum per chain step plus the
  // accumulator) so the injector fires inside the retryable region.
  faulty->ops_until_get_failure = 15;
  faulty->get_failures_remaining = 3;

  runtime::RunOptions options;
  options.num_threads = 3;
  options.use_storage = true;
  options.max_retries = 6;
  options.retry_backoff_s = 1e-4;
  runtime::ThreadPoolExecutor executor(options, faulty);
  auto report = executor.Execute(built->graph);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  // The injector actually fired and the run retried through it.
  EXPECT_GT(report->faults.retries, 0);
  EXPECT_FALSE(report->attempts.empty());
  ExpectMonotonicAttempts(*report);
  ExpectValidExports(*report);

  check::InvariantContext context;
  context.num_threads = options.num_threads;
  context.faulted = true;
  Status s = check::VerifyReport(built->graph, *report, context);
  EXPECT_TRUE(s.ok()) << s.ToString();
}

TEST(FaultTelemetryTest, SimulatedFaultPlanExportsCleanly) {
  auto built = check::BuildWorkload(SmallChain());
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const hw::ClusterSpec cluster = hw::MinotauroCluster();

  // Fault-free baseline fixes the crash time.
  runtime::RunOptions options;
  options.policy = SchedulingPolicy::kDataLocality;
  options.storage = hw::StorageArchitecture::kLocalDisk;
  double baseline;
  {
    runtime::SimulatedExecutor executor(cluster, options);
    auto report = executor.Execute(built->graph);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    baseline = report->makespan;
  }

  options.faults.events.push_back(
      {runtime::FaultKind::kNodeCrash, baseline * 0.4, 1, 1.0});
  options.faults.storage_fault_rate = 0.02;
  options.faults.seed = 99;
  options.max_retries = 8;
  options.retry_backoff_s = 1e-3;
  runtime::SimulatedExecutor executor(cluster, options);
  auto report = executor.Execute(built->graph);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  EXPECT_GT(report->faults.faults_injected, 0);
  EXPECT_FALSE(report->attempts.empty());
  ExpectMonotonicAttempts(*report);
  ExpectValidExports(*report);

  check::InvariantContext context;
  context.cluster = &cluster;
  context.simulated = true;
  context.faulted = true;
  Status s = check::VerifyReport(built->graph, *report, context);
  EXPECT_TRUE(s.ok()) << s.ToString();
}

}  // namespace
}  // namespace taskbench
