// Boundary validation of RunOptions and SchedulerConfig: every knob an
// executor would abort on, clamp or silently mis-handle is rejected by
// MakeExecutor and by every executor's Execute with an InvalidArgument
// naming the field and its value.

#include "runtime/run_options.h"

#include <functional>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "analysis/experiment.h"
#include "data/generators.h"
#include "hw/cluster.h"
#include "runtime/executor_factory.h"
#include "runtime/multiproc_executor.h"
#include "runtime/scheduler_config.h"
#include "runtime/simulated_executor.h"
#include "runtime/thread_pool_executor.h"

namespace taskbench::runtime {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

struct Case {
  const char* field;  // expected in the error message
  std::function<void(RunOptions*)> mutate;
};

TEST(RunOptionsTest, ValidateAcceptsDefaultsAndBoundaryValues) {
  EXPECT_TRUE(RunOptions{}.Validate().ok());
  const Case cases[] = {
      {"num_threads", [](RunOptions* o) { o->num_threads = 1; }},
      {"num_procs", [](RunOptions* o) { o->num_procs = 1; }},
      {"max_retries", [](RunOptions* o) { o->max_retries = 0; }},
      {"retry_backoff_s", [](RunOptions* o) { o->retry_backoff_s = 0; }},
      {"block_dim", [](RunOptions* o) { o->block_dim = 0; }},
      {"block_dim", [](RunOptions* o) { o->block_dim = 1; }},
      {"hedge_min_s", [](RunOptions* o) { o->sched.hedge_min_s = 0; }},
  };
  for (const Case& c : cases) {
    RunOptions options;
    c.mutate(&options);
    EXPECT_TRUE(options.Validate().ok()) << c.field;
  }
}

TEST(RunOptionsTest, ValidateRejectsEachBadKnobByName) {
  const Case cases[] = {
      {"RunOptions.num_threads = 0", [](RunOptions* o) { o->num_threads = 0; }},
      {"RunOptions.num_threads = -4",
       [](RunOptions* o) { o->num_threads = -4; }},
      {"RunOptions.num_procs = 0", [](RunOptions* o) { o->num_procs = 0; }},
      {"RunOptions.max_retries = -1",
       [](RunOptions* o) { o->max_retries = -1; }},
      {"RunOptions.retry_backoff_s = -0.5",
       [](RunOptions* o) { o->retry_backoff_s = -0.5; }},
      {"RunOptions.retry_backoff_s = nan",
       [](RunOptions* o) { o->retry_backoff_s = kNaN; }},
      {"RunOptions.retry_backoff_s = inf",
       [](RunOptions* o) { o->retry_backoff_s = kInf; }},
      {"RunOptions.block_dim = -5", [](RunOptions* o) { o->block_dim = -5; }},
      {"SchedulerConfig.hedge_min_s = -0.001",
       [](RunOptions* o) { o->sched.hedge_min_s = -0.001; }},
      {"SchedulerConfig.hedge_min_s = nan",
       [](RunOptions* o) { o->sched.hedge_min_s = kNaN; }},
      {"SchedulerConfig.hedge_min_s = inf",
       [](RunOptions* o) { o->sched.hedge_min_s = kInf; }},
  };
  for (const Case& c : cases) {
    RunOptions options;
    c.mutate(&options);
    const Status status = options.Validate();
    ASSERT_FALSE(status.ok()) << c.field;
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << c.field;
    EXPECT_NE(status.message().find(c.field), std::string::npos)
        << "expected '" << c.field << "' in: " << status.message();
  }
}

TEST(RunOptionsTest, SchedulerConfigValidatesOnItsOwn) {
  EXPECT_TRUE(SchedulerConfig{}.Validate().ok());
  SchedulerConfig config;
  config.hedge_min_s = -1;
  EXPECT_FALSE(config.Validate().ok());
}

TEST(RunOptionsTest, RetryDelayDoublesPerAttemptUpToTwoToThe30) {
  RunOptions options;
  options.retry_backoff_s = 0.25;
  EXPECT_EQ(options.RetryDelay(1), 0.25);
  EXPECT_EQ(options.RetryDelay(2), 0.5);
  EXPECT_EQ(options.RetryDelay(31), 0.25 * 1073741824.0);  // 2^30
  EXPECT_EQ(options.RetryDelay(40), options.RetryDelay(31));
}

TEST(RunOptionsTest, MakeExecutorRejectsInvalidOptionsForEveryKind) {
  for (const ExecutorKind kind :
       {ExecutorKind::kThreads, ExecutorKind::kSim, ExecutorKind::kProcs}) {
    ExecutorSpec spec;
    spec.kind = kind;
    spec.options.num_threads = 0;
    auto executor = MakeExecutor(spec);
    ASSERT_FALSE(executor.ok()) << ExecutorKindName(kind);
    EXPECT_EQ(executor.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(executor.status().message().find("num_threads"),
              std::string::npos);
  }
}

// Callers that build an executor directly (analysis::RunExperiment,
// the CLI, report_digest) skip MakeExecutor; Execute itself must
// refuse the bad knob instead of aborting or running with it.
TEST(RunOptionsTest, DirectlyConstructedExecutorsRejectInvalidOptions) {
  const Case cases[] = {
      {"RunOptions.num_threads = 0", [](RunOptions* o) { o->num_threads = 0; }},
      {"RunOptions.max_retries = -1",
       [](RunOptions* o) { o->max_retries = -1; }},
      {"SchedulerConfig.hedge_min_s = -0.5",
       [](RunOptions* o) { o->sched.hedge_min_s = -0.5; }},
  };
  for (const Case& c : cases) {
    RunOptions options;
    c.mutate(&options);
    ThreadPoolExecutor threads(options);
    SimulatedExecutor sim(hw::MinotauroCluster(), options);
    MultiProcExecutor procs(options);
    for (Executor* executor :
         std::initializer_list<Executor*>{&threads, &sim, &procs}) {
      TaskGraph graph;
      auto report = executor->Run(graph);
      ASSERT_FALSE(report.ok()) << executor->name() << ": " << c.field;
      EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
      EXPECT_NE(report.status().message().find(c.field), std::string::npos)
          << executor->name() << ": " << report.status().message();
    }
  }
}

TEST(RunOptionsTest, ExperimentRejectsInvalidRunOptions) {
  analysis::ExperimentConfig config;
  config.dataset = data::PaperDatasets::Matmul8GB();
  config.grid_rows = 2;
  config.grid_cols = 2;
  config.run.retry_backoff_s = -1;
  auto result = analysis::RunExperiment(config);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("retry_backoff_s"),
            std::string::npos);
}

}  // namespace
}  // namespace taskbench::runtime
