// Boundary validation of RunOptions and SchedulerConfig: every knob an
// executor would abort on, clamp or silently mis-handle is rejected by
// MakeExecutor with an InvalidArgument naming the field and its value.

#include "runtime/run_options.h"

#include <functional>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "runtime/executor_factory.h"
#include "runtime/scheduler_config.h"

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
      {"alpha", [](RunOptions* o) { o->sched.alpha = -2; }},
      {"beta", [](RunOptions* o) { o->sched.beta = 0; }},
      {"gamma", [](RunOptions* o) { o->sched.gamma = 0; }},
      {"hedge_threshold", [](RunOptions* o) { o->sched.hedge_threshold = 1; }},
      {"hedge_min_s", [](RunOptions* o) { o->sched.hedge_min_s = 0; }},
      {"escalate_benefit",
       [](RunOptions* o) { o->sched.escalate_benefit = 1e-9; }},
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
      {"SchedulerConfig.alpha = nan",
       [](RunOptions* o) { o->sched.alpha = kNaN; }},
      {"SchedulerConfig.beta = inf",
       [](RunOptions* o) { o->sched.beta = kInf; }},
      {"SchedulerConfig.gamma = -inf",
       [](RunOptions* o) { o->sched.gamma = -kInf; }},
      {"SchedulerConfig.hedge_threshold = 0.5",
       [](RunOptions* o) { o->sched.hedge_threshold = 0.5; }},
      {"SchedulerConfig.hedge_threshold = nan",
       [](RunOptions* o) { o->sched.hedge_threshold = kNaN; }},
      {"SchedulerConfig.hedge_threshold = inf",
       [](RunOptions* o) { o->sched.hedge_threshold = kInf; }},
      {"SchedulerConfig.hedge_min_s = -0.001",
       [](RunOptions* o) { o->sched.hedge_min_s = -0.001; }},
      {"SchedulerConfig.hedge_min_s = nan",
       [](RunOptions* o) { o->sched.hedge_min_s = kNaN; }},
      {"SchedulerConfig.escalate_benefit = 0",
       [](RunOptions* o) { o->sched.escalate_benefit = 0; }},
      {"SchedulerConfig.escalate_benefit = -1",
       [](RunOptions* o) { o->sched.escalate_benefit = -1; }},
      {"SchedulerConfig.escalate_benefit = inf",
       [](RunOptions* o) { o->sched.escalate_benefit = kInf; }},
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
  config.hedge_threshold = 0.99;
  EXPECT_FALSE(config.Validate().ok());
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

}  // namespace
}  // namespace taskbench::runtime
