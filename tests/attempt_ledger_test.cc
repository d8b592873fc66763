// AttemptLedger: the attempt lifecycle the three executors share —
// exactly-once claims, the dependency and version check, the retry
// budget and the attempt log.

#include "runtime/attempt_ledger.h"

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/status.h"
#include "runtime/metrics.h"
#include "runtime/run_options.h"
#include "runtime/task_graph.h"

namespace taskbench::runtime {
namespace {

TaskSpec Spec(std::vector<Param> params) {
  TaskSpec spec;
  spec.type = "t";
  spec.params = std::move(params);
  return spec;
}

// Task 0 writes a (OUT); task 1 updates a in place (INOUT); task 2
// reads it (IN) and writes b.
struct Chain {
  TaskGraph graph;
  DataId a = -1;
  DataId b = -1;

  Chain() {
    a = graph.AddData(8);
    b = graph.AddData(8);
    EXPECT_TRUE(graph.Submit(Spec({{a, Dir::kOut}})).ok());
    EXPECT_TRUE(graph.Submit(Spec({{a, Dir::kInOut}})).ok());
    EXPECT_TRUE(graph.Submit(Spec({{a, Dir::kIn}, {b, Dir::kOut}})).ok());
  }
};

TaskRecord Record(TaskId t) {
  TaskRecord rec;
  rec.task = t;
  return rec;
}

void Finish(AttemptLedger& ledger, TaskId t) {
  ASSERT_TRUE(ledger.Claim(t));
  ledger.Complete(Record(t));
}

bool IsViolation(const Status& status) {
  return status.code() == StatusCode::kFailedPrecondition &&
         status.message().rfind("invariant violation", 0) == 0;
}

TEST(AttemptLedgerTest, RejectsADependencyThatHasNotCompleted) {
  Chain chain;
  AttemptLedger ledger(chain.graph, RunOptions{}, false);
  EXPECT_TRUE(ledger.CheckStart(0).ok());
  const Status early = ledger.CheckStart(1);
  EXPECT_TRUE(IsViolation(early)) << early.ToString();
  EXPECT_NE(early.message().find("dependency 0"), std::string::npos);
  // A claim is not a completion: the dependency must have published.
  ASSERT_TRUE(ledger.Claim(0));
  EXPECT_TRUE(IsViolation(ledger.CheckDeps(1)));
  ledger.Complete(Record(0));
  EXPECT_TRUE(ledger.CheckStart(1).ok());
}

TEST(AttemptLedgerTest, RejectsAStaleVersion) {
  Chain chain;
  AttemptLedger ledger(chain.graph, RunOptions{}, false);
  Finish(ledger, 0);
  // Task 2 reads a after task 1's update (version 2); only task 0's
  // version 1 is published.
  const Status stale = ledger.CheckRead(2, 0);
  EXPECT_TRUE(IsViolation(stale)) << stale.ToString();
  EXPECT_NE(stale.message().find("version 1, expected 2"), std::string::npos);
  Finish(ledger, 1);
  EXPECT_TRUE(ledger.CheckRead(2, 0).ok());
  // Task 1's own read has moved on now that it completed.
  EXPECT_TRUE(IsViolation(ledger.CheckRead(1, 0)));
}

TEST(AttemptLedgerTest, ARetryReadsTheVersionsOfItsFirstAttempt) {
  Chain chain;
  RunOptions options;
  options.max_retries = 2;
  AttemptLedger ledger(chain.graph, options, false);
  Finish(ledger, 0);
  // Task 1's first attempt reads a at version 1, then fails: nothing
  // is published until an attempt completes, so the retry reads
  // exactly what the first attempt read.
  ASSERT_TRUE(ledger.CheckStart(1).ok());
  EXPECT_EQ(ledger.read_version(1, 0), 1);
  EXPECT_EQ(ledger.write_version(1, 0), 2);
  ASSERT_TRUE(ledger.Retry(1, 1, "worker", 0, Status::Internal("io")).ok());
  EXPECT_TRUE(ledger.CheckStart(1).ok());
  Finish(ledger, 1);
  EXPECT_EQ(ledger.num_completed(), 2);
  EXPECT_EQ(ledger.TakeReport().faults.retries, 1);
}

TEST(AttemptLedgerTest, ARecomputeIsReopenedAndItsReadsAreExempt) {
  Chain chain;
  RunOptions options;
  options.faults = *FaultPlan::Parse("storage:p0.5");
  AttemptLedger ledger(chain.graph, options, true);
  Finish(ledger, 0);
  Finish(ledger, 1);
  Finish(ledger, 2);
  ASSERT_TRUE(IsViolation(ledger.CheckRead(1, 0)));
  // Lineage recovery reopens task 1: it must complete again, and its
  // read of a (already at its own version) is exempt until it does.
  ledger.Reopen(1);
  EXPECT_FALSE(ledger.completed(1));
  EXPECT_FALSE(ledger.claimed(1));
  EXPECT_EQ(ledger.num_completed(), 2);
  EXPECT_TRUE(ledger.CheckStart(1).ok());
  EXPECT_TRUE(IsViolation(ledger.CheckDeps(2)));  // not for its readers
  Finish(ledger, 1);
  EXPECT_TRUE(ledger.CheckStart(2).ok());
  EXPECT_TRUE(IsViolation(ledger.CheckRead(1, 0)));
  // Each completion is logged; the recompute counts as a relaunch.
  const RunReport report = ledger.TakeReport();
  EXPECT_EQ(report.faults.recomputed_tasks, 1);
  EXPECT_EQ(report.attempts.size(), 4u);
}

TEST(AttemptLedgerTest, ExactlyOneOfManyRacingThreadsClaimsATask) {
  TaskGraph graph;
  constexpr int kTasks = 2000;
  constexpr int kThreads = 4;
  for (int i = 0; i < kTasks; ++i) {
    ASSERT_TRUE(graph.Submit(Spec({{graph.AddData(8), Dir::kOut}})).ok());
  }
  AttemptLedger ledger(graph, RunOptions{}, false);
  std::vector<std::atomic<int>> wins(kTasks);
  for (auto& w : wins) w.store(0);
  std::atomic<int> go{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&] {
      go.fetch_add(1);
      while (go.load() < kThreads) {
      }
      for (TaskId t = 0; t < kTasks; ++t) {
        if (ledger.Claim(t)) {
          wins[static_cast<size_t>(t)].fetch_add(1);
          ledger.Complete(Record(t));
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (TaskId t = 0; t < kTasks; ++t) {
    EXPECT_EQ(wins[static_cast<size_t>(t)].load(), 1) << "task " << t;
    EXPECT_TRUE(ledger.completed(t));
  }
  EXPECT_EQ(ledger.num_completed(), kTasks);
}

TEST(AttemptLedgerTest, ASpentBudgetKeepsTheCauseCodeWithOneContext) {
  Chain chain;
  RunOptions options;
  options.max_retries = 1;
  AttemptLedger ledger(chain.graph, options, false);
  const Status cause = Status::InvalidArgument("kernel rejects its input");
  EXPECT_TRUE(ledger.Retry(0, 1, "worker", 3, cause).ok());
  const Status spent = ledger.Retry(0, 2, "worker", 3, cause);
  EXPECT_EQ(spent.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(spent.message(),
            "task 0 (t) attempt 2 on worker 3: kernel rejects its input; no "
            "retries left (max_retries=1)");
  EXPECT_EQ(ledger.TakeReport().faults.retries, 1);
  EXPECT_EQ(ledger.Failure(2, 1, "node", 0, cause).message(),
            "task 2 (t) attempt 1 on node 0: kernel rejects its input");
}

TEST(AttemptLedgerTest, TheLogRuleAndOrderAreTheLedgers) {
  Chain chain;
  const auto entry = [](TaskId t, int attempt, AttemptOutcome outcome) {
    TaskAttempt a;
    a.task = t;
    a.attempt = attempt;
    a.outcome = outcome;
    return a;
  };
  // The simulator logs under a fault plan, the real executors under a
  // retry budget.
  const auto logs = [&](const RunOptions& options, bool simulated) {
    AttemptLedger ledger(chain.graph, options, simulated);
    ledger.Log(entry(0, 1, AttemptOutcome::kCompleted));
    return !ledger.TakeReport().attempts.empty();
  };
  RunOptions options;
  EXPECT_FALSE(logs(options, false));
  EXPECT_FALSE(logs(options, true));
  options.max_retries = 1;
  EXPECT_TRUE(logs(options, false));
  EXPECT_FALSE(logs(options, true));
  options.faults = *FaultPlan::Parse("storage:p0.5");
  EXPECT_TRUE(logs(options, true));
  AttemptLedger ledger(chain.graph, options, true);
  // A hedge twin (attempt 2 of task 1) that ended before its primary
  // is listed after it; the rest keep the order they ended in.
  ledger.Log(entry(1, 2, AttemptOutcome::kNodeLost));
  ledger.Log(entry(0, 1, AttemptOutcome::kCompleted));
  ledger.Log(entry(1, 1, AttemptOutcome::kCompleted));
  ledger.Log(entry(2, 1, AttemptOutcome::kCompleted));
  const std::vector<TaskAttempt> log = ledger.TakeReport().attempts;
  ASSERT_EQ(log.size(), 4u);
  EXPECT_EQ(log[0].task, 1);
  EXPECT_EQ(log[0].attempt, 1);
  EXPECT_EQ(log[1].task, 1);
  EXPECT_EQ(log[1].attempt, 2);
  EXPECT_EQ(log[1].outcome, AttemptOutcome::kNodeLost);
  EXPECT_EQ(log[2].task, 0);
  EXPECT_EQ(log[3].task, 2);
}

}  // namespace
}  // namespace taskbench::runtime
