// Cancellation races across the executor matrix: a CancellationToken
// observed before dispatch, mid-execution, after completion, and
// during retry backoff must produce kCancelled (or leave a completed
// result untouched) on both the thread-pool and simulated executors.
// Kernels are never interrupted — cancellation lands at scheduling
// edges — so every blocking kernel below is released by the test.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "check/workload.h"
#include "hw/cluster.h"
#include "runtime/cancellation.h"
#include "runtime/executor_factory.h"
#include "runtime/multiproc_executor.h"
#include "runtime/simulated_executor.h"
#include "runtime/thread_pool_executor.h"

namespace taskbench::runtime {
namespace {

TaskSpec SimpleTask(DataId in, DataId out, KernelFn kernel) {
  TaskSpec spec;
  spec.type = "simple";
  spec.params = {{in, Dir::kIn}, {out, Dir::kOut}};
  spec.kernel = std::move(kernel);
  return spec;
}

KernelFn CopyKernel() {
  return [](const std::vector<const data::Matrix*>& inputs,
            const std::vector<data::Matrix*>& outputs) -> Status {
    *outputs[0] = *inputs[0];
    return Status::OK();
  };
}

/// Holds a kernel until Release; `entered` is set once one waits.
struct Gate {
  std::mutex mu;
  std::condition_variable cv;
  bool released = false;
  std::atomic<bool> entered{false};

  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu);
      released = true;
    }
    cv.notify_all();
  }
};

/// Copies its input once `gate` opens.
Status GatedCopy(const KernelInputs& inputs, const KernelOutputs& outputs,
                 Gate* gate) {
  gate->entered.store(true);
  std::unique_lock<std::mutex> lock(gate->mu);
  gate->cv.wait(lock, [gate] { return gate->released; });
  *outputs[0] = *inputs[0];
  return Status::OK();
}

/// A chain of `length` copy tasks rooted at one 2x2 matrix.
TaskGraph ChainGraph(int length) {
  TaskGraph graph;
  DataId prev = graph.AddData(data::Matrix(2, 2, 1.0));
  for (int i = 0; i < length; ++i) {
    const DataId next = graph.AddData(static_cast<uint64_t>(32));
    EXPECT_TRUE(graph.Submit(SimpleTask(prev, next, CopyKernel())).ok());
    prev = next;
  }
  return graph;
}

TEST(CancellationTokenTest, StickyAndCopyable) {
  CancellationToken token;
  EXPECT_FALSE(token.cancelled());
  const CancellationToken copy = token;  // shares the flag
  token.Cancel();
  EXPECT_TRUE(token.cancelled());
  EXPECT_TRUE(copy.cancelled());
  token.Cancel();  // idempotent
  EXPECT_TRUE(token.cancelled());
}

TEST(CancellationTest, ThreadPoolCancelledBeforeDispatch) {
  TaskGraph graph = ChainGraph(4);
  RunOptions options;
  options.num_threads = 2;
  options.use_storage = false;
  ThreadPoolExecutor executor(options);

  CancellationToken token;
  token.Cancel();
  RunContext ctx;
  ctx.cancel = &token;
  auto report = executor.Run(graph, ctx);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.status().IsCancelled()) << report.status().ToString();
}

TEST(CancellationTest, SimCancelledBeforeDispatch) {
  auto built = check::BuildWorkload(check::GenerateSpec(3));
  ASSERT_TRUE(built.ok());
  RunOptions options;
  SimulatedExecutor executor(hw::MinotauroCluster(), options);

  CancellationToken token;
  token.Cancel();
  RunContext ctx;
  ctx.cancel = &token;
  auto report = executor.Run(built->graph, ctx);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.status().IsCancelled()) << report.status().ToString();
}

TEST(CancellationTest, ThreadPoolCancelledMidExecution) {
  // Task 1 blocks until the test has issued the cancel; the remaining
  // chain must then never dispatch and the run fails with kCancelled.
  Gate gate;

  TaskGraph graph;
  const DataId d0 = graph.AddData(data::Matrix(2, 2, 1.0));
  const DataId d1 = graph.AddData(static_cast<uint64_t>(32));
  ASSERT_TRUE(
      graph.Submit(SimpleTask(d0, d1, BindKernel(GatedCopy, &gate))).ok());
  DataId prev = d1;
  for (int i = 0; i < 4; ++i) {
    const DataId next = graph.AddData(static_cast<uint64_t>(32));
    ASSERT_TRUE(graph.Submit(SimpleTask(prev, next, CopyKernel())).ok());
    prev = next;
  }

  RunOptions options;
  options.num_threads = 1;  // nothing else can run while task 1 blocks
  options.use_storage = false;
  ThreadPoolExecutor executor(options);

  CancellationToken token;
  RunContext ctx;
  ctx.cancel = &token;
  std::thread runner_thread;
  Result<RunReport> report = Status::Internal("not run");
  runner_thread = std::thread([&] { report = executor.Run(graph, ctx); });
  while (!gate.entered.load()) std::this_thread::yield();
  token.Cancel();
  gate.Release();
  runner_thread.join();
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.status().IsCancelled()) << report.status().ToString();
}

TEST(CancellationTest, SimCancelRace) {
  // The sim executor polls at ScheduleLoop edges; racing a cancel
  // against a fast run may land before, between, or after them. Any
  // interleaving must produce either a clean report or kCancelled —
  // never a hang, crash, or other status.
  auto built = check::BuildWorkload(check::GenerateSpec(5));
  ASSERT_TRUE(built.ok());
  RunOptions options;
  SimulatedExecutor executor(hw::MinotauroCluster(), options);
  for (int round = 0; round < 16; ++round) {
    CancellationToken token;
    RunContext ctx;
    ctx.cancel = &token;
    Result<RunReport> report = Status::Internal("not run");
    std::thread runner_thread(
        [&] { report = executor.Run(built->graph, ctx); });
    if (round % 2 == 0) std::this_thread::yield();
    token.Cancel();
    runner_thread.join();
    if (!report.ok()) {
      EXPECT_TRUE(report.status().IsCancelled())
          << report.status().ToString();
    }
  }
}

TEST(CancellationTest, AfterCompletionIsInert) {
  // Cancelling after a run finished must not disturb the result; the
  // now-cancelled token only affects *later* runs that reuse it.
  TaskGraph graph = ChainGraph(3);
  RunOptions options;
  options.num_threads = 2;
  options.use_storage = false;
  ThreadPoolExecutor executor(options);
  CancellationToken token;
  RunContext ctx;
  ctx.cancel = &token;
  auto report = executor.Run(graph, ctx);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->records.size(), 3u);
  token.Cancel();
  EXPECT_EQ(report->records.size(), 3u);

  TaskGraph again = ChainGraph(3);
  auto second = executor.Run(again, ctx);
  ASSERT_FALSE(second.ok());
  EXPECT_TRUE(second.status().IsCancelled());
}

TEST(CancellationTest, ThreadPoolCancelledDuringRetryBackoff) {
  // An always-failing kernel with a huge backoff parks the worker in
  // the retry sleep; Cancel must interrupt the sleep instead of
  // serving out the full 30s budget.
  std::atomic<bool> failed_once{false};
  TaskGraph graph;
  const DataId d0 = graph.AddData(data::Matrix(2, 2, 1.0));
  const DataId d1 = graph.AddData(static_cast<uint64_t>(32));
  ASSERT_TRUE(
      graph
          .Submit(SimpleTask(
              d0, d1,
              BindKernel(+[](const KernelInputs&, const KernelOutputs&,
                             std::atomic<bool>* failed) -> Status {
                failed->store(true);
                return Status::Internal("injected");
              }, &failed_once)))
          .ok());

  RunOptions options;
  options.num_threads = 1;
  options.use_storage = false;
  options.max_retries = 100;
  options.retry_backoff_s = 30.0;
  ThreadPoolExecutor executor(options);

  CancellationToken token;
  RunContext ctx;
  ctx.cancel = &token;
  const auto start = std::chrono::steady_clock::now();
  Result<RunReport> report = Status::Internal("not run");
  std::thread runner_thread([&] { report = executor.Run(graph, ctx); });
  while (!failed_once.load()) std::this_thread::yield();
  token.Cancel();
  runner_thread.join();
  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.status().IsCancelled()) << report.status().ToString();
  EXPECT_LT(elapsed_s, 10.0) << "backoff sleep was not interrupted";
}

TEST(CancellationTest, ScopedRunsKeepDisjointStorageKeys) {
  // Two concurrent scoped runs through one storage-mode executor must
  // not clobber each other's blocks (scope-prefixed keys), and their
  // keys are deleted when each run retires.
  RunOptions options;
  options.num_threads = 2;
  options.use_storage = true;
  ThreadPoolExecutor executor(options);

  auto run_scoped = [&](uint64_t scope) {
    TaskGraph graph = ChainGraph(6);
    RunContext ctx;
    ctx.scope = scope;
    auto report = executor.Run(graph, ctx);
    EXPECT_TRUE(report.ok()) << report.status().ToString();
  };
  std::thread a([&] { run_scoped(1); });
  std::thread b([&] { run_scoped(2); });
  a.join();
  b.join();
}

TEST(ExecutorFactoryTest, ParsesAndConstructsAllKinds) {
  EXPECT_FALSE(ParseExecutorKind("warp").ok());
  for (const char* name : {"threads", "sim", "procs"}) {
    auto kind = ParseExecutorKind(name);
    ASSERT_TRUE(kind.ok());
    EXPECT_EQ(ExecutorKindName(*kind), name);
    ExecutorSpec spec;
    spec.kind = *kind;
    auto executor = MakeExecutor(spec);
    if (*kind == ExecutorKind::kProcs && !MultiProcExecutor::Supported()) {
      EXPECT_FALSE(executor.ok());
      continue;
    }
    ASSERT_TRUE(executor.ok());
    EXPECT_FALSE((*executor)->name().empty());
  }
}

}  // namespace
}  // namespace taskbench::runtime
