#include "runtime/multiproc_executor.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "check/invariants.h"
#include "check/workload.h"
#include "obs/metrics.h"
#include "runtime/task_graph.h"
#include "runtime/thread_pool_executor.h"

#if !defined(_WIN32)
#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <fstream>
#include <new>
#include <thread>

#include "runtime/cancellation.h"
#endif

namespace taskbench::runtime {
namespace {

KernelFn AddOneKernel() {
  return [](const std::vector<const data::Matrix*>& inputs,
            const std::vector<data::Matrix*>& outputs) -> Status {
    data::Matrix m = *inputs[0];
    for (int64_t i = 0; i < m.size(); ++i) m.data()[i] += 1.0;
    *outputs[0] = std::move(m);
    return Status::OK();
  };
}

TaskSpec SimpleTask(DataId in, DataId out, KernelFn kernel) {
  TaskSpec spec;
  spec.type = "simple";
  spec.params = {{in, Dir::kIn}, {out, Dir::kOut}};
  spec.kernel = std::move(kernel);
  return spec;
}

RunOptions ProcOptions(int procs) {
  RunOptions options;
  options.num_procs = procs;
  return options;
}

TEST(MultiProcExecutorTest, SupportedOnThisPlatform) {
#if defined(_WIN32)
  EXPECT_FALSE(MultiProcExecutor::Supported());
#else
  EXPECT_TRUE(MultiProcExecutor::Supported());
#endif
}

#if !defined(_WIN32)

TEST(MultiProcExecutorTest, RunsDependencyChain) {
  TaskGraph graph;
  const DataId d0 = graph.AddData(data::Matrix(2, 2, 0.0));
  const DataId d1 = graph.AddData(static_cast<uint64_t>(32));
  const DataId d2 = graph.AddData(static_cast<uint64_t>(32));
  const DataId d3 = graph.AddData(static_cast<uint64_t>(32));
  ASSERT_TRUE(graph.Submit(SimpleTask(d0, d1, AddOneKernel())).ok());
  ASSERT_TRUE(graph.Submit(SimpleTask(d1, d2, AddOneKernel())).ok());
  ASSERT_TRUE(graph.Submit(SimpleTask(d2, d3, AddOneKernel())).ok());

  MultiProcExecutor executor(ProcOptions(2));
  auto report = executor.Execute(graph);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->records.size(), 3u);
  EXPECT_GT(report->makespan, 0.0);
  EXPECT_FALSE(report->faults.any());
  EXPECT_TRUE(report->attempts.empty());
  for (const TaskRecord& rec : report->records) {
    EXPECT_GE(rec.node, 0);
    EXPECT_LT(rec.node, 2);
    EXPECT_LE(rec.start, rec.end);
  }

  auto result = executor.FetchData(graph, d3);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(*result == data::Matrix(2, 2, 3.0));

  check::InvariantContext context;
  context.num_threads = 2;
  EXPECT_TRUE(check::VerifyReport(graph, *report, context).ok());
}

TEST(MultiProcExecutorTest, SimulationOnlyGraphIsRejected) {
  TaskGraph graph;
  const DataId a = graph.AddData(static_cast<uint64_t>(64));
  const DataId b = graph.AddData(static_cast<uint64_t>(64));
  TaskSpec spec;
  spec.type = "no_kernel";
  spec.params = {{a, Dir::kIn}, {b, Dir::kOut}};
  ASSERT_TRUE(graph.Submit(std::move(spec)).ok());
  MultiProcExecutor executor(ProcOptions(2));
  auto report = executor.Execute(graph);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kFailedPrecondition);
}

// The correctness bar of the scale-out plane: every check-workload
// family must produce bit-identical result values whether it runs on
// one thread, one forked worker, or four forked workers.
TEST(MultiProcExecutorTest, ValuesBitExactAcrossProcessCounts) {
  for (const uint64_t seed : {3u, 11u}) {
    const check::WorkloadSpec spec = check::GenerateSpec(seed);

    auto baseline_built = check::BuildWorkload(spec);
    ASSERT_TRUE(baseline_built.ok());
    RunOptions thread_options;
    thread_options.num_threads = 1;
    thread_options.use_storage = false;
    ThreadPoolExecutor baseline(thread_options);
    ASSERT_TRUE(baseline.Execute(baseline_built->graph).ok());

    for (const int procs : {1, 2, 4}) {
      auto built = check::BuildWorkload(spec);
      ASSERT_TRUE(built.ok());
      MultiProcExecutor executor(ProcOptions(procs));
      auto report = executor.Execute(built->graph);
      ASSERT_TRUE(report.ok())
          << procs << " procs, seed " << seed << ": "
          << report.status().ToString();

      check::InvariantContext context;
      context.num_threads = procs;
      ASSERT_TRUE(check::VerifyReport(built->graph, *report, context).ok());

      for (const DataId d : built->compare) {
        auto got = executor.FetchData(built->graph, d);
        auto want = baseline.FetchData(baseline_built->graph, d);
        ASSERT_TRUE(got.ok() && want.ok());
        ASSERT_TRUE(*got == *want)
            << "datum " << d << " diverged at " << procs
            << " procs on seed " << seed;
      }
    }
  }
}

// Writeback after the run copies only what the run rewrote: an input
// no task wrote keeps its buffer, while an OUT datum and an INOUT
// rewrite of an initial value come back with the new values.
TEST(MultiProcExecutorTest, WritebackLeavesUntouchedInputsInPlace) {
  auto build = [](TaskGraph* graph, DataId* in, DataId* acc, DataId* out) {
    *in = graph->AddData(data::Matrix(4, 4, 2.0));
    *acc = graph->AddData(data::Matrix(4, 4, 1.0));
    *out = graph->AddData(static_cast<uint64_t>(128));
    TaskSpec accumulate;
    accumulate.type = "accumulate";
    accumulate.params = {{*in, Dir::kIn}, {*acc, Dir::kInOut}};
    accumulate.kernel = [](const std::vector<const data::Matrix*>& inputs,
                           const std::vector<data::Matrix*>& outputs)
        -> Status {
      data::Matrix& m = *outputs[0];  // aliases the INOUT input value
      for (int64_t j = 0; j < m.size(); ++j) {
        m.data()[j] += inputs[0]->data()[j];
      }
      return Status::OK();
    };
    ASSERT_TRUE(graph->Submit(std::move(accumulate)).ok());
    ASSERT_TRUE(graph->Submit(SimpleTask(*acc, *out, AddOneKernel())).ok());
  };

  TaskGraph graph;
  DataId in = -1, acc = -1, out = -1;
  build(&graph, &in, &acc, &out);
  const double* input_buffer = graph.data(in).value->data();
  MultiProcExecutor executor(ProcOptions(2));
  ASSERT_TRUE(executor.Execute(graph).ok());
  EXPECT_EQ(graph.data(in).value->data(), input_buffer)
      << "an input no task wrote was copied back from the arena";

  TaskGraph baseline_graph;
  DataId b_in = -1, b_acc = -1, b_out = -1;
  build(&baseline_graph, &b_in, &b_acc, &b_out);
  RunOptions thread_options;
  thread_options.num_threads = 2;
  ThreadPoolExecutor baseline(thread_options);
  ASSERT_TRUE(baseline.Execute(baseline_graph).ok());
  for (const auto& [d, b] : {std::pair{in, b_in}, std::pair{acc, b_acc},
                             std::pair{out, b_out}}) {
    auto got = executor.FetchData(graph, d);
    auto want = baseline.FetchData(baseline_graph, b);
    ASSERT_TRUE(got.ok() && want.ok()) << "datum " << d;
    EXPECT_TRUE(*got == *want) << "datum " << d;
  }
  EXPECT_TRUE(*executor.FetchData(graph, acc) == data::Matrix(4, 4, 3.0));
  EXPECT_TRUE(*executor.FetchData(graph, out) == data::Matrix(4, 4, 4.0));
}

// A run cancelled before it starts still forks its workers; it must
// come back Cancelled with every one of them reaped.
TEST(MultiProcExecutorTest, PreCancelledRunIsCancelledAndReapsWorkers) {
  TaskGraph graph;
  const DataId d0 = graph.AddData(data::Matrix(2, 2, 0.0));
  const DataId d1 = graph.AddData(static_cast<uint64_t>(32));
  ASSERT_TRUE(graph.Submit(SimpleTask(d0, d1, AddOneKernel())).ok());

  CancellationToken token;
  token.Cancel();
  RunContext ctx;
  ctx.cancel = &token;
  MultiProcExecutor executor(ProcOptions(2));
  auto report = executor.Execute(graph, ctx);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kCancelled);
  errno = 0;
  EXPECT_EQ(waitpid(-1, nullptr, WNOHANG), -1);
  EXPECT_EQ(errno, ECHILD) << "a worker outlived the cancelled run";
}

TEST(MultiProcExecutorTest, TooSmallArenaFailsWithArenaMessage) {
  TaskGraph graph;
  const DataId in = graph.AddData(data::Matrix(64, 64, 1.0));  // 32 KiB
  const DataId out = graph.AddData(static_cast<uint64_t>(64 * 64 * 8));
  ASSERT_TRUE(graph.Submit(SimpleTask(in, out, AddOneKernel())).ok());

  RunOptions options = ProcOptions(2);
  options.shm_arena_bytes = 4096;  // cannot even stage the input
  MultiProcExecutor executor(options);
  auto report = executor.Execute(graph);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(report.status().message().find("shm arena"), std::string::npos);
}

TEST(MultiProcExecutorTest, ArenaExhaustionMidRunFailsTheRun) {
  // Blocks fit individually but the never-free arena cannot hold the
  // whole chain of versions.
  TaskGraph graph;
  const DataId d0 = graph.AddData(data::Matrix(16, 16, 0.0));  // 2 KiB each
  DataId prev = d0;
  for (int i = 0; i < 12; ++i) {
    const DataId next = graph.AddData(static_cast<uint64_t>(16 * 16 * 8));
    ASSERT_TRUE(graph.Submit(SimpleTask(prev, next, AddOneKernel())).ok());
    prev = next;
  }
  RunOptions options = ProcOptions(2);
  options.shm_arena_bytes = 8192;  // ~3 records of 2 KiB + framing
  MultiProcExecutor executor(options);
  auto report = executor.Execute(graph);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.status().ToString().find("arena"), std::string::npos);
}

// A worker killed mid-task (the kernel _exits the whole process, as a
// segfault or OOM kill would) must be detected via waitpid, its task
// re-dispatched to a surviving worker, and the run completed — with
// the loss visible in the fault counters and the attempt log.
TEST(MultiProcExecutorTest, WorkerCrashMidTaskIsRetriedOnSurvivor) {
  // MAP_SHARED counter mapped before graph construction, so the
  // kernel closure (inherited by every worker at fork) sees one
  // shared count: the first attempt dies, the retry completes.
  void* page = mmap(nullptr, 4096, PROT_READ | PROT_WRITE,
                    MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  ASSERT_NE(page, MAP_FAILED);
  auto* crashes_left = new (page) std::atomic<int>(1);

  TaskGraph graph;
  const DataId in = graph.AddData(data::Matrix(4, 4, 1.0));
  const DataId out = graph.AddData(static_cast<uint64_t>(128));
  TaskSpec spec;
  spec.type = "crashy";
  spec.params = {{in, Dir::kIn}, {out, Dir::kOut}};
  spec.kernel = [crashes_left](
                    const std::vector<const data::Matrix*>& inputs,
                    const std::vector<data::Matrix*>& outputs) -> Status {
    if (crashes_left->fetch_sub(1, std::memory_order_acq_rel) > 0) {
      _exit(17);  // die mid-task, taking the whole worker process down
    }
    *outputs[0] = *inputs[0];
    return Status::OK();
  };
  ASSERT_TRUE(graph.Submit(std::move(spec)).ok());

  RunOptions options = ProcOptions(2);
  options.max_retries = 2;
  options.retry_backoff_s = 1e-4;
  MultiProcExecutor executor(options);
  auto report = executor.Execute(graph);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  EXPECT_EQ(report->faults.dead_nodes, 1);
  EXPECT_GE(report->faults.retries, 1);
  EXPECT_EQ(report->faults.lost_blocks, 0);  // blocks live in the arena
  ASSERT_EQ(report->records.size(), 1u);
  EXPECT_EQ(report->records[0].attempt, 2);

  bool saw_node_lost = false;
  for (const TaskAttempt& attempt : report->attempts) {
    if (attempt.outcome == AttemptOutcome::kNodeLost) saw_node_lost = true;
  }
  EXPECT_TRUE(saw_node_lost);

  auto result = executor.FetchData(graph, out);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(*result == data::Matrix(4, 4, 1.0));

  check::InvariantContext context;
  context.num_threads = 2;
  context.faulted = true;
  EXPECT_TRUE(check::VerifyReport(graph, *report, context).ok());

  munmap(page, 4096);
}

// Crash-retry on INOUT accumulators must apply every task exactly
// once. Workers only *stage* outputs; the coordinator performs the
// directory stores when it consumes the completion, so a crashed
// attempt can never leak a half-applied update into its retry's
// input. A double-applied increment would show up as 4.0 instead of
// 3.0 in the final accumulator.
TEST(MultiProcExecutorTest, CrashedInOutAttemptIsAppliedExactlyOnce) {
  void* page = mmap(nullptr, 4096, PROT_READ | PROT_WRITE,
                    MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  ASSERT_NE(page, MAP_FAILED);
  auto* crashes_left = new (page) std::atomic<int>(1);

  TaskGraph graph;
  const DataId acc = graph.AddData(data::Matrix(4, 4, 0.0));
  for (int i = 0; i < 3; ++i) {
    TaskSpec spec;
    spec.type = "accumulate";
    spec.params = {{acc, Dir::kInOut}};
    const bool crashy = i == 1;
    spec.kernel = [crashes_left, crashy](
                      const std::vector<const data::Matrix*>& inputs,
                      const std::vector<data::Matrix*>& outputs) -> Status {
      (void)inputs;
      if (crashy &&
          crashes_left->fetch_sub(1, std::memory_order_acq_rel) > 0) {
        _exit(17);  // die mid-chain, taking the worker down
      }
      data::Matrix& m = *outputs[0];  // aliases the INOUT input value
      for (int64_t j = 0; j < m.size(); ++j) m.data()[j] += 1.0;
      return Status::OK();
    };
    ASSERT_TRUE(graph.Submit(std::move(spec)).ok());
  }

  RunOptions options = ProcOptions(2);
  options.max_retries = 2;
  options.retry_backoff_s = 1e-4;
  MultiProcExecutor executor(options);
  auto report = executor.Execute(graph);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  EXPECT_EQ(report->faults.dead_nodes, 1);
  EXPECT_GE(report->faults.retries, 1);
  ASSERT_EQ(report->records.size(), 3u);

  auto result = executor.FetchData(graph, acc);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(*result == data::Matrix(4, 4, 3.0))
      << "INOUT chain applied a crashed attempt's update twice";

  check::InvariantContext context;
  context.num_threads = 2;
  context.faulted = true;
  EXPECT_TRUE(check::VerifyReport(graph, *report, context).ok());

  munmap(page, 4096);
}

// The versioned block cache must stay coherent across the INOUT
// crash-retry exactly-once path. A crashed attempt stages its output
// and write-through-caches it under the staged tag, but the
// coordinator never publishes that tag into the directory, so the
// entry is unreachable by construction (and dies with the worker).
// Surviving workers hold cache entries for *earlier* versions of the
// accumulator; after the retry republishes it under a fresh tag,
// those entries must miss. A stale hit anywhere would double-apply
// or drop an increment — the accumulator is the detector.
TEST(MultiProcExecutorTest, BlockCacheStaysCoherentAcrossCrashRetry) {
  void* page = mmap(nullptr, 4096, PROT_READ | PROT_WRITE,
                    MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  ASSERT_NE(page, MAP_FAILED);
  auto* crashes_left = new (page) std::atomic<int>(1);

  // Every task reads the same shared base block (the cache's bread
  // and butter) and accumulates it into one INOUT datum; the middle
  // task crashes its worker on the first attempt.
  TaskGraph graph;
  const DataId base = graph.AddData(data::Matrix(4, 4, 1.0));
  const DataId acc = graph.AddData(data::Matrix(4, 4, 0.0));
  for (int i = 0; i < 3; ++i) {
    TaskSpec spec;
    spec.type = "accumulate";
    spec.params = {{base, Dir::kIn}, {acc, Dir::kInOut}};
    const bool crashy = i == 1;
    spec.kernel = [crashes_left, crashy](
                      const std::vector<const data::Matrix*>& inputs,
                      const std::vector<data::Matrix*>& outputs) -> Status {
      if (crashy &&
          crashes_left->fetch_sub(1, std::memory_order_acq_rel) > 0) {
        _exit(17);  // die mid-chain, taking the worker down
      }
      data::Matrix& m = *outputs[0];  // aliases the INOUT input value
      for (int64_t j = 0; j < m.size(); ++j) {
        m.data()[j] += inputs[0]->data()[j];
      }
      return Status::OK();
    };
    ASSERT_TRUE(graph.Submit(std::move(spec)).ok());
  }

  obs::MetricsRegistry metrics;
  RunOptions options = ProcOptions(2);
  options.block_cache = true;
  options.max_retries = 2;
  options.retry_backoff_s = 1e-4;
  options.metrics = &metrics;
  MultiProcExecutor executor(options);
  auto report = executor.Execute(graph);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  EXPECT_EQ(report->faults.dead_nodes, 1);
  EXPECT_GE(report->faults.retries, 1);
  ASSERT_EQ(report->records.size(), 3u);
  // The cache was actually in the loop: every first read of a block
  // on a worker is a miss.
  EXPECT_GE(metrics.counter("cache.misses")->value(), 1);

  auto result = executor.FetchData(graph, acc);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(*result == data::Matrix(4, 4, 3.0))
      << "a stale cached accumulator version leaked through crash-retry";

  check::InvariantContext context;
  context.num_threads = 2;
  context.faulted = true;
  EXPECT_TRUE(check::VerifyReport(graph, *report, context).ok());

  munmap(page, 4096);
}

// Without faults, INOUT republication is the hot invalidation path:
// the same datum is rewritten under a fresh tag on every link of the
// chain while also sitting in worker caches. One worker would serve
// the whole chain from cache if versioning were key-only — the
// version check must force a fresh read per link.
TEST(MultiProcExecutorTest, BlockCacheInOutRewriteNeverServesStale) {
  TaskGraph graph;
  const DataId acc = graph.AddData(data::Matrix(4, 4, 0.0));
  for (int i = 0; i < 6; ++i) {
    TaskSpec spec;
    spec.type = "increment";
    spec.params = {{acc, Dir::kInOut}};
    spec.kernel = [](const std::vector<const data::Matrix*>& inputs,
                     const std::vector<data::Matrix*>& outputs) -> Status {
      (void)inputs;
      data::Matrix& m = *outputs[0];
      for (int64_t j = 0; j < m.size(); ++j) m.data()[j] += 1.0;
      return Status::OK();
    };
    ASSERT_TRUE(graph.Submit(std::move(spec)).ok());
  }

  RunOptions options = ProcOptions(2);
  options.block_cache = true;
  MultiProcExecutor executor(options);
  auto report = executor.Execute(graph);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  auto result = executor.FetchData(graph, acc);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(*result == data::Matrix(4, 4, 6.0));

  check::InvariantContext context;
  context.num_threads = 2;
  EXPECT_TRUE(check::VerifyReport(graph, *report, context).ok());
}

#if defined(__linux__)
// fork() without exec from a multi-threaded process inherits other
// threads' locked mutexes into every worker; Execute must refuse
// with a clear error instead of letting workers deadlock.
TEST(MultiProcExecutorTest, MultiThreadedCallerIsRejected) {
  TaskGraph graph;
  const DataId in = graph.AddData(data::Matrix(2, 2, 0.0));
  const DataId out = graph.AddData(static_cast<uint64_t>(32));
  ASSERT_TRUE(graph.Submit(SimpleTask(in, out, AddOneKernel())).ok());

  std::atomic<bool> stop{false};
  std::thread lingering([&stop] {
    while (!stop.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  MultiProcExecutor executor(ProcOptions(2));
  auto report = executor.Execute(graph);
  stop.store(true, std::memory_order_release);
  lingering.join();

  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(report.status().message().find("single-threaded"),
            std::string::npos);
}

// A thread the caller has just joined can stay listed in
// /proc/self/task for a moment after join returns; Execute must wait
// that out rather than refuse a caller that is already single-threaded.
TEST(MultiProcExecutorTest, JustJoinedThreadIsNotCountedAsLive) {
  for (int i = 0; i < 200; ++i) {
    TaskGraph graph;
    const DataId in = graph.AddData(data::Matrix(2, 2, 0.0));
    const DataId out = graph.AddData(static_cast<uint64_t>(32));
    ASSERT_TRUE(graph.Submit(SimpleTask(in, out, AddOneKernel())).ok());
    std::thread([] {}).join();
    MultiProcExecutor executor(ProcOptions(2));
    auto report = executor.Execute(graph);
    ASSERT_NE(report.status().code(), StatusCode::kFailedPrecondition)
        << "iteration " << i << ": " << report.status().ToString();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
  }
}
// True once `pid` has exited: no such process, or a zombie its new
// parent has not reaped yet.
bool Exited(pid_t pid) {
  std::ifstream stat("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  if (!std::getline(stat, line)) return true;
  const size_t paren = line.rfind(')');  // "pid (comm) state ..."
  return paren == std::string::npos || paren + 2 >= line.size() ||
         line[paren + 2] == 'Z';
}

// A coordinator killed outright (SIGKILL, as the OOM killer sends)
// never raises the shutdown flag. Its workers must notice they were
// re-parented and exit instead of keeping the arena mapped forever.
TEST(MultiProcExecutorTest, OrphanedWorkersExitWhenTheCoordinatorDies) {
  constexpr int kWorkers = 2;
  struct Shared {
    std::atomic<int> recorded{0};
    std::atomic<pid_t> pids[kWorkers] = {};
  };
  void* page = mmap(nullptr, 4096, PROT_READ | PROT_WRITE,
                    MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  ASSERT_NE(page, MAP_FAILED);
  auto* shared = new (page) Shared();

  const pid_t coordinator = fork();
  ASSERT_GE(coordinator, 0);
  if (coordinator == 0) {
    // One independent task per worker; each records the pid of the
    // worker running it, then sleeps past the coordinator's death.
    TaskGraph graph;
    for (int i = 0; i < kWorkers; ++i) {
      const DataId in = graph.AddData(data::Matrix(2, 2, 0.0));
      const DataId out = graph.AddData(static_cast<uint64_t>(32));
      TaskSpec spec;
      spec.type = "record_pid";
      spec.params = {{in, Dir::kIn}, {out, Dir::kOut}};
      spec.kernel = [shared](const std::vector<const data::Matrix*>& inputs,
                             const std::vector<data::Matrix*>& outputs)
          -> Status {
        const int slot = shared->recorded.fetch_add(1);
        if (slot < kWorkers) shared->pids[slot].store(getpid());
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
        *outputs[0] = *inputs[0];
        return Status::OK();
      };
      if (!graph.Submit(std::move(spec)).ok()) _exit(2);
    }
    MultiProcExecutor executor(ProcOptions(kWorkers));
    _exit(executor.Execute(graph).ok() ? 0 : 1);
  }

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (shared->recorded.load() < kWorkers &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  kill(coordinator, SIGKILL);
  ASSERT_EQ(waitpid(coordinator, nullptr, 0), coordinator);
  ASSERT_EQ(shared->recorded.load(), kWorkers)
      << "workers never started their tasks";

  std::vector<pid_t> survivors;
  for (const std::atomic<pid_t>& pid : shared->pids) {
    survivors.push_back(pid.load());
  }
  const auto exit_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  while (!survivors.empty() &&
         std::chrono::steady_clock::now() < exit_deadline) {
    std::erase_if(survivors, Exited);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  for (const pid_t pid : survivors) kill(pid, SIGKILL);  // leak nothing
  EXPECT_TRUE(survivors.empty())
      << survivors.size() << " orphaned worker(s) still running 2 s after "
      << "their coordinator was killed";
  munmap(page, 4096);
}
#endif  // __linux__

TEST(MultiProcExecutorTest, NonPositiveProcCountIsRejectedNotClamped) {
  TaskGraph graph;
  const DataId in = graph.AddData(data::Matrix(2, 2, 0.0));
  const DataId out = graph.AddData(static_cast<uint64_t>(32));
  ASSERT_TRUE(graph.Submit(SimpleTask(in, out, AddOneKernel())).ok());
  for (const int procs : {0, -3}) {
    MultiProcExecutor executor(ProcOptions(procs));
    auto report = executor.Execute(graph);
    ASSERT_FALSE(report.ok());
    EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(report.status().message().find("num_procs"), std::string::npos);
  }
}

TEST(MultiProcExecutorTest, CrashWithoutRetryBudgetFailsTheRun) {
  void* page = mmap(nullptr, 4096, PROT_READ | PROT_WRITE,
                    MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  ASSERT_NE(page, MAP_FAILED);
  auto* unused = new (page) std::atomic<int>(0);
  (void)unused;

  TaskGraph graph;
  const DataId in = graph.AddData(data::Matrix(4, 4, 1.0));
  const DataId out = graph.AddData(static_cast<uint64_t>(128));
  TaskSpec spec;
  spec.type = "always_crashy";
  spec.params = {{in, Dir::kIn}, {out, Dir::kOut}};
  spec.kernel = [](const std::vector<const data::Matrix*>&,
                   const std::vector<data::Matrix*>&) -> Status {
    _exit(17);
  };
  ASSERT_TRUE(graph.Submit(std::move(spec)).ok());

  MultiProcExecutor executor(ProcOptions(2));  // max_retries = 0
  auto report = executor.Execute(graph);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.status().ToString().find("lost with worker"),
            std::string::npos);
  munmap(page, 4096);
}

#endif  // !_WIN32

}  // namespace
}  // namespace taskbench::runtime
