#include "runtime/thread_pool_executor.h"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <mutex>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "data/generators.h"

namespace taskbench::runtime {
namespace {

KernelFn CopyKernel() {
  return [](const std::vector<const data::Matrix*>& inputs,
            const std::vector<data::Matrix*>& outputs) -> Status {
    *outputs[0] = *inputs[0];
    return Status::OK();
  };
}

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

class ThreadPoolExecutorModes : public ::testing::TestWithParam<bool> {
 protected:
  ThreadPoolExecutor MakeExecutor(int threads = 4) {
    RunOptions options;
    options.num_threads = threads;
    options.use_storage = GetParam();
    return ThreadPoolExecutor(options);
  }
};

TEST_P(ThreadPoolExecutorModes, RunsSingleTask) {
  TaskGraph graph;
  const DataId in = graph.AddData(data::Matrix(3, 3, 2.0));
  const DataId out = graph.AddData(static_cast<uint64_t>(72));
  ASSERT_TRUE(graph.Submit(SimpleTask(in, out, AddOneKernel())).ok());

  ThreadPoolExecutor executor = MakeExecutor();
  auto report = executor.Execute(graph);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->records.size(), 1u);
  EXPECT_GT(report->makespan, 0.0);

  auto result = executor.FetchData(graph, out);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->ApproxEquals(data::Matrix(3, 3, 3.0)));
}

TEST_P(ThreadPoolExecutorModes, HonorsDependencyChain) {
  TaskGraph graph;
  const DataId d0 = graph.AddData(data::Matrix(2, 2, 0.0));
  const DataId d1 = graph.AddData(static_cast<uint64_t>(32));
  const DataId d2 = graph.AddData(static_cast<uint64_t>(32));
  const DataId d3 = graph.AddData(static_cast<uint64_t>(32));
  ASSERT_TRUE(graph.Submit(SimpleTask(d0, d1, AddOneKernel())).ok());
  ASSERT_TRUE(graph.Submit(SimpleTask(d1, d2, AddOneKernel())).ok());
  ASSERT_TRUE(graph.Submit(SimpleTask(d2, d3, AddOneKernel())).ok());

  ThreadPoolExecutor executor = MakeExecutor();
  auto report = executor.Execute(graph);
  ASSERT_TRUE(report.ok());
  auto result = executor.FetchData(graph, d3);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->ApproxEquals(data::Matrix(2, 2, 3.0)));

  // Level ordering respected in wall-clock: each task starts after
  // its dependency ended.
  const auto& records = report->records;
  EXPECT_GE(records[1].start, records[0].end - 1e-9);
  EXPECT_GE(records[2].start, records[1].end - 1e-9);
}

TEST_P(ThreadPoolExecutorModes, RunsWideGraphsConcurrently) {
  TaskGraph graph;
  const DataId in = graph.AddData(data::Matrix(8, 8, 1.0));
  std::vector<DataId> outs;
  for (int i = 0; i < 32; ++i) {
    const DataId out = graph.AddData(static_cast<uint64_t>(512));
    ASSERT_TRUE(graph.Submit(SimpleTask(in, out, CopyKernel())).ok());
    outs.push_back(out);
  }
  ThreadPoolExecutor executor = MakeExecutor(8);
  auto report = executor.Execute(graph);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->records.size(), 32u);
  for (const DataId out : outs) {
    auto result = executor.FetchData(graph, out);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result->ApproxEquals(data::Matrix(8, 8, 1.0)));
  }
}

TEST_P(ThreadPoolExecutorModes, InOutUpdatesInPlace) {
  TaskGraph graph;
  const DataId acc = graph.AddData(data::Matrix(2, 2, 10.0));
  TaskSpec spec;
  spec.type = "bump";
  spec.params = {{acc, Dir::kInOut}};
  spec.kernel = [](const std::vector<const data::Matrix*>& inputs,
                   const std::vector<data::Matrix*>& outputs) -> Status {
    EXPECT_EQ(inputs.size(), 1u);
    EXPECT_EQ(inputs[0], outputs[0]);  // aliased view
    for (int64_t i = 0; i < outputs[0]->size(); ++i) {
      outputs[0]->data()[i] *= 2.0;
    }
    return Status::OK();
  };
  ASSERT_TRUE(graph.Submit(spec).ok());
  ASSERT_TRUE(graph.Submit(spec).ok());  // WAW chained second update

  ThreadPoolExecutor executor = MakeExecutor();
  auto report = executor.Execute(graph);
  ASSERT_TRUE(report.ok());
  auto result = executor.FetchData(graph, acc);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->ApproxEquals(data::Matrix(2, 2, 40.0)));
}

TEST_P(ThreadPoolExecutorModes, KernelFailureAbortsRun) {
  TaskGraph graph;
  const DataId in = graph.AddData(data::Matrix(2, 2, 1.0));
  const DataId out = graph.AddData(static_cast<uint64_t>(32));
  TaskSpec spec = SimpleTask(in, out, nullptr);
  spec.kernel = [](const std::vector<const data::Matrix*>&,
                   const std::vector<data::Matrix*>&) -> Status {
    return Status::Internal("kernel exploded");
  };
  ASSERT_TRUE(graph.Submit(spec).ok());

  ThreadPoolExecutor executor = MakeExecutor();
  auto report = executor.Execute(graph);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInternal);
}

TEST_P(ThreadPoolExecutorModes, MissingKernelIsFailedPrecondition) {
  TaskGraph graph;
  const DataId in = graph.AddData(data::Matrix(2, 2, 1.0));
  const DataId out = graph.AddData(static_cast<uint64_t>(32));
  TaskSpec spec;
  spec.type = "no-kernel";
  spec.params = {{in, Dir::kIn}, {out, Dir::kOut}};
  ASSERT_TRUE(graph.Submit(spec).ok());

  ThreadPoolExecutor executor = MakeExecutor();
  auto report = executor.Execute(graph);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kFailedPrecondition);
}

TEST_P(ThreadPoolExecutorModes, RecordsStageTimes) {
  TaskGraph graph;
  const DataId in = graph.AddData(data::Matrix(64, 64, 1.0));
  const DataId out = graph.AddData(static_cast<uint64_t>(64 * 64 * 8));
  ASSERT_TRUE(graph.Submit(SimpleTask(in, out, CopyKernel())).ok());
  ThreadPoolExecutor executor = MakeExecutor(1);
  auto report = executor.Execute(graph);
  ASSERT_TRUE(report.ok());
  const auto& rec = report->records[0];
  EXPECT_GE(rec.stages.parallel_fraction, 0.0);
  if (GetParam()) {
    // Storage mode measures real (de)serialization.
    EXPECT_GT(rec.stages.deserialize, 0.0);
    EXPECT_GT(rec.stages.serialize, 0.0);
  }
  EXPECT_GE(rec.end, rec.start);
}

TEST_P(ThreadPoolExecutorModes, EmptyGraphSucceeds) {
  TaskGraph graph;
  ThreadPoolExecutor executor = MakeExecutor();
  auto report = executor.Execute(graph);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->records.empty());
  EXPECT_EQ(report->makespan, 0.0);
}

INSTANTIATE_TEST_SUITE_P(StorageModes, ThreadPoolExecutorModes,
                         ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "WithStorage" : "InMemory";
                         });

// Threads in this process per /proc/self/task; -1 without procfs.
int TaskCount() {
  std::error_code ec;
  int n = 0;
  for (auto it = std::filesystem::directory_iterator("/proc/self/task", ec);
       !ec && it != std::filesystem::directory_iterator(); it.increment(ec)) {
    ++n;
  }
  return ec ? -1 : n;
}

// TaskCount once it has held still for 10 reads: a thread joined just
// before (by an earlier test) can stay listed for a moment.
int SettledTaskCount() {
  int n = TaskCount();
  for (int stable = 0, tries = 0; stable < 10 && tries < 1000; ++tries) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
    const int again = TaskCount();
    stable = again == n ? stable + 1 : 0;
    n = again;
  }
  return n;
}

// Records, per task, the thread that ran the kernel and the process's
// thread count at that moment, then adds one like AddOneKernel.
struct KernelProbe {
  std::mutex mu;
  std::vector<std::thread::id> ids;
  int max_tasks = 0;

  static Status Record(const KernelInputs& inputs,
                       const KernelOutputs& outputs, KernelProbe* probe) {
    const int tasks = TaskCount();
    {
      std::lock_guard<std::mutex> lock(probe->mu);
      probe->ids.push_back(std::this_thread::get_id());
      probe->max_tasks = std::max(probe->max_tasks, tasks);
    }
    return AddOneKernel()(inputs, outputs);
  }

  KernelFn Kernel() { return BindKernel(Record, this); }
};

// A wide graph of `width` independent tasks (in -> out_i = in + 1).
std::vector<DataId> WideAddOne(TaskGraph& graph, int width, KernelFn kernel) {
  const DataId in = graph.AddData(data::Matrix(2, 2, 5.0));
  std::vector<DataId> outs;
  for (int i = 0; i < width; ++i) {
    const DataId out = graph.AddData(static_cast<uint64_t>(32));
    EXPECT_TRUE(graph.Submit(SimpleTask(in, out, kernel)).ok());
    outs.push_back(out);
  }
  return outs;
}

// Worker 0 is the calling thread: a one-thread run starts no thread,
// and every kernel runs on the caller.
TEST_P(ThreadPoolExecutorModes, OneThreadRunsOnTheCaller) {
  const int before = SettledTaskCount();
  if (before < 0) GTEST_SKIP() << "no /proc/self/task";
  TaskGraph graph;
  KernelProbe probe;
  const std::vector<DataId> outs = WideAddOne(graph, 8, probe.Kernel());
  ThreadPoolExecutor executor = MakeExecutor(1);
  auto report = executor.Execute(graph);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(probe.ids.size(), outs.size());
  for (const std::thread::id& id : probe.ids) {
    EXPECT_EQ(id, std::this_thread::get_id());
  }
  EXPECT_EQ(probe.max_tasks, before);
  for (DataId out : outs) {
    auto value = executor.FetchData(graph, out);
    ASSERT_TRUE(value.ok());
    EXPECT_EQ(value->At(1, 1), 6.0);
  }
}

// W workers add at most W - 1 threads, and the caller's CPU affinity
// is left as it was (only spawned workers are ever pinned). One thread
// is started and joined before the baseline is taken: a runtime that
// starts a helper thread of its own at the process's first
// pthread_create (TSan does) then has it counted in `before`.
TEST_P(ThreadPoolExecutorModes, FourThreadsAddAtMostThree) {
  std::thread([] {}).join();
  const int before = SettledTaskCount();
  if (before < 0) GTEST_SKIP() << "no /proc/self/task";
  cpu_set_t mask_before;
  ASSERT_EQ(sched_getaffinity(0, sizeof(mask_before), &mask_before), 0);
  TaskGraph graph;
  KernelProbe probe;
  const std::vector<DataId> outs = WideAddOne(graph, 32, probe.Kernel());
  ThreadPoolExecutor executor = MakeExecutor(4);
  auto report = executor.Execute(graph);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_LE(probe.max_tasks, before + 3);
  cpu_set_t mask_after;
  ASSERT_EQ(sched_getaffinity(0, sizeof(mask_after), &mask_after), 0);
  EXPECT_TRUE(CPU_EQUAL(&mask_before, &mask_after));
  for (DataId out : outs) {
    auto value = executor.FetchData(graph, out);
    ASSERT_TRUE(value.ok());
    EXPECT_EQ(value->At(0, 0), 6.0);
  }
}

// Four workers split a few thousand initial blocks (tiny ones and a
// few larger ones) into claimed chunks and stage them in parallel;
// every task must read its own block, and every initial value must be
// fetchable afterwards.
TEST_P(ThreadPoolExecutorModes, FourWorkersStageManyInitialBlocks) {
  TaskGraph graph;
  std::vector<DataId> ins;
  std::vector<DataId> outs;
  for (int i = 0; i < 3000; ++i) {
    const int64_t dim = i % 500 == 0 ? 64 : 2;
    ins.push_back(graph.AddData(data::Matrix(dim, dim, i)));
    outs.push_back(graph.AddData(static_cast<uint64_t>(dim * dim * 8)));
    ASSERT_TRUE(
        graph.Submit(SimpleTask(ins.back(), outs.back(), AddOneKernel()))
            .ok());
  }
  ThreadPoolExecutor executor = MakeExecutor(4);
  auto report = executor.Execute(graph);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  for (size_t i = 0; i < ins.size(); ++i) {
    auto in = executor.FetchData(graph, ins[i]);
    auto out = executor.FetchData(graph, outs[i]);
    ASSERT_TRUE(in.ok() && out.ok()) << "block " << i;
    EXPECT_EQ(in->At(1, 1), static_cast<double>(i));
    EXPECT_EQ(out->At(1, 1), static_cast<double>(i) + 1);
  }
}

// Storage keys are part of the on-disk format (FileStorage paths) and
// of the service's scope cleanup: their bytes must not change.
// Call number of HedgedCallNumber across a task's primary and its
// hedged duplicate.
std::atomic<int> hedge_calls{0};

// Writes its call number. The first call (the primary) returns only
// once the second (the duplicate) has started, so it takes the claim;
// the second returns 30 ms later.
Status HedgedCallNumber(const KernelInputs&, const KernelOutputs& outputs) {
  const int call = hedge_calls.fetch_add(1) + 1;
  if (call == 1) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (hedge_calls.load() < 2 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  } else {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
  }
  *outputs[0] = data::Matrix(1, 1, static_cast<double>(call));
  return Status::OK();
}

// Only the attempt that holds the claim stores: a hedged duplicate that
// loses it leaves the winner's output in place.
TEST_P(ThreadPoolExecutorModes, ALosingHedgedDuplicateStoresNothing) {
  TaskGraph graph;
  const DataId x = graph.AddData(data::Matrix(1, 1, 0.0));
  const DataId y = graph.AddData(static_cast<uint64_t>(8));
  ASSERT_TRUE(graph.Submit(SimpleTask(x, y, HedgedCallNumber)).ok());
  // The second worker's own root: it runs while the primary starts on
  // the first worker, then leaves the second idle to duplicate it.
  const DataId x2 = graph.AddData(data::Matrix(1, 1, 0.0));
  const DataId y2 = graph.AddData(static_cast<uint64_t>(8));
  ASSERT_TRUE(graph
                  .Submit(SimpleTask(
                      x2, y2,
                      [](const KernelInputs& inputs,
                         const KernelOutputs& outputs) -> Status {
                        std::this_thread::sleep_for(
                            std::chrono::milliseconds(20));
                        *outputs[0] = *inputs[0];
                        return Status::OK();
                      }))
                  .ok());
  RunOptions options;
  options.num_threads = 2;
  options.use_storage = GetParam();
  options.policy = SchedulingPolicy::kCostModel;
  options.sched.hedge_min_s = 0;
  ThreadPoolExecutor executor(options);
  hedge_calls = 0;
  auto report = executor.Execute(graph);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(hedge_calls.load(), 2) << "the primary was never duplicated";
  EXPECT_EQ(report->records[0].attempt, 1) << "the duplicate won the claim";
  EXPECT_EQ(executor.FetchData(graph, y)->At(0, 0), 1.0);
}

TEST(ThreadPoolExecutorTest, StorageKeysKeepTheirBytes) {
  EXPECT_EQ(StorageKey(0, 7), "d7");
  EXPECT_EQ(StorageKey(3, 7), "s3.d7");
  EXPECT_EQ(StorageKey(0, 0), "d0");
  EXPECT_EQ(StorageKey(12, 4100), "s12.d4100");
  EXPECT_EQ(StorageKey(UINT64_MAX, INT64_MAX),
            "s18446744073709551615.d9223372036854775807");
  EXPECT_EQ(StorageKey(1, INT64_MIN), "s1.d-9223372036854775808");
}

TEST(ThreadPoolExecutorTest, ManyThreadsManyTasksStress) {
  TaskGraph graph;
  const DataId in = graph.AddData(data::Matrix(4, 4, 1.0));
  DataId current = in;
  // Alternating fan-out/fan-in waves.
  for (int wave = 0; wave < 5; ++wave) {
    std::vector<DataId> outs;
    for (int i = 0; i < 16; ++i) {
      const DataId out = graph.AddData(static_cast<uint64_t>(128));
      ASSERT_TRUE(graph.Submit(SimpleTask(current, out, AddOneKernel())).ok());
      outs.push_back(out);
    }
    // Fan-in: sum all outputs into one.
    const DataId joined = graph.AddData(static_cast<uint64_t>(128));
    TaskSpec join;
    join.type = "join";
    for (DataId out : outs) join.params.push_back({out, Dir::kIn});
    join.params.push_back({joined, Dir::kOut});
    join.kernel = [](const std::vector<const data::Matrix*>& inputs,
                     const std::vector<data::Matrix*>& outputs) -> Status {
      data::Matrix acc = *inputs[0];
      for (size_t i = 1; i < inputs.size(); ++i) {
        TB_ASSIGN_OR_RETURN(acc, data::Add(acc, *inputs[i]));
      }
      *outputs[0] = std::move(acc);
      return Status::OK();
    };
    ASSERT_TRUE(graph.Submit(join).ok());
    current = joined;
  }
  RunOptions options;
  options.num_threads = 8;
  options.use_storage = true;
  ThreadPoolExecutor executor(options);
  auto report = executor.Execute(graph);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->records.size(), 5u * 17u);
  auto result = executor.FetchData(graph, current);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows(), 4);
}

}  // namespace
}  // namespace taskbench::runtime
