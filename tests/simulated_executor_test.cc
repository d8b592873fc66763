#include "runtime/simulated_executor.h"

#include <gtest/gtest.h>

#include "check/invariants.h"
#include "common/units.h"
#include "hw/cluster.h"
#include "runtime/fault.h"

namespace taskbench::runtime {
namespace {

/// A task spending exactly `cpu_seconds` in its parallel fraction on
/// one Minotauro CPU core (16 GF/s), reading/writing `io_bytes`.
TaskSpec TimedTask(TaskGraph* graph, DataId in, DataId out,
                   double cpu_seconds, Processor processor = Processor::kCpu,
                   uint64_t gpu_working_set = 0) {
  TaskSpec spec;
  spec.type = "timed";
  spec.processor = processor;
  spec.params = {{in, Dir::kIn}, {out, Dir::kOut}};
  spec.cost.parallel.flops = cpu_seconds * 16e9;
  spec.cost.input_bytes = graph->data(in).bytes;
  spec.cost.output_bytes = graph->data(out).bytes;
  spec.cost.h2d_bytes = graph->data(in).bytes;
  spec.cost.d2h_bytes = graph->data(out).bytes;
  spec.cost.num_transfers = 2;
  spec.cost.gpu_working_set_bytes = gpu_working_set;
  return spec;
}

RunOptions DefaultOptions() {
  RunOptions options;
  options.storage = hw::StorageArchitecture::kSharedDisk;
  options.policy = SchedulingPolicy::kTaskGenerationOrder;
  return options;
}

TEST(SimulatedExecutorTest, EmptyGraph) {
  SimulatedExecutor executor(hw::MinotauroCluster(), DefaultOptions());
  TaskGraph graph;
  auto report = executor.Execute(graph);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->records.empty());
  EXPECT_EQ(report->makespan, 0.0);
}

TEST(SimulatedExecutorTest, SingleTaskStagesAddUp) {
  SimulatedExecutor executor(hw::MinotauroCluster(), DefaultOptions());
  TaskGraph graph;
  // Exactly 1 s of uncontended shared-disk streaming each way.
  const auto stream_bytes = static_cast<uint64_t>(
      hw::MinotauroCluster().shared_disk.per_stream_bw_bps);
  const DataId in = graph.AddData(stream_bytes);
  const DataId out = graph.AddData(stream_bytes);
  ASSERT_TRUE(graph.Submit(TimedTask(&graph, in, out, 2.0)).ok());

  auto report = executor.Execute(graph);
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->records.size(), 1u);
  const TaskRecord& rec = report->records[0];
  EXPECT_NEAR(rec.stages.parallel_fraction, 2.0, 1e-9);
  EXPECT_NEAR(rec.stages.deserialize, 1.0, 0.01);
  EXPECT_NEAR(rec.stages.serialize, 1.0, 0.01);
  EXPECT_EQ(rec.stages.cpu_gpu_comm, 0.0);
  EXPECT_NEAR(rec.duration(), 4.0, 0.05);
  EXPECT_GT(report->scheduler_overhead, 0.0);
}

TEST(SimulatedExecutorTest, TaskParallelismBoundedByCores) {
  // 256 one-second CPU tasks on 128 cores take ~2 waves.
  RunOptions options = DefaultOptions();
  SimulatedExecutor executor(hw::MinotauroCluster(), options);
  TaskGraph graph;
  for (int i = 0; i < 256; ++i) {
    const DataId in = graph.AddData(8);
    const DataId out = graph.AddData(8);
    ASSERT_TRUE(graph.Submit(TimedTask(&graph, in, out, 1.0)).ok());
  }
  auto report = executor.Execute(graph);
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->makespan, 2.0);
  EXPECT_LT(report->makespan, 3.0);  // ~2 waves + small overheads
}

TEST(SimulatedExecutorTest, GpuParallelismBoundedByDevices) {
  // The same 256 tasks on GPU can only use 32 devices: 8 waves.
  // (GPU task time for this cost is close to the CPU time because the
  // descriptor has no ramp: 16e9 flops / 360 GF/s is fast, but comm
  // adds little; so bound the wave count structurally instead.)
  SimulatedExecutor executor(hw::MinotauroCluster(), DefaultOptions());
  TaskGraph graph;
  for (int i = 0; i < 64; ++i) {
    const DataId in = graph.AddData(8);
    const DataId out = graph.AddData(8);
    TaskSpec spec = TimedTask(&graph, in, out, 0.0, Processor::kGpu);
    spec.cost.parallel.flops = 360e9;  // exactly 1 s on the device
    ASSERT_TRUE(graph.Submit(spec).ok());
  }
  auto report = executor.Execute(graph);
  ASSERT_TRUE(report.ok());
  // 64 tasks, 32 devices -> at least 2 serialized waves.
  EXPECT_GT(report->makespan, 2.0);
  EXPECT_LT(report->makespan, 3.5);
}

TEST(SimulatedExecutorTest, DependenciesSerializeExecution) {
  SimulatedExecutor executor(hw::MinotauroCluster(), DefaultOptions());
  TaskGraph graph;
  const DataId a = graph.AddData(8);
  const DataId b = graph.AddData(8);
  const DataId c = graph.AddData(8);
  ASSERT_TRUE(graph.Submit(TimedTask(&graph, a, b, 1.0)).ok());
  ASSERT_TRUE(graph.Submit(TimedTask(&graph, b, c, 1.0)).ok());
  auto report = executor.Execute(graph);
  ASSERT_TRUE(report.ok());
  const auto& records = report->records;
  EXPECT_GE(records[1].start, records[0].end);
  EXPECT_GT(report->makespan, 2.0);
}

TEST(SimulatedExecutorTest, GpuOomSurfacesAsOutOfMemory) {
  SimulatedExecutor executor(hw::MinotauroCluster(), DefaultOptions());
  TaskGraph graph;
  const DataId in = graph.AddData(8);
  const DataId out = graph.AddData(8);
  ASSERT_TRUE(graph
                  .Submit(TimedTask(&graph, in, out, 1.0, Processor::kGpu,
                                    /*gpu_working_set=*/13ULL * kGiB))
                  .ok());
  auto report = executor.Execute(graph);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.status().IsOutOfMemory());
}

TEST(SimulatedExecutorTest, GpuTaskOnGpulessClusterStalls) {
  SimulatedExecutor executor(hw::SingleNode(4, 0), DefaultOptions());
  TaskGraph graph;
  const DataId in = graph.AddData(8);
  const DataId out = graph.AddData(8);
  ASSERT_TRUE(
      graph.Submit(TimedTask(&graph, in, out, 1.0, Processor::kGpu)).ok());
  auto report = executor.Execute(graph);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kFailedPrecondition);
}

TEST(SimulatedExecutorTest, SharedDiskContentionSlowsFineGrain) {
  // 128 concurrent 600 MB reads through the 6 GB/s shared disk are
  // ~13x slower than one uncontended read.
  TaskGraph one_graph;
  {
    const DataId in = one_graph.AddData(600'000'000);
    const DataId out = one_graph.AddData(8);
    ASSERT_TRUE(one_graph.Submit(TimedTask(&one_graph, in, out, 0.0)).ok());
  }
  TaskGraph many_graph;
  for (int i = 0; i < 128; ++i) {
    const DataId in = many_graph.AddData(600'000'000);
    const DataId out = many_graph.AddData(8);
    ASSERT_TRUE(many_graph.Submit(TimedTask(&many_graph, in, out, 0.0)).ok());
  }
  SimulatedExecutor executor(hw::MinotauroCluster(), DefaultOptions());
  auto one = executor.Execute(one_graph);
  auto many = executor.Execute(many_graph);
  ASSERT_TRUE(one.ok());
  ASSERT_TRUE(many.ok());
  EXPECT_GT(many->makespan, one->makespan * 8);
}

TEST(SimulatedExecutorTest, LocalDiskScalesBetterThanShared) {
  auto run = [](hw::StorageArchitecture storage) {
    TaskGraph graph;
    for (int i = 0; i < 128; ++i) {
      const DataId in = graph.AddData(600'000'000);
      const DataId out = graph.AddData(8);
      TaskSpec spec = TimedTask(&graph, in, out, 0.0);
      EXPECT_TRUE(graph.Submit(spec).ok());
    }
    RunOptions options;
    options.storage = storage;
    options.policy = SchedulingPolicy::kDataLocality;
    SimulatedExecutor executor(hw::MinotauroCluster(), options);
    auto report = executor.Execute(graph);
    EXPECT_TRUE(report.ok());
    return report->makespan;
  };
  // 8 local disks of 1.2 GB/s beat one 6 GB/s shared filesystem when
  // reads are local.
  EXPECT_LT(run(hw::StorageArchitecture::kLocalDisk),
            run(hw::StorageArchitecture::kSharedDisk));
}

TEST(SimulatedExecutorTest, DataLocalityAddsSchedulerOverhead) {
  auto run = [](SchedulingPolicy policy) {
    TaskGraph graph;
    for (int i = 0; i < 64; ++i) {
      const DataId in = graph.AddData(8);
      const DataId out = graph.AddData(8);
      EXPECT_TRUE(graph.Submit(TimedTask(&graph, in, out, 0.01)).ok());
    }
    RunOptions options;
    options.policy = policy;
    SimulatedExecutor executor(hw::MinotauroCluster(), options);
    auto report = executor.Execute(graph);
    EXPECT_TRUE(report.ok());
    return report->scheduler_overhead;
  };
  EXPECT_GT(run(SchedulingPolicy::kDataLocality),
            run(SchedulingPolicy::kTaskGenerationOrder));
}

TEST(SimulatedExecutorTest, DeterministicAcrossRuns) {
  TaskGraph graph;
  for (int i = 0; i < 50; ++i) {
    const DataId in = graph.AddData(1'000'000);
    const DataId out = graph.AddData(1'000'000);
    ASSERT_TRUE(graph.Submit(TimedTask(&graph, in, out, 0.05)).ok());
  }
  SimulatedExecutor executor(hw::MinotauroCluster(), DefaultOptions());
  auto a = executor.Execute(graph);
  auto b = executor.Execute(graph);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->makespan, b->makespan);
  ASSERT_EQ(a->records.size(), b->records.size());
  for (size_t i = 0; i < a->records.size(); ++i) {
    EXPECT_EQ(a->records[i].start, b->records[i].start);
    EXPECT_EQ(a->records[i].end, b->records[i].end);
    EXPECT_EQ(a->records[i].node, b->records[i].node);
  }
}

TEST(SimulatedExecutorTest, LevelStatsMatchDagLevels) {
  TaskGraph graph;
  const DataId a = graph.AddData(8);
  const DataId b = graph.AddData(8);
  const DataId c = graph.AddData(8);
  ASSERT_TRUE(graph.Submit(TimedTask(&graph, a, b, 0.5)).ok());
  ASSERT_TRUE(graph.Submit(TimedTask(&graph, b, c, 0.5)).ok());
  SimulatedExecutor executor(hw::MinotauroCluster(), DefaultOptions());
  auto report = executor.Execute(graph);
  ASSERT_TRUE(report.ok());
  const auto levels = report->LevelStats();
  ASSERT_EQ(levels.size(), 2u);
  EXPECT_EQ(levels[0].num_tasks, 1);
  EXPECT_EQ(levels[1].num_tasks, 1);
  EXPECT_GT(report->MeanLevelTime(), 0.5);
}

// A crash that reopens the producer of a running task ends that
// attempt, so its retry waits for the recompute. Task 2 runs on node
// 1's GPU off task 1's output, which lives on node 0. Node 0 crashes,
// reopening task 1, and node 1's GPU is lost before the recompute
// finishes. Left running through the crash, task 2 would be retried
// after the GPU loss with a dependency countdown the recompute then
// drives below zero, and the run would stall.
TEST(SimulatedExecutorTest, ACrashEndsAttemptsWhoseInputItReopened) {
  hw::ClusterSpec cluster = hw::MinotauroCluster();
  cluster.num_nodes = 3;
  cluster.cores_per_node = 1;
  cluster.gpus_per_node = 1;
  TaskGraph graph;
  // Task 0 holds node 0's GPU, so task 2 takes node 1's.
  const DataId g_in = graph.AddData(8);
  const DataId g_out = graph.AddData(8);
  ASSERT_TRUE(graph
                  .Submit(TimedTask(&graph, g_in, g_out, 2000,
                                    Processor::kGpu))
                  .ok());
  const DataId d0 = graph.AddData(8);
  const DataId d1 = graph.AddData(8);
  const DataId d2 = graph.AddData(8);
  ASSERT_TRUE(graph.Submit(TimedTask(&graph, d0, d1, 2.0)).ok());
  ASSERT_TRUE(
      graph.Submit(TimedTask(&graph, d1, d2, 2000, Processor::kGpu)).ok());

  RunOptions options = DefaultOptions();
  options.storage = hw::StorageArchitecture::kLocalDisk;
  options.faults = *FaultPlan::Parse("crash@5:n0,gpuloss@6:n1");
  options.max_retries = 3;
  options.retry_backoff_s = 10;
  SimulatedExecutor executor(cluster, options);
  auto report = executor.Execute(graph);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->faults.recomputed_tasks, 1);
  std::vector<TaskAttempt> task2;
  for (const TaskAttempt& a : report->attempts) {
    if (a.task == 2) task2.push_back(a);
  }
  ASSERT_EQ(task2.size(), 2u);
  EXPECT_EQ(task2[0].outcome, AttemptOutcome::kNodeLost);
  EXPECT_EQ(task2[0].node, 1);
  EXPECT_EQ(task2[0].end, 5.0);
  EXPECT_EQ(task2[1].outcome, AttemptOutcome::kCompleted);
  check::InvariantContext context;
  context.cluster = &cluster;
  context.simulated = true;
  context.faulted = true;
  const Status verified = check::VerifyReport(graph, *report, context);
  EXPECT_TRUE(verified.ok()) << verified.ToString();
}

}  // namespace
}  // namespace taskbench::runtime
