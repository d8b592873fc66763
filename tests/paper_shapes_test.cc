// Integration tests asserting the reproduced paper shapes end to end:
// each test encodes the qualitative claim of one figure and checks it
// against the full pipeline (workflow builder -> simulated cluster ->
// metrics), at reduced sweep sizes so the suite stays fast.

#include <gtest/gtest.h>

#include "algos/kmeans.h"
#include "algos/matmul.h"
#include "analysis/experiment.h"
#include "analysis/factor_space.h"
#include "analysis/observations.h"
#include "data/generators.h"
#include "perf/cost_model.h"
#include "stats/feature_table.h"

namespace taskbench::analysis {
namespace {

ExperimentConfig KMeans(int64_t grid, Processor proc, int clusters = 10) {
  ExperimentConfig config;
  config.algorithm = Algorithm::kKMeans;
  config.dataset = data::PaperDatasets::KMeans10GB();
  config.grid_rows = grid;
  config.iterations = 1;
  config.clusters = clusters;
  config.processor = proc;
  return config;
}

ExperimentConfig Matmul(int64_t grid, Processor proc) {
  ExperimentConfig config;
  config.algorithm = Algorithm::kMatmul;
  config.dataset = data::PaperDatasets::Matmul8GB();
  config.grid_rows = config.grid_cols = grid;
  config.processor = proc;
  return config;
}

double MustTime(const ExperimentConfig& config) {
  auto result = RunExperiment(config);
  EXPECT_TRUE(result.ok());
  EXPECT_FALSE(result->oom);
  return result->parallel_task_time;
}

TEST(PaperShapesTest, Figure1StageSpeedups) {
  // Paper: 5.69x parallel fraction, 1.24x user code, -1.20x parallel
  // tasks (K-means 10 GB, 256 tasks).
  const perf::CostModel model(hw::MinotauroCluster());
  const perf::TaskCost cost = algos::PartialSumCost(12500000 / 256, 100, 10);
  const double pf =
      model.CpuParallelFraction(cost) / model.GpuParallelFraction(cost);
  EXPECT_NEAR(pf, 5.69, 1.5);

  const double serial = model.SerialFraction(cost);
  const double user = (model.CpuParallelFraction(cost) + serial) /
                      (model.GpuParallelFraction(cost) + serial +
                       model.CpuGpuComm(cost));
  EXPECT_NEAR(user, 1.24, 0.4);

  const double cpu_tasks = MustTime(KMeans(256, Processor::kCpu));
  const double gpu_tasks = MustTime(KMeans(256, Processor::kGpu));
  EXPECT_LT(SignedSpeedup(cpu_tasks, gpu_tasks), -1.0);  // GPU loses
}

TEST(PaperShapesTest, Figure7MatmulSpeedupsScaleUntilOom) {
  const perf::CostModel model(hw::MinotauroCluster());
  double prev = 0;
  for (int64_t g : {16, 8, 4, 2}) {  // increasing block size
    const int64_t n = 32768 / g;
    const auto cost = algos::MatmulFuncCost(n, n, n, false);
    const double speedup =
        model.CpuParallelFraction(cost) / model.GpuParallelFraction(cost);
    EXPECT_GT(speedup, prev) << "block order " << n;
    prev = speedup;
  }
  // Maximum granularity OOMs on GPU.
  auto oom = RunExperiment(Matmul(1, Processor::kGpu));
  ASSERT_TRUE(oom.ok());
  EXPECT_TRUE(oom->oom);
}

TEST(PaperShapesTest, Figure7ParallelTaskSpeedupNegativeAtFineGrain) {
  // Excess fine-grained tasks: GPU parallel-task speedup negative.
  const double cpu = MustTime(Matmul(16, Processor::kCpu));
  const double gpu = MustTime(Matmul(16, Processor::kGpu));
  EXPECT_LT(SignedSpeedup(cpu, gpu), 1.05);
  // Coarser grains: GPU wins clearly.
  const double cpu_c = MustTime(Matmul(4, Processor::kCpu));
  const double gpu_c = MustTime(Matmul(4, Processor::kGpu));
  EXPECT_GT(SignedSpeedup(cpu_c, gpu_c), 1.0);
}

TEST(PaperShapesTest, Figure7KmeansUserSpeedupsFlatAcrossBlockSize) {
  // O1: user-code speedups insensitive to block size for the
  // partially parallelizable algorithm.
  const perf::CostModel model(hw::MinotauroCluster());
  std::vector<double> speedups;
  for (int64_t g : {256, 64, 16, 4}) {
    const auto cost = algos::PartialSumCost(12500000 / g, 100, 10);
    const double serial = model.SerialFraction(cost);
    speedups.push_back((model.CpuParallelFraction(cost) + serial) /
                       (model.GpuParallelFraction(cost) + serial +
                        model.CpuGpuComm(cost)));
  }
  EXPECT_TRUE(CheckO1(speedups).holds);
}

TEST(PaperShapesTest, Figure8AddFuncNeverWinsOnGpu) {
  const perf::CostModel model(hw::MinotauroCluster());
  for (int64_t g : {16, 8, 4, 2}) {
    const int64_t n = 32768 / g;
    const auto cost = algos::AddFuncCost(n, n);
    EXPECT_GT(model.GpuParallelFraction(cost) + model.CpuGpuComm(cost),
              model.CpuParallelFraction(cost));
  }
}

TEST(PaperShapesTest, Figure9aSpeedupsScaleWithClustersNotBlockSize) {
  const perf::CostModel model(hw::MinotauroCluster());
  auto user_speedup = [&](int64_t grid, int clusters) {
    const auto cost = algos::PartialSumCost(12500000 / grid, 100, clusters);
    const double serial = model.SerialFraction(cost);
    return (model.CpuParallelFraction(cost) + serial) /
           (model.GpuParallelFraction(cost) + serial +
            model.CpuGpuComm(cost));
  };
  // Scales with clusters...
  const double s10 = user_speedup(64, 10);
  const double s100 = user_speedup(64, 100);
  const double s1000 = user_speedup(64, 1000);
  EXPECT_GT(s100, 1.8 * s10);
  EXPECT_GT(s1000, 1.8 * s100);
  EXPECT_NEAR(s1000 / s10, 7.0, 2.5);  // "up to 7x higher"
  // ...but not with block size.
  EXPECT_NEAR(user_speedup(256, 100), user_speedup(16, 100),
              0.25 * user_speedup(16, 100));
}

TEST(PaperShapesTest, Figure9aOomWallMovesWithClusters) {
  const perf::CostModel model(hw::MinotauroCluster());
  // 10 clusters: only the single-block configuration OOMs.
  EXPECT_TRUE(
      model.CheckGpuFit(algos::PartialSumCost(12500000 / 2, 100, 10)).ok());
  EXPECT_TRUE(model.CheckGpuFit(algos::PartialSumCost(12500000, 100, 10))
                  .IsOutOfMemory());
  // 1000 clusters: OOM from 8x1 (1250 MB blocks) on; 16x1 still fits.
  EXPECT_TRUE(
      model.CheckGpuFit(algos::PartialSumCost(12500000 / 16, 100, 1000))
          .ok());
  EXPECT_TRUE(
      model.CheckGpuFit(algos::PartialSumCost(12500000 / 8, 100, 1000))
          .IsOutOfMemory());
}

TEST(PaperShapesTest, Figure10PolicySensitivityO5O6) {
  auto sweep = [&](hw::StorageArchitecture storage) {
    PolicySensitivityInput input;
    for (int64_t g : {32, 128, 256}) {
      for (Processor proc : {Processor::kCpu, Processor::kGpu}) {
        for (SchedulingPolicy policy :
             {SchedulingPolicy::kTaskGenerationOrder,
              SchedulingPolicy::kDataLocality}) {
          ExperimentConfig config = KMeans(g, proc);
          config.run.storage = storage;
          config.run.policy = policy;
          auto result = RunExperiment(config);
          EXPECT_TRUE(result.ok());
          auto& series =
              proc == Processor::kCpu
                  ? (policy == SchedulingPolicy::kTaskGenerationOrder
                         ? input.cpu_gen_order
                         : input.cpu_locality)
                  : (policy == SchedulingPolicy::kTaskGenerationOrder
                         ? input.gpu_gen_order
                         : input.gpu_locality);
          series.push_back(result->parallel_task_time);
        }
      }
    }
    return input;
  };
  const auto local = sweep(hw::StorageArchitecture::kLocalDisk);
  const auto shared = sweep(hw::StorageArchitecture::kSharedDisk);
  EXPECT_TRUE(CheckO5(local).holds) << CheckO5(local).evidence;
  EXPECT_TRUE(CheckO6(local, shared).holds)
      << CheckO6(local, shared).evidence;
}

TEST(PaperShapesTest, Figure10SharedDiskSlowerThanLocal) {
  for (int64_t g : {64, 256}) {
    ExperimentConfig local = KMeans(g, Processor::kCpu);
    local.run.storage = hw::StorageArchitecture::kLocalDisk;
    ExperimentConfig shared = KMeans(g, Processor::kCpu);
    shared.run.storage = hw::StorageArchitecture::kSharedDisk;
    EXPECT_LT(MustTime(local), MustTime(shared)) << "grid " << g;
  }
}

TEST(PaperShapesTest, Figure11KeyCorrelationSigns) {
  // Reduced sample set, checking the signs of the paper's headline
  // coefficients.
  // K is kept at 10/100 here: the tiny sample keeps the paper's
  // mostly-low-cluster mix, where the block-size correlation is
  // positive (the full 210-config set is BENCH_paper.json's fig11
  // rows).
  std::vector<ExperimentConfig> configs;
  for (Processor proc : {Processor::kCpu, Processor::kGpu}) {
    for (int64_t g : {4, 8, 16}) configs.push_back(Matmul(g, proc));
    for (int64_t g : {16, 64, 256}) {
      configs.push_back(KMeans(g, proc));
      configs.push_back(KMeans(g, proc, 100));
    }
  }
  auto table = BuildFeatureTable(configs);
  ASSERT_TRUE(table.ok());
  auto matrix = table->SpearmanMatrix();
  ASSERT_TRUE(matrix.ok());

  auto rho = [&](const char* a, const char* b) {
    auto r = matrix->At(a, b);
    EXPECT_TRUE(r.ok());
    return *r;
  };
  // Complexity is the strongest positive driver of execution time.
  EXPECT_GT(rho("parallel-task-exec-time", "computational-complexity"), 0.3);
  // Block size and grid dimension are inversely related (Eq. 2).
  EXPECT_LT(rho("block-size", "grid-dimension"), -0.5);
  // Grid dimension ~ DAG width (task parallelism).
  EXPECT_GT(rho("grid-dimension", "dag-max-width"), 0.8);
  // One-hot complements.
  EXPECT_NEAR(rho("processor=CPU", "processor=GPU"), -1.0, 1e-9);
  // The block-size and algorithm-specific-parameter coefficients are
  // sample-mix sensitive; BENCH_paper.json's fig11 rows record them
  // over the full 210-config design instead.
}

TEST(PaperShapesTest, Figure12FmaFollowsMatmulTrends) {
  const perf::CostModel model(hw::MinotauroCluster());
  double prev = 0;
  for (int64_t g : {16, 8, 4, 2}) {
    const int64_t n = 32768 / g;
    const auto fma = algos::MatmulFuncCost(n, n, n, true);
    const auto plain = algos::MatmulFuncCost(n, n, n, false);
    const double fma_speedup =
        model.CpuParallelFraction(fma) /
        (model.GpuParallelFraction(fma) + model.CpuGpuComm(fma));
    const double plain_speedup =
        model.CpuParallelFraction(plain) /
        (model.GpuParallelFraction(plain) + model.CpuGpuComm(plain));
    EXPECT_GT(fma_speedup, prev);          // same growth trend
    EXPECT_LT(fma_speedup, plain_speedup); // slightly less efficient
    EXPECT_GT(fma_speedup, 0.7 * plain_speedup);
    prev = fma_speedup;
  }
}

}  // namespace
}  // namespace taskbench::analysis
