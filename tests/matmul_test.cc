#include "algos/matmul.h"

#include <gtest/gtest.h>

#include "data/generators.h"
#include "runtime/thread_pool_executor.h"

namespace taskbench::algos {
namespace {

data::GridSpec Spec(int64_t n, int64_t grid) {
  auto spec = data::GridSpec::CreateFromGridDim(
      data::DatasetSpec{"m", n, n}, grid, grid);
  EXPECT_TRUE(spec.ok());
  return *spec;
}

MatmulOptions RealOptions() {
  MatmulOptions options;
  options.materialize = true;
  return options;
}

/// Runs the workflow for real and compares against the dense product
/// of the collected inputs.
void CheckAgainstDense(const data::GridSpec& a_spec,
                       const data::GridSpec& b_spec) {
  auto wf = BuildMatmul(a_spec, b_spec, RealOptions());
  ASSERT_TRUE(wf.ok());

  runtime::RunOptions exec_options;
  exec_options.num_threads = 4;
  runtime::ThreadPoolExecutor executor(exec_options);
  auto report = executor.Execute(wf->graph);
  ASSERT_TRUE(report.ok());

  // Assemble dense A and B from the registered blocks.
  data::Matrix a_full(a_spec.dataset().rows, a_spec.dataset().cols);
  data::Matrix b_full(b_spec.dataset().rows, b_spec.dataset().cols);
  for (int64_t r = 0; r < a_spec.grid_rows(); ++r) {
    for (int64_t c = 0; c < a_spec.grid_cols(); ++c) {
      const auto e = a_spec.ExtentAt(r, c);
      auto block = executor.FetchData(wf->graph, wf->a[r][c]);
      ASSERT_TRUE(block.ok());
      ASSERT_TRUE(a_full.AssignSlice(e.row0, e.col0, *block).ok());
    }
  }
  for (int64_t r = 0; r < b_spec.grid_rows(); ++r) {
    for (int64_t c = 0; c < b_spec.grid_cols(); ++c) {
      const auto e = b_spec.ExtentAt(r, c);
      auto block = executor.FetchData(wf->graph, wf->b[r][c]);
      ASSERT_TRUE(block.ok());
      ASSERT_TRUE(b_full.AssignSlice(e.row0, e.col0, *block).ok());
    }
  }
  auto expected = data::Multiply(a_full, b_full);
  ASSERT_TRUE(expected.ok());

  data::Matrix c_full(a_spec.dataset().rows, b_spec.dataset().cols);
  for (size_t r = 0; r < wf->c.size(); ++r) {
    for (size_t c = 0; c < wf->c[r].size(); ++c) {
      auto block = executor.FetchData(wf->graph, wf->c[r][c]);
      ASSERT_TRUE(block.ok());
      const auto ea = a_spec.ExtentAt(static_cast<int64_t>(r), 0);
      const auto eb = b_spec.ExtentAt(0, static_cast<int64_t>(c));
      ASSERT_TRUE(c_full.AssignSlice(ea.row0, eb.col0, *block).ok());
    }
  }
  EXPECT_TRUE(c_full.ApproxEquals(*expected, 1e-8));
}

TEST(MatmulBuildTest, SingleBlockDegeneratesToOneTask) {
  auto wf = BuildMatmul(Spec(8, 1), MatmulOptions{});
  ASSERT_TRUE(wf.ok());
  EXPECT_EQ(wf->graph.num_tasks(), 1);
  EXPECT_EQ(wf->graph.task(0).spec.type, "matmul_func");
}

TEST(MatmulBuildTest, TaskCountsMatchGridAlgebra) {
  // g x g grid: g^3 matmul_func tasks and g^2 * (g - 1) add_func.
  for (int64_t g : {2, 3, 4}) {
    auto wf = BuildMatmul(Spec(32, g), MatmulOptions{});
    ASSERT_TRUE(wf.ok());
    int64_t matmuls = 0, adds = 0;
    for (runtime::TaskId t = 0; t < wf->graph.num_tasks(); ++t) {
      const auto& type = wf->graph.task(t).spec.type;
      if (type == "matmul_func") ++matmuls;
      if (type == "add_func") ++adds;
    }
    EXPECT_EQ(matmuls, g * g * g) << "grid " << g;
    EXPECT_EQ(adds, g * g * (g - 1)) << "grid " << g;
  }
}

TEST(MatmulBuildTest, DagIsWideAndShallow) {
  // Figure 6b: high task parallelism, few dependency levels.
  auto wf = BuildMatmul(Spec(64, 4), MatmulOptions{});
  ASSERT_TRUE(wf.ok());
  EXPECT_EQ(wf->graph.MaxWidth(), 64);      // all matmul_func parallel
  EXPECT_EQ(wf->graph.MaxHeight(), 3);      // matmul + 2 add levels
}

TEST(MatmulBuildTest, FmaVariantRenamesTasks) {
  MatmulOptions options;
  options.fma = true;
  auto wf = BuildMatmul(Spec(8, 2), options);
  ASSERT_TRUE(wf.ok());
  EXPECT_EQ(wf->graph.task(0).spec.type, "matmul_fma_func");
}

TEST(MatmulBuildTest, RejectsIncompatibleSpecs) {
  auto a = data::GridSpec::Create(data::DatasetSpec{"a", 8, 8}, 4, 4);
  auto b = data::GridSpec::Create(data::DatasetSpec{"b", 16, 8}, 4, 4);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_FALSE(BuildMatmul(*a, *b, MatmulOptions{}).ok());

  auto b2 = data::GridSpec::Create(data::DatasetSpec{"b", 8, 8}, 2, 4);
  ASSERT_TRUE(b2.ok());
  EXPECT_FALSE(BuildMatmul(*a, *b2, MatmulOptions{}).ok());
}

TEST(MatmulRealTest, SquareMatchesDense) {
  CheckAgainstDense(Spec(16, 2), Spec(16, 2));
  CheckAgainstDense(Spec(24, 3), Spec(24, 3));
}

TEST(MatmulRealTest, SingleBlockMatchesDense) {
  CheckAgainstDense(Spec(8, 1), Spec(8, 1));
}

TEST(MatmulRealTest, RectangularGridsMatchDense) {
  auto a = data::GridSpec::Create(data::DatasetSpec{"a", 12, 8}, 4, 4);
  auto b = data::GridSpec::Create(data::DatasetSpec{"b", 8, 20}, 4, 5);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  CheckAgainstDense(*a, *b);
}

TEST(MatmulCostTest, MatmulFuncIsComputeBoundCubic) {
  const perf::TaskCost cost = MatmulFuncCost(256, 256, 256, false);
  EXPECT_DOUBLE_EQ(cost.parallel.flops, 2.0 * 256 * 256 * 256);
  EXPECT_EQ(cost.serial.flops, 0.0);   // fully parallel task
  EXPECT_EQ(cost.serial.bytes, 0.0);
  EXPECT_EQ(cost.h2d_bytes, 2u * 256 * 256 * 8);
  EXPECT_EQ(cost.d2h_bytes, 1u * 256 * 256 * 8);
}

TEST(MatmulCostTest, AddFuncIsMemoryBoundLinear) {
  const perf::TaskCost cost = AddFuncCost(256, 256);
  EXPECT_DOUBLE_EQ(cost.parallel.flops, 256.0 * 256.0);
  EXPECT_DOUBLE_EQ(cost.parallel.bytes, 3.0 * 8.0 * 256 * 256);
  // Two orders of magnitude less compute than matmul_func on the
  // same block (the Section 5.2.1 complexity gap).
  const perf::TaskCost mm = MatmulFuncCost(256, 256, 256, false);
  EXPECT_GT(mm.parallel.flops / cost.parallel.flops, 100.0);
}

TEST(MatmulCostTest, WorkingSetTracksPaperRule) {
  // ~3x block bytes (Section 5.3).
  const perf::TaskCost cost = MatmulFuncCost(1024, 1024, 1024, false);
  const uint64_t block = 1024ULL * 1024 * 8;
  EXPECT_GE(cost.gpu_working_set_bytes, 3 * block);
  EXPECT_LE(cost.gpu_working_set_bytes, 4 * block);
}

}  // namespace
}  // namespace taskbench::algos
