#include "data/kernels.h"

#include <cstdint>
#include <cstring>
#include <random>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "data/matrix.h"

namespace taskbench::data {
namespace {

Matrix RandomMatrix(int64_t rows, int64_t cols, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  Matrix m(rows, cols);
  for (int64_t i = 0; i < m.size(); ++i) m.data()[i] = dist(rng);
  return m;
}

struct MatmulShape {
  int64_t m, k, n;
};

// Shapes chosen to hit every edge of the packed-panel GEMM: smaller
// than one register tile, exact MR/NR/KC multiples, ragged i/j/k
// edges, single rows/columns, and a k panel boundary (KC = 256).
const std::vector<MatmulShape> kMatmulShapes = {
    {1, 1, 1},    {3, 5, 7},     {4, 16, 16},  {8, 32, 32},
    {5, 17, 19},  {67, 65, 33},  {129, 31, 5}, {1, 300, 17},
    {257, 3, 1},  {3, 1, 257},   {64, 256, 48}, {50, 257, 50},
};

TEST(KernelsTest, BlockedMultiplyMatchesNaiveAcrossShapes) {
  for (const MatmulShape& s : kMatmulShapes) {
    const Matrix a = RandomMatrix(s.m, s.k, 1000 + s.m);
    const Matrix b = RandomMatrix(s.k, s.n, 2000 + s.n);
    auto reference = naive::Multiply(a, b);
    auto fast = blocked::Multiply(a, b);
    ASSERT_TRUE(reference.ok()) << s.m << "x" << s.k << "x" << s.n;
    ASSERT_TRUE(fast.ok()) << s.m << "x" << s.k << "x" << s.n;
    EXPECT_EQ(fast->rows(), s.m);
    EXPECT_EQ(fast->cols(), s.n);
    // Summation order differs between the variants, so compare to
    // rounding error (k accumulations of O(1) terms).
    EXPECT_LT(reference->MaxAbsDiff(*fast), 1e-10)
        << s.m << "x" << s.k << "x" << s.n;
  }
}

// blocked::Multiply run on a thread of its own, whose GEMM workspace
// starts empty: the panels are sized exactly for this one call.
Matrix MultiplyOnFreshThread(const Matrix& a, const Matrix& b) {
  Matrix product;
  std::thread([&] {
    auto c = blocked::Multiply(a, b);
    if (c.ok()) product = std::move(*c);
  }).join();
  return product;
}

bool SameBytes(const Matrix& x, const Matrix& y) {
  return x.rows() == y.rows() && x.cols() == y.cols() &&
         std::memcmp(x.data(), y.data(),
                     static_cast<size_t>(x.size()) * sizeof(double)) == 0;
}

// The workspace a thread keeps between calls holds stale panels from
// larger products; packing must overwrite every slot it later reads,
// so each result is byte-identical to a call on a cold thread.
TEST(KernelsTest, WorkspaceReuseChangesNoResult) {
  const std::vector<MatmulShape> sequence = {
      {300, 257, 2100},  // crosses both KC and NC
      {5, 3, 17},        // ragged i and j edges, padded B slab
      {1, 1, 1},
      {192, 192, 192},
      {5, 3, 17},        // again, now after the larger panels
  };
  for (const MatmulShape& s : sequence) {
    const Matrix a = RandomMatrix(s.m, s.k, 3000 + s.m);
    const Matrix b = RandomMatrix(s.k, s.n, 4000 + s.n);
    auto warm = blocked::Multiply(a, b);
    ASSERT_TRUE(warm.ok());
    EXPECT_TRUE(SameBytes(*warm, MultiplyOnFreshThread(a, b)))
        << s.m << "x" << s.k << "x" << s.n;
    auto reference = naive::Multiply(a, b);
    ASSERT_TRUE(reference.ok());
    EXPECT_LT(reference->MaxAbsDiff(*warm), 1e-10)
        << s.m << "x" << s.k << "x" << s.n;
  }
}

// Workspaces are per thread: four threads cycling through mixed shapes
// (each from a different starting shape, so their panel histories
// differ) all reproduce the single-thread bytes.
TEST(KernelsTest, ConcurrentThreadsMatchSingleThreadBytes) {
  std::vector<MatmulShape> shapes = kMatmulShapes;
  shapes.push_back({4, 260, 2100});
  shapes.push_back({192, 192, 192});
  std::vector<Matrix> as, bs, expected;
  for (const MatmulShape& s : shapes) {
    as.push_back(RandomMatrix(s.m, s.k, 5000 + s.m));
    bs.push_back(RandomMatrix(s.k, s.n, 6000 + s.n));
    auto c = blocked::Multiply(as.back(), bs.back());
    ASSERT_TRUE(c.ok());
    expected.push_back(std::move(*c));
  }
  constexpr int kThreads = 4;
  constexpr int kRounds = 3;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t step = 0; step < kRounds * shapes.size(); ++step) {
        const size_t i = (step + static_cast<size_t>(t) * 5) % shapes.size();
        auto c = blocked::Multiply(as[i], bs[i]);
        if (!c.ok() || !SameBytes(*c, expected[i])) ++mismatches[t];
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
  }
}

TEST(KernelsTest, BlockedMultiplyHandlesEmptyOperands) {
  // k = 0: a well-formed product of all zeros.
  auto zero_k = blocked::Multiply(Matrix(5, 0), Matrix(0, 3));
  ASSERT_TRUE(zero_k.ok());
  EXPECT_EQ(zero_k->rows(), 5);
  EXPECT_EQ(zero_k->cols(), 3);
  for (int64_t i = 0; i < zero_k->size(); ++i) {
    EXPECT_EQ(zero_k->data()[i], 0.0);
  }
  // Empty result shapes.
  auto zero_m = blocked::Multiply(Matrix(0, 4), Matrix(4, 3));
  ASSERT_TRUE(zero_m.ok());
  EXPECT_EQ(zero_m->rows(), 0);
  auto zero_n = blocked::Multiply(Matrix(3, 4), Matrix(4, 0));
  ASSERT_TRUE(zero_n.ok());
  EXPECT_EQ(zero_n->cols(), 0);
}

TEST(KernelsTest, BlockedMultiplyRejectsInnerMismatch) {
  EXPECT_FALSE(blocked::Multiply(Matrix(2, 3), Matrix(2, 3)).ok());
  EXPECT_FALSE(naive::Multiply(Matrix(2, 3), Matrix(2, 3)).ok());
}

TEST(KernelsTest, BlockedAddBitIdenticalToNaive) {
  const std::vector<std::pair<int64_t, int64_t>> shapes = {
      {1, 1}, {3, 7}, {8, 8}, {5, 1023}, {127, 3}, {0, 0}, {0, 5}};
  for (const auto& [rows, cols] : shapes) {
    const Matrix a = RandomMatrix(rows, cols, 31 + rows);
    const Matrix b = RandomMatrix(rows, cols, 77 + cols);
    auto reference = naive::Add(a, b);
    auto fast = blocked::Add(a, b);
    ASSERT_TRUE(reference.ok());
    ASSERT_TRUE(fast.ok());
    ASSERT_EQ(fast->rows(), rows);
    ASSERT_EQ(fast->cols(), cols);
    for (int64_t i = 0; i < reference->size(); ++i) {
      // Same addition order => exactly the same doubles.
      EXPECT_EQ(reference->data()[i], fast->data()[i]);
    }
  }
}

TEST(KernelsTest, BlockedAddRejectsShapeMismatch) {
  EXPECT_FALSE(blocked::Add(Matrix(2, 2), Matrix(2, 3)).ok());
}

TEST(KernelsTest, BlockedTransposeBitIdenticalToNaive) {
  // Tile-multiple, ragged, and degenerate shapes (tile is 64x64).
  const std::vector<std::pair<int64_t, int64_t>> shapes = {
      {1, 1}, {64, 64}, {128, 64}, {65, 63}, {1, 200}, {200, 1},
      {0, 0}, {0, 7},   {7, 0},    {100, 259}};
  for (const auto& [rows, cols] : shapes) {
    const Matrix m = RandomMatrix(rows, cols, 11 + rows * 7 + cols);
    const Matrix reference = naive::Transpose(m);
    const Matrix fast = blocked::Transpose(m);
    ASSERT_EQ(fast.rows(), cols);
    ASSERT_EQ(fast.cols(), rows);
    for (int64_t i = 0; i < reference.size(); ++i) {
      EXPECT_EQ(reference.data()[i], fast.data()[i]);
    }
  }
}

TEST(KernelsTest, TransposeRoundTripIsIdentity) {
  const Matrix m = RandomMatrix(37, 91, 5);
  const Matrix round_trip = blocked::Transpose(blocked::Transpose(m));
  ASSERT_EQ(round_trip.rows(), m.rows());
  ASSERT_EQ(round_trip.cols(), m.cols());
  for (int64_t i = 0; i < m.size(); ++i) {
    EXPECT_EQ(round_trip.data()[i], m.data()[i]);
  }
}

TEST(KernelsTest, DispatchDefaultsToBlocked) {
  EXPECT_EQ(DefaultKernelVariant(), KernelVariant::kBlocked);
}

TEST(KernelsTest, DispatchFollowsSelectedVariant) {
  const Matrix a = RandomMatrix(33, 47, 1);
  const Matrix b = RandomMatrix(47, 29, 2);

  SetDefaultKernelVariant(KernelVariant::kNaive);
  auto via_naive = Multiply(a, b);
  SetDefaultKernelVariant(KernelVariant::kBlocked);
  auto via_blocked = Multiply(a, b);

  ASSERT_TRUE(via_naive.ok());
  ASSERT_TRUE(via_blocked.ok());
  auto reference = naive::Multiply(a, b);
  auto fast = blocked::Multiply(a, b);
  ASSERT_TRUE(reference.ok());
  ASSERT_TRUE(fast.ok());
  // Pinning the variant reproduces that variant's exact doubles.
  for (int64_t i = 0; i < reference->size(); ++i) {
    EXPECT_EQ(via_naive->data()[i], reference->data()[i]);
    EXPECT_EQ(via_blocked->data()[i], fast->data()[i]);
  }
}

TEST(KernelsDeathTest, MatrixRejectsNegativeDimensions) {
  EXPECT_DEATH(Matrix(-1, 3), "non-negative");
  EXPECT_DEATH(Matrix(3, -2), "non-negative");
}

TEST(KernelsDeathTest, MatrixRejectsElementCountOverflow) {
  // 2^32 x 2^32 overflows int64_t element count (the historic bug:
  // rows * cols multiplied in int64_t before the size_t cast).
  const int64_t big = int64_t{1} << 32;
  EXPECT_DEATH(Matrix(big, big), "overflow");
}

}  // namespace
}  // namespace taskbench::data
