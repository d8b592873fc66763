#include "data/kernels.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <thread>
#include <utility>
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

// blocked::KMeansPartialSum against the reference loop, byte for
// byte: row counts around the 8-row tile (none, ragged, one and two
// full tiles, many), feature counts that the tile never splits (none
// too: every distance is 0, so every row joins cluster 0), and cluster
// counts around the 4-lane centroid tile.
TEST(KernelsTest, KMeansPartialSumBlockedBytesEqualNaive) {
  for (const int64_t rows : {0, 1, 7, 8, 9, 15, 16, 1024, 1031}) {
    for (const int64_t features : {0, 1, 3, 6, 32, 33}) {
      for (const int64_t k : {1, 2, 3, 4, 5, 8, 9, 13}) {
        const Matrix block = RandomMatrix(rows, features, 7000 + rows);
        const Matrix centroids = RandomMatrix(k, features, 8000 + k);
        auto reference = naive::KMeansPartialSum(block, centroids);
        auto fast = blocked::KMeansPartialSum(block, centroids);
        ASSERT_TRUE(reference.ok() && fast.ok());
        ASSERT_EQ(reference->rows(), k);
        ASSERT_EQ(reference->cols(), features + 1);
        EXPECT_TRUE(SameBytes(*fast, *reference))
            << rows << " rows x " << features << " features, k = " << k;
      }
    }
  }
}

// Rows drawn near the centroids, so each cluster receives rows and the
// partial's counts and sums are all exercised, not only cluster 0's.
Matrix RowsNearCentroids(const Matrix& centroids, int64_t rows,
                         uint64_t seed) {
  const Matrix noise = RandomMatrix(rows, centroids.cols(), seed);
  Matrix block(rows, centroids.cols());
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t f = 0; f < centroids.cols(); ++f) {
      block.At(r, f) = centroids.At(r % centroids.rows(), f) +
                       0.1 * noise.At(r, f);
    }
  }
  return block;
}

// Rows equidistant, in exact arithmetic, from every centroid: each
// centroid is a cyclic shift of one base vector and each row is
// constant, so a row's k distances add up the same squares in k
// different orders. Rounding alone picks the winner, so the assignment
// is a fingerprint of the operation sequence: a kernel that sums the
// features in another order, or fuses a multiply-add, sends some rows
// elsewhere. Random rows almost never come this close to a tie.
TEST(KernelsTest, KMeansPartialSumRoundingDecidesNearTies) {
  for (const int64_t features : {7, 32, 33}) {
    for (const int64_t k : {4, 9}) {
      const Matrix base = RandomMatrix(1, features, 9600 + features);
      Matrix centroids(k, features);
      for (int64_t c = 0; c < k; ++c) {
        for (int64_t f = 0; f < features; ++f) {
          centroids.At(c, f) = base.At(0, (f + c) % features);
        }
      }
      const Matrix values = RandomMatrix(1031, 1, 9700 + k);
      Matrix block(1031, features);
      for (int64_t r = 0; r < block.rows(); ++r) {
        for (int64_t f = 0; f < features; ++f) {
          block.At(r, f) = values.At(r, 0);
        }
      }
      auto reference = naive::KMeansPartialSum(block, centroids);
      auto fast = blocked::KMeansPartialSum(block, centroids);
      ASSERT_TRUE(reference.ok() && fast.ok());
      EXPECT_TRUE(SameBytes(*fast, *reference))
          << features << " features, k = " << k;
      // Rounding, not the tie rule, decided: rows left cluster 0.
      int receiving = 0;
      for (int64_t c = 0; c < k; ++c) {
        if (reference->At(c, features) > 0) ++receiving;
      }
      EXPECT_GE(receiving, 2) << features << " features, k = " << k;
    }
  }
}

// Duplicate centroids tie on every distance: the lowest index wins, so
// the later copies receive nothing. Both within one 4-lane tile and
// across tiles.
TEST(KernelsTest, KMeansPartialSumTieGoesToTheLowestIndex) {
  Matrix centroids = RandomMatrix(9, 5, 9100);
  for (int64_t f = 0; f < 5; ++f) {
    centroids.At(2, f) = centroids.At(1, f);  // same tile as 1
    centroids.At(6, f) = centroids.At(1, f);  // the next tile
    centroids.At(8, f) = centroids.At(4, f);  // third tile, copy of 4
  }
  const Matrix block = RowsNearCentroids(centroids, 37, 9101);
  auto reference = naive::KMeansPartialSum(block, centroids);
  auto fast = blocked::KMeansPartialSum(block, centroids);
  ASSERT_TRUE(reference.ok() && fast.ok());
  EXPECT_TRUE(SameBytes(*fast, *reference));
  EXPECT_GT(fast->At(1, 5), 0.0);
  EXPECT_GT(fast->At(4, 5), 0.0);
  EXPECT_EQ(fast->At(2, 5), 0.0);
  EXPECT_EQ(fast->At(6, 5), 0.0);
  EXPECT_EQ(fast->At(8, 5), 0.0);
}

// NaN and infinite inputs: a NaN distance never wins, so a row whose
// distances are all NaN joins cluster 0 and poisons its sums; a NaN
// centroid receives no rows; an infinite feature makes every distance
// +inf, which never wins either. Each case on its own, then mixed.
TEST(KernelsTest, KMeansPartialSumNaNAndInfinityMatchNaive) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const Matrix base_centroids = RandomMatrix(6, 4, 9200);
  const Matrix base_block = RowsNearCentroids(base_centroids, 19, 9201);
  struct Case {
    const char* name;
    std::vector<std::pair<int64_t, int64_t>> block_cells;
    std::vector<std::pair<int64_t, int64_t>> centroid_cells;
    double value;
  };
  const std::vector<Case> cases = {
      {"NaN in a row", {{3, 2}}, {}, nan},
      {"NaN in a centroid", {}, {{1, 0}}, nan},
      {"NaN rows in full and ragged tiles", {{0, 1}, {9, 3}, {17, 0}}, {}, nan},
      {"+inf in a row", {{5, 1}, {16, 2}}, {}, inf},
      {"-inf in a row", {{2, 0}}, {}, -inf},
      {"+inf in a centroid", {}, {{4, 3}}, inf},
      {"-inf in every centroid", {}, {{0, 0}, {1, 1}, {2, 2}, {3, 3},
                                      {4, 0}, {5, 1}}, -inf},
  };
  for (const Case& c : cases) {
    Matrix block = base_block;
    Matrix centroids = base_centroids;
    for (const auto& [r, f] : c.block_cells) block.At(r, f) = c.value;
    for (const auto& [r, f] : c.centroid_cells) centroids.At(r, f) = c.value;
    auto reference = naive::KMeansPartialSum(block, centroids);
    auto fast = blocked::KMeansPartialSum(block, centroids);
    ASSERT_TRUE(reference.ok() && fast.ok()) << c.name;
    EXPECT_TRUE(SameBytes(*fast, *reference)) << c.name;
  }
  // A row of NaNs has no distance that wins: it goes to cluster 0.
  Matrix block = base_block;
  for (int64_t f = 0; f < 4; ++f) block.At(10, f) = nan;
  auto fast = blocked::KMeansPartialSum(block, base_centroids);
  ASSERT_TRUE(fast.ok());
  EXPECT_TRUE(std::isnan(fast->At(0, 0)));
  for (int64_t c = 1; c < 6; ++c) EXPECT_FALSE(std::isnan(fast->At(c, 0)));
  // A centroid with a NaN feature is never the nearest.
  Matrix centroids = base_centroids;
  centroids.At(3, 2) = nan;
  fast = blocked::KMeansPartialSum(base_block, centroids);
  ASSERT_TRUE(fast.ok());
  EXPECT_EQ(fast->At(3, 4), 0.0);
}

TEST(KernelsTest, KMeansPartialSumDispatchFollowsSelectedVariant) {
  const Matrix centroids = RandomMatrix(5, 7, 9300);
  const Matrix block = RowsNearCentroids(centroids, 45, 9301);
  auto reference = naive::KMeansPartialSum(block, centroids);
  ASSERT_TRUE(reference.ok());
  SetDefaultKernelVariant(KernelVariant::kNaive);
  auto via_naive = KMeansPartialSum(block, centroids);
  SetDefaultKernelVariant(KernelVariant::kBlocked);
  auto via_blocked = KMeansPartialSum(block, centroids);
  ASSERT_TRUE(via_naive.ok() && via_blocked.ok());
  EXPECT_TRUE(SameBytes(*via_naive, *reference));
  EXPECT_TRUE(SameBytes(*via_blocked, *reference));
}

TEST(KernelsTest, KMeansPartialSumRejectsBadShapes) {
  for (const KernelVariant variant :
       {KernelVariant::kNaive, KernelVariant::kBlocked}) {
    SetDefaultKernelVariant(variant);
    auto mismatch = KMeansPartialSum(Matrix(4, 3), Matrix(2, 5));
    ASSERT_FALSE(mismatch.ok());
    EXPECT_EQ(mismatch.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(mismatch.status().message(),
              "feature mismatch: block has 3 features, centroids 5");
    // Rows with no centroid to join are rejected, not written past
    // the empty partial; no rows and no centroids is an empty partial.
    auto no_centroids = KMeansPartialSum(Matrix(4, 3), Matrix(0, 3));
    ASSERT_FALSE(no_centroids.ok());
    EXPECT_EQ(no_centroids.status().code(), StatusCode::kInvalidArgument);
    auto empty = KMeansPartialSum(Matrix(0, 3), Matrix(0, 3));
    ASSERT_TRUE(empty.ok());
    EXPECT_EQ(empty->rows(), 0);
    EXPECT_EQ(empty->cols(), 4);
  }
  SetDefaultKernelVariant(KernelVariant::kBlocked);
}

// The kernel keeps no state between calls: two threads cycling
// through shapes reproduce the single-thread bytes.
TEST(KernelsTest, KMeansPartialSumConcurrentThreadsMatchSingleThreadBytes) {
  struct Shape {
    int64_t rows, features, k;
  };
  const std::vector<Shape> shapes = {
      {1024, 32, 4}, {16, 6, 4}, {15, 2, 3}, {1031, 33, 13}, {9, 5, 2}};
  std::vector<Matrix> blocks, centroids, expected;
  for (const Shape& s : shapes) {
    centroids.push_back(RandomMatrix(s.k, s.features, 9400 + s.k));
    blocks.push_back(RowsNearCentroids(centroids.back(), s.rows, 9500));
    auto p = naive::KMeansPartialSum(blocks.back(), centroids.back());
    ASSERT_TRUE(p.ok());
    expected.push_back(std::move(*p));
  }
  constexpr int kThreads = 2;
  constexpr int kRounds = 4;
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t step = 0; step < kRounds * shapes.size(); ++step) {
        const size_t i = (step + static_cast<size_t>(t) * 2) % shapes.size();
        auto p = blocked::KMeansPartialSum(blocks[i], centroids[i]);
        if (!p.ok() || !SameBytes(*p, expected[i])) ++mismatches[t];
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
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
