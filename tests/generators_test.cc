#include "data/generators.h"

#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace taskbench::data {
namespace {

Matrix Filled(uint64_t seed, int64_t rows = 64, int64_t cols = 16) {
  Matrix m(rows, cols);
  Rng rng(seed);
  FillUniform(&m, &rng);
  return m;
}

TEST(GeneratorsTest, UniformIsDeterministicPerSeed) {
  EXPECT_TRUE(Filled(42).ApproxEquals(Filled(42), 0));
  EXPECT_FALSE(Filled(42).ApproxEquals(Filled(43), 0));
}

TEST(GeneratorsTest, UniformValuesInUnitInterval) {
  const Matrix m = Filled(1);
  for (int64_t i = 0; i < m.size(); ++i) {
    EXPECT_GE(m.data()[i], 0.0);
    EXPECT_LT(m.data()[i], 1.0);
  }
}

TEST(GeneratorsTest, BlockValuesIndependentOfPartitioning) {
  // The algos seed one Rng per block and the fillers keep no state of
  // their own, so filling the blocks in reverse order gives the same
  // block-for-block values.
  constexpr int kBlocks = 8;
  std::vector<Matrix> forward, backward(kBlocks);
  for (int b = 0; b < kBlocks; ++b) {
    Matrix m(8, 16);
    Rng rng(7 ^ (static_cast<uint64_t>(b) * 0x9e3779b9ULL));
    FillGaussianBlobs(&m, &rng, 3);
    forward.push_back(std::move(m));
  }
  for (int b = kBlocks - 1; b >= 0; --b) {
    Matrix m(8, 16);
    Rng rng(7 ^ (static_cast<uint64_t>(b) * 0x9e3779b9ULL));
    FillGaussianBlobs(&m, &rng, 3);
    backward[static_cast<size_t>(b)] = std::move(m);
  }
  for (int b = 0; b < kBlocks; ++b) {
    EXPECT_TRUE(forward[static_cast<size_t>(b)].ApproxEquals(
        backward[static_cast<size_t>(b)], 0))
        << "block " << b;
  }
}

TEST(GeneratorsTest, SkewZeroMatchesUniformStatistics) {
  Matrix u(100, 100);
  Matrix s(100, 100);
  Rng r1(5), r2(5);
  FillUniform(&u, &r1);
  FillSkewed(&s, &r2, 0.0);
  // skew=0 draws one extra uniform per element, so streams differ,
  // but the distribution support is identical.
  for (int64_t i = 0; i < s.size(); ++i) {
    EXPECT_GE(s.data()[i], 0.0);
    EXPECT_LT(s.data()[i], 1.0);
  }
}

TEST(GeneratorsTest, SkewConcentratesMass) {
  Matrix s(200, 200);
  Rng rng(5);
  FillSkewed(&s, &rng, 0.5);
  // Half the elements land within +-0.01 of 4 attractor points; count
  // elements near them.
  const double regions[] = {0.1, 0.35, 0.6, 0.85};
  int near = 0;
  for (int64_t i = 0; i < s.size(); ++i) {
    for (double c : regions) {
      if (std::abs(s.data()[i] - c) <= 0.0101) {
        ++near;
        break;
      }
    }
  }
  const double fraction = static_cast<double>(near) /
                          static_cast<double>(s.size());
  // 50% skewed + ~8% of uniform mass falling in the bands.
  EXPECT_GT(fraction, 0.45);
  EXPECT_LT(fraction, 0.65);
}

TEST(GeneratorsTest, BlobsClusterAroundCenters) {
  Matrix m(3000, 4);
  Rng rng(9);
  FillGaussianBlobs(&m, &rng, 3);
  // Every sample within ~6 sigma of one of 3 centers in [-10,10]^4:
  // values bounded.
  for (int64_t i = 0; i < m.size(); ++i) {
    EXPECT_LT(std::abs(m.data()[i]), 20.0);
  }
}

TEST(GeneratorsTest, SkewedIsDeterministicPerSeed) {
  Matrix a(64, 16), b(64, 16);
  Rng ra(42), rb(42);
  FillSkewed(&a, &ra, 0.5);
  FillSkewed(&b, &rb, 0.5);
  EXPECT_TRUE(a.ApproxEquals(b, 0));
}

TEST(GeneratorsTest, BlobsUseSameCentersAcrossBlocks) {
  // The centers come from a fixed stream inside FillGaussianBlobs, not
  // from the caller's Rng: with one center, blocks drawn from unrelated
  // sample streams share each feature's mean up to the N(0, 1) noise
  // (standard error 1/16 at 256 rows).
  std::vector<double> first_means;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    Matrix m(256, 4);
    Rng rng(seed);
    FillGaussianBlobs(&m, &rng, 1);
    for (int64_t c = 0; c < m.cols(); ++c) {
      double mean = 0;
      for (int64_t r = 0; r < m.rows(); ++r) mean += m.At(r, c);
      mean /= static_cast<double>(m.rows());
      if (seed == 1) {
        first_means.push_back(mean);
      } else {
        EXPECT_NEAR(mean, first_means[static_cast<size_t>(c)], 0.5)
            << "seed " << seed << " feature " << c;
      }
    }
  }
}

}  // namespace
}  // namespace taskbench::data
