#include "data/matrix.h"

#include <cmath>

#include <gtest/gtest.h>

namespace taskbench::data {
namespace {

TEST(MatrixTest, ConstructsWithFill) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 3);
  EXPECT_EQ(m.size(), 6);
  EXPECT_EQ(m.bytes(), 48u);
  for (int64_t r = 0; r < 2; ++r) {
    for (int64_t c = 0; c < 3; ++c) EXPECT_EQ(m.At(r, c), 1.5);
  }
}

TEST(MatrixTest, UninitializedHasTheShapeAndTakesWrites) {
  Matrix m = Matrix::Uninitialized(3, 4);
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 4);
  EXPECT_EQ(m.bytes(), 96u);
  for (int64_t i = 0; i < m.size(); ++i) m.data()[i] = 2.0;
  EXPECT_TRUE(m == Matrix(3, 4, 2.0));
  Matrix copy = m;  // copies keep the values
  EXPECT_TRUE(copy == m);
}

TEST(MatrixTest, DefaultIsEmpty) {
  Matrix m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.bytes(), 0u);
}

TEST(MatrixTest, SliceExtractsWindow) {
  Matrix m(4, 4);
  for (int64_t r = 0; r < 4; ++r) {
    for (int64_t c = 0; c < 4; ++c) m.At(r, c) = r * 10.0 + c;
  }
  auto slice = m.Slice(1, 2, 2, 2);
  ASSERT_TRUE(slice.ok());
  EXPECT_EQ(slice->rows(), 2);
  EXPECT_EQ(slice->At(0, 0), 12.0);
  EXPECT_EQ(slice->At(1, 1), 23.0);
}

TEST(MatrixTest, SliceOutOfBoundsFails) {
  Matrix m(3, 3);
  EXPECT_FALSE(m.Slice(2, 2, 2, 2).ok());
  EXPECT_FALSE(m.Slice(-1, 0, 1, 1).ok());
  EXPECT_TRUE(m.Slice(0, 0, 3, 3).ok());
}

TEST(MatrixTest, AssignSliceRoundTrip) {
  Matrix m(4, 4, 0.0);
  Matrix block(2, 2, 7.0);
  ASSERT_TRUE(m.AssignSlice(1, 1, block).ok());
  EXPECT_EQ(m.At(1, 1), 7.0);
  EXPECT_EQ(m.At(2, 2), 7.0);
  EXPECT_EQ(m.At(0, 0), 0.0);
  EXPECT_EQ(m.At(3, 3), 0.0);
}

TEST(MatrixTest, AssignSliceOutOfBoundsFails) {
  Matrix m(3, 3);
  Matrix block(2, 2);
  EXPECT_FALSE(m.AssignSlice(2, 2, block).ok());
}

TEST(MatrixTest, ApproxEquals) {
  Matrix a(2, 2, 1.0);
  Matrix b(2, 2, 1.0);
  b.At(1, 1) += 1e-12;
  EXPECT_TRUE(a.ApproxEquals(b, 1e-9));
  b.At(1, 1) += 1.0;
  EXPECT_FALSE(a.ApproxEquals(b, 1e-9));
  EXPECT_NEAR(a.MaxAbsDiff(b), 1.0, 1e-9);
}

TEST(MatrixTest, MaxAbsDiffShapeMismatchIsInfinite) {
  Matrix a(2, 2);
  Matrix b(2, 3);
  EXPECT_TRUE(std::isinf(a.MaxAbsDiff(b)));
}

TEST(MatrixTest, MultiplyMatchesHandComputation) {
  Matrix a(2, 3);
  Matrix b(3, 2);
  // a = [1 2 3; 4 5 6], b = [7 8; 9 10; 11 12]
  double va = 1;
  for (int64_t r = 0; r < 2; ++r)
    for (int64_t c = 0; c < 3; ++c) a.At(r, c) = va++;
  double vb = 7;
  for (int64_t r = 0; r < 3; ++r)
    for (int64_t c = 0; c < 2; ++c) b.At(r, c) = vb++;
  auto c = Multiply(a, b);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->At(0, 0), 58.0);
  EXPECT_EQ(c->At(0, 1), 64.0);
  EXPECT_EQ(c->At(1, 0), 139.0);
  EXPECT_EQ(c->At(1, 1), 154.0);
}

TEST(MatrixTest, MultiplyDimensionMismatchFails) {
  EXPECT_FALSE(Multiply(Matrix(2, 3), Matrix(2, 3)).ok());
}

TEST(MatrixTest, MultiplyIdentityIsNoop) {
  Matrix a(3, 3);
  for (int64_t r = 0; r < 3; ++r)
    for (int64_t c = 0; c < 3; ++c) a.At(r, c) = r * 3.0 + c;
  Matrix eye(3, 3, 0.0);
  for (int64_t i = 0; i < 3; ++i) eye.At(i, i) = 1.0;
  auto c = Multiply(a, eye);
  ASSERT_TRUE(c.ok());
  EXPECT_TRUE(c->ApproxEquals(a));
}

TEST(MatrixTest, AddElementwise) {
  Matrix a(2, 2, 1.0);
  Matrix b(2, 2, 2.5);
  auto c = Add(a, b);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->At(0, 0), 3.5);
  EXPECT_EQ(c->At(1, 1), 3.5);
}

TEST(MatrixTest, AddShapeMismatchFails) {
  EXPECT_FALSE(Add(Matrix(2, 2), Matrix(2, 3)).ok());
}

TEST(MatrixTest, SumAccumulatesAll) {
  Matrix m(3, 3, 2.0);
  EXPECT_DOUBLE_EQ(m.Sum(), 18.0);
}

}  // namespace
}  // namespace taskbench::data
