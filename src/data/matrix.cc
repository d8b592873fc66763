#include "data/matrix.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"
#include "common/strings.h"
#include "data/kernels.h"

namespace taskbench::data {

namespace {

// rows * cols, rejecting negative dimensions and products that
// overflow int64_t before the multiply happens.
size_t CheckedElementCount(int64_t rows, int64_t cols) {
  TB_CHECK(rows >= 0 && cols >= 0)
      << "matrix dimensions must be non-negative, got " << rows << "x" << cols;
  TB_CHECK(rows == 0 || cols <= std::numeric_limits<int64_t>::max() / rows)
      << "matrix dimensions overflow: " << rows << "x" << cols;
  return static_cast<size_t>(rows) * static_cast<size_t>(cols);
}

}  // namespace

Matrix::Matrix(int64_t rows, int64_t cols, double fill)
    : rows_(rows), cols_(cols), data_(CheckedElementCount(rows, cols), fill) {}

Matrix Matrix::Uninitialized(int64_t rows, int64_t cols) {
  Matrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.data_.resize(CheckedElementCount(rows, cols));
  return m;
}

Result<Matrix> Matrix::Slice(int64_t row0, int64_t col0, int64_t rows,
                             int64_t cols) const {
  if (row0 < 0 || col0 < 0 || rows < 0 || cols < 0 || row0 + rows > rows_ ||
      col0 + cols > cols_) {
    return Status::InvalidArgument(StrFormat(
        "slice [%lld+%lld, %lld+%lld) out of bounds for %lldx%lld matrix",
        static_cast<long long>(row0), static_cast<long long>(rows),
        static_cast<long long>(col0), static_cast<long long>(cols),
        static_cast<long long>(rows_), static_cast<long long>(cols_)));
  }
  Matrix out(rows, cols);
  for (int64_t r = 0; r < rows; ++r) {
    const double* src = data_.data() + (row0 + r) * cols_ + col0;
    std::copy(src, src + cols, out.data_.data() + r * cols);
  }
  return out;
}

Status Matrix::AssignSlice(int64_t row0, int64_t col0, const Matrix& block) {
  if (row0 < 0 || col0 < 0 || row0 + block.rows() > rows_ ||
      col0 + block.cols() > cols_) {
    return Status::InvalidArgument(StrFormat(
        "assign of %lldx%lld block at (%lld,%lld) out of bounds for "
        "%lldx%lld matrix",
        static_cast<long long>(block.rows()),
        static_cast<long long>(block.cols()), static_cast<long long>(row0),
        static_cast<long long>(col0), static_cast<long long>(rows_),
        static_cast<long long>(cols_)));
  }
  for (int64_t r = 0; r < block.rows(); ++r) {
    const double* src = block.data_.data() + r * block.cols();
    std::copy(src, src + block.cols(),
              data_.data() + (row0 + r) * cols_ + col0);
  }
  return Status::OK();
}

double Matrix::MaxAbsDiff(const Matrix& other) const {
  if (rows_ != other.rows_ || cols_ != other.cols_) {
    return std::numeric_limits<double>::infinity();
  }
  double max_diff = 0.0;
  for (size_t i = 0; i < data_.size(); ++i) {
    max_diff = std::max(max_diff, std::fabs(data_[i] - other.data_[i]));
  }
  return max_diff;
}

bool Matrix::ApproxEquals(const Matrix& other, double tolerance) const {
  return MaxAbsDiff(other) <= tolerance;
}

double Matrix::Sum() const {
  double sum = 0.0;
  for (double v : data_) sum += v;
  return sum;
}

// Reference kernels (the pre-fast-path implementations). They live
// here, not in kernels.cc, so they are always compiled with the
// project's default flags and stay an honest benchmark baseline; the
// dispatching data::Multiply / data::Add / data::Transpose /
// data::KMeansPartialSum are in kernels.cc. On x86-64 the default
// flags have no FMA, so every multiply and add here rounds on its
// own, which is what blocked::KMeansPartialSum reproduces.
namespace naive {

Result<Matrix> Multiply(const Matrix& a, const Matrix& b) {
  if (a.cols() != b.rows()) {
    return Status::InvalidArgument(StrFormat(
        "matmul inner dimension mismatch: %lldx%lld * %lldx%lld",
        static_cast<long long>(a.rows()), static_cast<long long>(a.cols()),
        static_cast<long long>(b.rows()), static_cast<long long>(b.cols())));
  }
  Matrix c(a.rows(), b.cols(), 0.0);
  // i-k-j loop order streams B and C rows, which keeps the inner loop
  // vectorizable.
  for (int64_t i = 0; i < a.rows(); ++i) {
    for (int64_t k = 0; k < a.cols(); ++k) {
      const double aik = a.At(i, k);
      const double* b_row = b.data() + k * b.cols();
      double* c_row = c.data() + i * c.cols();
      for (int64_t j = 0; j < b.cols(); ++j) {
        c_row[j] += aik * b_row[j];
      }
    }
  }
  return c;
}

Result<Matrix> Add(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    return Status::InvalidArgument(StrFormat(
        "add shape mismatch: %lldx%lld + %lldx%lld",
        static_cast<long long>(a.rows()), static_cast<long long>(a.cols()),
        static_cast<long long>(b.rows()), static_cast<long long>(b.cols())));
  }
  Matrix c(a.rows(), a.cols());
  const double* pa = a.data();
  const double* pb = b.data();
  double* pc = c.data();
  for (int64_t i = 0; i < a.size(); ++i) pc[i] = pa[i] + pb[i];
  return c;
}

Matrix Transpose(const Matrix& m) {
  Matrix out(m.cols(), m.rows());
  for (int64_t r = 0; r < m.rows(); ++r) {
    for (int64_t c = 0; c < m.cols(); ++c) {
      out.At(c, r) = m.At(r, c);
    }
  }
  return out;
}

Result<Matrix> KMeansPartialSum(const Matrix& block, const Matrix& centroids) {
  if (block.cols() != centroids.cols()) {
    return Status::InvalidArgument(StrFormat(
        "feature mismatch: block has %lld features, centroids %lld",
        static_cast<long long>(block.cols()),
        static_cast<long long>(centroids.cols())));
  }
  if (centroids.rows() == 0 && block.rows() > 0) {
    return Status::InvalidArgument(
        StrFormat("no centroids to assign %lld rows to",
                  static_cast<long long>(block.rows())));
  }
  const int64_t k = centroids.rows();
  const int64_t n = block.cols();
  Matrix partial(k, n + 1, 0.0);
  for (int64_t r = 0; r < block.rows(); ++r) {
    int64_t best = 0;
    double best_dist = std::numeric_limits<double>::infinity();
    for (int64_t c = 0; c < k; ++c) {
      double dist = 0;
      for (int64_t f = 0; f < n; ++f) {
        const double d = block.At(r, f) - centroids.At(c, f);
        dist += d * d;
      }
      if (dist < best_dist) {
        best_dist = dist;
        best = c;
      }
    }
    for (int64_t f = 0; f < n; ++f) {
      partial.At(best, f) += block.At(r, f);
    }
    partial.At(best, n) += 1.0;
  }
  return partial;
}

}  // namespace naive

}  // namespace taskbench::data
