#ifndef TASKBENCH_DATA_MATRIX_H_
#define TASKBENCH_DATA_MATRIX_H_

#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace taskbench::data {

/// A dense row-major matrix of float64 values — the in-memory block
/// representation (the paper's datasets are NumPy float64 arrays,
/// Section 4.4.5).
class Matrix {
 public:
  /// An empty 0x0 matrix.
  Matrix() = default;
  /// A rows x cols matrix initialized to `fill`.
  Matrix(int64_t rows, int64_t cols, double fill = 0.0);
  /// A rows x cols matrix whose elements are left unset, for callers
  /// that overwrite every one (a fill they overwrite costs as much as
  /// a copy).
  static Matrix Uninitialized(int64_t rows, int64_t cols);

  Matrix(const Matrix&) = default;
  Matrix& operator=(const Matrix&) = default;
  Matrix(Matrix&&) noexcept = default;
  Matrix& operator=(Matrix&&) noexcept = default;

  int64_t rows() const { return rows_; }
  int64_t cols() const { return cols_; }
  int64_t size() const { return rows_ * cols_; }
  bool empty() const { return size() == 0; }
  /// Serialized size: float64 payload bytes.
  uint64_t bytes() const { return static_cast<uint64_t>(size()) * 8; }

  double& At(int64_t r, int64_t c) { return data_[r * cols_ + c]; }
  double At(int64_t r, int64_t c) const { return data_[r * cols_ + c]; }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  /// Copies the [row0, row0+rows) x [col0, col0+cols) window.
  /// Fails when the window exceeds the matrix bounds.
  Result<Matrix> Slice(int64_t row0, int64_t col0, int64_t rows,
                       int64_t cols) const;

  /// Writes `block` at offset (row0, col0). Fails when out of bounds.
  Status AssignSlice(int64_t row0, int64_t col0, const Matrix& block);

  /// Element-wise maximum absolute difference; infinity on shape
  /// mismatch.
  double MaxAbsDiff(const Matrix& other) const;

  /// True when shapes match and all elements differ by <= tolerance.
  bool ApproxEquals(const Matrix& other, double tolerance = 1e-9) const;

  /// Sum of all elements (test/diagnostic helper).
  double Sum() const;

  bool operator==(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_ &&
           data_ == other.data_;
  }

 private:
  /// Default-initializes where std::allocator value-initializes, so
  /// resize(n) leaves the new doubles unset instead of zeroing them.
  template <typename T>
  struct DefaultInitAllocator : std::allocator<T> {
    template <typename U>
    void construct(U* p) {
      ::new (static_cast<void*>(p)) U;
    }
    template <typename U, typename... Args>
    void construct(U* p, Args&&... args) {
      ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
    }
  };

  int64_t rows_ = 0;
  int64_t cols_ = 0;
  std::vector<double, DefaultInitAllocator<double>> data_;
};

/// C = A * B. Fails on inner-dimension mismatch. Dispatches to the
/// default kernel variant (see data/kernels.h); blocked unless
/// overridden.
Result<Matrix> Multiply(const Matrix& a, const Matrix& b);

/// C = A + B. Fails on shape mismatch. Dispatches like Multiply.
Result<Matrix> Add(const Matrix& a, const Matrix& b);

/// Transpose of `m`. Dispatches like Multiply.
Matrix Transpose(const Matrix& m);

}  // namespace taskbench::data

#endif  // TASKBENCH_DATA_MATRIX_H_
