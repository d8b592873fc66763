#include "data/kernels.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <new>

#include "common/strings.h"

// This translation unit holds the hot kernels and is the only one the
// build may compile with host-tuned codegen flags (-march=native when
// available; see src/data/CMakeLists.txt). Keep slow-path / reference
// code in matrix.cc so the benchmark baseline stays on the project's
// default flags.

namespace taskbench::data {

namespace {

std::atomic<KernelVariant> g_default_variant{KernelVariant::kBlocked};

// GEMM tile geometry. The MR x NR register tile is accumulated in
// locals across a full K panel (MR*NR = 64 doubles: 8 AVX-512 or 16
// AVX2 accumulator registers once vectorized); KC sizes the packed
// panels so an A slab (KC*MR) plus a B slab (KC*NR) stay L2-resident;
// NC bounds the packed-B working set.
constexpr int64_t kMr = 4;
constexpr int64_t kNr = 16;
constexpr int64_t kKc = 256;
constexpr int64_t kNc = 2048;

// Transpose tile edge: two 64x64 double tiles = 64 KiB, L1/L2 sized.
constexpr int64_t kTransposeTile = 64;

/// MR x NR micro-kernel: acc[r][j] += sum_k ap[k][r] * bp[k][j] with
/// the accumulators held in registers for the whole K panel, then
/// added into C once. `ap` is an MR-interleaved A slab, `bp` an
/// NR-interleaved B slab (both packed, contiguous), so every load in
/// the inner loop is sequential.
__attribute__((always_inline)) inline void MicroKernel(
    const double* __restrict ap, const double* __restrict bp,
    double* __restrict c, int64_t ldc, int64_t kc) {
  double acc0[kNr] = {};
  double acc1[kNr] = {};
  double acc2[kNr] = {};
  double acc3[kNr] = {};
  for (int64_t k = 0; k < kc; ++k) {
    const double* __restrict bk = bp + k * kNr;
    const double a0 = ap[k * kMr + 0];
    const double a1 = ap[k * kMr + 1];
    const double a2 = ap[k * kMr + 2];
    const double a3 = ap[k * kMr + 3];
    for (int64_t j = 0; j < kNr; ++j) {
      const double bj = bk[j];
      acc0[j] += a0 * bj;
      acc1[j] += a1 * bj;
      acc2[j] += a2 * bj;
      acc3[j] += a3 * bj;
    }
  }
  for (int64_t j = 0; j < kNr; ++j) c[0 * ldc + j] += acc0[j];
  for (int64_t j = 0; j < kNr; ++j) c[1 * ldc + j] += acc1[j];
  for (int64_t j = 0; j < kNr; ++j) c[2 * ldc + j] += acc2[j];
  for (int64_t j = 0; j < kNr; ++j) c[3 * ldc + j] += acc3[j];
}

/// Grow-only, uninitialised, 64-byte-aligned scratch for one packed
/// panel. Contents do not survive a growth and are never zeroed.
class PanelBuffer {
 public:
  double* Reserve(int64_t doubles) {
    if (doubles > capacity_) {
      data_.reset(static_cast<double*>(::operator new(
          static_cast<size_t>(doubles) * sizeof(double), kAlign)));
      capacity_ = doubles;
    }
    return data_.get();
  }

 private:
  static constexpr std::align_val_t kAlign{64};
  struct Free {
    void operator()(double* p) const { ::operator delete(p, kAlign); }
  };
  std::unique_ptr<double, Free> data_;
  int64_t capacity_ = 0;
};

/// The calling thread's GEMM workspace, reused across calls: a thread
/// keeps only its largest call's panels (at most KC x NC doubles of B
/// plus full_rows x KC of A). Reuse is the point: allocating and
/// zeroing a KC x NC panel costs ~200 us, far more than a whole
/// small-block product.
struct GemmWorkspace {
  PanelBuffer a;
  PanelBuffer b;
};
thread_local GemmWorkspace t_gemm_workspace;

/// C += A * B on raw row-major buffers (M x N times N x Q).
void GemmBlocked(const double* a, const double* b, double* c, int64_t m,
                 int64_t n, int64_t q) {
  const int64_t full_rows = (m / kMr) * kMr;
  const int64_t max_kc = std::min(kKc, n);
  const int64_t max_nc = std::min(kNc, q);
  // Packing writes every slot a kernel reads before it reads it, so
  // neither panel is cleared. B slabs are NR wide, the last one
  // ragged: its panel rounds the columns up to a multiple of NR.
  double* const apack = t_gemm_workspace.a.Reserve(full_rows * max_kc);
  double* const bpack = t_gemm_workspace.b.Reserve(
      max_kc * ((max_nc + kNr - 1) / kNr) * kNr);
  for (int64_t kk = 0; kk < n; kk += kKc) {
    const int64_t kc = std::min(kKc, n - kk);
    // Pack A rows [0, full_rows) of this K panel, MR-interleaved:
    // apack[(i/MR)*(kc*MR) + k*MR + r] = A[i+r][kk+k].
    for (int64_t i = 0; i < full_rows; i += kMr) {
      double* dst = apack + (i / kMr) * (kc * kMr);
      for (int64_t k = 0; k < kc; ++k) {
        for (int64_t r = 0; r < kMr; ++r) {
          dst[k * kMr + r] = a[(i + r) * n + kk + k];
        }
      }
    }
    for (int64_t jj = 0; jj < q; jj += kNc) {
      const int64_t nc = std::min(kNc, q - jj);
      // Pack B panel [kk, kk+kc) x [jj, jj+nc) into NR slabs. The
      // ragged last slab keeps its NR stride; its padding columns are
      // left unwritten, since only the guarded edge tile reads that
      // slab and it stops at nr.
      for (int64_t jb = 0; jb < nc; jb += kNr) {
        const int64_t nr = std::min(kNr, nc - jb);
        double* dst = bpack + jb * kc;
        for (int64_t k = 0; k < kc; ++k) {
          const double* src = b + (kk + k) * q + jj + jb;
          for (int64_t j = 0; j < nr; ++j) dst[k * kNr + j] = src[j];
        }
      }
      for (int64_t i = 0; i < full_rows; i += kMr) {
        const double* ap = apack + (i / kMr) * (kc * kMr);
        int64_t jb = 0;
        for (; jb + kNr <= nc; jb += kNr) {
          MicroKernel(ap, bpack + jb * kc, c + i * q + jj + jb, q, kc);
        }
        if (jb < nc) {  // ragged j edge: guarded scalar tile
          const int64_t nr = nc - jb;
          const double* bp = bpack + jb * kc;
          for (int64_t k = 0; k < kc; ++k) {
            for (int64_t r = 0; r < kMr; ++r) {
              const double av = ap[k * kMr + r];
              double* crow = c + (i + r) * q + jj + jb;
              for (int64_t j = 0; j < nr; ++j) {
                crow[j] += av * bp[k * kNr + j];
              }
            }
          }
        }
      }
      // Ragged i edge (m % MR trailing rows): streaming i-k-j over
      // the original (unpacked) operands.
      for (int64_t i = full_rows; i < m; ++i) {
        const double* arow = a + i * n;
        double* crow = c + i * q;
        for (int64_t k = kk; k < kk + kc; ++k) {
          const double aik = arow[k];
          const double* brow = b + k * q;
          for (int64_t j = jj; j < jj + nc; ++j) crow[j] += aik * brow[j];
        }
      }
    }
  }
}

}  // namespace

KernelVariant DefaultKernelVariant() {
  return g_default_variant.load(std::memory_order_relaxed);
}

void SetDefaultKernelVariant(KernelVariant variant) {
  g_default_variant.store(variant, std::memory_order_relaxed);
}

namespace blocked {

Result<Matrix> Multiply(const Matrix& a, const Matrix& b) {
  if (a.cols() != b.rows()) {
    return Status::InvalidArgument(StrFormat(
        "matmul inner dimension mismatch: %lldx%lld * %lldx%lld",
        static_cast<long long>(a.rows()), static_cast<long long>(a.cols()),
        static_cast<long long>(b.rows()), static_cast<long long>(b.cols())));
  }
  Matrix c(a.rows(), b.cols(), 0.0);
  if (!c.empty() && a.cols() > 0) {
    GemmBlocked(a.data(), b.data(), c.data(), a.rows(), a.cols(), b.cols());
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
  const double* __restrict pa = a.data();
  const double* __restrict pb = b.data();
  double* __restrict pc = c.data();
  const int64_t size = a.size();
  int64_t i = 0;
  for (; i + 4 <= size; i += 4) {
    pc[i + 0] = pa[i + 0] + pb[i + 0];
    pc[i + 1] = pa[i + 1] + pb[i + 1];
    pc[i + 2] = pa[i + 2] + pb[i + 2];
    pc[i + 3] = pa[i + 3] + pb[i + 3];
  }
  for (; i < size; ++i) pc[i] = pa[i] + pb[i];
  return c;
}

Matrix Transpose(const Matrix& m) {
  Matrix out(m.cols(), m.rows());
  const int64_t rows = m.rows();
  const int64_t cols = m.cols();
  const double* src = m.data();
  double* dst = out.data();
  for (int64_t r0 = 0; r0 < rows; r0 += kTransposeTile) {
    const int64_t rend = std::min(rows, r0 + kTransposeTile);
    for (int64_t c0 = 0; c0 < cols; c0 += kTransposeTile) {
      const int64_t cend = std::min(cols, c0 + kTransposeTile);
      for (int64_t r = r0; r < rend; ++r) {
        const double* in_row = src + r * cols;
        for (int64_t c = c0; c < cend; ++c) {
          dst[c * rows + r] = in_row[c];
        }
      }
    }
  }
  return out;
}

}  // namespace blocked

Result<Matrix> Multiply(const Matrix& a, const Matrix& b) {
  return DefaultKernelVariant() == KernelVariant::kBlocked
             ? blocked::Multiply(a, b)
             : naive::Multiply(a, b);
}

Result<Matrix> Add(const Matrix& a, const Matrix& b) {
  return DefaultKernelVariant() == KernelVariant::kBlocked
             ? blocked::Add(a, b)
             : naive::Add(a, b);
}

Matrix Transpose(const Matrix& m) {
  return DefaultKernelVariant() == KernelVariant::kBlocked
             ? blocked::Transpose(m)
             : naive::Transpose(m);
}

Result<Matrix> KMeansPartialSum(const Matrix& block, const Matrix& centroids) {
  return DefaultKernelVariant() == KernelVariant::kBlocked
             ? blocked::KMeansPartialSum(block, centroids)
             : naive::KMeansPartialSum(block, centroids);
}

}  // namespace taskbench::data
