#ifndef TASKBENCH_DATA_KERNELS_H_
#define TASKBENCH_DATA_KERNELS_H_

#include "common/result.h"
#include "data/matrix.h"

namespace taskbench::data {

/// Which implementation family the dispatching entry points
/// (data::Multiply / data::Add / data::Transpose /
/// data::KMeansPartialSum) resolve to.
///
/// The real-execution path wants the fastest kernels the host can
/// run; the correctness tests and the kernel benchmark want to pin a
/// specific variant and compare the two. This is the kernel-dispatch
/// seam: algos call the dispatching functions and automatically pick
/// up the blocked variants, while callers that need a particular
/// implementation name it explicitly.
enum class KernelVariant {
  kNaive,    ///< reference loops (the pre-fast-path kernels)
  kBlocked,  ///< cache-blocked, register-tiled variants
};

/// Variant used by the dispatching entry points. Defaults to
/// kBlocked.
KernelVariant DefaultKernelVariant();

/// Overrides the dispatch default (benchmark / test seam). Safe to
/// call concurrently with kernel execution; in-flight kernels finish
/// on the variant they started with.
void SetDefaultKernelVariant(KernelVariant variant);

/// K-means assign-and-sum over one block: assigns each row of `block`
/// (m x n) to its nearest row of `centroids` (k x n) by squared
/// Euclidean distance and returns the k x (n+1) partial: per cluster,
/// the feature sums of its rows, then their count. Fails when the
/// feature counts differ. Dispatches like Multiply; both variants
/// return the same bytes (see blocked::KMeansPartialSum).
Result<Matrix> KMeansPartialSum(const Matrix& block, const Matrix& centroids);

/// Reference implementations: the exact pre-fast-path loops. Kept as
/// the comparison baseline for the kernel correctness suite and the
/// speedup benchmark.
namespace naive {

/// C = A * B with the i-k-j streaming loop. Fails on inner-dimension
/// mismatch.
Result<Matrix> Multiply(const Matrix& a, const Matrix& b);

/// C = A + B elementwise. Fails on shape mismatch.
Result<Matrix> Add(const Matrix& a, const Matrix& b);

/// Row-by-row transpose.
Matrix Transpose(const Matrix& m);

/// One row and one centroid at a time: each distance starts at 0 and
/// adds (x - c)^2 feature by feature, each product and sum rounded on
/// its own; the nearest centroid wins by strict `<` from +inf, in
/// centroid order (a tie goes to the lowest index; a NaN or +inf
/// distance never wins, so a row with no finite distance joins
/// cluster 0); rows are summed into the partial in row order.
Result<Matrix> KMeansPartialSum(const Matrix& block, const Matrix& centroids);

}  // namespace naive

/// Fast implementations: cache-blocked and register-tiled, written so
/// the compiler's vectorizer produces FMA-friendly unrolled inner
/// loops (see docs/REAL_EXECUTION.md for the tile geometry). The
/// exception is KMeansPartialSum, which must reproduce the naive
/// bytes and so is built with contraction off: no FMA.
namespace blocked {

/// C = A * B via packed-panel GEMM: B is repacked into contiguous
/// KC x NR slabs, A into KC x MR slabs, and an MR x NR register-tile
/// micro-kernel accumulates in registers across each K panel.
/// Summation order differs from naive::Multiply, so results agree to
/// rounding (not bit-exactly). The packed panels live in a per-thread
/// workspace that persists between calls (up to ~4 MiB plus
/// rows x 2 KiB per thread); results never depend on its history.
Result<Matrix> Multiply(const Matrix& a, const Matrix& b);

/// C = A + B with an unrolled streaming loop. Bit-identical to
/// naive::Add (addition order is unchanged).
Result<Matrix> Add(const Matrix& a, const Matrix& b);

/// Cache-blocked transpose (square tiles sized for L1). Bit-identical
/// to naive::Transpose.
Matrix Transpose(const Matrix& m);

/// Register-tiled naive::KMeansPartialSum: 8 rows x 4 centroids of
/// distances at a time, vectorized across centroids (the centroids
/// are transposed so each accumulator is one vector lane) and never
/// across features. Every distance takes the naive operation sequence
/// and the argmin and the sums keep their order, so the result is
/// byte-identical to naive::KMeansPartialSum. Lives in its own
/// translation unit, compiled with -ffp-contract=off.
Result<Matrix> KMeansPartialSum(const Matrix& block, const Matrix& centroids);

}  // namespace blocked

}  // namespace taskbench::data

#endif  // TASKBENCH_DATA_KERNELS_H_
