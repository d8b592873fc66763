#include <algorithm>
#include <cstring>
#include <limits>
#include <vector>

#include "common/strings.h"
#include "data/kernels.h"

// blocked::KMeansPartialSum, in a translation unit of its own: it may
// use host-tuned codegen like kernels.cc, but it must reproduce
// naive::KMeansPartialSum byte for byte, so it is always built with
// -ffp-contract=off (src/data/CMakeLists.txt). With contraction on,
// `acc + d * d` becomes one fused multiply-add, rounded once instead
// of twice, and the distances drift from the reference's.

namespace taskbench::data {

namespace {

// Distance tile: kTileRows block rows x kLanes centroids. Each
// accumulator is one lane of a vector across centroids; features are
// never split across lanes, so every distance sums its features in
// order. Eight vectors of four doubles are eight AVX2 registers, or
// four SSE2 pairs each without -march=native.
constexpr int64_t kTileRows = 8;
constexpr int64_t kLanes = 4;
using Lanes = double __attribute__((vector_size(kLanes * sizeof(double))));

/// Squared distances of kTileRows rows (row stride n, from x) to one
/// centroid tile `ct`, transposed: ct[f * kLanes + j] is centroid j's
/// feature f. Lane j of dist[i] is exactly the reference's sequence
/// for row i and centroid j: 0, then + (x - c) * (x - c) per feature,
/// each subtraction, product and sum rounded on its own.
void TileDistances(const double* __restrict x, int64_t n,
                   const double* __restrict ct, Lanes* __restrict dist) {
  Lanes acc[kTileRows] = {};
  for (int64_t f = 0; f < n; ++f) {
    Lanes c;
    std::memcpy(&c, ct + f * kLanes, sizeof(c));
    for (int64_t i = 0; i < kTileRows; ++i) {
      const Lanes d = x[i * n + f] - c;
      acc[i] = acc[i] + d * d;
    }
  }
  for (int64_t i = 0; i < kTileRows; ++i) dist[i] = acc[i];
}

}  // namespace

namespace blocked {

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
  const int64_t m = block.rows();
  const int64_t n = block.cols();
  const int64_t k = centroids.rows();
  Matrix partial(k, n + 1, 0.0);
  if (m == 0) return partial;

  // The centroids in tiles of kLanes, each transposed to n x kLanes
  // with zero lanes past k; then kTileRows x n of zero padding that
  // the last, ragged row tile is copied into.
  const int64_t tiles = (k + kLanes - 1) / kLanes;
  std::vector<double> work(
      static_cast<size_t>(tiles * n * kLanes + kTileRows * n), 0.0);
  double* const ct = work.data();
  double* const tail = ct + tiles * n * kLanes;
  for (int64_t c = 0; c < k; ++c) {
    for (int64_t f = 0; f < n; ++f) {
      ct[((c / kLanes) * n + f) * kLanes + c % kLanes] = centroids.At(c, f);
    }
  }

  const double* const x = block.data();
  for (int64_t r0 = 0; r0 < m; r0 += kTileRows) {
    const int64_t rows = std::min(kTileRows, m - r0);
    const double* tile_x = x + r0 * n;
    if (rows < kTileRows) {
      std::copy(tile_x, tile_x + rows * n, tail);
      tile_x = tail;
    }
    // The argmin walks centroids in order with a strict `<` from
    // +inf, as the reference does: ties go to the lowest index, and a
    // NaN or +inf distance never wins.
    int64_t best[kTileRows] = {};
    double best_dist[kTileRows];
    std::fill(best_dist, best_dist + kTileRows,
              std::numeric_limits<double>::infinity());
    for (int64_t t = 0; t < tiles; ++t) {
      Lanes dist[kTileRows];
      TileDistances(tile_x, n, ct + t * n * kLanes, dist);
      const int64_t lanes = std::min(kLanes, k - t * kLanes);
      for (int64_t i = 0; i < rows; ++i) {
        for (int64_t j = 0; j < lanes; ++j) {
          if (dist[i][j] < best_dist[i]) {
            best_dist[i] = dist[i][j];
            best[i] = t * kLanes + j;
          }
        }
      }
    }
    // Sums in row order, from the block itself.
    for (int64_t i = 0; i < rows; ++i) {
      const double* __restrict row = x + (r0 + i) * n;
      double* __restrict sum = partial.data() + best[i] * (n + 1);
      for (int64_t f = 0; f < n; ++f) sum[f] += row[f];
      sum[n] += 1.0;
    }
  }
  return partial;
}

}  // namespace blocked

}  // namespace taskbench::data
