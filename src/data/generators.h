#ifndef TASKBENCH_DATA_GENERATORS_H_
#define TASKBENCH_DATA_GENERATORS_H_

#include "common/random.h"
#include "data/grid.h"
#include "data/matrix.h"

namespace taskbench::data {

/// Synthetic dataset generators mirroring Section 4.4.5 (random
/// float64 NumPy arrays with a fixed random state) and Section 5.2.3
/// (skewed datasets). Each filler draws only from the caller's Rng,
/// so a fixed seed gives fixed values. The algos seed one Rng per
/// block from (seed, block index), so generation order does not
/// change the values.

/// Fills `m` with uniform values in [0, 1).
void FillUniform(Matrix* m, Rng* rng);

/// Fills `m` with the paper's skew construction: a uniform base with
/// `skew_fraction` of the elements relocated into narrow regions of
/// the value distribution, forcing dense groups of near-equal values.
/// skew_fraction = 0 reduces to FillUniform.
void FillSkewed(Matrix* m, Rng* rng, double skew_fraction);

/// Fills row vectors with a mixture of `num_centers` Gaussian blobs —
/// a realistic K-means input where each dataset row is one sample.
/// Center coordinates are drawn in [-10, 10] with unit-variance noise.
void FillGaussianBlobs(Matrix* m, Rng* rng, int num_centers);

/// Catalog of the paper's dataset configurations (Sections 4.4.5 and
/// 5.4): exact dimensions for every Matmul and K-means input used in
/// the figures. Names follow the paper labels.
struct PaperDatasets {
  static DatasetSpec Matmul8GB();     ///< 32768 x 32768 (8 GiB)
  static DatasetSpec Matmul32GB();    ///< 65536 x 65536 (32 GiB)
  static DatasetSpec Matmul2GB();     ///< 16384 x 16384 (skew study)
  static DatasetSpec Matmul128MB();   ///< 4000 x 4000 (correlation extra)
  static DatasetSpec KMeans10GB();    ///< 12.5M samples x 100 features
  static DatasetSpec KMeans100GB();   ///< 125M samples x 100 features
  static DatasetSpec KMeans1GB();     ///< 1.25M samples x 100 (skew study)
  static DatasetSpec KMeans100MB();   ///< 125k samples x 100 (correlation)
};

}  // namespace taskbench::data

#endif  // TASKBENCH_DATA_GENERATORS_H_
