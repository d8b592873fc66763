#include "data/generators.h"

#include <vector>

namespace taskbench::data {

void FillUniform(Matrix* m, Rng* rng) {
  double* p = m->data();
  for (int64_t i = 0; i < m->size(); ++i) p[i] = rng->NextDouble();
}

void FillSkewed(Matrix* m, Rng* rng, double skew_fraction) {
  // The paper "moved 50% of the elements to certain regions of the
  // distribution forcing groups of elements" (Section 5.2.3). We pick
  // 4 narrow attractor regions; each skewed element lands in one of
  // them with small jitter.
  static constexpr double kRegions[] = {0.1, 0.35, 0.6, 0.85};
  static constexpr double kJitter = 0.01;
  double* p = m->data();
  for (int64_t i = 0; i < m->size(); ++i) {
    if (rng->NextDouble() < skew_fraction) {
      const double center = kRegions[rng->NextBounded(4)];
      p[i] = center + rng->Uniform(-kJitter, kJitter);
    } else {
      p[i] = rng->NextDouble();
    }
  }
}

void FillGaussianBlobs(Matrix* m, Rng* rng, int num_centers) {
  // Centers are derived from a fixed-seed stream independent of the
  // sample stream so every block sees the same centers.
  Rng center_rng(1234577);
  std::vector<double> centers(static_cast<size_t>(num_centers) *
                              static_cast<size_t>(m->cols()));
  for (auto& c : centers) c = center_rng.Uniform(-10.0, 10.0);

  for (int64_t r = 0; r < m->rows(); ++r) {
    const auto center =
        static_cast<size_t>(rng->NextBounded(static_cast<uint64_t>(num_centers)));
    for (int64_t c = 0; c < m->cols(); ++c) {
      m->At(r, c) = centers[center * static_cast<size_t>(m->cols()) +
                            static_cast<size_t>(c)] +
                    rng->NextGaussian();
    }
  }
}

DatasetSpec PaperDatasets::Matmul8GB() {
  return DatasetSpec{"matmul-8gb", 32768, 32768};
}
DatasetSpec PaperDatasets::Matmul32GB() {
  return DatasetSpec{"matmul-32gb", 65536, 65536};
}
DatasetSpec PaperDatasets::Matmul2GB() {
  return DatasetSpec{"matmul-2gb", 16384, 16384};
}
DatasetSpec PaperDatasets::Matmul128MB() {
  return DatasetSpec{"matmul-128mb", 4000, 4000};
}
DatasetSpec PaperDatasets::KMeans10GB() {
  return DatasetSpec{"kmeans-10gb", 12500000, 100};
}
DatasetSpec PaperDatasets::KMeans100GB() {
  return DatasetSpec{"kmeans-100gb", 125000000, 100};
}
DatasetSpec PaperDatasets::KMeans1GB() {
  return DatasetSpec{"kmeans-1gb", 1250000, 100};
}
DatasetSpec PaperDatasets::KMeans100MB() {
  return DatasetSpec{"kmeans-100mb", 125000, 100};
}

}  // namespace taskbench::data
