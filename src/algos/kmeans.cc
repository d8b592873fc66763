#include "algos/kmeans.h"

#include <utility>

#include "common/strings.h"
#include "data/generators.h"
#include "data/kernels.h"
#include "perf/calibration.h"

namespace taskbench::algos {

namespace {

namespace calib = perf::calib;
using runtime::DataId;
using runtime::Dir;
using runtime::TaskSpec;

/// Kernel of partial_sum: assigns each sample row of the block to the
/// nearest centroid and accumulates per-cluster feature sums and
/// counts into a k x (n+1) partial (last column = count).
Status PartialSumKernel(const std::vector<const data::Matrix*>& inputs,
                        const std::vector<data::Matrix*>& outputs) {
  if (inputs.size() != 2 || outputs.size() != 1) {
    return Status::InvalidArgument("partial_sum expects 2 inputs, 1 output");
  }
  TB_ASSIGN_OR_RETURN(*outputs[0],
                      data::KMeansPartialSum(*inputs[0], *inputs[1]));
  return Status::OK();
}

/// Kernel of merge: sums the iteration's partials and recomputes the
/// centroids (clusters with no members keep their previous centroid).
/// inputs = [partial...; old centroids (aliasing outputs[0])].
Status MergeKernel(const std::vector<const data::Matrix*>& inputs,
                   const std::vector<data::Matrix*>& outputs) {
  if (inputs.size() < 2 || outputs.size() != 1) {
    return Status::InvalidArgument(
        "merge expects >= 1 partial plus centroids, 1 output");
  }
  data::Matrix& centroids = *outputs[0];
  const int64_t k = centroids.rows();
  const int64_t n = centroids.cols();
  data::Matrix sums(k, n + 1, 0.0);
  for (size_t p = 0; p + 1 < inputs.size(); ++p) {
    const data::Matrix& partial = *inputs[p];
    if (partial.rows() != k || partial.cols() != n + 1) {
      return Status::InvalidArgument("partial has wrong shape");
    }
    for (int64_t c = 0; c < k; ++c) {
      for (int64_t f = 0; f <= n; ++f) {
        sums.At(c, f) += partial.At(c, f);
      }
    }
  }
  for (int64_t c = 0; c < k; ++c) {
    const double count = sums.At(c, n);
    if (count > 0) {
      for (int64_t f = 0; f < n; ++f) {
        centroids.At(c, f) = sums.At(c, f) / count;
      }
    }  // empty cluster: keep the previous centroid
  }
  return Status::OK();
}

}  // namespace

perf::TaskCost PartialSumCost(int64_t m, int64_t n, int k) {
  perf::TaskCost cost;
  const double dm = static_cast<double>(m);
  const double dn = static_cast<double>(n);
  const double dk = static_cast<double>(k);
  const double block_bytes = 8.0 * dm * dn;
  const double centroid_bytes = 8.0 * dk * dn;
  const double partial_bytes = 8.0 * dk * (dn + 1);

  cost.parallel.flops =
      calib::kKmeansParallelFlopsPerElementPerCluster * dm * dn * dk;
  cost.parallel.bytes =
      calib::kKmeansParallelBytesPerElementPerCluster * dm * dn * dk;
  // Interpreter-bound serial bookkeeping streaming the block several
  // times (see calibration.h for the Figure 1 anchoring).
  cost.serial.flops = dm * dk;
  cost.serial.bytes = calib::kKmeansSerialStreamFactor * block_bytes;

  cost.h2d_bytes = static_cast<uint64_t>(block_bytes + centroid_bytes);
  cost.d2h_bytes = static_cast<uint64_t>(partial_bytes);
  cost.num_transfers = 3;
  cost.num_kernels = calib::kKmeansKernelLaunches;
  cost.input_bytes = static_cast<uint64_t>(block_bytes + centroid_bytes);
  cost.output_bytes = static_cast<uint64_t>(partial_bytes);
  cost.gpu_working_set_bytes = static_cast<uint64_t>(
      calib::kKmeansOomBlockFactor * block_bytes + 8.0 * dm * dk +
      centroid_bytes);
  cost.gpu_curve.peak_fraction = calib::kKmeansGpuPeakFraction;
  cost.gpu_curve.ramp_work = calib::kKmeansGpuRampWork;
  cost.gpu_curve.alpha = calib::kKmeansGpuAlpha;
  return cost;
}

perf::TaskCost MergeCost(int64_t num_partials, int64_t n, int k) {
  perf::TaskCost cost;
  const double volume = static_cast<double>(num_partials) *
                        static_cast<double>(k) *
                        (static_cast<double>(n) + 1) * 8.0;
  cost.serial.flops = volume / 8.0;
  cost.serial.bytes = 2.0 * volume;
  cost.input_bytes = static_cast<uint64_t>(
      volume + 8.0 * static_cast<double>(k) * static_cast<double>(n));
  cost.output_bytes =
      static_cast<uint64_t>(8.0 * static_cast<double>(k) *
                            static_cast<double>(n));
  cost.num_kernels = 1;
  return cost;
}

Result<KMeansWorkflow> BuildKMeans(const data::GridSpec& spec,
                                   const KMeansOptions& options) {
  if (spec.grid_cols() != 1) {
    return Status::InvalidArgument(StrFormat(
        "K-means requires row-wise chunking (grid cols == 1), got %s; "
        "the paper enforces one block per grid row (Section 4.4.4)",
        spec.GridDimString().c_str()));
  }
  if (options.num_clusters < 1) {
    return Status::InvalidArgument("num_clusters must be >= 1");
  }
  if (options.iterations < 1) {
    return Status::InvalidArgument("iterations must be >= 1");
  }
  const int64_t n = spec.dataset().cols;
  const int k = options.num_clusters;

  KMeansWorkflow wf;
  wf.options = options;

  if (options.samples != nullptr &&
      (options.samples->rows() != spec.dataset().rows ||
       options.samples->cols() != spec.dataset().cols)) {
    return Status::InvalidArgument(StrFormat(
        "samples are %lldx%lld but the spec describes %lldx%lld",
        static_cast<long long>(options.samples->rows()),
        static_cast<long long>(options.samples->cols()),
        static_cast<long long>(spec.dataset().rows),
        static_cast<long long>(spec.dataset().cols)));
  }

  // Sample blocks.
  for (int64_t b = 0; b < spec.grid_rows(); ++b) {
    const data::BlockExtent e = spec.ExtentAt(b, 0);
    const std::string name = StrFormat("X[%lld]", static_cast<long long>(b));
    if (options.materialize && options.samples != nullptr) {
      TB_ASSIGN_OR_RETURN(
          data::Matrix block,
          options.samples->Slice(e.row0, e.col0, e.rows, e.cols));
      wf.blocks.push_back(wf.graph.AddData(std::move(block), name));
    } else if (options.materialize) {
      data::Matrix block(e.rows, e.cols);
      Rng rng(options.seed ^ (static_cast<uint64_t>(b) * 0x9e3779b9ULL));
      if (options.blobs) {
        data::FillGaussianBlobs(&block, &rng, k);
      } else if (options.skew > 0) {
        data::FillSkewed(&block, &rng, options.skew);
      } else {
        data::FillUniform(&block, &rng);
      }
      wf.blocks.push_back(wf.graph.AddData(std::move(block), name));
    } else {
      wf.blocks.push_back(wf.graph.AddData(e.bytes(), name));
    }
  }

  // Centroids: K x N, user-provided or seeded from the first block's
  // first K rows.
  if (options.materialize && options.initial_centroids != nullptr) {
    if (options.initial_centroids->rows() != k ||
        options.initial_centroids->cols() != n) {
      return Status::InvalidArgument(StrFormat(
          "initial centroids are %lldx%lld, expected %dx%lld",
          static_cast<long long>(options.initial_centroids->rows()),
          static_cast<long long>(options.initial_centroids->cols()), k,
          static_cast<long long>(n)));
    }
    wf.centroids =
        wf.graph.AddData(*options.initial_centroids, "centroids");
  } else if (options.materialize) {
    const data::Matrix& first =
        *wf.graph.data(wf.blocks.front()).value;
    if (first.rows() < k) {
      return Status::InvalidArgument(StrFormat(
          "first block has %lld rows, cannot seed %d centroids",
          static_cast<long long>(first.rows()), k));
    }
    TB_ASSIGN_OR_RETURN(data::Matrix init, first.Slice(0, 0, k, n));
    wf.centroids = wf.graph.AddData(std::move(init), "centroids");
  } else {
    wf.centroids = wf.graph.AddData(
        static_cast<uint64_t>(k) * static_cast<uint64_t>(n) * 8,
        "centroids");
  }

  const uint64_t partial_bytes =
      static_cast<uint64_t>(k) * static_cast<uint64_t>(n + 1) * 8;
  for (int iter = 0; iter < options.iterations; ++iter) {
    std::vector<DataId> partials;
    for (int64_t b = 0; b < spec.grid_rows(); ++b) {
      const data::BlockExtent e = spec.ExtentAt(b, 0);
      const DataId partial = wf.graph.AddData(
          partial_bytes, StrFormat("P%d[%lld]", iter,
                                   static_cast<long long>(b)));
      TaskSpec task;
      task.type = "partial_sum";
      task.params = {{wf.blocks[static_cast<size_t>(b)], Dir::kIn},
                     {wf.centroids, Dir::kIn},
                     {partial, Dir::kOut}};
      if (options.materialize) task.kernel = PartialSumKernel;
      task.cost = PartialSumCost(e.rows, e.cols, k);
      task.processor = options.processor;
      TB_RETURN_IF_ERROR(wf.graph.Submit(std::move(task)).status());
      partials.push_back(partial);
    }

    TaskSpec merge;
    merge.type = "merge";
    for (DataId partial : partials) merge.params.push_back({partial, Dir::kIn});
    merge.params.push_back({wf.centroids, Dir::kInOut});
    if (options.materialize) merge.kernel = MergeKernel;
    merge.cost = MergeCost(static_cast<int64_t>(partials.size()), n, k);
    merge.processor = Processor::kCpu;  // reduction stays on CPU
    TB_RETURN_IF_ERROR(wf.graph.Submit(std::move(merge)).status());
  }
  return wf;
}

}  // namespace taskbench::algos
