#include "algos/logreg.h"

#include <cmath>
#include <utility>

#include "common/strings.h"
#include "data/generators.h"
#include "perf/calibration.h"

namespace taskbench::algos {

namespace {

using runtime::DataId;
using runtime::Dir;
using runtime::TaskSpec;

double Sigmoid(double z) { return 1.0 / (1.0 + std::exp(-z)); }

/// grad_func: computes the logistic-loss gradient contribution of one
/// block. inputs = [block (m x (f+1), label last), weights
/// (1 x (f+1), bias last)]; output = 1 x (f+2): f+1 gradient entries
/// plus the sample count.
Status GradKernel(const std::vector<const data::Matrix*>& inputs,
                  const std::vector<data::Matrix*>& outputs) {
  if (inputs.size() != 2 || outputs.size() != 1) {
    return Status::InvalidArgument("grad_func expects 2 inputs, 1 output");
  }
  const data::Matrix& block = *inputs[0];
  const data::Matrix& weights = *inputs[1];
  const int64_t f = block.cols() - 1;  // last column is the label
  if (weights.rows() != 1 || weights.cols() != f + 1) {
    return Status::InvalidArgument(StrFormat(
        "weights must be 1x%lld, got %lldx%lld",
        static_cast<long long>(f + 1),
        static_cast<long long>(weights.rows()),
        static_cast<long long>(weights.cols())));
  }
  data::Matrix grad(1, f + 2, 0.0);
  for (int64_t r = 0; r < block.rows(); ++r) {
    double z = weights.At(0, f);  // bias
    for (int64_t j = 0; j < f; ++j) z += weights.At(0, j) * block.At(r, j);
    const double err = Sigmoid(z) - block.At(r, f);
    for (int64_t j = 0; j < f; ++j) {
      grad.At(0, j) += err * block.At(r, j);
    }
    grad.At(0, f) += err;  // bias gradient
  }
  grad.At(0, f + 1) = static_cast<double>(block.rows());
  *outputs[0] = std::move(grad);
  return Status::OK();
}

/// apply_grad: averages the partial gradients and takes one descent
/// step. inputs = [partials..., weights (aliasing outputs[0])].
Status ApplyGradKernel(const runtime::KernelInputs& inputs,
                       const runtime::KernelOutputs& outputs,
                       double learning_rate) {
  if (inputs.size() < 2 || outputs.size() != 1) {
    return Status::InvalidArgument(
        "apply_grad expects >= 1 partial plus weights, 1 output");
  }
  data::Matrix& weights = *outputs[0];
  const int64_t w = weights.cols();  // f + 1
  data::Matrix total(1, w + 1, 0.0);
  for (size_t p = 0; p + 1 < inputs.size(); ++p) {
    const data::Matrix& partial = *inputs[p];
    if (partial.rows() != 1 || partial.cols() != w + 1) {
      return Status::InvalidArgument("partial gradient has wrong shape");
    }
    for (int64_t j = 0; j <= w; ++j) total.At(0, j) += partial.At(0, j);
  }
  const double count = total.At(0, w);
  if (count <= 0) return Status::InvalidArgument("no samples in gradients");
  for (int64_t j = 0; j < w; ++j) {
    weights.At(0, j) -= learning_rate * total.At(0, j) / count;
  }
  return Status::OK();
}

/// Synthetic separable data: features uniform in [-1, 1], label from
/// a hidden weight vector (same for every block).
void FillLogRegBlock(data::Matrix* block, Rng* rng) {
  const int64_t f = block->cols() - 1;
  Rng truth_rng(987654321);
  std::vector<double> truth(static_cast<size_t>(f));
  for (auto& t : truth) t = truth_rng.Uniform(-2.0, 2.0);
  for (int64_t r = 0; r < block->rows(); ++r) {
    double z = 0;
    for (int64_t j = 0; j < f; ++j) {
      const double x = rng->Uniform(-1.0, 1.0);
      block->At(r, j) = x;
      z += truth[static_cast<size_t>(j)] * x;
    }
    block->At(r, f) = z + rng->NextGaussian() * 0.1 > 0 ? 1.0 : 0.0;
  }
}

}  // namespace

perf::TaskCost GradFuncCost(int64_t m, int64_t n) {
  perf::TaskCost cost;
  const double dm = static_cast<double>(m);
  const double df = static_cast<double>(n - 1);
  const double block_bytes = 8.0 * dm * static_cast<double>(n);
  // Two passes over the block per iteration: the dot products and the
  // gradient accumulation (both thread-parallelizable).
  cost.parallel.flops = 4.0 * dm * df;
  cost.parallel.bytes = 2.0 * block_bytes;
  // Per-row loss bookkeeping: interpreter-bound but much lighter than
  // K-means' serial fraction — the intermediate parallel/serial ratio.
  cost.serial.flops = dm;
  cost.serial.bytes = 4.0 * block_bytes;
  cost.h2d_bytes = static_cast<uint64_t>(block_bytes);
  cost.d2h_bytes = static_cast<uint64_t>(8.0 * (df + 2));
  cost.num_transfers = 3;
  cost.num_kernels = 4;
  cost.input_bytes = static_cast<uint64_t>(block_bytes + 8.0 * (df + 1));
  cost.output_bytes = cost.d2h_bytes;
  cost.gpu_working_set_bytes =
      static_cast<uint64_t>(1.2 * block_bytes);
  // Matrix-vector kernels reach a middle ground between cuBLAS DGEMM
  // and the K-means CuPy pipeline.
  cost.gpu_curve.peak_fraction = 0.6;
  cost.gpu_curve.ramp_work = perf::calib::kKmeansGpuRampWork;
  cost.gpu_curve.alpha = perf::calib::kKmeansGpuAlpha;
  return cost;
}

perf::TaskCost ApplyGradCost(int64_t num_partials, int64_t n) {
  perf::TaskCost cost;
  const double volume =
      static_cast<double>(num_partials) * 8.0 * static_cast<double>(n + 1);
  cost.serial.flops = volume / 8.0;
  cost.serial.bytes = 2.0 * volume;
  cost.input_bytes = static_cast<uint64_t>(volume);
  cost.output_bytes = static_cast<uint64_t>(8.0 * static_cast<double>(n));
  cost.num_kernels = 1;
  return cost;
}

Result<LogRegWorkflow> BuildLogReg(const data::GridSpec& spec,
                                   const LogRegOptions& options) {
  if (spec.grid_cols() != 1) {
    return Status::InvalidArgument(
        "logistic regression requires row-wise chunking (grid cols == 1)");
  }
  if (spec.dataset().cols < 2) {
    return Status::InvalidArgument(
        "need at least one feature column plus the label column");
  }
  if (options.iterations < 1) {
    return Status::InvalidArgument("iterations must be >= 1");
  }
  if (options.samples_with_labels != nullptr &&
      (options.samples_with_labels->rows() != spec.dataset().rows ||
       options.samples_with_labels->cols() != spec.dataset().cols)) {
    return Status::InvalidArgument("samples shape does not match the spec");
  }
  const int64_t n = spec.dataset().cols;
  const int64_t f = n - 1;

  LogRegWorkflow wf;
  wf.options = options;

  for (int64_t b = 0; b < spec.grid_rows(); ++b) {
    const data::BlockExtent e = spec.ExtentAt(b, 0);
    const std::string name = StrFormat("X[%lld]", static_cast<long long>(b));
    if (options.materialize && options.samples_with_labels != nullptr) {
      TB_ASSIGN_OR_RETURN(data::Matrix block,
                          options.samples_with_labels->Slice(
                              e.row0, e.col0, e.rows, e.cols));
      wf.blocks.push_back(wf.graph.AddData(std::move(block), name));
    } else if (options.materialize) {
      data::Matrix block(e.rows, e.cols);
      Rng rng(options.seed ^ (static_cast<uint64_t>(b) * 0x85ebca6bULL));
      FillLogRegBlock(&block, &rng);
      wf.blocks.push_back(wf.graph.AddData(std::move(block), name));
    } else {
      wf.blocks.push_back(wf.graph.AddData(e.bytes(), name));
    }
  }

  if (options.materialize) {
    wf.weights = wf.graph.AddData(data::Matrix(1, f + 1, 0.0), "weights");
  } else {
    wf.weights = wf.graph.AddData(static_cast<uint64_t>(f + 1) * 8,
                                  "weights");
  }

  const uint64_t partial_bytes = static_cast<uint64_t>(f + 2) * 8;
  const double lr = options.learning_rate;
  for (int iter = 0; iter < options.iterations; ++iter) {
    std::vector<DataId> partials;
    for (int64_t b = 0; b < spec.grid_rows(); ++b) {
      const data::BlockExtent e = spec.ExtentAt(b, 0);
      const DataId partial = wf.graph.AddData(
          partial_bytes,
          StrFormat("G%d[%lld]", iter, static_cast<long long>(b)));
      TaskSpec task;
      task.type = "grad_func";
      task.params = {{wf.blocks[static_cast<size_t>(b)], Dir::kIn},
                     {wf.weights, Dir::kIn},
                     {partial, Dir::kOut}};
      if (options.materialize) task.kernel = GradKernel;
      task.cost = GradFuncCost(e.rows, e.cols);
      task.processor = options.processor;
      TB_RETURN_IF_ERROR(wf.graph.Submit(std::move(task)).status());
      partials.push_back(partial);
    }

    TaskSpec apply;
    apply.type = "apply_grad";
    for (DataId partial : partials) apply.params.push_back({partial, Dir::kIn});
    apply.params.push_back({wf.weights, Dir::kInOut});
    if (options.materialize) {
      apply.kernel = runtime::BindKernel(ApplyGradKernel, lr);
    }
    apply.cost = ApplyGradCost(static_cast<int64_t>(partials.size()), f + 1);
    apply.processor = Processor::kCpu;
    TB_RETURN_IF_ERROR(wf.graph.Submit(std::move(apply)).status());
  }
  return wf;
}

}  // namespace taskbench::algos
