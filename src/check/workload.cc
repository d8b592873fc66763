#include "check/workload.h"

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>

#include "algos/kmeans.h"
#include "algos/matmul.h"
#include "common/random.h"
#include "common/status.h"
#include "common/strings.h"
#include "data/grid.h"
#include "data/kernels.h"
#include "perf/task_cost.h"
#include "wf/build.h"
#include "wf/generator.h"
#include "wf/import.h"
#include "wf/instance.h"

namespace taskbench::check {

namespace {

using data::Matrix;
using runtime::DataId;
using runtime::Dir;
using runtime::KernelFn;
using runtime::Param;
using runtime::TaskGraph;
using runtime::TaskSpec;

/// Cost descriptor scaled from the datum size, mirroring the shapes
/// the digest battery uses (a mixed roofline with GPU transfer legs
/// when accelerated).
perf::TaskCost CostFor(uint64_t bytes, bool gpu) {
  perf::TaskCost cost;
  cost.parallel.flops = static_cast<double>(bytes) * 4;
  cost.parallel.bytes = static_cast<double>(bytes);
  cost.serial.flops = static_cast<double>(bytes) / 8;
  cost.serial.bytes = static_cast<double>(bytes) / 8;
  cost.input_bytes = bytes;
  cost.output_bytes = bytes;
  if (gpu) {
    cost.h2d_bytes = bytes;
    cost.d2h_bytes = bytes;
    cost.num_transfers = 2;
    cost.gpu_working_set_bytes = 2 * bytes;
  }
  return cost;
}

/// dim x dim matrix of values in [-1/dim, 1/dim): small enough that
/// chains of Multiply stay O(1) in magnitude, so tolerance-based
/// comparison across kernel variants never fights overflow.
Matrix RandomBlock(Rng& rng, int64_t dim) {
  Matrix m(dim, dim);
  const double scale = 1.0 / static_cast<double>(dim);
  for (int64_t i = 0; i < m.size(); ++i) {
    m.data()[i] = rng.Uniform(-scale, scale);
  }
  return m;
}

/// Elementwise ops the synthetic kernels compose. Every op maps two
/// same-shape square inputs to one output through the dispatching
/// data:: entry points, so the blocked-vs-naive kernel seam is
/// exercised by every synthetic family.
enum class Op { kAdd = 0, kMul = 1, kAddT = 2 };

Op DrawOp(Rng& rng) { return static_cast<Op>(rng.NextBounded(3)); }

Status ApplyOp(Op op, const Matrix& a, const Matrix& b, Matrix* out) {
  switch (op) {
    case Op::kAdd: {
      TB_ASSIGN_OR_RETURN(*out, data::Add(a, b));
      return Status::OK();
    }
    case Op::kMul: {
      TB_ASSIGN_OR_RETURN(*out, data::Multiply(a, b));
      return Status::OK();
    }
    case Op::kAddT: {
      TB_ASSIGN_OR_RETURN(*out, data::Add(a, data::Transpose(b)));
      return Status::OK();
    }
  }
  return Status::Internal("unreachable op");
}

/// Binary kernel out = op(in0, in1). For INOUT accumulators the
/// second input aliases the output slot, which ApplyOp tolerates (it
/// materializes a fresh matrix before assigning).
Status BinaryOp(const runtime::KernelInputs& inputs,
                const runtime::KernelOutputs& outputs, Op op) {
  return ApplyOp(op, *inputs[0], *inputs[1], outputs[0]);
}

KernelFn BinaryKernel(Op op) { return runtime::BindKernel(BinaryOp, op); }

/// Reduce kernel: out = in0 (+) in1 (+) ... folded left in param
/// order, so the summation order is independent of execution order.
/// `args` holds one Op byte per fold step.
Status ReduceOps(std::string_view args, const runtime::KernelInputs& inputs,
                 const runtime::KernelOutputs& outputs) {
  Matrix acc = *inputs[0];
  for (size_t i = 1; i < inputs.size(); ++i) {
    const Op op = static_cast<Op>(args[i - 1]);
    TB_RETURN_IF_ERROR(ApplyOp(op, acc, *inputs[i], &acc));
  }
  *outputs[0] = std::move(acc);
  return Status::OK();
}

KernelFn ReduceKernel(const std::vector<Op>& ops) {
  std::string args;
  for (const Op op : ops) args.push_back(static_cast<char>(op));
  return KernelFn(&ReduceOps, std::move(args));
}

Processor DrawProcessor(const WorkloadSpec& spec, int index) {
  if (spec.gpu_every <= 0) return Processor::kCpu;
  return index % spec.gpu_every == 0 ? Processor::kGpu : Processor::kCpu;
}

TaskSpec MakeSpec(const std::string& type, std::vector<Param> params,
                  KernelFn kernel, uint64_t bytes, Processor proc) {
  TaskSpec spec;
  spec.type = type;
  spec.params = std::move(params);
  spec.kernel = std::move(kernel);
  spec.cost = CostFor(bytes, proc == Processor::kGpu);
  spec.processor = proc;
  return spec;
}

void CompareAll(BuiltWorkload* w) {
  for (DataId d = 0; d < w->graph.num_data(); ++d) w->compare.push_back(d);
}

Result<BuiltWorkload> BuildChain(const WorkloadSpec& spec, Rng& rng) {
  BuiltWorkload w;
  const uint64_t bytes = static_cast<uint64_t>(spec.dim * spec.dim) * 8;
  const DataId acc = w.graph.AddData(RandomBlock(rng, spec.dim), "acc");
  for (int i = 0; i < spec.length; ++i) {
    const Op op = DrawOp(rng);
    const DataId aux =
        w.graph.AddData(RandomBlock(rng, spec.dim), StrFormat("aux%d", i));
    TB_ASSIGN_OR_RETURN(
        auto id,
        w.graph.Submit(MakeSpec(StrFormat("chain_op%d", static_cast<int>(op)),
                                {{aux, Dir::kIn}, {acc, Dir::kInOut}},
                                BinaryKernel(op), bytes,
                                DrawProcessor(spec, i))));
    (void)id;
  }
  CompareAll(&w);
  return w;
}

Result<BuiltWorkload> BuildFanOutFanIn(const WorkloadSpec& spec, Rng& rng) {
  BuiltWorkload w;
  const uint64_t bytes = static_cast<uint64_t>(spec.dim * spec.dim) * 8;
  const DataId root = w.graph.AddData(RandomBlock(rng, spec.dim), "root");
  std::vector<DataId> mids;
  std::vector<Op> mid_ops;
  for (int i = 0; i < spec.width; ++i) {
    const DataId aux =
        w.graph.AddData(RandomBlock(rng, spec.dim), StrFormat("aux%d", i));
    const DataId mid = w.graph.AddData(static_cast<uint64_t>(bytes),
                                       StrFormat("mid%d", i));
    const Op op = DrawOp(rng);
    mids.push_back(mid);
    mid_ops.push_back(op);
    TB_ASSIGN_OR_RETURN(
        auto id, w.graph.Submit(MakeSpec(
                     StrFormat("fan_op%d", static_cast<int>(op)),
                     {{root, Dir::kIn}, {aux, Dir::kIn}, {mid, Dir::kOut}},
                     BinaryKernel(op), bytes, DrawProcessor(spec, i))));
    (void)id;
  }
  const DataId out = w.graph.AddData(static_cast<uint64_t>(bytes), "reduce");
  std::vector<Param> params;
  std::vector<Op> reduce_ops;
  params.push_back({out, Dir::kOut});
  for (size_t i = 0; i < mids.size(); ++i) {
    params.push_back({mids[i], Dir::kIn});
    if (i > 0) reduce_ops.push_back(Op::kAdd);
  }
  TB_ASSIGN_OR_RETURN(
      auto id, w.graph.Submit(MakeSpec("reduce", std::move(params),
                                       ReduceKernel(reduce_ops),
                                       bytes, Processor::kCpu)));
  (void)id;
  CompareAll(&w);
  return w;
}

Result<BuiltWorkload> BuildWideLayers(const WorkloadSpec& spec, Rng& rng) {
  BuiltWorkload w;
  const uint64_t bytes = static_cast<uint64_t>(spec.dim * spec.dim) * 8;
  std::vector<DataId> prev;
  for (int j = 0; j < spec.width; ++j) {
    prev.push_back(
        w.graph.AddData(RandomBlock(rng, spec.dim), StrFormat("in%d", j)));
  }
  for (int l = 0; l < spec.length; ++l) {
    std::vector<DataId> cur;
    for (int j = 0; j < spec.width; ++j) {
      const Op op = DrawOp(rng);
      const DataId a = prev[static_cast<size_t>(j)];
      const DataId b =
          prev[static_cast<size_t>((j + 1) % spec.width)];
      const DataId out = w.graph.AddData(static_cast<uint64_t>(bytes),
                                         StrFormat("l%d_%d", l, j));
      cur.push_back(out);
      TB_ASSIGN_OR_RETURN(
          auto id,
          w.graph.Submit(MakeSpec(
              StrFormat("layer_op%d", static_cast<int>(op)),
              {{a, Dir::kIn}, {b, Dir::kIn}, {out, Dir::kOut}},
              BinaryKernel(op), bytes, DrawProcessor(spec, l * spec.width + j))));
      (void)id;
    }
    prev = std::move(cur);
  }
  CompareAll(&w);
  return w;
}

Result<BuiltWorkload> BuildRandomDag(const WorkloadSpec& spec, Rng& rng) {
  BuiltWorkload w;
  const uint64_t bytes = static_cast<uint64_t>(spec.dim * spec.dim) * 8;
  std::vector<DataId> pool;
  for (int j = 0; j < 4; ++j) {
    pool.push_back(
        w.graph.AddData(RandomBlock(rng, spec.dim), StrFormat("p%d", j)));
  }
  const int n = spec.length * spec.width;
  for (int t = 0; t < n; ++t) {
    const int num_inputs = 1 + static_cast<int>(rng.NextBounded(2));
    std::vector<Param> params;
    std::vector<Op> ops;
    for (int i = 0; i <= num_inputs; ++i) {
      params.push_back(
          {pool[static_cast<size_t>(rng.NextBounded(pool.size()))],
           Dir::kIn});
      if (i > 0) ops.push_back(DrawOp(rng));
    }
    const DataId out =
        w.graph.AddData(static_cast<uint64_t>(bytes), StrFormat("r%d", t));
    params.push_back({out, Dir::kOut});
    TB_ASSIGN_OR_RETURN(
        auto id, w.graph.Submit(MakeSpec(
                     "rand", std::move(params),
                     ReduceKernel(ops), bytes,
                     DrawProcessor(spec, t))));
    (void)id;
    pool.push_back(out);
  }
  CompareAll(&w);
  return w;
}

Result<BuiltWorkload> BuildMatmulFamily(const WorkloadSpec& spec, Rng& rng,
                                        bool fma) {
  // Full input matrices drawn here so the oracle (a naive full-size
  // product) is independent of the workflow under test.
  Matrix a(spec.rows, spec.inner);
  Matrix b(spec.inner, spec.cols);
  const double scale = 1.0 / static_cast<double>(spec.inner);
  for (int64_t i = 0; i < a.size(); ++i) a.data()[i] = rng.Uniform(-1, 1);
  for (int64_t i = 0; i < b.size(); ++i) {
    b.data()[i] = rng.Uniform(-scale, scale);
  }

  TB_ASSIGN_OR_RETURN(
      const data::GridSpec a_spec,
      data::GridSpec::Create({"A", spec.rows, spec.inner}, spec.block_rows,
                             spec.block_cols));
  TB_ASSIGN_OR_RETURN(
      const data::GridSpec b_spec,
      data::GridSpec::Create({"B", spec.inner, spec.cols}, spec.block_cols,
                             spec.block_cols_b));

  algos::MatmulOptions options;
  options.processor = spec.gpu_every > 0 ? Processor::kGpu : Processor::kCpu;
  options.fma = fma;
  options.materialize = true;
  options.seed = spec.seed;
  options.a_values = &a;
  options.b_values = &b;
  TB_ASSIGN_OR_RETURN(algos::MatmulWorkflow flow,
                      algos::BuildMatmul(a_spec, b_spec, options));

  BuiltWorkload w;
  w.graph = std::move(flow.graph);
  TB_ASSIGN_OR_RETURN(const Matrix product, data::naive::Multiply(a, b));
  TB_ASSIGN_OR_RETURN(
      const data::GridSpec c_spec,
      data::GridSpec::Create({"C", spec.rows, spec.cols}, spec.block_rows,
                             spec.block_cols_b));
  for (size_t i = 0; i < flow.c.size(); ++i) {
    for (size_t j = 0; j < flow.c[i].size(); ++j) {
      const data::BlockExtent e =
          c_spec.ExtentAt(static_cast<int64_t>(i), static_cast<int64_t>(j));
      TB_ASSIGN_OR_RETURN(Matrix block,
                          product.Slice(e.row0, e.col0, e.rows, e.cols));
      w.oracle.push_back({flow.c[i][j], std::move(block)});
    }
  }
  CompareAll(&w);
  return w;
}

Result<BuiltWorkload> BuildKMeansFamily(const WorkloadSpec& spec) {
  TB_ASSIGN_OR_RETURN(
      const data::GridSpec grid,
      data::GridSpec::Create({"samples", spec.samples, spec.features},
                             spec.kmeans_block_rows, spec.features));
  algos::KMeansOptions options;
  options.num_clusters = spec.clusters;
  options.iterations = spec.iterations;
  options.processor = spec.gpu_every > 0 ? Processor::kGpu : Processor::kCpu;
  options.materialize = true;
  options.seed = spec.seed;
  options.blobs = true;
  TB_ASSIGN_OR_RETURN(algos::KMeansWorkflow flow,
                      algos::BuildKMeans(grid, options));
  BuiltWorkload w;
  w.graph = std::move(flow.graph);
  CompareAll(&w);
  return w;
}

/// Both wf families funnel through here: instance -> materialized
/// graph, comparing every registered datum.
Result<BuiltWorkload> BuildFromInstance(const wf::Instance& instance) {
  wf::BuildOptions options;
  options.materialize = true;
  TB_ASSIGN_OR_RETURN(wf::BuiltInstance built,
                      wf::BuildInstance(instance, options));
  BuiltWorkload w;
  w.graph = std::move(built.graph);
  w.compare = std::move(built.data);
  return w;
}

Result<BuiltWorkload> BuildWfBenchFamily(const WorkloadSpec& spec) {
  wf::GenOptions options;
  options.seed = spec.seed;
  options.levels = spec.wf_levels;
  options.width = spec.wf_width;
  options.max_parents = spec.wf_max_parents;
  options.heavy_tail_alpha = spec.wf_heavy_tail_alpha;
  options.straggler_fraction = spec.wf_straggler_fraction;
  options.types = wf::DefaultTaskTypes(spec.wf_gpu_types);
  const wf::Instance generated = wf::GenerateWfBench(options);
  // Round-trip through WfFormat JSON on every build: a generated
  // instance that fails to re-import (or re-imports differently) is a
  // bug this family exists to catch.
  TB_ASSIGN_OR_RETURN(const wf::Instance imported,
                      wf::ImportWfFormat(wf::ExportWfFormat(generated)));
  std::string why;
  if (!wf::StructurallyEqual(generated, imported, &why)) {
    return Status::Internal("wfbench round-trip mismatch: " + why);
  }
  return BuildFromInstance(imported);
}

Result<BuiltWorkload> BuildWfImportFamily(const WorkloadSpec& spec) {
  if (spec.wf_json.empty()) {
    return Status::InvalidArgument("kWfImport spec has empty wf_json");
  }
  TB_ASSIGN_OR_RETURN(const wf::Instance instance,
                      wf::ImportWfFormat(spec.wf_json));
  return BuildFromInstance(instance);
}

}  // namespace

std::string ToString(Family family) {
  switch (family) {
    case Family::kChain: return "chain";
    case Family::kFanOutFanIn: return "fan-out-fan-in";
    case Family::kWideLayers: return "wide-layers";
    case Family::kRandomDag: return "random-dag";
    case Family::kMatmul: return "matmul";
    case Family::kMatmulFma: return "matmul-fma";
    case Family::kKMeans: return "kmeans";
    case Family::kWfBench: return "wfbench";
    case Family::kWfImport: return "wf-import";
  }
  return "unknown";
}

std::string WorkloadSpec::Describe() const {
  switch (family) {
    case Family::kChain:
    case Family::kFanOutFanIn:
    case Family::kWideLayers:
    case Family::kRandomDag:
      return StrFormat("%s dim=%lld len=%d width=%d gpu_every=%d seed=%llu",
                       check::ToString(family).c_str(),
                       static_cast<long long>(dim), length, width, gpu_every,
                       static_cast<unsigned long long>(seed));
    case Family::kMatmul:
    case Family::kMatmulFma:
      return StrFormat(
          "%s %lldx%lldx%lld blocks=%lldx%lld/%lld gpu=%d seed=%llu",
          check::ToString(family).c_str(), static_cast<long long>(rows),
          static_cast<long long>(inner), static_cast<long long>(cols),
          static_cast<long long>(block_rows),
          static_cast<long long>(block_cols),
          static_cast<long long>(block_cols_b), gpu_every,
          static_cast<unsigned long long>(seed));
    case Family::kKMeans:
      return StrFormat(
          "kmeans n=%lld f=%lld k=%d iters=%d block_rows=%d gpu=%d seed=%llu",
          static_cast<long long>(samples), static_cast<long long>(features),
          clusters, iterations, kmeans_block_rows, gpu_every,
          static_cast<unsigned long long>(seed));
    case Family::kWfBench:
      return StrFormat(
          "wfbench levels=%d width=%d parents=%d alpha=%g straggle=%g "
          "gpu_types=%d seed=%llu",
          wf_levels, wf_width, wf_max_parents, wf_heavy_tail_alpha,
          wf_straggler_fraction, wf_gpu_types,
          static_cast<unsigned long long>(seed));
    case Family::kWfImport:
      return StrFormat("wf-import json_bytes=%zu seed=%llu", wf_json.size(),
                       static_cast<unsigned long long>(seed));
  }
  return "unknown";
}

WorkloadSpec GenerateSpec(uint64_t seed) {
  Rng rng(seed * 0x9e3779b97f4a7c15ull + 0x2545f4914f6cdd1dull);
  WorkloadSpec spec;
  spec.seed = seed;
  spec.family = static_cast<Family>(rng.NextBounded(7));
  spec.dim = 6 + static_cast<int64_t>(rng.NextBounded(22));
  spec.length = 4 + static_cast<int>(rng.NextBounded(12));
  spec.width = 3 + static_cast<int>(rng.NextBounded(6));
  const uint64_t gpu_draw = rng.NextBounded(3);
  spec.gpu_every = gpu_draw == 0 ? 0 : static_cast<int>(1 + gpu_draw);

  // Matmul shapes: exact-division grids (the paper's configuration
  // style) with 1..3 blocks per dimension and 4..12-element blocks.
  spec.block_rows = 4 + static_cast<int64_t>(rng.NextBounded(9));
  spec.block_cols = 4 + static_cast<int64_t>(rng.NextBounded(9));
  spec.block_cols_b = 4 + static_cast<int64_t>(rng.NextBounded(9));
  spec.rows = spec.block_rows * static_cast<int64_t>(1 + rng.NextBounded(3));
  spec.inner = spec.block_cols * static_cast<int64_t>(1 + rng.NextBounded(3));
  spec.cols =
      spec.block_cols_b * static_cast<int64_t>(1 + rng.NextBounded(3));

  spec.clusters = 2 + static_cast<int>(rng.NextBounded(3));
  spec.iterations = 1 + static_cast<int>(rng.NextBounded(3));
  spec.features = 2 + static_cast<int64_t>(rng.NextBounded(5));
  spec.kmeans_block_rows = 8 + static_cast<int>(rng.NextBounded(9));
  spec.samples = static_cast<int64_t>(spec.kmeans_block_rows) *
                 static_cast<int64_t>(2 + rng.NextBounded(4));
  return spec;
}

Result<BuiltWorkload> BuildWorkload(const WorkloadSpec& spec) {
  // A private stream per build, keyed off the spec seed only, so the
  // same spec always rebuilds the identical workload regardless of
  // what was built before it.
  Rng rng(spec.seed ^ 0xc2b2ae3d27d4eb4full);
  switch (spec.family) {
    case Family::kChain: return BuildChain(spec, rng);
    case Family::kFanOutFanIn: return BuildFanOutFanIn(spec, rng);
    case Family::kWideLayers: return BuildWideLayers(spec, rng);
    case Family::kRandomDag: return BuildRandomDag(spec, rng);
    case Family::kMatmul: return BuildMatmulFamily(spec, rng, false);
    case Family::kMatmulFma: return BuildMatmulFamily(spec, rng, true);
    case Family::kKMeans: return BuildKMeansFamily(spec);
    case Family::kWfBench: return BuildWfBenchFamily(spec);
    case Family::kWfImport: return BuildWfImportFamily(spec);
  }
  return Status::InvalidArgument("unknown workload family");
}

WorkloadSpec GenerateWfSpec(uint64_t seed) {
  Rng rng(seed * 0x9e3779b97f4a7c15ull + 0xd6e8feb86659fd93ull);
  WorkloadSpec spec;
  spec.family = Family::kWfBench;
  spec.seed = seed;
  spec.wf_levels = 3 + static_cast<int>(rng.NextBounded(4));
  spec.wf_width = 2 + static_cast<int>(rng.NextBounded(4));
  spec.wf_max_parents = 1 + static_cast<int>(rng.NextBounded(3));
  // A third of the corpus is heavy-tailed, a quarter has stragglers,
  // and gpu mixes cover none/one/two GPU task types.
  if (rng.NextBounded(3) == 0) {
    spec.wf_heavy_tail_alpha = 1.1 + rng.NextDouble() * 1.5;
  }
  if (rng.NextBounded(4) == 0) {
    spec.wf_straggler_fraction = 0.1 + rng.NextDouble() * 0.2;
  }
  spec.wf_gpu_types = static_cast<int>(rng.NextBounded(3));
  return spec;
}

}  // namespace taskbench::check
