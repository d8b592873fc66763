// The paper's study as one artifact: every value behind Figures 1 and
// 6-12, Table 1, observations O1-O6 and the extensions the paper
// motivates, one row per value (EXPERIMENTS.md describes the rows).
//
// Every written value comes from the deterministic simulator or the
// analytic cost model, and the file holds no host metadata and no
// timestamp, so CI reruns the study and compares its output byte for
// byte with the committed BENCH_paper.json. Figure 9b times real
// kernels on the host: its rows are printed but not written.
//
// Usage: bench_paper [--out=BENCH_paper.json]

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "algos/kmeans.h"
#include "algos/logreg.h"
#include "algos/matmul.h"
#include "algos/transpose.h"
#include "analysis/csv.h"
#include "analysis/experiment.h"
#include "analysis/factor_space.h"
#include "analysis/observations.h"
#include "analysis/predictor.h"
#include "common/args.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/strings.h"
#include "data/generators.h"
#include "perf/cost_model.h"
#include "runtime/thread_pool_executor.h"
#include "stats/feature_table.h"

namespace taskbench::bench {
namespace {

using analysis::Algorithm;
using analysis::ExperimentConfig;
using analysis::ExperimentResult;
using data::PaperDatasets;
using hw::StorageArchitecture;
using Grids = std::vector<std::pair<int64_t, int64_t>>;

/// The artifact: one JSON object per row. Each row is also printed as
/// it is added.
class Study {
 public:
  /// A measured value, with the paper's where the paper states one.
  void Value(const std::string& id, double value,
             std::optional<double> paper = std::nullopt) {
    Add(id, "\"value\": " + Number(value) +
                (paper ? ", \"paper\": " + Number(*paper) : ""));
  }

  /// A categorical value: a grid, a processor, a verdict, or "OOM".
  void Label(const std::string& id, const std::string& value) {
    Add(id, "\"value\": \"" + JsonEscape(value) + "\"");
  }

  void Oom(const std::string& id) { Label(id, "OOM"); }

  /// The signed GPU-over-CPU speedup in the paper's convention (-1.32
  /// means the GPU takes 1.32 times as long), or OOM without a GPU
  /// time.
  void Speedup(const std::string& id, double cpu, std::optional<double> gpu,
               std::optional<double> paper = std::nullopt) {
    if (!gpu) return Oom(id);
    Value(id, analysis::SignedSpeedup(cpu, *gpu), paper);
  }

  void Observation(const analysis::ObservationCheck& check) {
    Add("obs." + check.id,
        StrFormat("\"holds\": %s, \"evidence\": \"%s\"",
                  check.holds ? "true" : "false",
                  JsonEscape(check.evidence).c_str()));
  }

  std::string Json() const {
    return "{\n  \"rows\": [\n    " + Join(rows_, ",\n    ") + "\n  ]\n}\n";
  }

 private:
  /// Counts and byte sizes print exactly; measurements keep ten
  /// significant digits. JSON has no NaN, so an undefined value is
  /// null.
  static std::string Number(double v) {
    if (!std::isfinite(v)) return "null";
    if (v == std::floor(v) && std::fabs(v) < 1e15) {
      return StrFormat("%.0f", v);
    }
    return StrFormat("%.10g", v);
  }

  void Add(const std::string& id, const std::string& fields) {
    TB_CHECK(ids_.insert(id).second) << "duplicate row " << id;
    rows_.push_back("{\"id\": \"" + JsonEscape(id) + "\", " + fields + "}");
    std::printf("%s\n", rows_.back().c_str());
  }

  std::vector<std::string> rows_;
  std::set<std::string> ids_;
};

/// The sweeps O1-O6 check, collected from the figures that run them.
struct ObservationInputs {
  std::vector<double> user_speedups;  ///< O1: Figure 9a, 10 clusters
  std::vector<analysis::TaskCountSpeedup> task_speedups;  ///< O2: Fig. 7b
  std::vector<double> add_speedups;   ///< O3: Figure 8's add_func
  std::vector<double> by_clusters;    ///< O4: Figure 9a at 64x1
  analysis::PolicySensitivityInput local, shared;  ///< O5/O6: Fig. 10b
};

std::string GridId(int64_t rows, int64_t cols) {
  return StrFormat("%lldx%lld", static_cast<long long>(rows),
                   static_cast<long long>(cols));
}

ExperimentResult MustRun(const ExperimentConfig& config) {
  auto result = analysis::RunExperiment(config);
  TB_CHECK_OK(result.status());
  return *std::move(result);
}

/// One of the paper's sizing sweeps (Section 4.4.5): a dataset over
/// its algorithm's grids, one K-means iteration, 10 clusters, on
/// Minotauro with the default run options (shared disk, task
/// generation order). `task` is the type whose stages Figure 7 plots.
struct Sweep {
  const char* name;
  Algorithm algorithm;
  data::DatasetSpec (*dataset)();
  const char* task;

  ExperimentConfig At(int64_t rows, int64_t cols, Processor processor) const {
    ExperimentConfig config;
    config.algorithm = algorithm;
    config.dataset = dataset();
    config.iterations = 1;
    config.grid_rows = rows;
    config.grid_cols = cols;
    config.processor = processor;
    return config;
  }

  Grids grids() const {
    return algorithm == Algorithm::kKMeans ? analysis::KMeansPaperGrids()
                                           : analysis::MatmulPaperGrids();
  }
};

constexpr Sweep kMatmul8GB{"matmul_8gb", Algorithm::kMatmul,
                           &PaperDatasets::Matmul8GB, "matmul_func"};
constexpr Sweep kMatmul32GB{"matmul_32gb", Algorithm::kMatmul,
                            &PaperDatasets::Matmul32GB, "matmul_func"};
constexpr Sweep kKMeans10GB{"kmeans_10gb", Algorithm::kKMeans,
                            &PaperDatasets::KMeans10GB, "partial_sum"};
constexpr Sweep kKMeans100GB{"kmeans_100gb", Algorithm::kKMeans,
                             &PaperDatasets::KMeans100GB, "partial_sum"};

/// Factor lists over both processors, storage architectures and
/// scheduling policies.
analysis::FactorLists SystemFactors() {
  analysis::FactorLists lists;
  lists.processors = {Processor::kCpu, Processor::kGpu};
  lists.storages = {StorageArchitecture::kLocalDisk,
                    StorageArchitecture::kSharedDisk};
  lists.policies = {SchedulingPolicy::kTaskGenerationOrder,
                    SchedulingPolicy::kDataLocality};
  return lists;
}

/// A task's single-task user-code time (serial + parallel fraction +
/// CPU-GPU communication) on `processor`; none on a GPU whose memory
/// the task does not fit. The storage architecture only moves
/// (de)serialization, which user code excludes.
std::optional<double> UserCode(const perf::CostModel& model,
                               const perf::TaskCost& cost,
                               Processor processor) {
  auto stages =
      model.EstimateStages(cost, processor, StorageArchitecture::kLocalDisk);
  if (stages.ok()) return stages->user_code();
  TB_CHECK(stages.status().IsOutOfMemory()) << stages.status().ToString();
  return std::nullopt;
}

/// One task's single-task analysis (Sections 5.1-5.2): its user-code
/// times and speedup, and the stage times behind them. Returns the
/// user-code times on CPU and GPU.
std::pair<double, std::optional<double>> TaskRows(
    Study& study, const std::string& id, const perf::CostModel& model,
    const perf::TaskCost& cost, std::optional<double> paper = std::nullopt) {
  const double cpu = *UserCode(model, cost, Processor::kCpu);
  const std::optional<double> gpu = UserCode(model, cost, Processor::kGpu);
  study.Value(id + ".user_code.cpu_s", cpu);
  if (gpu) {
    study.Value(id + ".user_code.gpu_s", *gpu);
  } else {
    study.Oom(id + ".user_code.gpu_s");
  }
  study.Speedup(id + ".user_code.speedup", cpu, gpu, paper);
  study.Value(id + ".parallel_fraction.cpu_s",
              model.CpuParallelFraction(cost));
  study.Value(id + ".parallel_fraction.gpu_s",
              model.GpuParallelFraction(cost));
  study.Value(id + ".serial_fraction_s", model.SerialFraction(cost));
  study.Value(id + ".cpu_gpu_comm_s", model.CpuGpuComm(cost));
  return {cpu, gpu};
}

// Figure 1: K-means 10 GB at three granularities. The single-task
// stages are one 256th of the dataset with 10 clusters; the parallel
// tasks are the whole 256-task run on 128 cores or 32 GPUs.
void Figure1(Study& study, const perf::CostModel& model) {
  const perf::TaskCost cost = algos::PartialSumCost(12500000 / 256, 100, 10);
  study.Speedup("fig1.parallel_fraction.speedup",
                model.CpuParallelFraction(cost),
                model.GpuParallelFraction(cost), 5.69);
  TaskRows(study, "fig1", model, cost, 1.24);
  const ExperimentResult cpu =
      MustRun(kKMeans10GB.At(256, 1, Processor::kCpu));
  const ExperimentResult gpu =
      MustRun(kKMeans10GB.At(256, 1, Processor::kGpu));
  TB_CHECK(!cpu.oom && !gpu.oom);
  study.Value("fig1.parallel_tasks.cpu_s", cpu.parallel_task_time);
  study.Value("fig1.parallel_tasks.gpu_s", gpu.parallel_task_time);
  study.Speedup("fig1.parallel_tasks.speedup", cpu.parallel_task_time,
                gpu.parallel_task_time, -1.20);
}

// Figure 6: K-means (4x1, 3 iterations) builds a narrow, deep DAG and
// Matmul (4x4) a wide, shallow one. `taskbench dag` draws both.
void Figure6(Study& study) {
  ExperimentConfig kmeans = kKMeans10GB.At(4, 1, Processor::kCpu);
  kmeans.iterations = 3;
  for (const auto& [name, config] :
       {std::pair{"fig6.kmeans_4x1", kmeans},
        std::pair{"fig6.matmul_4x4", kMatmul8GB.At(4, 4, Processor::kCpu)}}) {
    const ExperimentResult result = MustRun(config);
    const std::string id = name;
    study.Value(id + ".tasks", result.report.records.size());
    study.Value(id + ".max_width", result.dag_width);
    study.Value(id + ".max_height", result.dag_height);
  }
}

// Figure 7: per block size, the GPU speedup at three granularities and
// the stage times the bottom charts plot, on the main task type.
void Figure7(Study& study, ObservationInputs& obs) {
  for (const auto& [figure, sweep] :
       {std::pair{"fig7a", kMatmul8GB}, std::pair{"fig7a", kMatmul32GB},
        std::pair{"fig7b", kKMeans10GB}, std::pair{"fig7b", kKMeans100GB}}) {
    for (const auto& [rows, cols] : sweep.grids()) {
      const std::string id =
          StrFormat("%s.%s.", figure, sweep.name) + GridId(rows, cols);
      const ExperimentResult cpu =
          MustRun(sweep.At(rows, cols, Processor::kCpu));
      const ExperimentResult gpu =
          MustRun(sweep.At(rows, cols, Processor::kGpu));
      TB_CHECK(!cpu.oom);
      const perf::StageTimes& c = cpu.stages_by_type.at(sweep.task);
      study.Value(id + ".block_bytes", cpu.block_bytes);
      study.Value(id + ".parallel_fraction.cpu_s", c.parallel_fraction);
      if (gpu.oom) {
        for (const char* metric :
             {"parallel_fraction.speedup", "user_code.speedup",
              "parallel_tasks.speedup", "serial_comm.gpu_s",
              "deser_ser.gpu_s"}) {
          study.Oom(id + "." + metric);
        }
        continue;
      }
      const perf::StageTimes& g = gpu.stages_by_type.at(sweep.task);
      study.Speedup(id + ".parallel_fraction.speedup", c.parallel_fraction,
                    g.parallel_fraction);
      study.Speedup(id + ".user_code.speedup", c.user_code(), g.user_code());
      study.Speedup(id + ".parallel_tasks.speedup", cpu.parallel_task_time,
                    gpu.parallel_task_time);
      study.Value(id + ".serial_comm.gpu_s",
                  g.serial_fraction + g.cpu_gpu_comm);
      study.Value(id + ".deser_ser.gpu_s", g.deserialize + g.serialize);
      if (sweep.dataset == kKMeans10GB.dataset && rows >= 4) {
        obs.task_speedups.push_back(
            {rows, analysis::SignedSpeedup(cpu.parallel_task_time,
                                           gpu.parallel_task_time)});
      }
    }
  }
}

// Figure 8: matmul_func (O(N^3)) against add_func (O(N)) on the 8 GB
// dataset's block sizes; 8 GB blocks OOM and the paper skips them.
void Figure8(Study& study, const perf::CostModel& model,
             ObservationInputs& obs) {
  for (int64_t g : {16, 8, 4, 2}) {
    const int64_t n = 32768 / g;
    const std::string id = "fig8." + GridId(g, g);
    const perf::TaskCost mm = algos::MatmulFuncCost(n, n, n, false);
    study.Value(id + ".n", n);
    study.Value(id + ".block_bytes", mm.input_bytes / 2);
    TaskRows(study, id + ".matmul_func", model, mm);
    const auto [cpu, gpu] =
        TaskRows(study, id + ".add_func", model, algos::AddFuncCost(n, n));
    obs.add_speedups.push_back(analysis::SignedSpeedup(cpu, *gpu));
  }
}

// Figure 9a: 10 / 100 / 1000 clusters across the K-means 10 GB block
// sizes.
void Figure9a(Study& study, const perf::CostModel& model,
              ObservationInputs& obs) {
  for (int clusters : {10, 100, 1000}) {
    for (int64_t g : {256, 128, 64, 32, 16, 8, 4, 2, 1}) {
      const int64_t rows = 12500000 / g;
      const std::string id =
          StrFormat("fig9a.k%d.", clusters) + GridId(g, 1);
      study.Value(id + ".block_bytes", rows * 100 * 8);
      const auto [cpu, gpu] = TaskRows(
          study, id, model, algos::PartialSumCost(rows, 100, clusters));
      if (!gpu) continue;
      const double ratio = cpu / *gpu;
      if (clusters == 10 && g >= 4) obs.user_speedups.push_back(ratio);
      if (g == 64) obs.by_clusters.push_back(ratio);
    }
  }
}

// Figure 10: parallel-task time over {local, shared} disk x {task
// generation order, data locality} x {CPU, GPU}. Block sizes are
// Figure 7's rows for the same dataset and grid.
void Figure10(Study& study, ObservationInputs& obs) {
  for (const auto& [figure, sweep] : {std::pair{"fig10a", kMatmul8GB},
                                      std::pair{"fig10b", kKMeans10GB}}) {
    analysis::FactorLists lists = SystemFactors();
    lists.algorithms = {sweep.algorithm};
    lists.datasets = {sweep.dataset()};
    lists.grids = sweep.grids();
    for (const ExperimentConfig& config :
         analysis::FullFactorial(lists, sweep.At(1, 1, Processor::kCpu))) {
      const bool cpu = config.processor == Processor::kCpu;
      const bool local = config.run.storage == StorageArchitecture::kLocalDisk;
      const bool gen_order =
          config.run.policy == SchedulingPolicy::kTaskGenerationOrder;
      const std::string id = StrFormat(
          "%s.%s.%s.%s.%s.%s_s", figure, sweep.name,
          GridId(config.grid_rows, config.grid_cols).c_str(),
          cpu ? "cpu" : "gpu", local ? "local" : "shared",
          gen_order ? "gen_order" : "locality");
      const ExperimentResult result = MustRun(config);
      if (result.oom) {
        study.Oom(id);
        continue;
      }
      study.Value(id, result.parallel_task_time);
      if (sweep.dataset == kKMeans10GB.dataset && config.grid_rows >= 16) {
        analysis::PolicySensitivityInput& in = local ? obs.local : obs.shared;
        (cpu ? (gen_order ? in.cpu_gen_order : in.cpu_locality)
             : (gen_order ? in.gpu_gen_order : in.gpu_locality))
            .push_back(result.parallel_task_time);
      }
    }
  }
}

// The headline coefficients the paper reports for Figure 11 (Section
// 5.4). The algorithm-specific parameter is only defined for K-means,
// so its three coefficients are read over the K-means samples alone.
struct Anchor {
  const char* a;
  const char* b;
  double paper;
};
constexpr Anchor kAnchors[] = {
    {"parallel-task-exec-time", "block-size", 0.398},
    {"parallel-task-exec-time", "parallel-fraction", 0.377},
    {"parallel-task-exec-time", "computational-complexity", 0.499},
    {"parallel-task-exec-time", "dag-max-width", -0.005},
    {"parallel-task-exec-time", "dataset-size", -0.009},
    {"parallel-task-exec-time", "storage=shared-disk", 0.194},
    {"parallel-task-exec-time", "storage=local-disk", -0.194},
    {"parallel-task-exec-time", "scheduling=task-gen-order", -0.065},
    {"parallel-task-exec-time", "processor=CPU", 0.066},
    {"algorithm-specific-param", "computational-complexity", 0.836},
    {"block-size", "grid-dimension", -0.778},
    {"grid-dimension", "dag-max-width", 0.961},
    {"processor=CPU", "processor=GPU", -1.0},
    {"storage=shared-disk", "scheduling=task-gen-order", 0.425},
};
constexpr Anchor kKMeansAnchors[] = {
    {"algorithm-specific-param", "computational-complexity", 0.836},
    {"algorithm-specific-param", "parallel-fraction", 0.532},
    {"algorithm-specific-param", "parallel-task-exec-time", 0.263},
};

stats::CorrelationMatrix Spearman(
    const std::vector<ExperimentResult>& results) {
  auto table = analysis::BuildFeatureTableFromResults(results);
  TB_CHECK_OK(table.status());
  table->DropConstantColumns();
  auto matrix = table->SpearmanMatrix();
  TB_CHECK_OK(matrix.status());
  return *std::move(matrix);
}

// Figure 11: the Spearman matrix over the correlation sample set
// (GPU-OOM samples carry no time and are dropped), one row per pair.
void Figure11(Study& study, const std::vector<ExperimentResult>& samples) {
  const auto oom = std::count_if(samples.begin(), samples.end(),
                                 [](const auto& r) { return r.oom; });
  study.Value("fig11.configs", samples.size());
  study.Value("fig11.samples", samples.size() - oom);
  study.Value("fig11.oom_dropped", oom);
  const stats::CorrelationMatrix matrix = Spearman(samples);
  size_t anchored = 0;
  for (size_t i = 0; i < matrix.names.size(); ++i) {
    for (size_t j = i + 1; j < matrix.names.size(); ++j) {
      std::optional<double> paper;
      for (const Anchor& anchor : kAnchors) {
        if (matrix.names[i] == anchor.a && matrix.names[j] == anchor.b) {
          paper = anchor.paper;
          ++anchored;
        }
      }
      study.Value("fig11.rho." + matrix.names[i] + "~" + matrix.names[j],
                  matrix.values[i][j], paper);
    }
  }
  TB_CHECK(anchored == std::size(kAnchors)) << "an anchor names no pair";

  std::vector<ExperimentResult> kmeans;
  for (const ExperimentResult& result : samples) {
    if (result.config.algorithm == Algorithm::kKMeans) {
      kmeans.push_back(result);
    }
  }
  const stats::CorrelationMatrix kmatrix = Spearman(kmeans);
  for (const Anchor& anchor : kKMeansAnchors) {
    auto rho = kmatrix.At(anchor.a, anchor.b);
    TB_CHECK_OK(rho.status());
    study.Value(StrFormat("fig11.kmeans_only.rho.%s~%s", anchor.a, anchor.b),
                *rho, anchor.paper);
  }
}

// Figure 12: the FMA Matmul follows the dislib Matmul's trends.
void Figure12(Study& study, const perf::CostModel& model) {
  for (int64_t g : {16, 8, 4, 2, 1}) {
    const int64_t n = 32768 / g;
    const std::string id = "fig12." + GridId(g, g);
    const perf::TaskCost fma = algos::MatmulFuncCost(n, n, n, true);
    study.Value(id + ".n", n);
    study.Value(id + ".block_bytes", fma.input_bytes / 2);
    TaskRows(study, id + ".fma", model, fma);
    const perf::TaskCost dislib = algos::MatmulFuncCost(n, n, n, false);
    study.Speedup(id + ".dislib.user_code.speedup",
                  *UserCode(model, dislib, Processor::kCpu),
                  UserCode(model, dislib, Processor::kGpu));
  }
}

// Table 1: every factor is a sweepable axis; a full factorial over all
// eight of them enumerates this many unique configurations.
void Table1(Study& study) {
  analysis::FactorLists lists = SystemFactors();
  lists.algorithms = {Algorithm::kMatmul, Algorithm::kKMeans};
  lists.datasets = {PaperDatasets::Matmul128MB()};
  lists.grids = {{1, 1}, {2, 1}};
  lists.clusters = {10, 100};
  study.Value("table1.full_factorial_configs",
              analysis::FullFactorial(lists, ExperimentConfig()).size());
}

// Section 5.5.2: an NVLink-class bus in place of pageable PCIe 3.0,
// for Figure 8's task types and block sizes.
void BusAblation(Study& study) {
  hw::ClusterSpec nvlink = hw::MinotauroCluster();
  nvlink.bus = hw::NvlinkClass();
  const std::pair<const char*, perf::CostModel> buses[] = {
      {"pcie3", perf::CostModel(hw::MinotauroCluster())},
      {"nvlink", perf::CostModel(nvlink)}};
  for (int64_t g : {16, 8, 4, 2}) {
    const int64_t n = 32768 / g;
    const std::pair<const char*, perf::TaskCost> tasks[] = {
        {"matmul_func", algos::MatmulFuncCost(n, n, n, false)},
        {"add_func", algos::AddFuncCost(n, n)}};
    for (const auto& [task, cost] : tasks) {
      for (const auto& [bus, model] : buses) {
        study.Speedup(StrFormat("ablation_bus.%s.%s.%s.user_code.speedup",
                                GridId(g, g).c_str(), task, bus),
                      *UserCode(model, cost, Processor::kCpu),
                      UserCode(model, cost, Processor::kGpu));
      }
    }
  }
}

// The master's per-decision cost against task granularity: the master
// serializes dispatch, so 256 tasks pay it 256 times.
void SchedulerOverheadAblation(Study& study) {
  for (int64_t g : {8, 32, 128, 256}) {
    const std::string id = "ablation_sched_overhead." + GridId(g, 1);
    double base = 0;
    double worst = 0;
    for (double overhead : {0.0, 1e-3, 5e-3, 20e-3}) {
      ExperimentConfig config = kKMeans10GB.At(g, 1, Processor::kCpu);
      config.run.scheduler_overhead_override_s = overhead;
      const double makespan = MustRun(config).makespan;
      if (overhead == 0.0) base = makespan;
      worst = makespan;
      study.Value(StrFormat("%s.decision_%gms.makespan_s", id.c_str(),
                            overhead * 1e3),
                  makespan);
    }
    study.Value(id + ".slowdown_0_to_20ms", worst / base);
  }
}

// Figure 1's negative parallel-task speedup against the number of GPU
// devices per node (the CPU side keeps the paper's 4).
void ClusterShapeAblation(Study& study) {
  const auto run = [](Processor processor, int gpus_per_node) {
    ExperimentConfig config = kKMeans10GB.At(256, 1, processor);
    config.cluster.gpus_per_node = gpus_per_node;
    const ExperimentResult result = MustRun(config);
    TB_CHECK(!result.oom);
    return result.parallel_task_time;
  };
  const double cpu = run(Processor::kCpu, 4);
  study.Value("ablation_cluster_shape.cpu.parallel_tasks_s", cpu);
  for (int gpus : {1, 2, 4, 8, 16}) {
    const std::string id =
        StrFormat("ablation_cluster_shape.gpus_per_node_%d", gpus);
    const double gpu = run(Processor::kGpu, gpus);
    study.Value(id + ".total_gpus", gpus * hw::MinotauroCluster().num_nodes);
    study.Value(id + ".parallel_tasks_s", gpu);
    study.Speedup(id + ".speedup", cpu, gpu);
  }
}

// Section 5.5.1's spectrum: four algorithms placed by parallel
// fraction and arithmetic intensity, with comparable ~600 MB blocks.
void Generalizability(Study& study, const perf::CostModel& model) {
  const int64_t rows = 12500000 / 16;
  const std::pair<const char*, perf::TaskCost> tasks[] = {
      {"matmul_func", algos::MatmulFuncCost(4096, 4096, 4096, false)},
      {"transpose_func", algos::TransposeFuncCost(8192, 8192)},
      {"grad_func", algos::GradFuncCost(rows, 101)},
      {"partial_sum", algos::PartialSumCost(rows, 100, 10)}};
  for (const auto& [task, cost] : tasks) {
    const std::string id = std::string("generalizability.") + task;
    const auto [cpu, gpu] = TaskRows(study, id, model, cost);
    TB_CHECK(gpu.has_value());
    const double speedup = cpu / *gpu;
    const double serial = model.SerialFraction(cost);
    const double parallel = model.CpuParallelFraction(cost);
    study.Value(id + ".parallel_share", parallel / (parallel + serial));
    study.Value(id + ".flops_per_byte",
                cost.parallel.bytes > 0
                    ? cost.parallel.flops / cost.parallel.bytes
                    : 0);
    study.Label(id + ".verdict", speedup > 2.0    ? "GPU wins"
                                 : speedup > 0.95 ? "break-even"
                                                  : "GPU loses");
  }
}

// Hybrid placement: GPU tasks spill onto idle CPU cores and degrade
// to CPU instead of failing on OOM. Utilization is over all 160 slots.
void HybridPlacement(Study& study) {
  const hw::ClusterSpec cluster = hw::MinotauroCluster();
  const int slots = cluster.total_cores() + cluster.total_gpus();
  for (int64_t g : {8, 32, 64, 128, 256}) {
    const std::string id = "hybrid." + GridId(g, 1);
    const auto run = [g](Processor target, bool hybrid) {
      ExperimentConfig config = kKMeans10GB.At(g, 1, target);
      config.run.hybrid = hybrid;
      return MustRun(config);
    };
    const ExperimentResult cpu = run(Processor::kCpu, false);
    const ExperimentResult gpu = run(Processor::kGpu, false);
    const ExperimentResult hybrid = run(Processor::kGpu, true);
    TB_CHECK(!cpu.oom && !gpu.oom && !hybrid.oom);
    const auto on_cpu = std::count_if(
        hybrid.report.records.begin(), hybrid.report.records.end(),
        [](const auto& record) { return record.processor == Processor::kCpu; });
    const double best_pure =
        std::min(cpu.parallel_task_time, gpu.parallel_task_time);
    study.Value(id + ".cpu_only_s", cpu.parallel_task_time);
    study.Value(id + ".gpu_only_s", gpu.parallel_task_time);
    study.Value(id + ".hybrid_s", hybrid.parallel_task_time);
    study.Value(id + ".hybrid_cpu_tasks", on_cpu);
    study.Value(id + ".hybrid_gpu_tasks",
                hybrid.report.records.size() - on_cpu);
    study.Value(id + ".gpu_only_utilization_pct",
                gpu.report.SlotUtilization(slots) * 100);
    study.Value(id + ".hybrid_utilization_pct",
                hybrid.report.SlotUtilization(slots) * 100);
    study.Value(id + ".hybrid_vs_best_pure_pct",
                (best_pure / hybrid.parallel_task_time - 1.0) * 100.0);
  }
}

// Section 5.4.3's learned model: a tree and a 25-tree forest trained on
// two thirds of Figure 11's executed samples, judged on the rest, and
// the configuration the tree picks without simulating any candidate.
void Predictor(Study& study, const std::vector<ExperimentResult>& samples) {
  using analysis::PerformancePredictor;
  // A 2:1 split interleaved over the sweep order, so both sides span
  // every algorithm and factor.
  std::vector<ExperimentResult> train, test;
  for (const ExperimentResult& sample : samples) {
    if (sample.oom) continue;
    ((train.size() + test.size()) % 3 == 2 ? test : train).push_back(sample);
  }
  auto tree = PerformancePredictor::Train(train);
  TB_CHECK_OK(tree.status());
  auto forest = PerformancePredictor::TrainForest(train);
  TB_CHECK_OK(forest.status());
  study.Value("predictor.train_samples", train.size());
  study.Value("predictor.test_samples", test.size());

  for (const auto& [name, model] :
       {std::pair{"tree", &*tree}, std::pair{"forest", &*forest}}) {
    // Error as a ratio >= 1 between predicted and simulated time.
    std::vector<double> ratios;
    for (const ExperimentResult& sample : test) {
      auto predicted = model->PredictSeconds(sample);
      TB_CHECK_OK(predicted.status());
      ratios.push_back(std::max(*predicted / sample.parallel_task_time,
                                sample.parallel_task_time / *predicted));
    }
    std::sort(ratios.begin(), ratios.end());
    for (const auto& [label, p] :
         {std::pair{"p50", 0.5}, std::pair{"p75", 0.75},
          std::pair{"p90", 0.9}, std::pair{"worst", 1.0}}) {
      study.Value(StrFormat("predictor.%s.error_%s", name, label),
                  ratios[static_cast<size_t>(p * (ratios.size() - 1))]);
    }
  }
  const std::vector<double> importance = forest->FeatureImportance();
  const std::vector<std::string>& names = PerformancePredictor::FeatureNames();
  for (size_t i = 0; i < names.size(); ++i) {
    study.Value("predictor.importance." + names[i], importance[i]);
  }

  for (const Sweep& sweep : {kKMeans10GB, kMatmul8GB}) {
    auto choice = tree->PredictBest(sweep.At(1, 1, Processor::kCpu),
                                    sweep.grids());
    TB_CHECK_OK(choice.status());
    double best = INFINITY;
    double picked = 0;
    for (const auto& [rows, cols] : sweep.grids()) {
      for (Processor proc : {Processor::kCpu, Processor::kGpu}) {
        const ExperimentResult truth = MustRun(sweep.At(rows, cols, proc));
        if (truth.oom) continue;
        best = std::min(best, truth.parallel_task_time);
        if (rows == choice->grid_rows && cols == choice->grid_cols &&
            proc == choice->processor) {
          picked = truth.parallel_task_time;
        }
      }
    }
    TB_CHECK(picked > 0);
    const std::string id = std::string("predictor.pick.") + sweep.name;
    study.Label(id + ".grid", GridId(choice->grid_rows, choice->grid_cols));
    study.Label(id + ".processor", ToString(choice->processor));
    study.Value(id + ".true_s", picked);
    study.Value(id + ".best_s", best);
    study.Value(id + ".regret_pct", (picked / best - 1) * 100);
  }
}

/// Median per-task kernel time in one real run of Figure 9b's
/// workflows at laptop scale: Matmul 768² in 2x2 blocks with its A
/// blocks regenerated skewed (skew changes values, never shapes), or
/// K-means 20000 x 16 in 4x1 blocks generated skewed.
double KernelTime(bool kmeans, double skew, uint64_t seed) {
  runtime::TaskGraph graph;
  if (kmeans) {
    auto spec = data::GridSpec::CreateFromGridDim(
        data::DatasetSpec{"x", 20000, 16}, 4, 1);
    TB_CHECK_OK(spec.status());
    algos::KMeansOptions options;
    options.materialize = true;
    options.num_clusters = 10;
    options.iterations = 2;
    options.skew = skew;
    options.seed = seed;
    auto wf = algos::BuildKMeans(*spec, options);
    TB_CHECK_OK(wf.status());
    graph = std::move(wf->graph);
  } else {
    auto spec = data::GridSpec::CreateFromGridDim(
        data::DatasetSpec{"m", 768, 768}, 2, 2);
    TB_CHECK_OK(spec.status());
    algos::MatmulOptions options;
    options.materialize = true;
    options.seed = seed;
    auto wf = algos::BuildMatmul(*spec, options);
    TB_CHECK_OK(wf.status());
    for (const auto& row : wf->a) {
      for (runtime::DataId id : row) {
        if (skew == 0) continue;
        Rng rng(seed ^ static_cast<uint64_t>(id));
        data::FillSkewed(&*wf->graph.mutable_data(id).value, &rng, skew);
      }
    }
    graph = std::move(wf->graph);
  }
  runtime::RunOptions options;
  options.num_threads = 2;
  options.use_storage = false;
  auto report = runtime::ThreadPoolExecutor(options).Execute(graph);
  TB_CHECK_OK(report.status());
  std::vector<double> times;
  for (const auto& record : report->records) {
    if (record.type == (kmeans ? "partial_sum" : "matmul_func")) {
      times.push_back(record.stages.parallel_fraction);
    }
  }
  TB_CHECK(!times.empty());
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

// Figure 9b: 50% skewed data leaves the real kernels' time unchanged
// (the paper: ~1.00). Minimum over four seeds of each median.
void Figure9b() {
  for (const bool kmeans : {false, true}) {
    double uniform = INFINITY;
    double skewed = INFINITY;
    for (uint64_t seed : {1u, 2u, 3u, 4u}) {
      uniform = std::min(uniform, KernelTime(kmeans, 0.0, seed));
      skewed = std::min(skewed, KernelTime(kmeans, 0.5, seed));
    }
    std::printf(
        "fig9b.%s: uniform %.4g s, 50%% skewed %.4g s, ratio %.2f "
        "(wall clock, not written)\n",
        kmeans ? "kmeans" : "matmul", uniform, skewed, skewed / uniform);
  }
}

int Main(int argc, char** argv) {
  const Args args = Args::Parse(argc, argv);
  const Status flags = args.CheckFlags({"out"});
  if (!flags.ok() || !args.positional().empty()) {
    if (!flags.ok()) {
      std::fprintf(stderr, "bench_paper: %s\n", flags.message().c_str());
    }
    std::fprintf(stderr, "usage: bench_paper [--out=BENCH_paper.json]\n");
    return 2;
  }
  const std::string out_path = args.GetString("out", "BENCH_paper.json");

  Study study;
  ObservationInputs obs;
  const perf::CostModel model(hw::MinotauroCluster());
  // Figure 11 and the predictor share one pass over the samples.
  std::vector<ExperimentResult> samples;
  for (const ExperimentConfig& config : analysis::CorrelationSampleConfigs()) {
    samples.push_back(MustRun(config));
  }
  Figure1(study, model);
  Figure6(study);
  Figure7(study, obs);
  Figure8(study, model, obs);
  Figure9a(study, model, obs);
  Figure10(study, obs);
  Figure11(study, samples);
  Figure12(study, model);
  Table1(study);
  study.Observation(analysis::CheckO1(obs.user_speedups));
  study.Observation(analysis::CheckO2(obs.task_speedups,
                                      hw::MinotauroCluster().total_gpus()));
  study.Observation(analysis::CheckO3(obs.add_speedups));
  study.Observation(analysis::CheckO4(obs.by_clusters));
  study.Observation(analysis::CheckO5(obs.local));
  study.Observation(analysis::CheckO6(obs.local, obs.shared));
  BusAblation(study);
  SchedulerOverheadAblation(study);
  ClusterShapeAblation(study);
  Generalizability(study, model);
  HybridPlacement(study);
  Predictor(study, samples);
  Figure9b();

  TB_CHECK_OK(analysis::WriteFile(out_path, study.Json()));
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace taskbench::bench

int main(int argc, char** argv) { return taskbench::bench::Main(argc, argv); }
