// Scheduling-path scaling bench: how fast can the simulated master
// chew through large DAGs? Unlike the figure benches this measures
// *our* wall-clock (master bookkeeping + event engine), not simulated
// time — the regime of observation O6, where fine-grained workflows
// are limited by the scheduler rather than the modeled hardware.
//
// Shapes:
//   wide  — N independent tasks (maximum ready-set pressure),
//   deep  — one N-task chain (maximum event-path pressure),
//   grid  — W lanes x N/W levels (both pressures at once),
//   study — one single-threaded pass over the paper's factor study
//           (analysis::CorrelationSampleConfigs, graph builds included),
//           the simulator's heaviest real caller.
//
// Every row is timed after one untimed warm-up run: the median and
// quartiles of 5 timed runs (1 under --smoke). Simulated makespans and
// event counts are deterministic and must repeat on every run.
//
// Emits machine-readable JSON (default BENCH_sched_scaling.json) with
// the host metadata, so later changes have a perf trajectory to
// compare against.
//
// Usage: bench_sched_scaling [--smoke] [--large] [--sizes=10000,...]
//                            [--out=BENCH_sched_scaling.json]

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "analysis/experiment.h"
#include "analysis/factor_space.h"
#include "common/args.h"
#include "common/logging.h"
#include "common/strings.h"
#include "hw/cluster.h"
#include "hw/topology.h"
#include "runtime/simulated_executor.h"
#include "runtime/task_graph.h"

#ifndef TB_BENCH_BUILD_TYPE
#define TB_BENCH_BUILD_TYPE "unknown"
#endif

namespace taskbench::bench {
namespace {

using runtime::Dir;
using runtime::TaskGraph;
using runtime::TaskSpec;

constexpr uint64_t kBlockBytes = 1 << 20;  // 1 MiB blocks
constexpr int kSharedInputs = 1024;        // wide tasks share input blocks
constexpr int kGridWidth = 512;

perf::TaskCost SmallCost() {
  perf::TaskCost cost;
  cost.parallel.flops = 1e6;
  cost.parallel.bytes = 1e6;
  cost.serial.flops = 1e4;
  cost.serial.bytes = 1e4;
  cost.input_bytes = kBlockBytes;
  cost.output_bytes = kBlockBytes;
  return cost;
}

TaskSpec SpecFor(runtime::DataId in, runtime::DataId out) {
  TaskSpec spec;
  spec.type = "scale_task";
  spec.cost = SmallCost();
  spec.processor = Processor::kCpu;
  spec.params = {{in, Dir::kIn}, {out, Dir::kOut}};
  return spec;
}

/// N independent tasks; inputs cycle over a shared pool of blocks so
/// the locality scheduler has real (and varied) homes to weigh.
TaskGraph WideGraph(int64_t n) {
  TaskGraph graph;
  std::vector<runtime::DataId> inputs;
  inputs.reserve(kSharedInputs);
  for (int i = 0; i < kSharedInputs; ++i) {
    inputs.push_back(graph.AddData(kBlockBytes));
  }
  for (int64_t t = 0; t < n; ++t) {
    const runtime::DataId out = graph.AddData(kBlockBytes);
    TB_CHECK_OK(
        graph.Submit(SpecFor(inputs[static_cast<size_t>(t % kSharedInputs)],
                             out)).status());
  }
  return graph;
}

/// One chain of N tasks, each reading its predecessor's output.
TaskGraph DeepGraph(int64_t n) {
  TaskGraph graph;
  runtime::DataId prev = graph.AddData(kBlockBytes);
  for (int64_t t = 0; t < n; ++t) {
    const runtime::DataId out = graph.AddData(kBlockBytes);
    TB_CHECK_OK(graph.Submit(SpecFor(prev, out)).status());
    prev = out;
  }
  return graph;
}

/// kGridWidth independent lanes of N/kGridWidth levels each.
TaskGraph GridGraph(int64_t n) {
  TaskGraph graph;
  const int64_t levels = std::max<int64_t>(1, n / kGridWidth);
  std::vector<runtime::DataId> lane(kGridWidth);
  for (int w = 0; w < kGridWidth; ++w) {
    lane[static_cast<size_t>(w)] = graph.AddData(kBlockBytes);
  }
  for (int64_t l = 0; l < levels; ++l) {
    for (int w = 0; w < kGridWidth; ++w) {
      const runtime::DataId out = graph.AddData(kBlockBytes);
      TB_CHECK_OK(
          graph.Submit(SpecFor(lane[static_cast<size_t>(w)], out)).status());
      lane[static_cast<size_t>(w)] = out;
    }
  }
  return graph;
}

/// One timed run: wall seconds plus the deterministic outputs that
/// must repeat on every run.
struct Sample {
  double wall_s = 0;
  double makespan = 0;
  uint64_t sim_events = 0;
  int64_t tasks = 0;
};

struct Row {
  std::string shape;
  std::string policy;
  int runs = 0;
  int64_t tasks = 0;
  double wall_p25 = 0, wall_p50 = 0, wall_p75 = 0;
  double makespan = 0;
  uint64_t sim_events = 0;
};

/// Runs `once` untimed, then `runs` timed times; the row holds the
/// median and quartiles of the wall times (exact sample ranks when
/// runs is 4k + 1).
Row Measure(const std::string& shape, const std::string& policy, int runs,
            const std::function<Sample()>& once) {
  const Sample warm = once();
  std::vector<double> wall;
  for (int i = 0; i < runs; ++i) {
    const Sample s = once();
    TB_CHECK(s.makespan == warm.makespan && s.sim_events == warm.sim_events)
        << shape << "/" << policy << ": a rerun changed the simulation";
    wall.push_back(s.wall_s);
  }
  std::sort(wall.begin(), wall.end());
  const size_t quarter = (wall.size() - 1) / 4;
  Row row;
  row.shape = shape;
  row.policy = policy;
  row.runs = runs;
  row.tasks = warm.tasks;
  row.wall_p25 = wall[quarter];
  row.wall_p50 = wall[(wall.size() - 1) / 2];
  row.wall_p75 = wall[wall.size() - 1 - quarter];
  row.makespan = warm.makespan;
  row.sim_events = warm.sim_events;
  return row;
}

double Seconds(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

Row RunShape(const std::string& shape, const TaskGraph& graph,
             SchedulingPolicy policy, int runs) {
  runtime::RunOptions options;
  options.storage = hw::StorageArchitecture::kLocalDisk;
  options.policy = policy;
  const runtime::SimulatedExecutor executor(hw::MinotauroCluster(), options);
  return Measure(shape, ToString(policy), runs, [&] {
    const auto t0 = std::chrono::steady_clock::now();
    auto report = executor.Execute(graph);
    Sample s;
    s.wall_s = Seconds(t0);
    TB_CHECK_OK(report.status());
    s.makespan = report->makespan;
    s.sim_events = report->sim_events;
    s.tasks = graph.num_tasks();
    return s;
  });
}

/// One pass over the factor study on this thread: every sample config
/// built and simulated in order, as bench_e2e's sim-study calls do.
/// The makespan is the sum over configs; GPU-OOM configs add none.
Row RunStudy(int runs) {
  const std::vector<analysis::ExperimentConfig> configs =
      analysis::CorrelationSampleConfigs();
  return Measure("study", "per-config", runs, [&] {
    Sample s;
    const auto t0 = std::chrono::steady_clock::now();
    for (const analysis::ExperimentConfig& config : configs) {
      auto result = analysis::RunExperiment(config);
      TB_CHECK_OK(result.status());
      s.makespan += result->makespan;
      s.sim_events += result->report.sim_events;
      s.tasks += static_cast<int64_t>(result->report.records.size());
    }
    s.wall_s = Seconds(t0);
    return s;
  });
}

double PerSecond(double count, double wall_s) {
  return count / (wall_s > 0 ? wall_s : 1e-9);
}

void PrintRow(const Row& r) {
  std::printf("%-6s %10lld %16s %10.4f [%.4f, %.4f] %12llu %14.0f %14.0f\n",
              r.shape.c_str(), static_cast<long long>(r.tasks),
              r.policy.c_str(), r.wall_p50, r.wall_p25, r.wall_p75,
              static_cast<unsigned long long>(r.sim_events),
              PerSecond(static_cast<double>(r.sim_events), r.wall_p50),
              PerSecond(static_cast<double>(r.tasks), r.wall_p50));
  std::fflush(stdout);
}

std::string ToJson(const std::vector<Row>& rows) {
  std::string out = "{\n";
  // Host metadata: a committed trajectory is only comparable to runs
  // on a like host, so say what produced it.
  out += StrFormat("  \"hardware_threads\": %u,\n",
                   std::max(1u, std::thread::hardware_concurrency()));
  out += StrFormat("  \"cpu_model\": \"%s\",\n", hw::HostCpuModel().c_str());
  out += StrFormat("  \"numa_domains\": %d,\n",
                   hw::DetectTopology().num_domains());
  out += StrFormat("  \"build_type\": \"%s\",\n", TB_BENCH_BUILD_TYPE);
  out += "  \"rows\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    out += StrFormat(
        "    {\"shape\": \"%s\", \"tasks\": %lld, \"policy\": \"%s\", "
        "\"runs\": %d, \"wall_s_p25\": %.6f, \"wall_s_p50\": %.6f, "
        "\"wall_s_p75\": %.6f, \"makespan_s\": %.6f, \"sim_events\": %llu, "
        "\"events_per_s_p50\": %.1f, \"decisions_per_s_p50\": %.1f}%s\n",
        r.shape.c_str(), static_cast<long long>(r.tasks), r.policy.c_str(),
        r.runs, r.wall_p25, r.wall_p50, r.wall_p75, r.makespan,
        static_cast<unsigned long long>(r.sim_events),
        PerSecond(static_cast<double>(r.sim_events), r.wall_p50),
        PerSecond(static_cast<double>(r.tasks), r.wall_p50),
        i + 1 < rows.size() ? "," : "");
  }
  out += "  ]\n}\n";
  return out;
}

int Main(int argc, char** argv) {
  const Args args = Args::Parse(argc, argv);
  const Status flags = args.CheckFlags({"out", "sizes"}, {"smoke", "large"});
  if (!flags.ok()) {
    std::fprintf(stderr, "bench_sched_scaling: %s\n", flags.message().c_str());
    return 2;
  }
  std::vector<int64_t> sizes;
  if (args.Has("sizes")) {
    for (const std::string& s : Split(args.GetString("sizes"), ',')) {
      if (s.empty()) continue;
      errno = 0;
      char* end = nullptr;
      const long long n = std::strtoll(s.c_str(), &end, 10);
      if (errno != 0 || end == s.c_str() || *end != '\0' || n <= 0) {
        std::fprintf(stderr, "error: --sizes expects positive integers, got '%s'\n",
                     s.c_str());
        return 2;
      }
      sizes.push_back(n);
    }
  } else if (args.GetBool("smoke", false).value_or(false)) {
    sizes = {10'000};
  } else if (args.GetBool("large", false).value_or(false)) {
    sizes = {10'000, 100'000, 1'000'000};
  } else {
    sizes = {10'000, 100'000};
  }
  const bool smoke = args.GetBool("smoke", false).value_or(false);
  const int runs = smoke ? 1 : 5;
  const std::string out_path =
      args.GetString("out", "BENCH_sched_scaling.json");

  std::printf("%-6s %10s %16s %10s %18s %12s %14s %14s\n", "shape", "tasks",
              "policy", "wall_s p50", "[p25, p75]", "sim_events", "events/s",
              "decisions/s");
  std::vector<Row> rows;
  for (int64_t n : sizes) {
    for (const char* shape : {"wide", "deep", "grid"}) {
      const TaskGraph graph = std::string(shape) == "wide"   ? WideGraph(n)
                              : std::string(shape) == "deep" ? DeepGraph(n)
                                                             : GridGraph(n);
      for (auto policy : {SchedulingPolicy::kTaskGenerationOrder,
                          SchedulingPolicy::kDataLocality,
                          SchedulingPolicy::kCostModel}) {
        rows.push_back(RunShape(shape, graph, policy, runs));
        PrintRow(rows.back());
      }
    }
  }
  rows.push_back(RunStudy(runs));
  PrintRow(rows.back());

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  TB_CHECK(f != nullptr) << "cannot open " << out_path;
  const std::string json = ToJson(rows);
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace taskbench::bench

int main(int argc, char** argv) { return taskbench::bench::Main(argc, argv); }
