// Scheduler-policy ablation: the two paper policies (task-generation
// order, data locality) against the cost-model family, with the cost
// model's two mechanisms — speculative straggler hedging and CPU->GPU
// escalation — toggled independently so each one's contribution is
// visible in isolation.
//
//   straggler — 4 nodes x 2 cores, local disk, one node 10x slow from
//               t~0: a wide batch of independent one-second tasks.
//               The paper policies ride out the slow node; the cost
//               model duplicates its stragglers onto healthy nodes
//               and cancels the originals. Hedging is the only lever
//               here (no GPUs), so cost-no-hedge collapses onto the
//               locality line.
//   hybrid    — 8 cores + 2 GPUs, hybrid placement, fault-free:
//               CPU-specified tasks a device finishes ~6x faster.
//               Only the cost model escalates them past the 2x
//               benefit bar, so escalation is the only lever here and
//               cost-no-esc collapses onto the fifo line.
//
// All legs are simulated, hence deterministic: the committed JSON is
// reproducible bit-for-bit. In the full run the bench aborts unless
// cost beats both paper policies on the straggler workload, so a
// committed BENCH_sched_policies.json implies the win.
//
// Usage: bench_sched_policies [--smoke] [--out=BENCH_sched_policies.json]

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/args.h"
#include "common/logging.h"
#include "common/strings.h"
#include "common/units.h"
#include "hw/cluster.h"
#include "hw/topology.h"
#include "runtime/fault.h"
#include "runtime/simulated_executor.h"
#include "runtime/task_graph.h"

namespace taskbench::bench {
namespace {

using runtime::Dir;
using runtime::RunOptions;
using runtime::TaskGraph;
using runtime::TaskSpec;

/// `n` independent CPU-specified tasks of ~`cpu_seconds` on one core;
/// `gpu_benefit` > 0 additionally shapes the GPU efficiency curve so
/// a device would finish each ~that many times faster.
TaskGraph CpuTasks(int n, double cpu_seconds, double gpu_benefit) {
  TaskGraph graph;
  for (int i = 0; i < n; ++i) {
    const runtime::DataId in = graph.AddData(1024);
    const runtime::DataId out = graph.AddData(1024);
    TaskSpec spec;
    spec.type = "crunch";
    spec.processor = Processor::kCpu;
    spec.params = {{in, Dir::kIn}, {out, Dir::kOut}};
    spec.cost.parallel.flops = cpu_seconds * 16e9;
    spec.cost.gpu_curve.peak_fraction = gpu_benefit * 16e9 / 360e9;
    spec.cost.gpu_working_set_bytes = 64 * kMiB;
    spec.cost.input_bytes = 1024;
    spec.cost.output_bytes = 1024;
    TB_CHECK_OK(graph.Submit(std::move(spec)).status());
  }
  return graph;
}

struct Variant {
  const char* name;
  SchedulingPolicy policy;
  bool disable_hedging;
  bool disable_escalation;
};

constexpr Variant kVariants[] = {
    {"fifo", SchedulingPolicy::kTaskGenerationOrder, false, false},
    {"locality", SchedulingPolicy::kDataLocality, false, false},
    {"cost", SchedulingPolicy::kCostModel, false, false},
    {"cost-no-hedge", SchedulingPolicy::kCostModel, true, false},
    {"cost-no-esc", SchedulingPolicy::kCostModel, false, true},
    {"cost-base", SchedulingPolicy::kCostModel, true, true},
};

struct Row {
  std::string workload;
  std::string variant;
  double makespan = 0;
  double overhead = 0;
  long long hedges = 0;
  int gpu_tasks = 0;
};

Row RunLeg(const char* workload, const Variant& v,
           const hw::ClusterSpec& cluster, const TaskGraph& graph,
           const RunOptions& base) {
  RunOptions options = base;
  options.policy = v.policy;
  options.sched.disable_hedging = v.disable_hedging;
  options.sched.disable_escalation = v.disable_escalation;
  auto report = runtime::SimulatedExecutor(cluster, options).Execute(graph);
  TB_CHECK_OK(report.status());
  Row row;
  row.workload = workload;
  row.variant = v.name;
  row.makespan = report->makespan;
  row.overhead = report->scheduler_overhead;
  row.hedges = report->faults.hedges;
  for (const runtime::TaskRecord& rec : report->records) {
    if (rec.processor == Processor::kGpu) ++row.gpu_tasks;
  }
  return row;
}

std::string ToJson(const std::vector<Row>& rows, bool smoke) {
  std::string out = "{\n";
  out += StrFormat("  \"smoke\": %s,\n", smoke ? "true" : "false");
  // Host of the recording. Every number below is simulated, so it
  // must not depend on the host; the fields say where it was checked.
  out += StrFormat("  \"hardware_threads\": %u,\n",
                   std::thread::hardware_concurrency());
  out += StrFormat("  \"cpu_model\": \"%s\",\n", hw::HostCpuModel().c_str());
  out += StrFormat("  \"numa_domains\": %d,\n",
                   hw::DetectTopology().num_domains());
  out += "  \"runs\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    out += StrFormat(
        "    {\"workload\": \"%s\", \"variant\": \"%s\", "
        "\"makespan_s\": %.6f, \"scheduler_overhead_s\": %.6f, "
        "\"hedges\": %lld, \"gpu_tasks\": %d}%s\n",
        r.workload.c_str(), r.variant.c_str(), r.makespan, r.overhead,
        r.hedges, r.gpu_tasks, i + 1 < rows.size() ? "," : "");
  }
  out += "  ]\n}\n";
  return out;
}

double MakespanOf(const std::vector<Row>& rows, const std::string& workload,
                  const std::string& variant) {
  for (const Row& r : rows) {
    if (r.workload == workload && r.variant == variant) return r.makespan;
  }
  TB_CHECK(false) << "missing leg " << workload << "/" << variant;
  return 0;
}

int Main(int argc, char** argv) {
  const Args args = Args::Parse(argc, argv);
  const bool smoke = args.GetBool("smoke", false).value_or(false);
  const std::string out_path =
      args.GetString("out", "BENCH_sched_policies.json");

  std::printf("Scheduler-policy ablation (%s)\n",
              smoke ? "smoke" : "full");
  std::printf("%-10s %-14s %11s %11s %7s %9s\n", "workload", "variant",
              "makespan_s", "overhead_s", "hedges", "gpu_tasks");
  std::vector<Row> rows;

  {
    // Straggler-heavy: one node 10x slow. The pool drains before the
    // slow node frees up, so its only stragglers are first-wave tasks
    // — exactly the ones hedging can duplicate while the healthy
    // nodes still generate scheduling edges.
    hw::ClusterSpec cluster = hw::SingleNode(2, 0);
    cluster.num_nodes = 4;
    const TaskGraph graph = CpuTasks(smoke ? 12 : 24, 1.0, 0.0);
    RunOptions base;
    base.storage = hw::StorageArchitecture::kLocalDisk;
    runtime::FaultEvent slow;
    slow.kind = runtime::FaultKind::kSlowNode;
    slow.time = 0.01;
    slow.node = 1;
    slow.factor = 10.0;
    base.faults.events.push_back(slow);
    for (const Variant& v : kVariants) {
      Row row = RunLeg("straggler", v, cluster, graph, base);
      std::printf("%-10s %-14s %11.3f %11.4f %7lld %9d\n",
                  row.workload.c_str(), row.variant.c_str(), row.makespan,
                  row.overhead, row.hedges, row.gpu_tasks);
      rows.push_back(std::move(row));
    }
  }

  {
    // Hybrid skew: CPU-specified, GPU-friendly tasks next to two idle
    // GPUs. Only escalation can use them.
    const hw::ClusterSpec cluster = hw::SingleNode(8, 2);
    const TaskGraph graph = CpuTasks(smoke ? 6 : 10, 3.0, 6.0);
    RunOptions base;
    base.storage = hw::StorageArchitecture::kLocalDisk;
    base.hybrid = true;
    for (const Variant& v : kVariants) {
      Row row = RunLeg("hybrid", v, cluster, graph, base);
      std::printf("%-10s %-14s %11.3f %11.4f %7lld %9d\n",
                  row.workload.c_str(), row.variant.c_str(), row.makespan,
                  row.overhead, row.hedges, row.gpu_tasks);
      rows.push_back(std::move(row));
    }
  }

  // The committed JSON must carry the headline result: on the
  // straggler workload the cost model beats both paper policies, and
  // each mechanism is separately attributable.
  if (!smoke) {
    const double cost = MakespanOf(rows, "straggler", "cost");
    TB_CHECK(cost < MakespanOf(rows, "straggler", "fifo"))
        << "cost model did not beat task-generation order";
    TB_CHECK(cost < MakespanOf(rows, "straggler", "locality"))
        << "cost model did not beat data locality";
    TB_CHECK(MakespanOf(rows, "hybrid", "cost") <
             MakespanOf(rows, "hybrid", "cost-no-esc"))
        << "escalation did not pay off on the hybrid workload";
  }

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  TB_CHECK(f != nullptr) << "cannot open " << out_path;
  const std::string json = ToJson(rows, smoke);
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace taskbench::bench

int main(int argc, char** argv) { return taskbench::bench::Main(argc, argv); }
