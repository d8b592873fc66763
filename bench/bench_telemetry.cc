// Telemetry bench: what does run telemetry cost, and how fast does
// the streaming trace exporter move? Three measurements per size:
//
//   run-off    — simulated run, telemetry disabled (the baseline every
//                other bench measures),
//   run-on     — same run with a MetricsRegistry attached; the delta
//                is the collection overhead, which must stay in the
//                noise (the instruments are pre-resolved pointers),
//   trace      — StreamChromeTrace of the run's report into a
//                discarding stream; reported as events/second. The
//                writer streams one event at a time, so this holds at
//                a million tasks without materializing the document.
//
// Emits machine-readable JSON (default BENCH_telemetry.json).
//
// Usage: bench_telemetry [--smoke] [--large] [--sizes=100000,...]
//                        [--out=BENCH_telemetry.json]

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ostream>
#include <streambuf>
#include <string>
#include <vector>

#include "common/args.h"
#include "common/logging.h"
#include "common/strings.h"
#include "hw/cluster.h"
#include "obs/metrics.h"
#include "obs/trace_writer.h"
#include "runtime/simulated_executor.h"
#include "runtime/task_graph.h"
#include "runtime/trace.h"

namespace taskbench::bench {
namespace {

using runtime::Dir;
using runtime::TaskGraph;
using runtime::TaskSpec;

constexpr uint64_t kBlockBytes = 1 << 20;
constexpr int kGridWidth = 512;

/// Counts bytes and drops them — measures formatting, not disk.
class NullBuffer : public std::streambuf {
 public:
  uint64_t written = 0;

 protected:
  int overflow(int c) override {
    ++written;
    return c;
  }
  std::streamsize xsputn(const char*, std::streamsize n) override {
    written += static_cast<uint64_t>(n);
    return n;
  }
};

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

/// kGridWidth lanes x n/kGridWidth levels (the sched-scaling "grid"
/// shape: steady ready-set and event pressure).
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
      TaskSpec spec;
      spec.type = "telemetry_task";
      spec.cost = SmallCost();
      spec.processor = Processor::kCpu;
      spec.params = {{lane[static_cast<size_t>(w)], Dir::kIn},
                     {out, Dir::kOut}};
      TB_CHECK_OK(graph.Submit(spec).status());
      lane[static_cast<size_t>(w)] = out;
    }
  }
  return graph;
}

struct Row {
  int64_t tasks = 0;
  double run_off_s = 0;
  double run_on_s = 0;
  double overhead_pct = 0;
  double trace_s = 0;
  uint64_t trace_events = 0;
  uint64_t trace_bytes = 0;
  double trace_events_per_s = 0;
};

double Secs(std::chrono::steady_clock::time_point t0,
            std::chrono::steady_clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

Row RunOne(int64_t n) {
  Row row;
  runtime::RunOptions options;
  options.storage = hw::StorageArchitecture::kLocalDisk;

  runtime::RunReport report;
  {
    TaskGraph graph = GridGraph(n);
    row.tasks = graph.num_tasks();
    runtime::SimulatedExecutor executor(hw::MinotauroCluster(), options);
    const auto t0 = std::chrono::steady_clock::now();
    auto r = executor.Execute(graph);
    const auto t1 = std::chrono::steady_clock::now();
    TB_CHECK_OK(r.status());
    row.run_off_s = Secs(t0, t1);
    report = std::move(*r);
  }
  {
    TaskGraph graph = GridGraph(n);
    obs::MetricsRegistry registry;
    options.metrics = &registry;
    runtime::SimulatedExecutor executor(hw::MinotauroCluster(), options);
    const auto t0 = std::chrono::steady_clock::now();
    auto r = executor.Execute(graph);
    const auto t1 = std::chrono::steady_clock::now();
    TB_CHECK_OK(r.status());
    row.run_on_s = Secs(t0, t1);
    TB_CHECK(registry.counter("sched.decisions")->value() == row.tasks);
  }
  row.overhead_pct = row.run_off_s > 0
                         ? (row.run_on_s / row.run_off_s - 1.0) * 100.0
                         : 0;
  {
    NullBuffer sink;
    std::ostream out(&sink);
    const auto t0 = std::chrono::steady_clock::now();
    runtime::StreamChromeTrace(report, out);
    const auto t1 = std::chrono::steady_clock::now();
    row.trace_s = Secs(t0, t1);
    row.trace_bytes = sink.written;
    // One task slice + >= 1 stage slices per record, plus metadata;
    // count the records as the meaningful unit.
    row.trace_events = static_cast<uint64_t>(report.records.size());
    const double wall = row.trace_s > 0 ? row.trace_s : 1e-9;
    row.trace_events_per_s = static_cast<double>(row.trace_events) / wall;
  }
  return row;
}

std::string ToJson(const std::vector<Row>& rows) {
  std::string out = "[\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    out += StrFormat(
        "  {\"tasks\": %lld, \"run_off_s\": %.6f, \"run_on_s\": %.6f, "
        "\"telemetry_overhead_pct\": %.2f, \"trace_s\": %.6f, "
        "\"trace_bytes\": %llu, \"trace_tasks_per_s\": %.1f}%s\n",
        static_cast<long long>(r.tasks), r.run_off_s, r.run_on_s,
        r.overhead_pct, r.trace_s,
        static_cast<unsigned long long>(r.trace_bytes),
        r.trace_events_per_s, i + 1 < rows.size() ? "," : "");
  }
  out += "]\n";
  return out;
}

int Main(int argc, char** argv) {
  const Args args = Args::Parse(argc, argv);
  const Status flags = args.CheckFlags({"out", "sizes"}, {"smoke", "large"});
  if (!flags.ok()) {
    std::fprintf(stderr, "bench_telemetry: %s\n", flags.message().c_str());
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
        std::fprintf(stderr,
                     "error: --sizes expects positive integers, got '%s'\n",
                     s.c_str());
        return 2;
      }
      sizes.push_back(n);
    }
  } else if (args.GetBool("smoke", false).value_or(false)) {
    sizes = {10'000};
  } else if (args.GetBool("large", false).value_or(false)) {
    sizes = {100'000, 1'000'000};
  } else {
    sizes = {100'000};
  }
  const std::string out_path = args.GetString("out", "BENCH_telemetry.json");

  std::printf("%10s %10s %10s %10s %10s %12s %14s\n", "tasks", "run_off",
              "run_on", "ovh_%", "trace_s", "trace_MB", "trace_tasks/s");
  std::vector<Row> rows;
  for (int64_t n : sizes) {
    const Row row = RunOne(n);
    std::printf("%10lld %10.3f %10.3f %10.2f %10.3f %12.1f %14.0f\n",
                static_cast<long long>(row.tasks), row.run_off_s,
                row.run_on_s, row.overhead_pct, row.trace_s,
                static_cast<double>(row.trace_bytes) / 1e6,
                row.trace_events_per_s);
    std::fflush(stdout);
    rows.push_back(row);
  }

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
