// Real-execution fast-path bench: the two numbers the thread-pool
// rework is accountable for.
//
//   kernel  — single-thread 2048^2 matmul, blocked vs the pre-PR
//             naive loops (the kernel-dispatch seam lets us time both
//             from one binary). Target: >= 3x.
//   kernel_shapes — the blocked Multiply's per-call cost on one
//             thread at 4^2 .. 512^2, the block sizes real graphs use:
//             us per call and GFLOP/s, median and quartiles over
//             batches. Pins the fixed per-call cost small blocks pay.
//   kmeans_shapes — K-means partial_sum per call on one thread, naive
//             and blocked, same statistics: the end-to-end benchmark's
//             block (1024 x 32, k = 4), more clusters (k = 10) and a
//             fuzzer-sized block (16 x 6, k = 4).
//   scaling — strong scaling of the work-stealing executor over a
//             wide embarrassingly-parallel matmul DAG, tasks/sec and
//             parallel efficiency vs the 1-thread run. Target: >= 0.7
//             efficiency at the hardware core count.
//   overhead — tasks/sec on near-empty tasks (pure scheduling path),
//             the executor-side analogue of bench_sched_scaling.
//
// Emits machine-readable JSON (default BENCH_threadpool.json) so
// future PRs have a perf trajectory to compare against.
//
// Usage: bench_threadpool_scaling [--smoke] [--threads=1,2,4]
//                                 [--out=BENCH_threadpool.json]

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/args.h"
#include "common/logging.h"
#include "common/strings.h"
#include "data/kernels.h"
#include "data/matrix.h"
#include "hw/topology.h"
#include "runtime/thread_pool_executor.h"
#include "runtime/task_graph.h"

namespace taskbench::bench {
namespace {

using runtime::Dir;
using runtime::TaskGraph;
using runtime::TaskSpec;

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

data::Matrix RandomMatrix(int64_t rows, int64_t cols, uint64_t seed) {
  data::Matrix m(rows, cols);
  uint64_t state = seed * 6364136223846793005ull + 1442695040888963407ull;
  for (int64_t i = 0; i < m.size(); ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    m.data()[i] = static_cast<double>(state >> 40) / (1 << 24) - 0.5;
  }
  return m;
}

struct KernelRow {
  int64_t n = 0;
  double naive_s = 0;
  double blocked_s = 0;
  double speedup = 0;
};

/// Times one Multiply variant; the best of `reps` runs (noise on a
/// shared machine only ever slows a run down).
double TimeMultiply(const data::Matrix& a, const data::Matrix& b,
                    data::KernelVariant variant, int reps) {
  double best = 1e30;
  for (int r = 0; r < reps; ++r) {
    const double t0 = Now();
    auto c = variant == data::KernelVariant::kNaive
                 ? data::naive::Multiply(a, b)
                 : data::blocked::Multiply(a, b);
    TB_CHECK_OK(c.status());
    best = std::min(best, Now() - t0);
    // Defeat dead-code elimination across the timing loop.
    volatile double sink = c->At(0, 0);
    (void)sink;
  }
  return best;
}

KernelRow RunKernelComparison(int64_t n, int reps) {
  const data::Matrix a = RandomMatrix(n, n, 1);
  const data::Matrix b = RandomMatrix(n, n, 2);
  KernelRow row;
  row.n = n;
  row.naive_s = TimeMultiply(a, b, data::KernelVariant::kNaive, reps);
  row.blocked_s = TimeMultiply(a, b, data::KernelVariant::kBlocked, reps);
  row.speedup = row.naive_s / row.blocked_s;
  return row;
}

/// Microseconds per call over timed batches, median and quartiles.
struct CallTimes {
  int64_t calls_per_batch = 0;
  int batches = 0;
  double us_p25 = 0, us_p50 = 0, us_p75 = 0;
};

/// Times `call` in `batches` batches of back-to-back calls, each batch
/// sized from a calibration call to last about `batch_s`. Warm: the
/// first calls are untimed, so one-time set-up is not in the rows.
/// `batches` is 4k + 1, so the quartiles are exact sample ranks.
template <typename Call>
CallTimes TimeCalls(const Call& call, int batches, double batch_s) {
  TB_CHECK((batches - 1) % 4 == 0) << "batches must be 4k + 1";
  call();
  const double t0 = Now();
  call();
  const double one = std::max(Now() - t0, 1e-9);
  CallTimes times;
  times.batches = batches;
  times.calls_per_batch =
      std::clamp<int64_t>(static_cast<int64_t>(batch_s / one), 1, 1 << 20);
  std::vector<double> us;
  for (int i = 0; i < batches; ++i) {
    const double start = Now();
    for (int64_t c = 0; c < times.calls_per_batch; ++c) call();
    us.push_back((Now() - start) * 1e6 /
                 static_cast<double>(times.calls_per_batch));
  }
  std::sort(us.begin(), us.end());
  const size_t quarter = static_cast<size_t>(batches - 1) / 4;
  times.us_p25 = us[quarter];
  times.us_p50 = us[2 * quarter];
  times.us_p75 = us[3 * quarter];
  return times;
}

struct ShapeRow {
  int64_t n = 0;
  CallTimes times;  // microseconds per call
};

/// Per-call cost of blocked::Multiply on an n x n pair.
ShapeRow RunShape(int64_t n, int batches, double batch_s) {
  const data::Matrix a = RandomMatrix(n, n, 5);
  const data::Matrix b = RandomMatrix(n, n, 6);
  double sink = 0;
  ShapeRow row;
  row.n = n;
  row.times = TimeCalls(
      [&] {
        auto c = data::blocked::Multiply(a, b);
        TB_CHECK_OK(c.status());
        sink += c->At(0, 0);
      },
      batches, batch_s);
  // Defeat dead-code elimination across the timing loops.
  volatile double keep = sink;
  (void)keep;
  return row;
}

struct KMeansRow {
  int64_t rows = 0, features = 0, k = 0;
  CallTimes naive, blocked;  // microseconds per call
};

/// Per-call cost of both KMeansPartialSum variants on a rows x
/// features uniform block, the centroids seeded from its first k rows
/// as algos::BuildKMeans seeds them. Fails if the variants' bytes
/// differ.
KMeansRow RunKMeansShape(int64_t rows, int64_t features, int64_t k,
                         int batches, double batch_s) {
  const data::Matrix block = RandomMatrix(rows, features, 7);
  auto centroids = block.Slice(0, 0, k, features);
  TB_CHECK_OK(centroids.status());
  auto reference = data::naive::KMeansPartialSum(block, *centroids);
  auto fast = data::blocked::KMeansPartialSum(block, *centroids);
  TB_CHECK_OK(reference.status());
  TB_CHECK_OK(fast.status());
  TB_CHECK(*reference == *fast) << "blocked partial_sum differs from naive";
  double sink = 0;
  auto timed = [&](data::KernelVariant variant) {
    return TimeCalls(
        [&] {
          auto p = variant == data::KernelVariant::kNaive
                       ? data::naive::KMeansPartialSum(block, *centroids)
                       : data::blocked::KMeansPartialSum(block, *centroids);
          TB_CHECK_OK(p.status());
          sink += p->At(0, features);
        },
        batches, batch_s);
  };
  KMeansRow row;
  row.rows = rows;
  row.features = features;
  row.k = k;
  row.naive = timed(data::KernelVariant::kNaive);
  row.blocked = timed(data::KernelVariant::kBlocked);
  volatile double keep = sink;
  (void)keep;
  return row;
}

/// GFLOP/s of one n x n x n product taking `us` microseconds.
double Gflops(int64_t n, double us) {
  return 2.0 * static_cast<double>(n) * static_cast<double>(n) *
         static_cast<double>(n) / (us * 1e3);
}

struct ScaleRow {
  std::string section;  // "scaling" or "overhead"
  int threads = 0;
  bool oversubscribed = false;  // threads > hardware cores
  int64_t tasks = 0;
  double wall_s = 0;
  double tasks_per_s = 0;
  double speedup = 0;     // vs the 1-thread row of the same section
  double efficiency = 0;  // speedup / threads
};

/// Wide embarrassingly-parallel DAG: `tasks` independent n x n
/// matmuls over two shared inputs. Memory mode, so the measured cost
/// is kernels + scheduling, not serialization.
TaskGraph MatmulDag(int64_t tasks, int64_t n) {
  TaskGraph graph;
  const runtime::DataId a = graph.AddData(RandomMatrix(n, n, 3));
  const runtime::DataId b = graph.AddData(RandomMatrix(n, n, 4));
  for (int64_t t = 0; t < tasks; ++t) {
    const runtime::DataId out =
        graph.AddData(static_cast<uint64_t>(n * n * 8));
    TaskSpec spec;
    spec.type = "matmul";
    spec.params = {{a, Dir::kIn}, {b, Dir::kIn}, {out, Dir::kOut}};
    spec.kernel = [](const std::vector<const data::Matrix*>& inputs,
                     const std::vector<data::Matrix*>& outputs) -> Status {
      TB_ASSIGN_OR_RETURN(*outputs[0],
                          data::Multiply(*inputs[0], *inputs[1]));
      return Status::OK();
    };
    TB_CHECK_OK(graph.Submit(spec).status());
  }
  return graph;
}

/// Near-empty tasks: measures the executor's scheduling overhead.
TaskGraph TinyDag(int64_t tasks) {
  TaskGraph graph;
  const runtime::DataId a = graph.AddData(data::Matrix(1, 1, 1.0));
  for (int64_t t = 0; t < tasks; ++t) {
    const runtime::DataId out = graph.AddData(static_cast<uint64_t>(8));
    TaskSpec spec;
    spec.type = "tiny";
    spec.params = {{a, Dir::kIn}, {out, Dir::kOut}};
    spec.kernel = [](const std::vector<const data::Matrix*>& inputs,
                     const std::vector<data::Matrix*>& outputs) -> Status {
      *outputs[0] = *inputs[0];
      return Status::OK();
    };
    TB_CHECK_OK(graph.Submit(spec).status());
  }
  return graph;
}

ScaleRow RunDag(const std::string& section, TaskGraph graph, int threads) {
  runtime::RunOptions options;
  options.num_threads = threads;
  options.use_storage = false;
  runtime::ThreadPoolExecutor executor(options);
  const double t0 = Now();
  auto report = executor.Execute(graph);
  const double wall = Now() - t0;
  TB_CHECK_OK(report.status());
  ScaleRow row;
  row.section = section;
  row.threads = threads;
  row.tasks = static_cast<int64_t>(report->records.size());
  row.wall_s = wall;
  row.tasks_per_s = static_cast<double>(row.tasks) / (wall > 0 ? wall : 1e-9);
  return row;
}

std::string ToJson(const KernelRow& kernel,
                   const std::vector<ShapeRow>& shapes,
                   const std::vector<KMeansRow>& kmeans_shapes,
                   const std::vector<ScaleRow>& rows, int hw_threads) {
  std::string out = "{\n";
  out += StrFormat(
      "  \"kernel_matmul\": {\"n\": %lld, \"naive_s\": %.6f, "
      "\"blocked_s\": %.6f, \"speedup\": %.3f},\n",
      static_cast<long long>(kernel.n), kernel.naive_s, kernel.blocked_s,
      kernel.speedup);
  out += "  \"kernel_shapes\": [\n";
  for (size_t i = 0; i < shapes.size(); ++i) {
    const ShapeRow& r = shapes[i];
    out += StrFormat(
        "    {\"n\": %lld, \"calls_per_batch\": %lld, \"batches\": %d, "
        "\"us_per_call_p25\": %.4g, \"us_per_call_p50\": %.4g, "
        "\"us_per_call_p75\": %.4g, \"gflops_p25\": %.4g, "
        "\"gflops_p50\": %.4g, \"gflops_p75\": %.4g}%s\n",
        static_cast<long long>(r.n),
        static_cast<long long>(r.times.calls_per_batch), r.times.batches,
        r.times.us_p25, r.times.us_p50, r.times.us_p75,
        Gflops(r.n, r.times.us_p75), Gflops(r.n, r.times.us_p50),
        Gflops(r.n, r.times.us_p25), i + 1 < shapes.size() ? "," : "");
  }
  out += "  ],\n";
  out += "  \"kmeans_shapes\": [\n";
  for (size_t i = 0; i < kmeans_shapes.size(); ++i) {
    const KMeansRow& r = kmeans_shapes[i];
    out += StrFormat(
        "    {\"rows\": %lld, \"features\": %lld, \"k\": %lld, "
        "\"batches\": %d, \"naive_us_per_call_p25\": %.4g, "
        "\"naive_us_per_call_p50\": %.4g, \"naive_us_per_call_p75\": %.4g, "
        "\"blocked_us_per_call_p25\": %.4g, "
        "\"blocked_us_per_call_p50\": %.4g, "
        "\"blocked_us_per_call_p75\": %.4g, \"speedup_p50\": %.3f}%s\n",
        static_cast<long long>(r.rows), static_cast<long long>(r.features),
        static_cast<long long>(r.k), r.blocked.batches, r.naive.us_p25,
        r.naive.us_p50, r.naive.us_p75, r.blocked.us_p25, r.blocked.us_p50,
        r.blocked.us_p75, r.naive.us_p50 / r.blocked.us_p50,
        i + 1 < kmeans_shapes.size() ? "," : "");
  }
  out += "  ],\n";
  // Host metadata: a committed trajectory is only comparable to runs
  // on a like host, so say what produced it.
  out += StrFormat("  \"hardware_threads\": %d,\n", hw_threads);
  out += StrFormat("  \"cpu_model\": \"%s\",\n", hw::HostCpuModel().c_str());
  out += StrFormat("  \"numa_domains\": %d,\n",
                   hw::DetectTopology().num_domains());
  out += "  \"runs\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const ScaleRow& r = rows[i];
    out += StrFormat(
        "    {\"section\": \"%s\", \"threads\": %d, \"oversubscribed\": %s, "
        "\"tasks\": %lld, "
        "\"wall_s\": %.6f, \"tasks_per_s\": %.1f, \"speedup\": %.3f, "
        "\"efficiency\": %.3f}%s\n",
        r.section.c_str(), r.threads, r.oversubscribed ? "true" : "false",
        static_cast<long long>(r.tasks),
        r.wall_s, r.tasks_per_s, r.speedup, r.efficiency,
        i + 1 < rows.size() ? "," : "");
  }
  out += "  ]\n}\n";
  return out;
}

int Main(int argc, char** argv) {
  const Args args = Args::Parse(argc, argv);
  const Status flags = args.CheckFlags({"out", "threads"}, {"smoke"});
  if (!flags.ok()) {
    std::fprintf(stderr, "bench_threadpool_scaling: %s\n",
                 flags.message().c_str());
    return 2;
  }
  const bool smoke = args.GetBool("smoke", false).value_or(false);
  const std::string out_path = args.GetString("out", "BENCH_threadpool.json");
  const int hw_threads =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));

  std::vector<int> thread_counts;
  if (args.Has("threads")) {
    for (const std::string& s : Split(args.GetString("threads"), ',')) {
      if (s.empty()) continue;
      errno = 0;
      char* end = nullptr;
      const long n = std::strtol(s.c_str(), &end, 10);
      if (errno != 0 || end == s.c_str() || *end != '\0' || n <= 0) {
        std::fprintf(stderr,
                     "error: --threads expects positive integers, got '%s'\n",
                     s.c_str());
        return 2;
      }
      thread_counts.push_back(static_cast<int>(n));
    }
  } else {
    // Fixed 1-2-4-8 matrix plus the hardware count, oversubscribing
    // where the host is narrower. A host-derived matrix collapses to
    // a single {1} row on 1-core CI machines and records no scaling
    // trajectory at all; oversubscribed rows at least pin down the
    // scheduling overhead under contention.
    thread_counts = {1, 2, 4, 8};
    if (std::find(thread_counts.begin(), thread_counts.end(), hw_threads) ==
        thread_counts.end()) {
      thread_counts.push_back(hw_threads);
      std::sort(thread_counts.begin(), thread_counts.end());
    }
  }

  // --- Kernel speedup (single thread, fixed variant on each side).
  const int64_t kernel_n = smoke ? 256 : 2048;
  const int reps = smoke ? 2 : 3;
  std::printf("kernel matmul n=%lld ...\n", static_cast<long long>(kernel_n));
  const KernelRow kernel = RunKernelComparison(kernel_n, reps);
  std::printf("  naive %.3fs  blocked %.3fs  speedup %.2fx\n",
              kernel.naive_s, kernel.blocked_s, kernel.speedup);

  // --- Blocked Multiply per call across block shapes (single thread).
  std::printf("%-6s %10s %12s %12s %12s %10s\n", "shape", "calls/batch",
              "us p25", "us p50", "us p75", "GFLOP/s");
  std::vector<ShapeRow> shapes;
  for (int64_t n : {4, 16, 27, 64, 192, 512}) {
    ShapeRow row = RunShape(n, smoke ? 5 : 9, smoke ? 0.002 : 0.05);
    std::printf("%4lld^2 %10lld %12.3f %12.3f %12.3f %10.2f\n",
                static_cast<long long>(row.n),
                static_cast<long long>(row.times.calls_per_batch),
                row.times.us_p25, row.times.us_p50, row.times.us_p75,
                Gflops(row.n, row.times.us_p50));
    std::fflush(stdout);
    shapes.push_back(row);
  }

  // --- K-means partial_sum per call, naive vs blocked (single thread).
  std::printf("%-16s %22s %22s %8s\n", "kmeans shape", "naive us p25/50/75",
              "blocked us p25/50/75", "speedup");
  std::vector<KMeansRow> kmeans_shapes;
  struct KMeansShape {
    int64_t rows, features, k;
  };
  for (const KMeansShape& s : {KMeansShape{1024, 32, 4},
                               KMeansShape{1024, 32, 10},
                               KMeansShape{16, 6, 4}}) {
    KMeansRow row = RunKMeansShape(s.rows, s.features, s.k, smoke ? 5 : 9,
                                   smoke ? 0.002 : 0.05);
    std::printf("%4lldx%-3lld k=%-4lld %6.2f/%6.2f/%6.2f %6.2f/%6.2f/%6.2f "
                "%7.2fx\n",
                static_cast<long long>(row.rows),
                static_cast<long long>(row.features),
                static_cast<long long>(row.k), row.naive.us_p25,
                row.naive.us_p50, row.naive.us_p75, row.blocked.us_p25,
                row.blocked.us_p50, row.blocked.us_p75,
                row.naive.us_p50 / row.blocked.us_p50);
    std::fflush(stdout);
    kmeans_shapes.push_back(row);
  }

  // --- Strong scaling over the wide matmul DAG + tiny-task overhead.
  const int64_t matmul_tasks =
      smoke ? 16 : std::max<int64_t>(64, 16 * hw_threads);
  const int64_t matmul_n = smoke ? 64 : 384;
  const int64_t tiny_tasks = smoke ? 2'000 : 50'000;

  std::printf("%-9s %8s %10s %10s %12s %9s %11s\n", "section", "threads",
              "tasks", "wall_s", "tasks/s", "speedup", "efficiency");
  std::vector<ScaleRow> rows;
  for (const char* section : {"scaling", "overhead"}) {
    double base_tps = 0;
    for (int threads : thread_counts) {
      ScaleRow row =
          std::string(section) == "scaling"
              ? RunDag(section, MatmulDag(matmul_tasks, matmul_n), threads)
              : RunDag(section, TinyDag(tiny_tasks), threads);
      if (threads == thread_counts.front()) {
        base_tps = row.tasks_per_s / threads;
      }
      row.oversubscribed = threads > hw_threads;
      row.speedup = base_tps > 0 ? row.tasks_per_s / base_tps : 0;
      row.efficiency = row.speedup / threads;
      std::printf("%-9s %8d %10lld %10.3f %12.1f %9.2f %11.2f%s\n",
                  row.section.c_str(), row.threads,
                  static_cast<long long>(row.tasks), row.wall_s,
                  row.tasks_per_s, row.speedup, row.efficiency,
                  row.oversubscribed ? "  (oversubscribed)" : "");
      std::fflush(stdout);
      rows.push_back(row);
    }
  }

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  TB_CHECK(f != nullptr) << "cannot open " << out_path;
  const std::string json =
      ToJson(kernel, shapes, kmeans_shapes, rows, hw_threads);
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace taskbench::bench

int main(int argc, char** argv) { return taskbench::bench::Main(argc, argv); }
