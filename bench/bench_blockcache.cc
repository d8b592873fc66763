// Block-cache bench: the repeated-deserialization tax and what the
// versioned block cache buys back.
//
//   workload — `tasks` independent reductions over the same two large
//              shared inputs, each touching one row (O(n) compute
//              against O(n^2) deserialization), the worst case for an
//              uncached data plane: every read re-deserializes a
//              multi-megabyte block that never changes.
//   legs     — threads-1 storage mode and 1/2-worker multi-process,
//              each with the cache off and on, all compared bit-exact
//              against the in-memory thread-pool baseline.
//   guard    — for each executor family the cache-on run must produce
//              the same output digest as the cache-off run; the bench
//              aborts on mismatch, so a green run doubles as the CI
//              cache-determinism check.
//
// Speedups are informational (hosts vary); the digests are enforced.
//
// Usage: bench_blockcache [--smoke] [--out=BENCH_blockcache.json]

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/args.h"
#include "common/logging.h"
#include "common/strings.h"
#include "data/matrix.h"
#include "hw/topology.h"
#include "obs/metrics.h"
#include "runtime/multiproc_executor.h"
#include "runtime/task_graph.h"
#include "runtime/thread_pool_executor.h"

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

data::Matrix RandomMatrix(int64_t n, uint64_t seed) {
  data::Matrix m(n, n);
  uint64_t state = seed * 6364136223846793005ull + 1442695040888963407ull;
  for (int64_t i = 0; i < m.size(); ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    m.data()[i] = static_cast<double>(state >> 40) / (1 << 24) - 0.5;
  }
  return m;
}

/// Kernel of one row reduction: the sum of row `row` of the first
/// input minus the same row of the second.
Status RowSum(const runtime::KernelInputs& inputs,
              const runtime::KernelOutputs& outputs, int64_t row) {
  const data::Matrix& x = *inputs[0];
  const data::Matrix& y = *inputs[1];
  double sum = 0;
  for (int64_t c = 0; c < x.cols(); ++c) sum += x.At(row, c);
  for (int64_t c = 0; c < y.cols(); ++c) sum -= y.At(row, c);
  *outputs[0] = data::Matrix(1, 1, sum);
  return Status::OK();
}

/// `tasks` independent row reductions over two shared n x n inputs.
/// Each task reads both full blocks but computes over a single row,
/// so on an uncached storage data plane the wall time is dominated by
/// deserializing the same two blocks over and over.
TaskGraph RowSumDag(int64_t tasks, int64_t n,
                    std::vector<runtime::DataId>* outs) {
  TaskGraph graph;
  const runtime::DataId a = graph.AddData(RandomMatrix(n, 11));
  const runtime::DataId b = graph.AddData(RandomMatrix(n, 12));
  for (int64_t t = 0; t < tasks; ++t) {
    const runtime::DataId out = graph.AddData(64);
    outs->push_back(out);
    TaskSpec spec;
    spec.type = "rowsum";
    spec.params = {{a, Dir::kIn}, {b, Dir::kIn}, {out, Dir::kOut}};
    spec.kernel = runtime::BindKernel(RowSum, t % n);
    TB_CHECK_OK(graph.Submit(spec).status());
  }
  return graph;
}

/// FNV-1a over the raw bytes of every output in task order. Bitwise:
/// two legs share a digest iff they produced identical doubles.
uint64_t DigestOutputs(const runtime::Executor& executor,
                       const TaskGraph& graph,
                       const std::vector<runtime::DataId>& outs) {
  uint64_t h = 14695981039346656037ull;
  for (const runtime::DataId d : outs) {
    auto m = executor.Fetch(graph, d);
    TB_CHECK_OK(m.status());
    const unsigned char* bytes =
        reinterpret_cast<const unsigned char*>(m->data());
    const size_t len = static_cast<size_t>(m->size()) * sizeof(double);
    for (size_t i = 0; i < len; ++i) {
      h ^= bytes[i];
      h *= 1099511628211ull;
    }
  }
  return h;
}

struct Row {
  std::string exec;  // "threads-1" or "procs-N"
  bool cache = false;
  int workers = 0;
  int64_t tasks = 0;
  double wall_s = 0;
  double tasks_per_s = 0;
  uint64_t digest = 0;
  double speedup_vs_nocache = 0;  // same exec, cache off = 1.0
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
};

std::string ToJson(const std::vector<Row>& rows, int hw_threads,
                   int64_t tasks, int64_t n) {
  std::string out = "{\n";
  out += StrFormat("  \"hardware_threads\": %d,\n", hw_threads);
  out += StrFormat("  \"cpu_model\": \"%s\",\n", hw::HostCpuModel().c_str());
  out += StrFormat("  \"tasks\": %lld,\n", static_cast<long long>(tasks));
  out += StrFormat("  \"block_dim\": %lld,\n", static_cast<long long>(n));
  out += "  \"bit_exact\": true,\n";
  out += "  \"digests_match_cache_off\": true,\n";
  out += "  \"runs\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    out += StrFormat(
        "    {\"exec\": \"%s\", \"cache\": %s, \"workers\": %d, "
        "\"wall_s\": %.6f, \"tasks_per_s\": %.1f, "
        "\"speedup_vs_nocache\": %.3f, \"cache_hits\": %lld, "
        "\"cache_misses\": %lld, \"digest\": \"%016llx\"}%s\n",
        r.exec.c_str(), r.cache ? "true" : "false", r.workers, r.wall_s,
        r.tasks_per_s, r.speedup_vs_nocache,
        static_cast<long long>(r.cache_hits),
        static_cast<long long>(r.cache_misses),
        static_cast<unsigned long long>(r.digest),
        i + 1 < rows.size() ? "," : "");
  }
  out += "  ]\n}\n";
  return out;
}

int Main(int argc, char** argv) {
  const Args args = Args::Parse(argc, argv);
  const Status flags = args.CheckFlags({"out"}, {"smoke"});
  if (!flags.ok()) {
    std::fprintf(stderr, "bench_blockcache: %s\n", flags.message().c_str());
    return 2;
  }
  const bool smoke = args.GetBool("smoke", false).value_or(false);
  const std::string out_path = args.GetString("out", "BENCH_blockcache.json");
  const int hw_threads =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));

  const int64_t tasks = smoke ? 16 : 64;
  const int64_t n = smoke ? 192 : 768;

  // Reference leg: 1-thread in-memory run. Every other leg's outputs
  // must match it bit-for-bit.
  std::vector<runtime::DataId> outs;
  TaskGraph baseline_graph = RowSumDag(tasks, n, &outs);
  runtime::RunOptions base_options;
  base_options.num_threads = 1;
  base_options.use_storage = false;
  runtime::ThreadPoolExecutor baseline(base_options);
  TB_CHECK_OK(baseline.Execute(baseline_graph).status());
  const uint64_t want_digest = DigestOutputs(baseline, baseline_graph, outs);

  struct Leg {
    std::string exec;
    int threads = 0;  // > 0: thread pool (storage mode)
    int procs = 0;    // > 0: multi-process
    bool cache = false;
  };
  std::vector<Leg> legs = {
      {"threads-1", 1, 0, false}, {"threads-1", 1, 0, true},
      {"procs-1", 0, 1, false},   {"procs-1", 0, 1, true},
      {"procs-2", 0, 2, false},   {"procs-2", 0, 2, true},
  };
  if (!runtime::MultiProcExecutor::Supported()) {
    std::fprintf(stderr,
                 "multi-process execution unsupported here; "
                 "running thread-pool legs only\n");
    legs.resize(2);
  }

  std::printf("%-10s %6s %10s %12s %12s %8s %8s\n", "exec", "cache", "wall_s",
              "tasks/s", "vs_nocache", "hits", "misses");
  std::vector<Row> rows;
  double nocache_tps = 0;
  uint64_t nocache_digest = 0;
  for (const Leg& leg : legs) {
    std::vector<runtime::DataId> ignored;
    TaskGraph graph = RowSumDag(tasks, n, &ignored);
    runtime::RunOptions options;
    options.block_cache = leg.cache;
    obs::MetricsRegistry metrics;
    options.metrics = &metrics;

    Row row;
    row.exec = leg.exec;
    row.cache = leg.cache;
    row.tasks = tasks;
    if (leg.threads > 0) {
      options.num_threads = leg.threads;
      options.use_storage = true;
      row.workers = leg.threads;
      runtime::ThreadPoolExecutor executor(options);
      const double t0 = Now();
      TB_CHECK_OK(executor.Execute(graph).status());
      row.wall_s = Now() - t0;
      row.digest = DigestOutputs(executor, graph, outs);
    } else {
      options.num_procs = leg.procs;
      row.workers = leg.procs;
      runtime::MultiProcExecutor executor(options);
      const double t0 = Now();
      TB_CHECK_OK(executor.Execute(graph).status());
      row.wall_s = Now() - t0;
      row.digest = DigestOutputs(executor, graph, outs);
    }
    row.tasks_per_s = static_cast<double>(tasks) / std::max(row.wall_s, 1e-9);
    row.cache_hits = metrics.counter("cache.hits")->value();
    row.cache_misses = metrics.counter("cache.misses")->value();

    TB_CHECK(row.digest == want_digest)
        << leg.exec << (leg.cache ? "-cache" : "") << " diverged from the "
        << "in-memory baseline";
    if (!leg.cache) {
      nocache_tps = row.tasks_per_s;
      nocache_digest = row.digest;
      row.speedup_vs_nocache = 1.0;
    } else {
      // The determinism guard: caching must not change a single bit.
      TB_CHECK(row.digest == nocache_digest)
          << leg.exec << ": cache-on digest diverged from cache-off";
      row.speedup_vs_nocache =
          nocache_tps > 0 ? row.tasks_per_s / nocache_tps : 0;
    }
    std::printf("%-10s %6s %10.3f %12.1f %12s %8lld %8lld\n", row.exec.c_str(),
                row.cache ? "on" : "off", row.wall_s, row.tasks_per_s,
                row.cache
                    ? StrFormat("%.2fx", row.speedup_vs_nocache).c_str()
                    : "-",
                static_cast<long long>(row.cache_hits),
                static_cast<long long>(row.cache_misses));
    std::fflush(stdout);
    rows.push_back(row);
  }

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  TB_CHECK(f != nullptr) << "cannot open " << out_path;
  const std::string json = ToJson(rows, hw_threads, tasks, n);
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace taskbench::bench

int main(int argc, char** argv) { return taskbench::bench::Main(argc, argv); }
