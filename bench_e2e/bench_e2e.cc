// End-to-end + per-layer benchmark of taskbench.
//
// One process runs one workload for a fixed wall-clock window and
// prints, as the last line of stdout, one JSON object:
//
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Without --trace the metrics are the end-to-end ones (set-up time,
// median and p90 latency of the workload's unit operation, peak RSS);
// with --trace they are the per-layer ones. The full result, with
// host metadata, sample counts and deterministic values, goes to
// --out (default .bench_out/<workload>-s<seed>-t<trace>.json); a
// --trace run also writes a Chrome-trace span file beside it.
//
// Every layer is measured from outside: the bench times its own calls
// into public functions (algos::Build*, wf::ImportWfFormat /
// BuildInstance, Executor Execute / FetchData, WorkflowService Submit
// / Wait, analysis::RunExperiment / DescribeExperiment,
// storage::Serializer, data::Multiply) and reads the RunReport,
// ServiceReport and obs::MetricsRegistry those calls return.
//
// Workloads (the seed drives every generator; see README.md for why
// each was chosen):
//   matmul     blocked matmul, alternating threads(W) / procs(W) runs
//   kmeans     K-means, 32 row blocks, alternating threads / procs
//   wf-fine    WfBench instance, ~4,000 tiny hash tasks, imported from
//              WfFormat JSON, alternating threads / procs
//   service    open-loop Poisson arrivals into WorkflowService
//   sim-study  the 192-sample factor study plus 9 WfBench scenario
//              runs on the simulated executor, swept on W threads
//
// W = max(1, nproc - 1): one core stays free for the caller.
//
// Usage: bench_e2e --workload NAME --seed N [--seconds S] [--trace 0|1]
//                  [--out PATH] [--commit SHA]
// Exit codes: 0 correct, 1 wrong output or failed operation, 2 refused
// to run (bad flags, non-Release build, W > nproc).

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "algos/kmeans.h"
#include "algos/matmul.h"
#include "analysis/experiment.h"
#include "analysis/factor_space.h"
#include "check/digest.h"
#include "check/workload.h"
#include "common/args.h"
#include "common/random.h"
#include "common/strings.h"
#include "data/grid.h"
#include "data/kernels.h"
#include "data/matrix.h"
#include "e2e_accounting.h"
#include "hw/cluster.h"
#include "hw/topology.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace_writer.h"
#include "runtime/multiproc_executor.h"
#include "runtime/simulated_executor.h"
#include "runtime/thread_pool_executor.h"
#include "service/arrival.h"
#include "service/workflow_service.h"
#include "storage/serializer.h"
#include "wf/build.h"
#include "wf/generator.h"
#include "wf/import.h"
#include "wf/instance.h"

#ifndef TB_E2E_BUILD_TYPE
#define TB_E2E_BUILD_TYPE "unknown"
#endif

namespace taskbench::bench::e2e {
namespace {

using runtime::DataId;
using runtime::RunReport;
using runtime::TaskGraph;

// Set-up is repeated at least kMinSetupReps times and for at least
// kSetupBudgetS seconds, at most kMaxSetupReps times; setup_s is the
// median. Cheap set-ups (service, sim-study) thus get more repetitions.
constexpr int kMinSetupReps = 5;
constexpr int kMaxSetupReps = 25;
constexpr double kSetupBudgetS = 1.0;
// Floor on timed operations per run, whatever --seconds says.
constexpr int kMinOps = 3;
// Seconds every processor spins before anything is timed (at most
// --seconds). On a virtual machine whose CPUs have sat idle, thread
// hand-offs run up to 3x slower for the first second or two of load;
// set-up would time that.
constexpr double kHostWarmupS = 1.5;

// matmul: 576 x 576, 3 x 3 grid of 192 x 192 blocks (27 matmul_func +
// 18 add_func tasks).
constexpr int64_t kMatmulN = 576;
constexpr int64_t kMatmulBlock = 192;
// kmeans: 32,768 x 32 samples in 32 row blocks, k = 4, 3 iterations.
constexpr int64_t kKMeansRows = 32768;
constexpr int64_t kKMeansCols = 32;
constexpr int64_t kKMeansBlockRows = 1024;
constexpr int kKMeansK = 4;
constexpr int kKMeansIterations = 3;
// wf-fine: 40 levels x 100 tasks, 16 x 16 materialized blocks.
constexpr int kWfLevels = 40;
constexpr int kWfWidth = 100;
constexpr int64_t kWfDim = 16;
// service: the rate the end-to-end latency is measured at, the rate
// ladder of the traced run, and the latency limit goodput is judged by.
constexpr double kServiceRateHz = 400;
constexpr double kLadderHz[] = {200, 400, 800};
constexpr double kLatencyLimitS = 0.050;
// The admission cap sits far above the ladder's steady backlog, so a
// host stall shows up as latency rather than as rejected submissions.
constexpr int kServiceMaxInFlight = 512;
// Submissions the service's set-up runs before the first timed one.
constexpr int kServiceWarmup = 32;
// Waiter threads of the service load generator.
constexpr int kWaitLanes = 4;
// Generated graphs the service feed builds ahead of the submit thread.
constexpr size_t kFeedDepth = 128;

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Median(std::vector<double> v) { return NearestRank(std::move(v), 0.5); }

/// Keeps `threads` threads busy for `seconds`.
void WarmUpHost(int threads, double seconds) {
  const double until = Now() + seconds;
  std::vector<std::thread> spinners;
  for (int i = 0; i < threads; ++i) {
    spinners.emplace_back([until] {
      while (Now() < until) {
      }
    });
  }
  for (std::thread& t : spinners) t.join();
}

uint64_t Mix(uint64_t seed, uint64_t salt) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ull + salt;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

data::Matrix RandomMatrix(int64_t rows, int64_t cols, uint64_t seed) {
  Rng rng(seed);
  data::Matrix m(rows, cols);
  for (int64_t i = 0; i < m.size(); ++i) m.data()[i] = rng.Uniform(-1, 1);
  return m;
}

std::string Hex(uint64_t v) {
  return StrFormat("%016llx", static_cast<unsigned long long>(v));
}

// ---------------------------------------------------------------------
// Run state shared by the workloads.
// ---------------------------------------------------------------------

/// Bench-side spans, kept in memory (obs::TraceWriter into a string
/// stream) and written when the run ends. Disabled outside --trace.
class Spans {
 public:
  explicit Spans(bool enabled) : enabled_(enabled), origin_(Now()) {
    if (enabled_) writer_ = std::make_unique<obs::TraceWriter>(&out_);
  }

  /// One complete span from t0 to t1 (steady-clock seconds).
  void Add(std::string_view name, std::string_view category, int tid,
           double t0, double t1) {
    if (!enabled_) return;
    std::lock_guard<std::mutex> lock(mu_);
    writer_->CompleteEvent(name, category, /*pid=*/0, tid,
                           (t0 - origin_) * 1e6, (t1 - t0) * 1e6);
  }

  /// Closes the document and returns it.
  std::string Finish() {
    std::lock_guard<std::mutex> lock(mu_);
    writer_->ProcessName(0, "bench_e2e");
    writer_->Close();
    return out_.str();
  }

 private:
  const bool enabled_;
  const double origin_;
  std::mutex mu_;
  std::ostringstream out_;
  std::unique_ptr<obs::TraceWriter> writer_;
};

// Span lanes (Chrome-trace thread ids): the main thread, then one lane
// per service waiter or sim-study sweep thread.
constexpr int kMainLane = 0;
constexpr int kFirstThreadLane = 1;

struct Run {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  int workers = 1;
  Spans* spans = nullptr;

  // Outcome.
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;
  std::map<std::string, double> metrics;
  std::map<std::string, int64_t> samples;
  std::map<std::string, std::string> deterministic;

  /// Records a failed operation or a wrong output.
  void Fail(const std::string& why) {
    ++failed;
    if (errors.size() < 20) errors.push_back(why);
    std::fprintf(stderr, "bench_e2e: %s\n", why.c_str());
  }

  /// Checks a deterministic value: the first report sets it, every
  /// later one must match exactly.
  void Expect(const std::string& key, const std::string& value) {
    auto [it, inserted] = deterministic.emplace(key, value);
    if (!inserted && it->second != value) {
      Fail(StrFormat("%s changed: %s then %s", key.c_str(), it->second.c_str(),
                     value.c_str()));
    }
  }

  /// Median and p90 of the unit operation, in ms, with the sample
  /// count; the end-to-end latency metrics.
  void ReportOps(const std::vector<double>& op_s) {
    metrics["op_p50_ms"] = NearestRank(op_s, 0.5) * 1e3;
    metrics["op_p90_ms"] = NearestRank(op_s, 0.9) * 1e3;
    samples["op"] = static_cast<int64_t>(op_s.size());
    samples["op_p90_resolved"] = Resolved(op_s.size(), 0.9) ? 1 : 0;
  }
};

/// Warms the host up, then repeats `setup` (see kMinSetupReps) and
/// reports the median as setup_s. `setup` returns its own duration, so
/// bench-side input generation inside it can be left out of the timed
/// span.
void MeasureSetup(Run* run, const std::function<double()>& setup) {
  WarmUpHost(run->workers + 1, std::min(kHostWarmupS, run->seconds));
  std::vector<double> times;
  const double end = Now() + kSetupBudgetS;
  while (times.size() < kMinSetupReps ||
         (times.size() < kMaxSetupReps && Now() < end)) {
    times.push_back(setup());
  }
  run->metrics["setup_s"] = Median(times);
  run->samples["setup"] = static_cast<int64_t>(times.size());
}

// ---------------------------------------------------------------------
// Real-executor workloads: matmul, kmeans, wf-fine.
// ---------------------------------------------------------------------

/// A materialized graph plus what one run must restore and check.
struct Workflow {
  TaskGraph graph;
  /// Data whose final values every run must reproduce bit for bit.
  std::vector<DataId> outputs;
  /// Pristine data entries: both executors write results back onto
  /// the graph, so each run starts from a restored copy.
  std::vector<runtime::DataEntry> initial;
  /// Shape of one block, for the standalone data-plane timings.
  int64_t block_rows = 0;
  int64_t block_cols = 0;
  /// True when the task cost descriptors' flops are operation counts
  /// (matmul); elsewhere they are modeled and kernel_gflops stays 0.
  bool exact_flops = false;
};

struct BuildTimes {
  double import_s = 0;
  double build_s = 0;
  double import_bytes = 0;
};

/// Builds the workload's graph, timing the import and build calls.
using WorkflowFactory = std::function<Result<Workflow>(BuildTimes*)>;

void Snapshot(Workflow* wf) {
  wf->initial.clear();
  for (DataId d = 0; d < wf->graph.num_data(); ++d) {
    wf->initial.push_back(wf->graph.data(d));
  }
}

void Restore(Workflow* wf) {
  for (DataId d = 0; d < wf->graph.num_data(); ++d) {
    wf->graph.mutable_data(d) = wf->initial[static_cast<size_t>(d)];
  }
}

Result<uint64_t> DigestOutputs(const runtime::Executor& executor,
                               const Workflow& wf) {
  uint64_t h = check::kFnvOffsetBasis;
  for (DataId d : wf.outputs) {
    TB_ASSIGN_OR_RETURN(data::Matrix m, executor.Fetch(wf.graph, d));
    const int64_t dims[2] = {m.rows(), m.cols()};
    h = check::FoldBytes(h, dims, sizeof(dims));
    h = check::FoldBytes(h, m.data(), static_cast<size_t>(m.size()) * 8);
  }
  return h;
}

struct TimedRun {
  bool ok = false;
  double wall = 0;
  RunReport report;
};

/// Waits (at most 1 s) until this process has a single thread. A
/// thread joined by the thread pool can stay listed in /proc/self/task
/// for a moment after the join returns, and MultiProcExecutor refuses
/// to fork while it sees more than one thread.
void WaitForSingleThread() {
  const double deadline = Now() + 1.0;
  for (;;) {
    std::error_code ec;
    int threads = 0;
    for (auto it = std::filesystem::directory_iterator("/proc/self/task", ec);
         !ec && it != std::filesystem::directory_iterator(); it.increment(ec)) {
      ++threads;
    }
    if (ec || threads <= 1 || Now() > deadline) return;
    std::this_thread::yield();
  }
}

/// One restored, timed Execute of `wf` on `executor`, then a fetch of
/// the outputs whose digest must match every other run's.
TimedRun ExecuteOnce(Run* run, runtime::Executor& executor, Workflow* wf,
                     const char* label, obs::MetricsRegistry* metrics) {
  Restore(wf);
  if (dynamic_cast<runtime::MultiProcExecutor*>(&executor) != nullptr) {
    WaitForSingleThread();
  }
  runtime::RunContext ctx;
  ctx.metrics = metrics;
  TimedRun out;
  const double t0 = Now();
  auto report = executor.Run(wf->graph, ctx);
  out.wall = Now() - t0;
  run->spans->Add(StrFormat("execute %s", label), "execute", kMainLane, t0,
                  t0 + out.wall);
  ++run->attempted;
  if (!report.ok()) {
    run->Fail(StrFormat("%s run failed: %s", label,
                        report.status().ToString().c_str()));
    return out;
  }
  const double f0 = Now();
  auto digest = DigestOutputs(executor, *wf);
  run->spans->Add("fetch/verify", "verify", kMainLane, f0, Now());
  if (!digest.ok()) {
    run->Fail(StrFormat("%s fetch failed: %s", label,
                        digest.status().ToString().c_str()));
    return out;
  }
  run->Expect("digest", Hex(*digest));
  out.ok = true;
  out.report = std::move(report).value();
  return out;
}

runtime::RunOptions ExecutorOptions(int workers) {
  runtime::RunOptions options;
  options.num_threads = workers;
  options.num_procs = workers;
  return options;
}

/// The per-layer medians of a set of accounted runs of one executor.
void ReportLayers(Run* run, const std::string& prefix,
                  const std::vector<Layers>& layers, bool exact_flops,
                  double multiply_gflops) {
  if (layers.empty()) return;
  auto med = [&](double Layers::*field) {
    std::vector<double> v;
    for (const Layers& l : layers) v.push_back(l.*field);
    return Median(v);
  };
  auto rate = [&](double Layers::*num, double Layers::*den) {
    std::vector<double> v;
    for (const Layers& l : layers) {
      if (l.*den > 0) v.push_back(l.*num / l.*den);
    }
    return v.empty() ? 0.0 : Median(v);
  };
  run->metrics[prefix + ".outside_s"] = med(&Layers::outside);
  run->metrics[prefix + ".first_task_s"] = med(&Layers::first_task);
  run->metrics[prefix + ".idle_s"] = med(&Layers::idle);
  run->metrics[prefix + ".task_other_s"] = med(&Layers::task_other);
  run->metrics[prefix + ".deserialize_s"] = med(&Layers::deserialize);
  run->metrics[prefix + ".serialize_s"] = med(&Layers::serialize);
  run->metrics[prefix + ".kernel_s"] = med(&Layers::kernel);
  run->metrics[prefix + ".ready_wait_s"] = med(&Layers::ready_wait);
  run->metrics[prefix + ".read_gbps"] =
      rate(&Layers::read_bytes, &Layers::deserialize) / 1e9;
  run->metrics[prefix + ".write_gbps"] =
      rate(&Layers::write_bytes, &Layers::serialize) / 1e9;
  const double gflops =
      exact_flops ? rate(&Layers::flops, &Layers::kernel) / 1e9 : 0;
  run->metrics[prefix + ".kernel_gflops"] = gflops;
  run->metrics[prefix + ".kernel_efficiency"] =
      multiply_gflops > 0 ? gflops / multiply_gflops : 0;
  run->samples[prefix + ".traced_runs"] = static_cast<int64_t>(layers.size());
}

/// Median rate of `op` over five timed batches of at least 20 ms; the
/// standalone single-thread data-plane timings.
double RatePerSecond(double work_per_call, const std::function<void()>& op) {
  int64_t calls = 1;
  for (;;) {
    const double t0 = Now();
    for (int64_t i = 0; i < calls; ++i) op();
    if (Now() - t0 >= 0.02) break;
    calls *= 2;
  }
  std::vector<double> rates;
  for (int rep = 0; rep < 5; ++rep) {
    const double t0 = Now();
    for (int64_t i = 0; i < calls; ++i) op();
    rates.push_back(work_per_call * static_cast<double>(calls) / (Now() - t0));
  }
  return Median(rates);
}

/// storage.* and data.* rates on the workload's block shape.
double MeasureDataPlane(Run* run, int64_t rows, int64_t cols) {
  const double t0 = Now();
  const data::Matrix block = RandomMatrix(rows, cols, Mix(run->seed, 11));
  const data::Matrix right = RandomMatrix(cols, cols, Mix(run->seed, 12));
  std::vector<uint8_t> wire;
  storage::Serializer::Serialize(block, &wire);
  const double bytes = static_cast<double>(block.bytes());
  const uint32_t crc = storage::Serializer::Crc32(wire.data(), wire.size());
  bool ok = true;
  run->metrics["storage.crc_gbps"] =
      RatePerSecond(bytes, [&] {
        ok &= storage::Serializer::Crc32(wire.data(), wire.size()) == crc;
      }) / 1e9;
  std::vector<uint8_t> scratch;
  run->metrics["storage.serialize_gbps"] =
      RatePerSecond(bytes, [&] {
        scratch.clear();
        storage::Serializer::Serialize(block, &scratch);
      }) / 1e9;
  run->metrics["storage.deserialize_gbps"] =
      RatePerSecond(bytes, [&] {
        ok &= storage::Serializer::Deserialize(wire).ok();
      }) / 1e9;
  const double flops = 2.0 * static_cast<double>(rows * cols * cols);
  const double gflops = RatePerSecond(flops, [&] {
                          ok &= data::Multiply(block, right).ok();
                        }) /
                        1e9;
  run->metrics["data.multiply_gflops"] = gflops;
  if (!ok) run->Fail("standalone data-plane call failed");
  run->spans->Add("data-plane timings", "standalone", kMainLane, t0, Now());
  return gflops;
}

/// Alternates single-worker threads / procs runs, up to 20 each, within
/// `budget_s`; the baselines of the scaling-efficiency metrics.
void MeasureBaselines(Run* run, Workflow* wf, double budget_s) {
  runtime::ThreadPoolExecutor threads(ExecutorOptions(1));
  runtime::MultiProcExecutor procs(ExecutorOptions(1));
  std::vector<double> t1, p1;
  const double end = Now() + budget_s;
  while (t1.size() < 20 && (t1.size() < 2 || Now() < end)) {
    TimedRun t = ExecuteOnce(run, threads, wf, "threads1", nullptr);
    if (t.ok) t1.push_back(t.wall);
    TimedRun p = ExecuteOnce(run, procs, wf, "procs1", nullptr);
    if (p.ok) p1.push_back(p.wall);
  }
  if (t1.empty() || p1.empty()) return;
  run->metrics["runtime.threads1.run_p50_s"] = Median(t1);
  run->metrics["runtime.procs1.run_p50_s"] = Median(p1);
  run->samples["runtime.threads1.runs"] = static_cast<int64_t>(t1.size());
  run->samples["runtime.procs1.runs"] = static_cast<int64_t>(p1.size());
  const double w = run->workers;
  const double tw = run->metrics["runtime.threads.run_p50_s"];
  const double pw = run->metrics["runtime.procs.run_p50_s"];
  if (tw > 0) run->metrics["runtime.threads.scaling_eff"] = Median(t1) / (w * tw);
  if (pw > 0) run->metrics["runtime.procs.scaling_eff"] = Median(p1) / (w * pw);
}

/// The shared loop of the three real-executor workloads. One timed
/// operation is a round: the workflow once on threads(W), then once on
/// procs(W), each from restored inputs; the round's latency is the sum
/// of the two Execute wall times.
void RunExecutorWorkload(Run* run, const WorkflowFactory& factory,
                         const std::function<void(Run*, Workflow*)>& verify) {
  const runtime::RunOptions options = ExecutorOptions(run->workers);
  std::optional<Workflow> wf;
  std::unique_ptr<runtime::ThreadPoolExecutor> threads;
  std::unique_ptr<runtime::MultiProcExecutor> procs;
  std::vector<double> import_s, build_s, import_mbps;

  MeasureSetup(run, [&] {
    const double t0 = Now();
    BuildTimes times;
    auto built = factory(&times);
    if (!built.ok()) {
      run->Fail("build failed: " + built.status().ToString());
      return Now() - t0;
    }
    wf.emplace(std::move(built).value());
    Snapshot(&*wf);
    threads = std::make_unique<runtime::ThreadPoolExecutor>(options);
    procs = std::make_unique<runtime::MultiProcExecutor>(options);
    ExecuteOnce(run, *threads, &*wf, "threads warm-up", nullptr);
    ExecuteOnce(run, *procs, &*wf, "procs warm-up", nullptr);
    const double t1 = Now();
    run->spans->Add("setup", "setup", kMainLane, t0, t1);
    import_s.push_back(times.import_s);
    build_s.push_back(times.build_s);
    if (times.import_s > 0) {
      import_mbps.push_back(times.import_bytes / times.import_s / 1e6);
    }
    return t1 - t0;
  });
  if (!wf.has_value()) return;
  run->metrics["runtime.graph.build_s"] = Median(build_s);
  if (!import_mbps.empty()) {
    run->metrics["wf.import_s"] = Median(import_s);
    run->metrics["wf.import_mb_per_s"] = Median(import_mbps);
  }
  run->deterministic["tasks"] = std::to_string(wf->graph.num_tasks());
  verify(run, &*wf);

  // Rounds until the phase's window closes (and at least kMinOps).
  auto rounds = [&](double window_s, bool traced, std::vector<double>* op,
                    std::vector<double>* t_wall, std::vector<double>* p_wall,
                    std::vector<Layers>* t_layers,
                    std::vector<Layers>* p_layers) {
    const double end = Now() + window_s;
    obs::MetricsRegistry pool_metrics;
    while (op->size() < kMinOps || Now() < end) {
      const double r0 = Now();
      obs::MetricsRegistry run_metrics;
      TimedRun t = ExecuteOnce(run, *threads, &*wf, "threads",
                               traced ? &run_metrics : nullptr);
      TimedRun p = ExecuteOnce(run, *procs, &*wf, "procs",
                               traced ? &run_metrics : nullptr);
      run->spans->Add("round", "round", kMainLane, r0, Now());
      if (!t.ok || !p.ok) {
        if (run->failed > 100) break;  // failing every time: stop
        continue;
      }
      op->push_back(t.wall + p.wall);
      t_wall->push_back(t.wall);
      p_wall->push_back(p.wall);
      if (!traced) continue;
      pool_metrics.MergeFrom(run_metrics);
      for (auto [timed, layers] :
           {std::pair{&t, t_layers}, std::pair{&p, p_layers}}) {
        auto l = Account(timed->report, wf->graph, run->workers, timed->wall);
        if (l.ok()) {
          layers->push_back(*l);
        } else {
          run->Fail("layer accounting: " + l.status().ToString());
        }
      }
    }
    if (traced && !t_layers->empty()) {
      const double n = static_cast<double>(t_layers->size());
      run->metrics["runtime.threads.steals"] =
          static_cast<double>(pool_metrics.counter("pool.steals")->value()) / n;
      run->metrics["runtime.threads.parks"] =
          static_cast<double>(pool_metrics.counter("pool.parks")->value()) / n;
    }
  };

  std::vector<double> op, t_wall, p_wall;
  std::vector<Layers> t_layers, p_layers;
  if (!run->trace) {
    rounds(run->seconds, false, &op, &t_wall, &p_wall, nullptr, nullptr);
    run->ReportOps(op);
    return;
  }

  // Traced run: an untraced window (the overhead baseline), a traced
  // window (the layer breakdown), the single-worker baselines and the
  // standalone data-plane timings share the --seconds budget.
  rounds(0.3 * run->seconds, false, &op, &t_wall, &p_wall, nullptr, nullptr);
  const double untraced_p50 = Median(op);
  run->ReportOps(op);
  std::vector<double> traced_op, traced_t, traced_p;
  rounds(0.4 * run->seconds, true, &traced_op, &traced_t, &traced_p, &t_layers,
         &p_layers);
  run->metrics["runtime.threads.run_p50_s"] = NearestRank(t_wall, 0.5);
  run->metrics["runtime.threads.run_p90_s"] = NearestRank(t_wall, 0.9);
  run->metrics["runtime.procs.run_p50_s"] = NearestRank(p_wall, 0.5);
  run->metrics["runtime.procs.run_p90_s"] = NearestRank(p_wall, 0.9);
  run->metrics["obs.trace_overhead_ratio"] = Median(traced_op) / untraced_p50;
  const double multiply_gflops =
      MeasureDataPlane(run, wf->block_rows, wf->block_cols);
  ReportLayers(run, "runtime.threads", t_layers, wf->exact_flops,
               multiply_gflops);
  ReportLayers(run, "runtime.procs", p_layers, wf->exact_flops,
               multiply_gflops);
  MeasureBaselines(run, &*wf, 0.25 * run->seconds);
}

void RunMatmul(Run* run) {
  // Bench-side inputs: A and B from the seed.
  const data::Matrix a = RandomMatrix(kMatmulN, kMatmulN, Mix(run->seed, 1));
  const data::Matrix b = RandomMatrix(kMatmulN, kMatmulN, Mix(run->seed, 2));
  auto factory = [&](BuildTimes* times) -> Result<Workflow> {
    const double t0 = Now();
    TB_ASSIGN_OR_RETURN(
        data::GridSpec spec,
        data::GridSpec::Create({"matmul", kMatmulN, kMatmulN}, kMatmulBlock,
                               kMatmulBlock));
    algos::MatmulOptions options;
    options.materialize = true;
    options.a_values = &a;
    options.b_values = &b;
    TB_ASSIGN_OR_RETURN(algos::MatmulWorkflow built,
                        algos::BuildMatmul(spec, options));
    Workflow wf;
    wf.graph = std::move(built.graph);
    for (const auto& row : built.c) {
      for (DataId d : row) wf.outputs.push_back(d);
    }
    wf.block_rows = kMatmulBlock;
    wf.block_cols = kMatmulBlock;
    wf.exact_flops = true;
    times->build_s = Now() - t0;
    run->spans->Add("build", "build", kMainLane, t0, t0 + times->build_s);
    return wf;
  };
  // The first run's product must match the dense reference multiply.
  auto verify = [&](Run* r, Workflow* wf) {
    runtime::ThreadPoolExecutor executor(ExecutorOptions(r->workers));
    TimedRun t = ExecuteOnce(r, executor, wf, "threads reference", nullptr);
    if (!t.ok) return;
    auto reference = data::naive::Multiply(a, b);
    if (!reference.ok()) {
      r->Fail("reference multiply failed");
      return;
    }
    double max_ref = 0, max_diff = 0;
    for (int64_t i = 0; i < reference->size(); ++i) {
      max_ref = std::max(max_ref, std::abs(reference->data()[i]));
    }
    size_t k = 0;
    for (int64_t bi = 0; bi < kMatmulN / kMatmulBlock; ++bi) {
      for (int64_t bj = 0; bj < kMatmulN / kMatmulBlock; ++bj) {
        auto block = executor.FetchData(wf->graph, wf->outputs[k++]);
        if (!block.ok()) {
          r->Fail("fetch of C failed");
          return;
        }
        auto want = reference->Slice(bi * kMatmulBlock, bj * kMatmulBlock,
                                     kMatmulBlock, kMatmulBlock);
        max_diff = std::max(max_diff, block->MaxAbsDiff(*want));
      }
    }
    if (max_diff > 1e-9 * max_ref) {
      r->Fail(StrFormat("C differs from the dense product by %.3g (rel %.3g)",
                        max_diff, max_diff / max_ref));
    }
  };
  RunExecutorWorkload(run, factory, verify);
}

void RunKMeans(Run* run) {
  const data::Matrix samples =
      RandomMatrix(kKMeansRows, kKMeansCols, Mix(run->seed, 3));
  auto factory = [&](BuildTimes* times) -> Result<Workflow> {
    const double t0 = Now();
    TB_ASSIGN_OR_RETURN(
        data::GridSpec spec,
        data::GridSpec::Create({"kmeans", kKMeansRows, kKMeansCols},
                               kKMeansBlockRows, kKMeansCols));
    algos::KMeansOptions options;
    options.num_clusters = kKMeansK;
    options.iterations = kKMeansIterations;
    options.materialize = true;
    options.samples = &samples;
    TB_ASSIGN_OR_RETURN(algos::KMeansWorkflow built,
                        algos::BuildKMeans(spec, options));
    Workflow wf;
    wf.graph = std::move(built.graph);
    wf.outputs = {built.centroids};
    wf.block_rows = kKMeansBlockRows;
    wf.block_cols = kKMeansCols;
    times->build_s = Now() - t0;
    run->spans->Add("build", "build", kMainLane, t0, t0 + times->build_s);
    return wf;
  };
  RunExecutorWorkload(run, factory, [](Run*, Workflow*) {});
}

void RunWfFine(Run* run) {
  // Bench-side input: a WfBench instance exported to WfFormat JSON.
  wf::GenOptions gen;
  gen.seed = Mix(run->seed, 4);
  gen.name = "wf-fine";
  gen.levels = kWfLevels;
  gen.width = kWfWidth;
  gen.max_parents = 3;
  const std::string json = wf::ExportWfFormat(wf::GenerateWfBench(gen));
  auto factory = [&](BuildTimes* times) -> Result<Workflow> {
    const double t0 = Now();
    TB_ASSIGN_OR_RETURN(wf::Instance instance, wf::ImportWfFormat(json));
    const double t1 = Now();
    wf::BuildOptions options;
    options.materialize = true;
    options.max_dim = kWfDim;
    TB_ASSIGN_OR_RETURN(wf::BuiltInstance built,
                        wf::BuildInstance(instance, options));
    const double t2 = Now();
    run->spans->Add("import", "import", kMainLane, t0, t1);
    run->spans->Add("build", "build", kMainLane, t1, t2);
    times->import_s = t1 - t0;
    times->build_s = t2 - t1;
    times->import_bytes = static_cast<double>(json.size());
    Workflow wf;
    wf.graph = std::move(built.graph);
    wf.outputs = built.data;
    wf.block_rows = kWfDim;
    wf.block_cols = kWfDim;
    return wf;
  };
  RunExecutorWorkload(run, factory, [](Run*, Workflow*) {});
}

// ---------------------------------------------------------------------
// service: open-loop arrivals into WorkflowService.
// ---------------------------------------------------------------------

struct Arrival {
  TaskGraph graph;
  int64_t tasks = 0;
  bool heavy = false;  ///< tenant "b" (3 of 4 arrivals) vs tenant "a"
};

/// The `index`-th generated submission of `seed`'s stream.
Result<Arrival> MakeArrival(uint64_t seed, uint64_t index) {
  const uint64_t key = Mix(seed, 1000 + index);
  TB_ASSIGN_OR_RETURN(check::BuiltWorkload built,
                      check::BuildWorkload(check::GenerateSpec(key)));
  Arrival a;
  a.tasks = built.graph.num_tasks();
  a.graph = std::move(built.graph);
  a.heavy = key % 4 != 0;
  return a;
}

/// Builds generated graphs ahead of the submit thread into a bounded
/// queue, so graph construction never sits on the submit path.
class GraphFeed {
 public:
  explicit GraphFeed(uint64_t seed)
      : seed_(seed), producer_([this] { BuildLoop(); }) {}

  ~GraphFeed() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    producer_.join();
  }

  GraphFeed(const GraphFeed&) = delete;
  GraphFeed& operator=(const GraphFeed&) = delete;

  /// Next generated graph; blocks while the producer thread is behind.
  Result<Arrival> Pop() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return !queue_.empty() || !status_.ok(); });
    if (queue_.empty()) return status_;
    Arrival a = std::move(queue_.front());
    queue_.pop_front();
    cv_.notify_all();
    return a;
  }

 private:
  void BuildLoop() {
    for (uint64_t i = 0;; ++i) {
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return stop_ || queue_.size() < kFeedDepth; });
        if (stop_) return;
      }
      auto arrival = MakeArrival(seed_, i);
      std::lock_guard<std::mutex> lock(mu_);
      if (!arrival.ok()) {
        status_ = arrival.status();
        cv_.notify_all();
        return;
      }
      queue_.push_back(std::move(arrival).value());
      cv_.notify_all();
    }
  }

  const uint64_t seed_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Arrival> queue_;
  Status status_;
  bool stop_ = false;
  std::thread producer_;  // last: starts after the state it uses
};

struct RungResult {
  double rate_hz = 0;
  std::vector<double> latency_s;  ///< due time -> Wait returns
  std::vector<double> lag_s;      ///< due time -> Submit called
  std::vector<double> submit_s;   ///< Submit call duration
  int64_t offered = 0;
  int64_t rejected = 0;
  int64_t failed = 0;
  int64_t outstanding_end = 0;
};

/// One rung: Poisson arrivals at `rate_hz` for `duration_s`, submitted
/// by the calling thread at their due times. Submission i is waited on
/// by waiter lane i % kWaitLanes, in order within the lane, and timed
/// from its due time. A single in-order waiter would add every earlier
/// submission's run time to a later one's latency: head-of-line
/// blocking in the load generator, not in the service.
RungResult RunRung(Run* run, service::WorkflowService& svc, GraphFeed& feed,
                   double rate_hz, double duration_s, uint64_t seed) {
  struct Pending {
    service::SubmissionHandle handle;
    double due = 0;
    int64_t tasks = 0;
  };
  struct Lane {
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Pending> pending;
    bool closed = false;
  };
  RungResult out;
  out.rate_hz = rate_hz;
  std::mutex out_mu;  // guards out.latency_s and out.failed
  Lane lanes[kWaitLanes];
  std::vector<std::thread> waiters;
  for (int i = 0; i < kWaitLanes; ++i) {
    waiters.emplace_back([&, i] {
      Lane& lane = lanes[i];
      for (;;) {
        Pending p;
        {
          std::unique_lock<std::mutex> lock(lane.mu);
          lane.cv.wait(lock, [&] { return lane.closed || !lane.pending.empty(); });
          if (lane.pending.empty()) return;
          p = lane.pending.front();
          lane.pending.pop_front();
        }
        auto report = svc.Wait(p.handle);
        const double done = Now();
        run->spans->Add("submit->wait", "service", kFirstThreadLane + i, p.due,
                        done);
        std::lock_guard<std::mutex> lock(out_mu);
        if (report.ok() &&
            static_cast<int64_t>(report->records.size()) == p.tasks) {
          out.latency_s.push_back(done - p.due);
        } else {
          ++out.failed;
        }
      }
    });
  }

  service::ArrivalOptions arrivals;
  arrivals.rate_hz = rate_hz;
  service::ArrivalGenerator gen(arrivals, seed);
  const double start = Now();
  double due = start + gen.NextDelay();
  while (due < start + duration_s) {
    auto arrival = feed.Pop();
    if (!arrival.ok()) {
      run->Fail("graph generation failed: " + arrival.status().ToString());
      break;
    }
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(due))));
    const double t0 = Now();
    service::SubmitOptions opts;
    opts.tenant = arrival->heavy ? "b" : "a";
    const int64_t tasks = arrival->tasks;
    auto handle = svc.Submit(std::move(arrival->graph), opts);
    const double t1 = Now();
    ++out.offered;
    out.lag_s.push_back(t0 - due);
    out.submit_s.push_back(t1 - t0);
    if (!handle.ok()) {
      if (handle.status().IsRejectedAdmission()) {
        ++out.rejected;
      } else {
        ++out.failed;
      }
    } else {
      Lane& lane = lanes[out.offered % kWaitLanes];
      std::lock_guard<std::mutex> lock(lane.mu);
      lane.pending.push_back({*handle, due, tasks});
      lane.cv.notify_one();
    }
    due += gen.NextDelay();
  }
  const service::ServiceReport at_end = svc.Report();
  out.outstanding_end = at_end.still_queued + at_end.still_running;
  for (Lane& lane : lanes) {
    std::lock_guard<std::mutex> lock(lane.mu);
    lane.closed = true;
    lane.cv.notify_one();
  }
  for (std::thread& waiter : waiters) waiter.join();
  run->attempted += out.offered;
  for (int64_t i = 0; i < out.rejected + out.failed; ++i) {
    run->Fail(StrFormat("submission at %.0f/s rejected or failed", rate_hz));
  }
  return out;
}

std::unique_ptr<service::WorkflowService> MakeService(
    int workers, obs::MetricsRegistry* metrics) {
  runtime::RunOptions exec;
  exec.num_threads = 1;
  service::ServiceOptions options;
  options.num_runners = workers;
  options.max_in_flight = kServiceMaxInFlight;
  options.tenants["a"].weight = 1;
  options.tenants["b"].weight = 3;
  options.metrics = metrics;
  return std::make_unique<service::WorkflowService>(
      std::make_shared<runtime::ThreadPoolExecutor>(exec), options);
}

void RunService(Run* run) {
  GraphFeed feed(run->seed);
  std::unique_ptr<service::WorkflowService> svc;
  MeasureSetup(run, [&] {
    // Bench-side inputs first: graph generation is not set-up. Every
    // repetition, whatever the seed, warms up with the same submissions
    // (from a stretch of the stream the feed never reaches): 32 graphs
    // of the seeded mix differ in total work by up to 3x from seed to
    // seed, which would swamp setup_s.
    std::vector<TaskGraph> warm;
    for (int i = 0; i < kServiceWarmup; ++i) {
      auto arrival = MakeArrival(/*seed=*/0, (uint64_t{1} << 40) + i);
      if (arrival.ok()) {
        warm.push_back(std::move(arrival->graph));
      } else {
        run->Fail("graph generation failed: " + arrival.status().ToString());
      }
    }
    svc.reset();  // the previous repetition's service shuts down first
    const double t0 = Now();
    svc = MakeService(run->workers, nullptr);
    std::vector<service::SubmissionHandle> handles;
    for (TaskGraph& graph : warm) {
      ++run->attempted;
      auto handle = svc->Submit(std::move(graph));
      if (handle.ok()) {
        handles.push_back(*handle);
      } else {
        run->Fail("warm-up submission rejected");
      }
    }
    for (const service::SubmissionHandle& h : handles) {
      if (!svc->Wait(h).ok()) run->Fail("warm-up submission failed");
    }
    const double t1 = Now();
    run->spans->Add("setup", "setup", kMainLane, t0, t1);
    return t1 - t0;
  });

  const double e2e_window = run->trace ? 0.3 * run->seconds : run->seconds;
  RungResult base = RunRung(run, *svc, feed, kServiceRateHz, e2e_window,
                            Mix(run->seed, 5));
  run->ReportOps(base.latency_s);
  if (!run->trace) return;
  svc.reset();

  run->metrics["service.latency_p50_s"] = NearestRank(base.latency_s, 0.5);
  run->metrics["service.latency_p99_s"] = NearestRank(base.latency_s, 0.99);

  // Traced ladder: a fresh service with its metrics registry on. Each
  // rung gets the same expected sample count (duration ~ 1 / rate); the
  // rung at the untraced window's rate gives the tracing overhead.
  obs::MetricsRegistry service_metrics;
  svc = MakeService(run->workers, &service_metrics);
  double inverse_sum = 0;
  for (double r : kLadderHz) inverse_sum += 1 / r;
  const double per_sample_s = 0.65 * run->seconds / inverse_sum;
  std::vector<Rung> rungs;
  std::vector<double> lag, submit;
  int64_t offered = 0, rejected = 0;
  for (double rate : kLadderHz) {
    const double t0 = Now();
    RungResult r = RunRung(run, *svc, feed, rate, per_sample_s / rate,
                           Mix(run->seed, static_cast<uint64_t>(rate)));
    run->spans->Add(StrFormat("rung %.0f/s", rate), "rung", kMainLane, t0,
                    Now());
    const std::string prefix = StrFormat("service.r%.0f", rate);
    run->metrics[prefix + ".latency_p99_s"] = NearestRank(r.latency_s, 0.99);
    run->metrics[prefix + ".outstanding_end"] =
        static_cast<double>(r.outstanding_end);
    run->samples[prefix + ".samples"] = static_cast<int64_t>(r.latency_s.size());
    rungs.push_back({rate, NearestRank(r.latency_s, 0.99),
                     static_cast<int64_t>(r.latency_s.size()), r.rejected,
                     r.outstanding_end});
    if (rate == kServiceRateHz) {
      run->metrics["obs.trace_overhead_ratio"] =
          NearestRank(r.latency_s, 0.5) / NearestRank(base.latency_s, 0.5);
    }
    lag.insert(lag.end(), r.lag_s.begin(), r.lag_s.end());
    submit.insert(submit.end(), r.submit_s.begin(), r.submit_s.end());
    offered += r.offered;
    rejected += r.rejected;
  }
  svc->Shutdown();
  const service::ServiceReport report = svc->Report();
  double qw50 = 0, qw99 = 0, run50 = 0, run99 = 0;
  for (const service::TenantReport& t : report.tenants) {
    // The worse tenant's tail: WFQ should keep the two close.
    qw50 = std::max(qw50, t.queue_wait.p50);
    qw99 = std::max(qw99, t.queue_wait.p99);
    run50 = std::max(run50, t.makespan.p50);
    run99 = std::max(run99, t.makespan.p99);
  }
  run->metrics["service.queue_wait_p50_s"] = qw50;
  run->metrics["service.queue_wait_p99_s"] = qw99;
  run->metrics["service.run_p50_s"] = run50;
  run->metrics["service.run_p99_s"] = run99;
  run->metrics["service.submit_p99_s"] = NearestRank(submit, 0.99);
  run->metrics["service.generator_lag_p99_s"] = NearestRank(lag, 0.99);
  run->metrics["service.rejected_ratio"] =
      offered > 0 ? static_cast<double>(rejected) / offered : 0;
  run->metrics["service.goodput_hz"] = Goodput(rungs, kLatencyLimitS);
  run->samples["service.admitted"] =
      service_metrics.counter("service.admitted")->value();
}

// ---------------------------------------------------------------------
// sim-study: the simulated executor only.
// ---------------------------------------------------------------------

struct Scenario {
  std::string name;
  TaskGraph graph;
};

void RunSimStudy(Run* run) {
  // Bench-side inputs: three WfBench instances from the seed.
  std::vector<wf::Instance> instances;
  {
    wf::GenOptions heavy;
    heavy.seed = Mix(run->seed, 6);
    heavy.name = "heavy-tail";
    heavy.levels = 12;
    heavy.width = 40;
    heavy.heavy_tail_alpha = 1.5;
    heavy.input_bytes = 4 << 20;
    instances.push_back(wf::GenerateWfBench(heavy));
    wf::GenOptions straggler = heavy;
    straggler.seed = Mix(run->seed, 7);
    straggler.name = "straggler";
    straggler.heavy_tail_alpha = 0;
    straggler.straggler_fraction = 0.05;
    straggler.straggler_factor = 8;
    instances.push_back(wf::GenerateWfBench(straggler));
    wf::GenOptions gpu = heavy;
    gpu.seed = Mix(run->seed, 8);
    gpu.name = "gpu-mix";
    gpu.heavy_tail_alpha = 0;
    gpu.types = wf::DefaultTaskTypes(1);
    instances.push_back(wf::GenerateWfBench(gpu));
  }
  const SchedulingPolicy policies[] = {SchedulingPolicy::kTaskGenerationOrder,
                                       SchedulingPolicy::kDataLocality,
                                       SchedulingPolicy::kCostModel};

  std::vector<analysis::ExperimentConfig> configs;
  std::vector<Scenario> scenarios;
  const size_t num_policies = std::size(policies);
  auto calls_per_pass = [&] {
    return configs.size() + scenarios.size() * num_policies;
  };

  // One pass: every sample config, then every scenario x policy, run as
  // a sweep on W threads that claim calls in that order from a shared
  // counter. A lone thread would time whichever processor it sits on,
  // and on a shared host single processors run up to 1.5x slower for
  // seconds at a time; a pass over W of them averages that out. Each
  // call's simulated makespan must repeat bit for bit on every pass.
  struct Call {
    double seconds = 0;
    double makespan = 0;
    double events = 0;
    Status status;
    obs::MetricsRegistry metrics;  ///< filled in traced passes only
  };
  // Call k of a pass. Calls share only read-only inputs.
  auto run_call = [&](size_t k, bool traced, int lane, Call* out) {
    if (k < configs.size()) {
      analysis::ExperimentConfig config = configs[k];
      if (traced) config.run.metrics = &out->metrics;
      const double t0 = Now();
      auto result = analysis::RunExperiment(config);
      out->seconds = Now() - t0;
      run->spans->Add("RunExperiment", "sim", lane, t0, t0 + out->seconds);
      out->status = result.status();
      if (result.ok()) {
        out->makespan = result->makespan;
        out->events = static_cast<double>(result->report.sim_events);
      }
      return;
    }
    const Scenario& s = scenarios[(k - configs.size()) / num_policies];
    runtime::RunOptions options;
    options.policy = policies[(k - configs.size()) % num_policies];
    if (traced) options.metrics = &out->metrics;
    const runtime::SimulatedExecutor executor(hw::MinotauroCluster(), options);
    const double t0 = Now();
    auto report = executor.Execute(s.graph);
    out->seconds = Now() - t0;
    run->spans->Add("SimulatedExecutor::Execute " + s.name, "sim", lane, t0,
                    t0 + out->seconds);
    out->status = report.status();
    if (report.ok()) {
      out->makespan = report->makespan;
      out->events = static_cast<double>(report->sim_events);
    }
  };
  struct PassStats {
    std::vector<double> pass_s;
    std::vector<double> call_s;
    double events = 0;
    double decisions = 0;
    double wall = 0;  ///< summed call time
  };
  auto pass = [&](bool traced, PassStats* stats) {
    const size_t num_calls = calls_per_pass();
    std::vector<Call> calls(num_calls);
    std::atomic<size_t> next{0};
    const double pass_t0 = Now();
    std::vector<std::thread> sweepers;
    for (int w = 0; w < run->workers; ++w) {
      sweepers.emplace_back([&, w] {
        for (size_t k; (k = next.fetch_add(1)) < num_calls;) {
          run_call(k, traced, kFirstThreadLane + w, &calls[k]);
        }
      });
    }
    for (std::thread& t : sweepers) t.join();
    stats->pass_s.push_back(Now() - pass_t0);

    std::vector<double> makespans;
    double scenario_makespan = 0;
    obs::MetricsRegistry metrics;
    for (size_t k = 0; k < num_calls; ++k) {
      const Call& c = calls[k];
      ++run->attempted;
      if (!c.status.ok()) {
        run->Fail(StrFormat("simulator call %zu failed: %s", k,
                            c.status.ToString().c_str()));
        continue;
      }
      stats->call_s.push_back(c.seconds);
      stats->wall += c.seconds;
      stats->events += c.events;
      makespans.push_back(c.makespan);
      if (k >= configs.size()) scenario_makespan += c.makespan;
      metrics.MergeFrom(c.metrics);
    }
    stats->decisions +=
        static_cast<double>(metrics.counter("sched.decisions")->value());
    uint64_t h = check::kFnvOffsetBasis;
    h = check::FoldBytes(h, makespans.data(), makespans.size() * sizeof(double));
    run->Expect("sim_digest", Hex(h));
    run->Expect("sim_makespan_s", StrFormat("%.17g", scenario_makespan));
    run->metrics["sim.makespan_s"] = scenario_makespan;
  };

  // Set-up ends with one warm-up pass, as an executor workload's set-up
  // ends with one round; a single-threaded set-up would time whichever
  // processor it sits on.
  std::vector<double> build_s;
  MeasureSetup(run, [&] {
    const double t0 = Now();
    configs = analysis::CorrelationSampleConfigs();
    scenarios.clear();
    const double b0 = Now();
    for (const wf::Instance& instance : instances) {
      wf::BuildOptions options;
      options.materialize = false;
      auto built = wf::BuildInstance(instance, options);
      if (!built.ok()) {
        run->Fail("scenario build failed: " + built.status().ToString());
        continue;
      }
      scenarios.push_back({instance.name, std::move(built->graph)});
    }
    build_s.push_back(Now() - b0);
    PassStats warm_up;
    pass(false, &warm_up);
    const double t1 = Now();
    run->spans->Add("setup", "setup", kMainLane, t0, t1);
    return t1 - t0;
  });
  run->metrics["runtime.graph.build_s"] = Median(build_s);

  auto passes = [&](double window_s, bool traced, PassStats* stats) {
    const double end = Now() + window_s;
    int n = 0;
    while (n < 1 || Now() < end) {
      pass(traced, stats);
      ++n;
    }
    run->samples[traced ? "sim.traced_passes" : "sim.passes"] = n;
  };

  PassStats untraced;
  passes(run->trace ? 0.4 * run->seconds : run->seconds, false, &untraced);
  run->ReportOps(untraced.pass_s);
  run->deterministic["calls_per_pass"] = std::to_string(calls_per_pass());
  if (!run->trace) return;

  run->metrics["sim.run_p50_s"] = NearestRank(untraced.call_s, 0.5);
  run->metrics["sim.run_p90_s"] = NearestRank(untraced.call_s, 0.9);
  run->metrics["sim.events_per_s"] = untraced.events / untraced.wall;
  PassStats traced;
  passes(0.4 * run->seconds, true, &traced);
  run->metrics["sim.decisions_per_s"] = traced.decisions / traced.wall;
  run->metrics["obs.trace_overhead_ratio"] =
      Median(traced.pass_s) / Median(untraced.pass_s);
  const double d0 = Now();
  for (const analysis::ExperimentConfig& config : configs) {
    ++run->attempted;
    if (!analysis::DescribeExperiment(config).ok()) {
      run->Fail("DescribeExperiment failed");
    }
  }
  run->metrics["analysis.describe_s"] = Now() - d0;
  run->spans->Add("DescribeExperiment x all", "analysis", kMainLane, d0, Now());
}

// ---------------------------------------------------------------------
// Result output.
// ---------------------------------------------------------------------

struct Host {
  int nproc = 1;
  int workers = 1;
  std::string cpu_model;
  int numa_domains = 1;
  std::string commit;
};

int HostProcessors() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

/// Larger ru_maxrss of this process and of its largest reaped child
/// (the multi-process executor's workers), in MB.
double PeakRssMb() {
  rusage self{}, children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
         1024.0;
}

std::string MetricsJson(const Run& run, const MetricDef* defs, size_t n) {
  std::string out = "{";
  for (size_t i = 0; i < n; ++i) {
    const auto it = run.metrics.find(defs[i].name);
    const double value = it == run.metrics.end() ? 0.0 : it->second;
    out += StrFormat("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                     i ? ", " : "", defs[i].name, value, defs[i].unit);
  }
  return out + "}";
}

std::string ResultFileJson(const Run& run, const Host& host) {
  std::string out = "{\n";
  out += StrFormat("  \"workload\": \"%s\",\n", JsonEscape(run.workload).c_str());
  out += StrFormat("  \"seed\": %llu,\n", static_cast<unsigned long long>(run.seed));
  out += StrFormat("  \"seconds\": %.17g,\n", run.seconds);
  out += StrFormat("  \"trace\": %s,\n", run.trace ? "true" : "false");
  out += StrFormat(
      "  \"host\": {\"nproc\": %d, \"workers\": %d, \"cpu_model\": \"%s\", "
      "\"numa_domains\": %d, \"build_type\": \"%s\", \"commit\": \"%s\"},\n",
      host.nproc, host.workers, JsonEscape(host.cpu_model).c_str(),
      host.numa_domains, TB_E2E_BUILD_TYPE, JsonEscape(host.commit).c_str());
  out += StrFormat("  \"correct\": %s,\n", run.failed == 0 ? "true" : "false");
  out += StrFormat("  \"attempted\": %lld,\n", static_cast<long long>(run.attempted));
  out += StrFormat("  \"failed\": %lld,\n", static_cast<long long>(run.failed));
  out += "  \"end_to_end\": " +
         MetricsJson(run, kEndToEnd, std::size(kEndToEnd)) + ",\n";
  if (run.trace) {
    out += "  \"per_layer\": " +
           MetricsJson(run, kPerLayer, std::size(kPerLayer)) + ",\n";
  }
  out += "  \"samples\": {";
  bool first = true;
  for (const auto& [k, v] : run.samples) {
    out += StrFormat("%s\"%s\": %lld", first ? "" : ", ", JsonEscape(k).c_str(),
                     static_cast<long long>(v));
    first = false;
  }
  out += "},\n  \"deterministic\": {";
  first = true;
  for (const auto& [k, v] : run.deterministic) {
    out += StrFormat("%s\"%s\": \"%s\"", first ? "" : ", ",
                     JsonEscape(k).c_str(), JsonEscape(v).c_str());
    first = false;
  }
  out += "},\n  \"errors\": [";
  for (size_t i = 0; i < run.errors.size(); ++i) {
    out += StrFormat("%s\"%s\"", i ? ", " : "", JsonEscape(run.errors[i]).c_str());
  }
  return out + "]\n}\n";
}

Status WriteFile(const std::string& path, const std::string& text) {
  TB_RETURN_IF_ERROR(obs::ValidateJson(text));
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  out.close();
  if (!out) return Status::Internal("cannot write " + path);
  return Status::OK();
}

int Main(int argc, char** argv) {
  const Args args = Args::Parse(argc, argv);
  const std::vector<std::string> unknown =
      args.UnknownKeys({"workload", "seed", "seconds", "trace", "out", "commit"});
  if (!unknown.empty()) {
    std::fprintf(stderr, "bench_e2e: unknown flag --%s\n", unknown[0].c_str());
    return 2;
  }
  static const std::map<std::string, void (*)(Run*)> kWorkloads = {
      {"matmul", RunMatmul},     {"kmeans", RunKMeans},
      {"wf-fine", RunWfFine},    {"service", RunService},
      {"sim-study", RunSimStudy}};
  Run run;
  run.workload = args.GetString("workload");
  const auto workload = kWorkloads.find(run.workload);
  auto seed = args.GetInt("seed", -1);
  auto seconds = args.GetDouble("seconds", 10);
  auto trace = args.GetBool("trace", false);
  if (workload == kWorkloads.end() || !seed.ok() || *seed < 0 ||
      !seconds.ok() || !(*seconds > 0 && *seconds <= 120) || !trace.ok()) {
    std::fprintf(stderr,
                 "usage: bench_e2e --workload "
                 "matmul|kmeans|wf-fine|service|sim-study --seed N "
                 "[--seconds S (0, 120]] [--trace 0|1] [--out PATH] "
                 "[--commit SHA]\n");
    return 2;
  }
  run.seed = static_cast<uint64_t>(*seed);
  run.seconds = *seconds;
  run.trace = *trace;

  // Timings from an unoptimized build are not comparable with anything.
#ifndef NDEBUG
  std::fprintf(stderr, "bench_e2e: refusing to run a build with asserts on\n");
  return 2;
#endif
  if (std::string(TB_E2E_BUILD_TYPE) != "Release") {
    std::fprintf(stderr, "bench_e2e: refusing to run a %s build\n",
                 TB_E2E_BUILD_TYPE);
    return 2;
  }
  Host host;
  host.nproc = HostProcessors();
  host.workers = std::max(1, host.nproc - 1);
  host.cpu_model = hw::HostCpuModel();
  host.numa_domains = hw::DetectTopology().num_domains();
  host.commit = args.GetString("commit", "unknown");
  if (host.workers > host.nproc) {
    std::fprintf(stderr, "bench_e2e: %d workers exceed %d processors\n",
                 host.workers, host.nproc);
    return 2;
  }
  run.workers = host.workers;

  const std::string out_path = args.GetString(
      "out", StrFormat(".bench_out/%s-s%llu-t%d.json", run.workload.c_str(),
                       static_cast<unsigned long long>(run.seed),
                       run.trace ? 1 : 0));
  std::error_code ec;
  const auto parent = std::filesystem::path(out_path).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent, ec);

  Spans spans(run.trace);
  run.spans = &spans;
  const double t0 = Now();
  workload->second(&run);
  spans.Add("workload " + run.workload, "workload", kMainLane, t0, Now());
  run.metrics["peak_rss_mb"] = PeakRssMb();

  Status written = WriteFile(out_path, ResultFileJson(run, host));
  if (written.ok() && run.trace) {
    std::string trace_path = out_path;
    if (trace_path.size() > 5 &&
        trace_path.compare(trace_path.size() - 5, 5, ".json") == 0) {
      trace_path.resize(trace_path.size() - 5);
    }
    written = WriteFile(trace_path + ".trace.json", spans.Finish());
  }
  if (!written.ok()) {
    std::fprintf(stderr, "bench_e2e: %s\n", written.ToString().c_str());
    return 1;
  }
  const bool correct = run.failed == 0;
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false", static_cast<long long>(run.attempted),
      static_cast<long long>(run.failed),
      run.trace ? MetricsJson(run, kPerLayer, std::size(kPerLayer)).c_str()
                : MetricsJson(run, kEndToEnd, std::size(kEndToEnd)).c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace taskbench::bench::e2e

int main(int argc, char** argv) {
  return taskbench::bench::e2e::Main(argc, argv);
}
