#ifndef TASKBENCH_BENCH_E2E_E2E_ACCOUNTING_H_
#define TASKBENCH_BENCH_E2E_E2E_ACCOUNTING_H_

// Arithmetic of the end-to-end benchmark, kept apart from bench_e2e.cc
// so the self-test can pin it: the metric catalogue, nearest-rank
// percentiles with their sample-count rule, quartiles as Python's
// statistics.quantiles(n=4) computes them, the per-run layer
// breakdown of a real executor's wall time, and the goodput rung rule.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/strings.h"
#include "runtime/metrics.h"
#include "runtime/task_graph.h"
#include "service/workflow_service.h"

namespace taskbench::bench::e2e {

/// One catalogue entry. BENCHMARK.json lists the same names; the
/// self-test checks the two agree.
struct MetricDef {
  const char* name;
  const char* unit;
  const char* better;  ///< "lower" or "higher"
};

/// Printed by every workload of a run without --trace.
inline constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s", "lower"},
    {"op_p50_ms", "ms", "lower"},
    {"op_p90_ms", "ms", "lower"},
    {"peak_rss_mb", "MB", "lower"},
};

/// Printed by every workload of a --trace run. A layer the workload
/// does not exercise reports 0 (no work, no time).
inline constexpr MetricDef kPerLayer[] = {
    {"runtime.graph.build_s", "s", "lower"},
    {"wf.import_s", "s", "lower"},
    {"wf.import_mb_per_s", "MB/s", "higher"},
    {"runtime.threads.run_p50_s", "s", "lower"},
    {"runtime.threads.run_p90_s", "s", "lower"},
    {"runtime.threads.outside_s", "s", "lower"},
    {"runtime.threads.first_task_s", "s", "lower"},
    {"runtime.threads.idle_s", "s", "lower"},
    {"runtime.threads.task_other_s", "s", "lower"},
    {"runtime.threads.deserialize_s", "s", "lower"},
    {"runtime.threads.serialize_s", "s", "lower"},
    {"runtime.threads.kernel_s", "s", "lower"},
    {"runtime.threads.read_gbps", "GB/s", "higher"},
    {"runtime.threads.write_gbps", "GB/s", "higher"},
    {"runtime.threads.kernel_gflops", "GFLOP/s", "higher"},
    {"runtime.threads.kernel_efficiency", "ratio", "higher"},
    {"runtime.threads.ready_wait_s", "s", "lower"},
    {"runtime.threads.steals", "count", "lower"},
    {"runtime.threads.parks", "count", "lower"},
    {"runtime.procs.run_p50_s", "s", "lower"},
    {"runtime.procs.run_p90_s", "s", "lower"},
    {"runtime.procs.outside_s", "s", "lower"},
    {"runtime.procs.first_task_s", "s", "lower"},
    {"runtime.procs.idle_s", "s", "lower"},
    {"runtime.procs.task_other_s", "s", "lower"},
    {"runtime.procs.deserialize_s", "s", "lower"},
    {"runtime.procs.serialize_s", "s", "lower"},
    {"runtime.procs.kernel_s", "s", "lower"},
    {"runtime.procs.read_gbps", "GB/s", "higher"},
    {"runtime.procs.write_gbps", "GB/s", "higher"},
    {"runtime.procs.kernel_gflops", "GFLOP/s", "higher"},
    {"runtime.procs.kernel_efficiency", "ratio", "higher"},
    {"runtime.procs.ready_wait_s", "s", "lower"},
    {"runtime.threads1.run_p50_s", "s", "lower"},
    {"runtime.procs1.run_p50_s", "s", "lower"},
    {"runtime.threads.scaling_eff", "ratio", "higher"},
    {"runtime.procs.scaling_eff", "ratio", "higher"},
    {"storage.crc_gbps", "GB/s", "higher"},
    {"storage.serialize_gbps", "GB/s", "higher"},
    {"storage.deserialize_gbps", "GB/s", "higher"},
    {"data.multiply_gflops", "GFLOP/s", "higher"},
    {"service.latency_p50_s", "s", "lower"},
    {"service.latency_p99_s", "s", "lower"},
    {"service.submit_p99_s", "s", "lower"},
    {"service.queue_wait_p50_s", "s", "lower"},
    {"service.queue_wait_p99_s", "s", "lower"},
    {"service.run_p50_s", "s", "lower"},
    {"service.run_p99_s", "s", "lower"},
    {"service.rejected_ratio", "ratio", "lower"},
    {"service.generator_lag_p99_s", "s", "lower"},
    {"service.goodput_hz", "1/s", "higher"},
    {"service.r200.latency_p99_s", "s", "lower"},
    {"service.r200.outstanding_end", "count", "lower"},
    {"service.r400.latency_p99_s", "s", "lower"},
    {"service.r400.outstanding_end", "count", "lower"},
    {"service.r800.latency_p99_s", "s", "lower"},
    {"service.r800.outstanding_end", "count", "lower"},
    {"sim.run_p50_s", "s", "lower"},
    {"sim.run_p90_s", "s", "lower"},
    {"sim.makespan_s", "s", "lower"},
    {"sim.events_per_s", "1/s", "higher"},
    {"sim.decisions_per_s", "1/s", "higher"},
    {"analysis.describe_s", "s", "lower"},
    {"obs.trace_overhead_ratio", "ratio", "lower"},
};

/// A percentile is reported as resolved only when at least this many
/// samples lie beyond it (p90 needs 100 samples, p99 needs 1000).
inline constexpr int64_t kMinBeyond = 10;

/// Nearest-rank percentile (p in (0, 1]) of unsorted `samples`; 0 when
/// empty. Same rank rule as the service's own reports.
inline double NearestRank(std::vector<double> samples, double p) {
  std::sort(samples.begin(), samples.end());
  return service::Percentile(samples, p);
}

/// True when `n` samples leave at least kMinBeyond above the
/// nearest-rank p-th percentile.
inline bool Resolved(size_t n, double p) {
  const auto rank = static_cast<int64_t>(std::ceil(p * static_cast<double>(n)));
  return static_cast<int64_t>(n) - std::max<int64_t>(rank, 1) >= kMinBeyond;
}

struct Quartiles {
  double q1 = 0;
  double median = 0;
  double q3 = 0;
};

/// Quartiles by Python's statistics.quantiles(values, n=4) (the
/// default "exclusive" method), so bench_compare agrees with any
/// Python tool that scores the same values. One value gives three equal
/// quartiles; none gives zeros.
inline Quartiles QuartilesOf(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const int64_t n = static_cast<int64_t>(values.size());
  if (n == 0) return {};
  if (n == 1) return {values[0], values[0], values[0]};
  double q[3] = {0, 0, 0};
  const int64_t m = n + 1;
  for (int64_t i = 1; i <= 3; ++i) {
    const int64_t j = std::clamp<int64_t>(i * m / 4, 1, n - 1);
    const int64_t delta = i * m - j * 4;
    q[i - 1] = (values[static_cast<size_t>(j - 1)] * static_cast<double>(4 - delta) +
                values[static_cast<size_t>(j)] * static_cast<double>(delta)) /
               4.0;
  }
  return {q[0], q[1], q[2]};
}

/// Wall time of one real-executor run split into worker-seconds:
///
///   W x wall = W x outside + W x first_task
///            + deserialize + kernel + serialize + task_other + idle
///
/// outside is the call's wall time not covered by the executor's own
/// task timeline (wall - makespan: set-up, fork, join, writeback),
/// first_task the time from the timeline origin to the first task
/// start, the three stages come from the task records, task_other is
/// busy time no stage covers (claim, bookkeeping), and idle is what
/// is left of W x (makespan - first start). idle is a residual, so the
/// sum holds by construction; what the breakdown checks is that no
/// component is negative — idle < 0 would mean the records claim more
/// busy time than W workers had.
struct Layers {
  int workers = 0;
  double outside = 0;
  double first_task = 0;
  double deserialize = 0;
  double kernel = 0;
  double serialize = 0;
  double task_other = 0;
  double idle = 0;
  /// Sum over tasks of start - latest dependency end (tasks with deps).
  double ready_wait = 0;
  /// Bytes of the data each task read (IN, INOUT) and wrote (OUT,
  /// INOUT), from the graph's registered sizes: computed, not measured.
  double read_bytes = 0;
  double write_bytes = 0;
  /// Flops of the task cost descriptors (exact for matmul_func and
  /// add_func; modeled for the other task types).
  double flops = 0;

  double Sum() const {
    return workers * (outside + first_task) + deserialize + kernel +
           serialize + task_other + idle;
  }
};

/// Accounts one run of `graph` on `workers` workers that took `wall`
/// seconds from the caller's side. Fails when a component is negative
/// (beyond 1 us of clock rounding), when a record lies outside the
/// timeline, or when the components miss W x wall by more than 1%.
/// Records that name a worker (node in [0, W)) are also checked per
/// worker: no worker may be busy longer than makespan - first start.
inline Result<Layers> Account(const runtime::RunReport& report,
                              const runtime::TaskGraph& graph, int workers,
                              double wall) {
  if (workers <= 0 || !(wall > 0)) {
    return Status::InvalidArgument("accounting needs workers > 0, wall > 0");
  }
  if (report.records.size() != static_cast<size_t>(graph.num_tasks())) {
    return Status::FailedPrecondition(
        StrFormat("report has %zu records for %lld tasks",
                  report.records.size(),
                  static_cast<long long>(graph.num_tasks())));
  }
  constexpr double kEps = 1e-6;
  Layers l;
  l.workers = workers;
  double first = report.records.empty() ? 0 : report.records[0].start;
  double busy = 0;
  std::vector<double> end_of(static_cast<size_t>(graph.num_tasks()), 0);
  std::vector<double> worker_busy(static_cast<size_t>(workers), 0);
  for (const runtime::TaskRecord& r : report.records) {
    if (r.task < 0 || r.task >= graph.num_tasks() || r.start < -kEps ||
        r.end < r.start || r.end > report.makespan + kEps) {
      return Status::FailedPrecondition(StrFormat(
          "record of task %lld lies outside the run timeline",
          static_cast<long long>(r.task)));
    }
    first = std::min(first, r.start);
    busy += r.duration();
    l.deserialize += r.stages.deserialize;
    l.kernel += r.stages.user_code();
    l.serialize += r.stages.serialize;
    end_of[static_cast<size_t>(r.task)] = r.end;
    if (r.node >= 0 && r.node < workers) {
      worker_busy[static_cast<size_t>(r.node)] += r.duration();
    }
    const runtime::Task& task = graph.task(r.task);
    for (const runtime::Param& p : task.spec.params) {
      const double bytes = static_cast<double>(graph.data(p.data).bytes);
      if (p.dir != runtime::Dir::kOut) l.read_bytes += bytes;
      if (p.dir != runtime::Dir::kIn) l.write_bytes += bytes;
    }
    l.flops += task.spec.cost.parallel.flops + task.spec.cost.serial.flops;
  }
  for (const runtime::TaskRecord& r : report.records) {
    const runtime::Task& task = graph.task(r.task);
    if (task.deps.empty()) continue;
    double ready = 0;
    for (runtime::TaskId d : task.deps) {
      ready = std::max(ready, end_of[static_cast<size_t>(d)]);
    }
    l.ready_wait += r.start - ready;
  }
  l.outside = wall - report.makespan;
  l.first_task = first;
  l.task_other = busy - (l.deserialize + l.kernel + l.serialize);
  l.idle = workers * (report.makespan - first) - busy;

  const struct {
    const char* name;
    double value;
  } components[] = {{"outside", l.outside},       {"first_task", l.first_task},
                    {"deserialize", l.deserialize}, {"kernel", l.kernel},
                    {"serialize", l.serialize},   {"task_other", l.task_other},
                    {"idle", l.idle},             {"ready_wait", l.ready_wait}};
  for (const auto& c : components) {
    if (c.value < -kEps) {
      return Status::FailedPrecondition(
          StrFormat("negative %s component: %.9g s", c.name, c.value));
    }
  }
  for (int w = 0; w < workers; ++w) {
    if (worker_busy[static_cast<size_t>(w)] >
        report.makespan - first + kEps) {
      return Status::FailedPrecondition(StrFormat(
          "worker %d busy %.9g s exceeds its %.9g s timeline", w,
          worker_busy[static_cast<size_t>(w)], report.makespan - first));
    }
  }
  const double total = workers * wall;
  if (std::abs(l.Sum() - total) > 0.01 * total) {
    return Status::FailedPrecondition(StrFormat(
        "components sum to %.9g worker-seconds, W x wall is %.9g", l.Sum(),
        total));
  }
  return l;
}

/// One rung of the service's rate ladder.
struct Rung {
  double rate_hz = 0;
  double latency_p99_s = 0;
  int64_t samples = 0;
  int64_t rejected = 0;
  /// Submissions admitted but not finished when the rung's arrivals
  /// stopped: a growing backlog shows here before it shows in p99.
  int64_t outstanding_end = 0;
};

/// Goodput: the highest rate whose rung has a resolved p99 within
/// `limit_s`, rejected nothing, and ended with at most rate x limit
/// submissions outstanding (no backlog beyond what the latency limit
/// itself allows). 0 when no rung qualifies.
inline double Goodput(const std::vector<Rung>& rungs, double limit_s) {
  double best = 0;
  for (const Rung& r : rungs) {
    const bool ok = Resolved(static_cast<size_t>(r.samples), 0.99) &&
                    r.latency_p99_s <= limit_s && r.rejected == 0 &&
                    static_cast<double>(r.outstanding_end) <=
                        r.rate_hz * limit_s;
    if (ok) best = std::max(best, r.rate_hz);
  }
  return best;
}

}  // namespace taskbench::bench::e2e

#endif  // TASKBENCH_BENCH_E2E_E2E_ACCOUNTING_H_
