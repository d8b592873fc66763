#include "runtime/attempt_ledger.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/logging.h"
#include "common/strings.h"

namespace taskbench::runtime {

AttemptLedger::AttemptLedger(const TaskGraph& graph, const RunOptions& options,
                             bool simulated)
    : graph_(graph),
      check_(options.check_invariants),
      log_(simulated ? !options.faults.empty() : options.max_retries > 0),
      max_retries_(options.max_retries),
      state_(static_cast<size_t>(graph.num_tasks())),
      version_(static_cast<size_t>(graph.num_data())),
      records_(static_cast<size_t>(graph.num_tasks())) {
  writers_.assign(static_cast<size_t>(graph.num_data()), 0);
  offsets_.reserve(static_cast<size_t>(graph.num_tasks()));
  for (TaskId t = 0; t < graph.num_tasks(); ++t) {
    offsets_.push_back(ordinals_.size());
    for (const Param& p : graph.task(t).spec.params) {
      int& count = writers_[static_cast<size_t>(p.data)];
      ordinals_.push_back(p.dir == Dir::kIn ? count : ++count);
    }
  }
  for (auto& s : state_) s.store(kOpen, std::memory_order_relaxed);
  for (auto& v : version_) v.store(0, std::memory_order_relaxed);
  if (log_) last_logged_.assign(static_cast<size_t>(graph.num_tasks()), 0);
}

bool AttemptLedger::Claim(TaskId t) {
  uint8_t open = kOpen;
  return state_[static_cast<size_t>(t)].compare_exchange_strong(
      open, kClaimed, std::memory_order_acq_rel);
}

int64_t AttemptLedger::Complete(TaskRecord rec) {
  const TaskId t = rec.task;
  TB_CHECK(state(t) != kCompleted) << "task " << t << " completed twice";
  Log(TaskAttempt{t, rec.attempt, rec.node, rec.processor, rec.start,
                  rec.end, AttemptOutcome::kCompleted});
  records_[static_cast<size_t>(t)] = std::move(rec);
  const std::vector<Param>& params = graph_.task(t).spec.params;
  for (size_t i = 0; i < params.size(); ++i) {
    if (params[i].dir == Dir::kIn) continue;
    version_[static_cast<size_t>(params[i].data)].store(
        write_version(t, i), std::memory_order_release);
  }
  if (!recompute_.empty()) recompute_[static_cast<size_t>(t)] = 0;
  state_[static_cast<size_t>(t)].store(kCompleted, std::memory_order_release);
  return num_completed_.fetch_add(1, std::memory_order_seq_cst) + 1;
}

void AttemptLedger::Reopen(TaskId t) {
  TB_CHECK(state_[static_cast<size_t>(t)].exchange(
               kOpen, std::memory_order_acq_rel) == kCompleted)
      << "task " << t << " reopened before it completed";
  num_completed_.fetch_sub(1, std::memory_order_seq_cst);
  if (recompute_.empty()) {
    recompute_.assign(static_cast<size_t>(graph_.num_tasks()), 0);
  }
  recompute_[static_cast<size_t>(t)] = 1;
  std::lock_guard<std::mutex> lock(mu_);
  ++counts_.recomputed_tasks;
}

Status AttemptLedger::EarlyStart(TaskId t, TaskId dep) const {
  return Status::FailedPrecondition(StrFormat(
      "invariant violation: task %lld started before dependency %lld "
      "completed",
      static_cast<long long>(t), static_cast<long long>(dep)));
}

Status AttemptLedger::StaleRead(TaskId t, size_t param, int actual) const {
  return Status::FailedPrecondition(StrFormat(
      "invariant violation: task %lld read datum %lld at version %d, "
      "expected %d (stale or unpublished block)",
      static_cast<long long>(t),
      static_cast<long long>(graph_.task(t).spec.params[param].data), actual,
      read_version(t, param)));
}

Status AttemptLedger::CheckStart(TaskId t) const {
  if (!check_) return Status::OK();
  TB_RETURN_IF_ERROR(CheckDeps(t));
  const std::vector<Param>& params = graph_.task(t).spec.params;
  for (size_t i = 0; i < params.size(); ++i) {
    if (params[i].dir != Dir::kOut) TB_RETURN_IF_ERROR(CheckRead(t, i));
  }
  return Status::OK();
}

Status AttemptLedger::Failure(TaskId t, int attempt, std::string_view unit,
                              int index, const Status& cause) const {
  return cause.WithContext(StrFormat(
      "task %lld (%s) attempt %d on %.*s %d", static_cast<long long>(t),
      graph_.task(t).spec.type.c_str(), attempt,
      static_cast<int>(unit.size()), unit.data(), index));
}

Status AttemptLedger::Retry(TaskId t, int attempt, std::string_view unit,
                            int index, const Status& cause) {
  if (attempt > max_retries_) {
    const Status failure = Failure(t, attempt, unit, index, cause);
    return Status(failure.code(),
                  StrFormat("%s; no retries left (max_retries=%d)",
                            failure.message().c_str(), max_retries_));
  }
  std::lock_guard<std::mutex> lock(mu_);
  ++counts_.retries;
  return Status::OK();
}

void AttemptLedger::Append(const TaskAttempt& attempt) {
  std::lock_guard<std::mutex> lock(mu_);
  // A task's attempts stay in attempt order: one that ends after a
  // higher-numbered hedge twin of its task goes in front of it.
  int& last = last_logged_[static_cast<size_t>(attempt.task)];
  auto at = log_entries_.end();
  if (attempt.attempt < last) {
    at = std::find_if(log_entries_.begin(), at, [&](const TaskAttempt& a) {
      return a.task == attempt.task && a.attempt > attempt.attempt;
    });
  }
  last = std::max(last, attempt.attempt);
  log_entries_.insert(at, attempt);
}

void AttemptLedger::CountHedge() {
  std::lock_guard<std::mutex> lock(mu_);
  ++counts_.hedges;
}

RunReport AttemptLedger::TakeReport() {
  std::lock_guard<std::mutex> lock(mu_);
  RunReport report;
  report.records = std::move(records_);
  for (const TaskRecord& rec : report.records) {
    report.makespan = std::max(report.makespan, rec.end);
  }
  report.faults = counts_;
  report.attempts = std::move(log_entries_);
  return report;
}

Status CheckBusyTimeBound(const std::vector<TaskRecord>& records,
                          int workers) {
  double busy = 0;
  double makespan = 0;
  for (const TaskRecord& rec : records) {
    busy += rec.duration();
    makespan = std::max(makespan, rec.end);
  }
  const double cap = makespan * workers;
  if (busy > cap + 1e-9 * cap + 1e-12) {
    return Status::FailedPrecondition(StrFormat(
        "invariant violation: total busy time %.17g exceeds %d "
        "workers x makespan %.17g",
        busy, workers, makespan));
  }
  return Status::OK();
}

}  // namespace taskbench::runtime
