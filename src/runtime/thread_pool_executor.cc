#include "runtime/thread_pool_executor.h"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/strings.h"
#include "hw/topology.h"
#include "obs/metrics.h"
#include "runtime/attempt_body.h"
#include "runtime/attempt_ledger.h"
#include "runtime/metrics_export.h"
#include "runtime/sharded_value_store.h"
#include "runtime/work_stealing_queue.h"
#include "storage/block_cache.h"
#include "storage/serializer.h"

namespace taskbench::runtime {

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point origin) {
  return std::chrono::duration<double>(Clock::now() - origin).count();
}

int64_t NanosSince(Clock::time_point origin) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin)
      .count();
}

/// Full steal sweeps over the other workers' deques before a worker
/// parks on the condition variable.
constexpr int kStealSweepsBeforePark = 4;

/// One worker's private telemetry. Workers record into their own
/// registry with no synchronization whatsoever; the registries are
/// merged into the caller's after the threads join.
struct WorkerTelemetry {
  obs::MetricsRegistry registry;
  obs::Counter* tasks = nullptr;
  obs::Counter* steals = nullptr;
  obs::Counter* parks = nullptr;
  StageRecorder stages{&registry};
};

/// Serializes `m` straight into the store's slot for `key`: one pass.
Status WriteBlock(storage::BlockStorage& store, const std::string& key,
                  const data::Matrix& m) {
  return store.Write(key, storage::Serializer::SerializedSize(m),
                     [&m](uint8_t* out) {
                       storage::Serializer::SerializeTo(m, out);
                     });
}

/// Deserializes the block under `key` straight from the stored bytes:
/// one pass, verifying the checksum while it copies.
Result<data::Matrix> ReadBlock(const storage::BlockStorage& store,
                               const std::string& key) {
  Result<data::Matrix> m = data::Matrix();
  TB_RETURN_IF_ERROR(store.Read(key, [&m](const uint8_t* bytes, size_t size) {
    m = storage::Serializer::Deserialize(bytes, size);
    return m.status();
  }));
  return m;
}

/// The storage-mode plane: blocks live serialized under the run's keys;
/// a block's version is the ledger's writer ordinal for the access.
class StoragePlane final : public BlockPlane {
 public:
  StoragePlane(storage::BlockStorage& store,
               const std::vector<std::string>& keys,
               const AttemptLedger& ledger)
      : store_(store), keys_(keys), ledger_(ledger) {}

  Result<uint64_t> ReadVersion(TaskId t, size_t param, DataId) override {
    return static_cast<uint64_t>(ledger_.read_version(t, param));
  }
  Result<data::Matrix> Copy(DataId d, uint64_t, double* seconds) override {
    const Clock::time_point start = Clock::now();
    TB_ASSIGN_OR_RETURN(data::Matrix m,
                        ReadBlock(store_, keys_[static_cast<size_t>(d)]));
    *seconds += SecondsSince(start);
    return m;
  }
  Result<uint64_t> Store(TaskId t, size_t param, DataId d,
                         data::Matrix& value, double* seconds) override {
    const Clock::time_point start = Clock::now();
    TB_RETURN_IF_ERROR(
        WriteBlock(store_, keys_[static_cast<size_t>(d)], value));
    *seconds += SecondsSince(start);
    return static_cast<uint64_t>(ledger_.write_version(t, param));
  }

 private:
  storage::BlockStorage& store_;
  const std::vector<std::string>& keys_;
  const AttemptLedger& ledger_;
};

/// The memory-mode plane: blocks live as shared matrices in the run's
/// value store. An IN read shares the stored value (one stripe lock and
/// a refcount bump); nothing is serialized, so stage times stay zero.
class MemoryPlane final : public BlockPlane {
 public:
  explicit MemoryPlane(ShardedValueStore& values) : values_(values) {}

  Result<uint64_t> ReadVersion(TaskId, size_t, DataId) override { return 0; }
  Result<std::shared_ptr<const data::Matrix>> Share(DataId d, uint64_t,
                                                    double*) override {
    std::shared_ptr<data::Matrix> value = values_.Get(d);
    if (value == nullptr) {
      return Status::NotFound(
          StrFormat("datum %lld has no value; was it ever written?",
                    static_cast<long long>(d)));
    }
    return std::shared_ptr<const data::Matrix>(std::move(value));
  }
  Result<data::Matrix> Copy(DataId d, uint64_t version,
                            double* seconds) override {
    TB_ASSIGN_OR_RETURN(const std::shared_ptr<const data::Matrix> value,
                        Share(d, version, seconds));
    return *value;
  }
  Result<uint64_t> Store(TaskId, size_t, DataId d, data::Matrix& value,
                         double*) override {
    values_.Put(d, std::make_shared<data::Matrix>(std::move(value)));
    return 0;
  }

 private:
  ShardedValueStore& values_;
};

}  // namespace

std::string StorageKey(uint64_t scope, DataId id) {
  // Either number takes at most 20 characters (a uint64 in digits, an
  // int64 with its sign), so "s<scope>.d<id>" fits in 43.
  constexpr int kMaxNumber = 20;
  char buf[2 * kMaxNumber + 3];
  char* p = buf;
  if (scope != 0) {
    *p++ = 's';
    p = std::to_chars(p, p + kMaxNumber, scope).ptr;
    *p++ = '.';
  }
  *p++ = 'd';
  p = std::to_chars(p, p + kMaxNumber, id).ptr;
  return std::string(buf, p);
}

ThreadPoolExecutor::ThreadPoolExecutor(
    RunOptions options, std::shared_ptr<storage::BlockStorage> store)
    : options_(std::move(options)), store_(std::move(store)) {
  if (options_.use_storage && store_ == nullptr) {
    store_ = std::make_shared<storage::InMemoryStorage>();
    private_store_ = true;
  }
  if (options_.block_cache && options_.use_storage && private_store_) {
    fetch_cache_ = std::make_unique<storage::BlockCache>(
        storage::kDefaultBlockCacheBytes);
  }
}

Result<RunReport> ThreadPoolExecutor::Execute(TaskGraph& graph,
                                              const RunContext& ctx) {
  TB_RETURN_IF_ERROR(options_.Validate());
  TB_RETURN_IF_ERROR(graph.Validate());
  TB_RETURN_IF_ERROR(CheckKernels(graph, "thread-pool"));

  // Any run may rewrite scope-0 keys the post-run Fetch cache was
  // built from; drop it wholesale (versions are per-run ordinals and
  // do not compare across runs).
  if (fetch_cache_ != nullptr) {
    std::lock_guard<std::mutex> lock(fetch_mu_);
    fetch_cache_->Clear();
  }

  const int num_workers = options_.num_threads;
  const int64_t total = graph.num_tasks();
  const CancellationToken* const cancel = ctx.cancel;
  const auto cancel_requested = [cancel] {
    return cancel != nullptr && cancel->cancelled();
  };

  // ----------------------------------------------------------------
  // Shared pool state. The scheduling fast path is lock-free: one
  // Chase–Lev deque per worker, atomic dependency counters, and the
  // ledger's atomic claims and completion count. Mutexes remain only
  // at the edges — parking idle workers, the attempt log, and
  // publishing the failure status — none of which is touched on the
  // fault-free hot path.
  // ----------------------------------------------------------------
  struct Pool {
    std::vector<WorkStealingQueue<TaskId>> queues;
    std::vector<std::atomic<int>> remaining_deps;
    // Tasks pushed to some deque and not yet claimed. Part of the
    // Dekker-style handshake with parking: producers bump it (seq_cst)
    // before checking sleepers; a parking worker registers as a
    // sleeper before re-checking it.
    std::atomic<int64_t> num_ready{0};
    std::atomic<bool> failed{false};

    std::mutex park_mu;
    std::condition_variable park_cv;
    std::atomic<int> sleepers{0};

    std::mutex failure_mu;  // guards failure
    Status failure;
  } pool;

  pool.queues.reserve(static_cast<size_t>(num_workers));
  const size_t per_queue_hint =
      static_cast<size_t>(total / std::max(1, num_workers) + 1);
  for (int w = 0; w < num_workers; ++w) {
    pool.queues.emplace_back(per_queue_hint);
  }

  {
    // std::atomic<int> is not copyable, so size the vector in place.
    std::vector<std::atomic<int>> deps(static_cast<size_t>(total));
    pool.remaining_deps = std::move(deps);
  }
  int64_t initially_ready = 0;
  for (TaskId t = 0; t < total; ++t) {
    const int deps = static_cast<int>(graph.task(t).deps.size());
    pool.remaining_deps[static_cast<size_t>(t)].store(
        deps, std::memory_order_relaxed);
    if (deps == 0) {
      // Round-robin the roots so workers start with local work
      // instead of all stealing from worker 0.
      pool.queues[static_cast<size_t>(initially_ready % num_workers)].Push(t);
      ++initially_ready;
    }
  }
  pool.num_ready.store(initially_ready, std::memory_order_relaxed);

  // Completion, the order check, the retry budget and the attempt log
  // (runtime/attempt_ledger.h). Its writer ordinals double as the
  // block cache's versions.
  AttemptLedger ledger(graph, options_, /*simulated=*/false);
  const bool use_cache = options_.block_cache && options_.use_storage;

  // Memory-mode value store; unused (size 0) in storage mode.
  ShardedValueStore values(options_.use_storage ? 0 : graph.num_data());

  // Storage-mode keys, formatted once per datum instead of on every
  // Put/Get (the old KeyFor-per-operation showed up in profiles).
  std::vector<std::string> keys;
  if (options_.use_storage) {
    keys.reserve(static_cast<size_t>(graph.num_data()));
    for (DataId d = 0; d < graph.num_data(); ++d) {
      keys.push_back(StorageKey(ctx.scope, d));
    }
  }
  std::unique_ptr<BlockPlane> plane;
  if (options_.use_storage) {
    plane = std::make_unique<StoragePlane>(*store_, keys, ledger);
  } else {
    plane = std::make_unique<MemoryPlane>(values);
  }

  // Scoped runs clean their keys out of the shared store on every
  // exit path (success, failure, cancellation, early error return): a
  // resident service cycling thousands of submissions through one
  // executor must not grow the store without bound. Scope 0 keys are
  // left behind, exactly as the batch path always has (FetchData
  // reads them).
  struct ScopeKeyCleaner {
    storage::BlockStorage* store;
    const std::vector<std::string>* keys;
    ~ScopeKeyCleaner() {
      if (store == nullptr) return;
      for (const std::string& key : *keys) {
        const Status ignored = store->Delete(key);
        (void)ignored;
      }
    }
  } scope_cleaner{
      options_.use_storage && ctx.scope != 0 ? store_.get() : nullptr, &keys};

  // The data with initial values, which the workers stage inside the
  // run (stage_initial_values below), claiming chunks of this list:
  // about eight per worker, so a wide graph's thousands of tiny blocks
  // cost a few dozen claims, not one contended atomic each.
  std::vector<DataId> initial;
  for (DataId d = 0; d < graph.num_data(); ++d) {
    if (graph.data(d).value.has_value()) initial.push_back(d);
  }
  const size_t stage_chunk = std::max<size_t>(
      1, initial.size() / (8 * static_cast<size_t>(num_workers)));
  std::atomic<size_t> next_stage{0};
  std::atomic<size_t> unstaged{initial.size()};

  const Clock::time_point origin = Clock::now();

  // ----------------------------------------------------------------
  // Speculative hedging (cost-model policy, docs/SCHEDULERS.md): an
  // idle worker that finds no work duplicates the longest-running
  // task instead of parking. Primary and duplicate race for the
  // ledger's claim once their kernel has run; only the winner stores
  // its outputs, records the task and releases its successors, and
  // the loser drops its outputs unstored.
  //
  // Only tasks whose re-execution cannot read another input are
  // hedgeable: no INOUT params, and every datum they access has at
  // most one version in the whole run — one writer and no initial
  // value, or an initial value and no writer. A late duplicate then
  // reads exactly what the primary read, and the order check holds
  // for it. Gated on max_retries == 0 so hedging never interleaves
  // with retries.
  // ----------------------------------------------------------------
  const bool hedge = ctx.policy.value_or(options_.policy) ==
                         SchedulingPolicy::kCostModel &&
                     !options_.sched.disable_hedging && num_workers > 1 &&
                     options_.max_retries == 0;
  std::vector<char> hedgeable;
  std::vector<std::atomic<char>> hedge_tried;
  std::vector<std::atomic<int64_t>> running_task;
  std::vector<std::atomic<int64_t>> running_since_ns;
  if (hedge) {
    hedgeable.assign(static_cast<size_t>(total), 1);
    for (TaskId t = 0; t < total; ++t) {
      for (const Param& p : graph.task(t).spec.params) {
        const int versions = ledger.writers(p.data) +
                             (graph.data(p.data).value.has_value() ? 1 : 0);
        if (p.dir == Dir::kInOut || versions > 1) {
          hedgeable[static_cast<size_t>(t)] = 0;
          break;
        }
      }
    }
    std::vector<std::atomic<char>> tried(static_cast<size_t>(total));
    hedge_tried = std::move(tried);
    for (auto& c : hedge_tried) c.store(0, std::memory_order_relaxed);
    std::vector<std::atomic<int64_t>> rt(static_cast<size_t>(num_workers));
    running_task = std::move(rt);
    std::vector<std::atomic<int64_t>> rs(static_cast<size_t>(num_workers));
    running_since_ns = std::move(rs);
    for (auto& r : running_task) r.store(-1, std::memory_order_relaxed);
    for (auto& r : running_since_ns) r.store(0, std::memory_order_relaxed);
  }

  // Telemetry: per-worker registries, their counters resolved up front
  // and each task type's histograms on first sight, so the workers
  // record without synchronization. Entirely skipped when no registry
  // was supplied. A per-run registry in the context scopes the
  // instruments to this submission; the executor-wide RunOptions
  // registry is the default.
  obs::MetricsRegistry* const metrics_sink =
      ctx.metrics != nullptr ? ctx.metrics : options_.metrics;
  const bool telemetry = metrics_sink != nullptr;
  std::vector<std::unique_ptr<WorkerTelemetry>> worker_telemetry;
  if (telemetry) {
    worker_telemetry.reserve(static_cast<size_t>(num_workers));
    for (int w = 0; w < num_workers; ++w) {
      auto wt = std::make_unique<WorkerTelemetry>();
      wt->tasks = wt->registry.counter("pool.tasks");
      wt->steals = wt->registry.counter("pool.steals");
      wt->parks = wt->registry.counter("pool.parks");
      worker_telemetry.push_back(std::move(wt));
    }
  }

  // Per-worker versioned block caches (storage mode, opt-in): hot
  // read-mostly inputs deserialize once per worker instead of once
  // per read. Entries are keyed by datum id + the writer ordinal the
  // ledger predicts for the access, so an INOUT rewrite looks up a
  // new version and every stale entry is unreachable by construction.
  // Owned outside the worker lambda so the stats survive the join for
  // the telemetry merge.
  std::vector<std::unique_ptr<storage::BlockCache>> worker_caches;
  if (use_cache) {
    worker_caches.reserve(static_cast<size_t>(num_workers));
    for (int w = 0; w < num_workers; ++w) {
      worker_caches.push_back(std::make_unique<storage::BlockCache>(
          storage::kDefaultBlockCacheBytes));
    }
  }

  // Topology-aware stealing: workers are striped over the NUMA
  // domains (the same contiguous striping the multi-process plane
  // uses) and each worker's victim sweep visits same-domain deques
  // first — a block produced by a same-domain worker sits in local
  // memory, so preferring those victims is the thread-level analogue
  // of the locality scheduler preferring the node that holds a block.
  // On single-domain hosts this collapses to exactly the old
  // (worker_id + off) % n sweep.
  const hw::Topology& topo = hw::DetectTopology();
  std::vector<std::vector<int>> steal_order(
      static_cast<size_t>(num_workers));
  for (int w = 0; w < num_workers; ++w) {
    const int dom = topo.domain_of_worker(w, num_workers);
    std::vector<int>& order = steal_order[static_cast<size_t>(w)];
    order.reserve(static_cast<size_t>(num_workers - 1));
    for (int pass = 0; pass < 2; ++pass) {
      for (int off = 1; off < num_workers; ++off) {
        const int victim = (w + off) % num_workers;
        const bool local = topo.domain_of_worker(victim, num_workers) == dom;
        if (local == (pass == 0)) order.push_back(victim);
      }
    }
  }

  // Per-worker context: deque identity and the worker's private block
  // cache, when enabled.
  struct WorkerContext {
    int id = 0;
    storage::BlockCache* cache = nullptr;
  };

  auto done = [&] {
    return pool.failed.load(std::memory_order_seq_cst) ||
           ledger.num_completed() == total;
  };

  // Wake companions: cheap atomic check first; the (empty) park_mu
  // critical section serializes with a parking worker's predicate
  // check so the notify cannot slip into the window between its last
  // num_ready check and its wait.
  auto wake = [&](int64_t newly_ready) {
    if (pool.sleepers.load(std::memory_order_seq_cst) > 0) {
      { std::lock_guard<std::mutex> lock(pool.park_mu); }
      if (newly_ready > 1) {
        pool.park_cv.notify_all();
      } else {
        pool.park_cv.notify_one();
      }
    }
  };
  auto wake_all = [&] {
    { std::lock_guard<std::mutex> lock(pool.park_mu); }
    pool.park_cv.notify_all();
  };

  // The first failure published wins; everyone is woken, and done()
  // then drains the remaining workers (parked ones included) without
  // starting tasks.
  auto fail_with = [&](Status status) {
    {
      std::lock_guard<std::mutex> lock(pool.failure_mu);
      if (!pool.failed.load(std::memory_order_seq_cst)) {
        pool.failure = std::move(status);
        pool.failed.store(true, std::memory_order_seq_cst);
      }
    }
    wake_all();
  };
  auto cancel_run = [&] { fail_with(Status::Cancelled("run cancelled")); };

  // Stages the initial values inside the run: each worker claims
  // chunks of `initial` and writes them (serialized into storage, or
  // copied into the memory-mode store) until the list runs out, then
  // waits for the other workers' last chunks. No task is claimed
  // before every value is staged, so every staging write draws on a
  // fault-injecting store's budget before any task's write does. A
  // staging failure names the datum and is never retried. Returns
  // false when the run failed or was cancelled meanwhile.
  auto stage_initial_values = [&]() -> bool {
    const auto stopped = [&] {
      if (pool.failed.load(std::memory_order_seq_cst)) return true;
      if (!cancel_requested()) return false;
      cancel_run();
      return true;
    };
    for (;;) {
      if (stopped()) return false;
      const size_t begin =
          next_stage.fetch_add(stage_chunk, std::memory_order_relaxed);
      if (begin >= initial.size()) break;
      const size_t end = std::min(initial.size(), begin + stage_chunk);
      for (size_t i = begin; i < end; ++i) {
        const DataId d = initial[i];
        const data::Matrix& value = *graph.data(d).value;
        if (!options_.use_storage) {
          values.Put(d, std::make_shared<data::Matrix>(value));
          continue;
        }
        Status status =
            WriteBlock(*store_, keys[static_cast<size_t>(d)], value);
        if (!status.ok()) {
          fail_with(std::move(status).WithContext(StrFormat(
              "staging datum %lld", static_cast<long long>(d))));
          return false;
        }
      }
      unstaged.fetch_sub(end - begin, std::memory_order_acq_rel);
    }
    while (unstaged.load(std::memory_order_acquire) != 0) {
      if (stopped()) return false;
      std::this_thread::yield();
    }
    return true;
  };

  // The claim holder's publication, once its outputs are stored:
  // telemetry, then the ledger's completion (writer ordinals before
  // successor release — the fetch_sub(acq_rel) / Steal pair carries
  // them to whichever worker claims a released successor).
  auto complete = [&](WorkerContext& ctx, WorkerTelemetry* wt, TaskId id,
                      int attempt, double start,
                      const perf::StageTimes& stages) {
    const Task& task = graph.task(id);
    TaskRecord rec;
    rec.task = id;
    rec.type = task.spec.type;
    rec.level = task.level;
    rec.processor = Processor::kCpu;  // the real path runs on host cores
    rec.stages = stages;
    rec.start = start;
    rec.end = SecondsSince(origin);
    rec.attempt = attempt;
    if (wt != nullptr) {
      wt->tasks->Add(1);
      wt->stages.Record(rec);
    }
    const bool last = ledger.Complete(std::move(rec)) == total;
    WorkStealingQueue<TaskId>& own =
        pool.queues[static_cast<size_t>(ctx.id)];
    int64_t released = 0;
    for (TaskId succ : task.successors) {
      if (pool.remaining_deps[static_cast<size_t>(succ)].fetch_sub(
              1, std::memory_order_acq_rel) == 1) {
        own.Push(succ);
        ++released;
      }
    }
    if (released > 0) {
      pool.num_ready.fetch_add(released, std::memory_order_seq_cst);
      wake(released);
    }
    if (last) wake_all();
  };

  // Runs `id` on this worker until it completes, fails the run or loses
  // its claim: the primary from attempt 1, a hedged duplicate as
  // attempt 2. Every attempt passes the order check first. Once its
  // kernel ran it takes the ledger's claim, and only the claim holder
  // stores. A failed attempt is retried under the ledger's budget with
  // exponential backoff; after a failed store the retry resumes the
  // stores, so an INOUT update is never applied twice.
  auto run_task = [&](WorkerContext& ctx, WorkerTelemetry* wt, TaskId id,
                      bool duplicate) -> Status {
    const TaskSpec& spec = graph.task(id).spec;
    AttemptBody body(id, spec.params, spec.kernel.fn, spec.kernel.args);
    bool claimed = false;
    for (int attempt = duplicate ? 2 : 1;; ++attempt) {
      const double start = SecondsSince(origin);
      body.stages = perf::StageTimes{};
      Status status = ledger.CheckStart(id);
      if (!status.ok()) return ledger.Failure(id, attempt, "worker", ctx.id,
                                              status);
      if (!body.computed()) status = body.Compute(*plane, ctx.cache);
      if (status.ok() && !claimed) {
        if (!ledger.Claim(id)) {
          // Only a hedged pair races for one claim: anything else ran
          // a task twice.
          if (duplicate || (hedge && hedgeable[static_cast<size_t>(id)])) {
            return Status::OK();
          }
          return ledger.Failure(
              id, attempt, "worker", ctx.id,
              Status::FailedPrecondition(
                  "invariant violation: the task was already claimed"));
        }
        claimed = true;
      }
      if (status.ok()) status = body.Store(*plane, ctx.cache);
      if (status.ok()) {
        complete(ctx, wt, id, attempt, start, body.stages);
        return Status::OK();
      }
      // A failed attempt without the claim leaves the task to its
      // twin: a duplicate always (the primary surfaces any real error
      // itself), a primary once the duplicate has claimed it.
      if (!claimed && (duplicate || ledger.claimed(id))) return Status::OK();
      ledger.Log(TaskAttempt{id, attempt, -1, Processor::kCpu, start,
                             SecondsSince(origin), AttemptOutcome::kFailed});
      if (pool.failed.load(std::memory_order_seq_cst)) return status;
      TB_RETURN_IF_ERROR(ledger.Retry(id, attempt, "worker", ctx.id, status));
      // Interruptible backoff: sleep in short slices so a Cancel()
      // lands within ~1 ms instead of after a full exponential wait.
      const auto backoff =
          std::chrono::duration<double>(options_.RetryDelay(attempt));
      const Clock::time_point wake_at =
          Clock::now() + std::chrono::duration_cast<Clock::duration>(backoff);
      while (!cancel_requested() &&
             !pool.failed.load(std::memory_order_seq_cst)) {
        const Clock::time_point now = Clock::now();
        if (now >= wake_at) break;
        std::this_thread::sleep_for(std::min<Clock::duration>(
            wake_at - now, std::chrono::milliseconds(1)));
      }
      if (cancel_requested()) {
        return Status::Cancelled("run cancelled during retry backoff");
      }
      if (pool.failed.load(std::memory_order_seq_cst)) return status;
    }
  };

  auto worker = [&](int worker_id) {
    if (worker_id != 0 && topo.num_domains() > 1) {
      // Pin to the worker's NUMA domain. Best effort: an unpinnable
      // worker is slower, never wrong. Worker 0 is the calling thread,
      // whose affinity is not the executor's to change.
      const Status ignored = hw::PinCurrentThreadToCpus(
          topo.domains[static_cast<size_t>(topo.domain_of_worker(
                           worker_id, num_workers))].cpus);
      (void)ignored;
    }
    WorkerContext ctx;
    ctx.id = worker_id;
    if (use_cache) {
      ctx.cache = worker_caches[static_cast<size_t>(worker_id)].get();
    }
    WorkerTelemetry* wt =
        telemetry ? worker_telemetry[static_cast<size_t>(worker_id)].get()
                  : nullptr;
    WorkStealingQueue<TaskId>& own = pool.queues[static_cast<size_t>(
        worker_id)];
    if (!stage_initial_values()) return;
    for (;;) {
      if (done()) return;
      if (cancel_requested()) {
        cancel_run();
        return;
      }

      // Claim a task: own deque first (LIFO, warm caches), then
      // sweep the other deques as a thief, then park.
      TaskId id = -1;
      bool got = own.Pop(&id);
      bool stolen = false;
      if (!got) {
        const std::vector<int>& victims =
            steal_order[static_cast<size_t>(worker_id)];
        for (int sweep = 0; sweep < kStealSweepsBeforePark && !got; ++sweep) {
          for (size_t v = 0; v < victims.size() && !got; ++v) {
            got = pool.queues[static_cast<size_t>(victims[v])].Steal(&id);
          }
          if (done()) return;
        }
        stolen = got;
      }
      if (!got && hedge) {
        // Nothing to claim or steal: duplicate the longest-running
        // hedgeable task (if any has been executing for at least
        // hedge_min_s) instead of parking. Races with the registry
        // are benign — a stale pick just loses its claim.
        const int64_t now_ns = NanosSince(origin);
        const auto min_ns =
            static_cast<int64_t>(options_.sched.hedge_min_s * 1e9);
        TaskId target = -1;
        int64_t oldest = 0;
        for (int w2 = 0; w2 < num_workers; ++w2) {
          if (w2 == worker_id) continue;
          const int64_t rt =
              running_task[static_cast<size_t>(w2)].load(
                  std::memory_order_acquire);
          if (rt < 0 || hedgeable[static_cast<size_t>(rt)] == 0) continue;
          if (hedge_tried[static_cast<size_t>(rt)].load(
                  std::memory_order_relaxed) != 0 ||
              ledger.claimed(rt)) {
            continue;
          }
          const int64_t since =
              running_since_ns[static_cast<size_t>(w2)].load(
                  std::memory_order_acquire);
          if (now_ns - since < min_ns) continue;
          if (target < 0 || since < oldest) {
            oldest = since;
            target = rt;
          }
        }
        if (target >= 0 &&
            hedge_tried[static_cast<size_t>(target)].exchange(
                1, std::memory_order_seq_cst) == 0) {
          Status status = run_task(ctx, wt, target, /*duplicate=*/true);
          if (!status.ok()) {
            fail_with(std::move(status));
            return;
          }
          continue;
        }
      }
      if (!got) {
        if (wt != nullptr) wt->parks->Add(1);
        std::unique_lock<std::mutex> lock(pool.park_mu);
        pool.sleepers.fetch_add(1, std::memory_order_seq_cst);
        pool.park_cv.wait(lock, [&] {
          return pool.num_ready.load(std::memory_order_seq_cst) > 0 || done();
        });
        pool.sleepers.fetch_sub(1, std::memory_order_seq_cst);
        continue;  // re-run the claim loop
      }
      if (wt != nullptr && stolen) wt->steals->Add(1);
      pool.num_ready.fetch_sub(1, std::memory_order_seq_cst);

      if (hedge) {
        running_since_ns[static_cast<size_t>(worker_id)].store(
            NanosSince(origin), std::memory_order_release);
        running_task[static_cast<size_t>(worker_id)].store(
            id, std::memory_order_release);
      }
      Status status = run_task(ctx, wt, id, /*duplicate=*/false);
      if (hedge) {
        running_task[static_cast<size_t>(worker_id)].store(
            -1, std::memory_order_release);
      }
      if (!status.ok()) {
        fail_with(std::move(status));
        return;
      }
    }
  };

  // The caller runs worker 0, so a one-thread run starts no thread
  // and keeps the caller's thread-local state (the GEMM workspace)
  // warm from one Execute to the next.
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(num_workers - 1));
  for (int i = 1; i < num_workers; ++i) {
    threads.emplace_back(worker, i);
  }
  worker(0);
  for (std::thread& t : threads) t.join();

  if (pool.failed.load(std::memory_order_seq_cst)) return pool.failure;

  RunReport report = ledger.TakeReport();
  if (options_.check_invariants) {
    TB_RETURN_IF_ERROR(CheckBusyTimeBound(report.records, num_workers));
  }

  if (telemetry) {
    obs::MetricsRegistry& merged = *metrics_sink;
    for (const auto& wt : worker_telemetry) merged.MergeFrom(wt->registry);
    merged.gauge("pool.workers")->Set(num_workers);
    if (report.faults.retries > 0) {
      merged.counter("pool.retries")->Add(report.faults.retries);
    }
    if (use_cache) {
      std::vector<storage::BlockCache::Stats> stats;
      for (const auto& cache : worker_caches) stats.push_back(cache->stats());
      ExportCacheStats(stats, &merged);
    }
  }

  // Persist memory-mode values back onto the graph entries so they
  // survive for FetchData in both modes. Workers have joined, so each
  // shared_ptr is the sole owner and the matrix can be moved out.
  if (!options_.use_storage) {
    for (auto& [d, value] : values.TakeAll()) {
      graph.mutable_data(d).value = std::move(*value);
    }
  }

  return report;
}

Result<data::Matrix> ThreadPoolExecutor::FetchData(const TaskGraph& graph,
                                                   DataId id) const {
  // Memory mode wrote every value back onto the graph entries.
  if (!options_.use_storage) return FetchGraphValue(graph, id);
  TB_RETURN_IF_ERROR(CheckDataId(graph, id));
  // Post-run read cache (block_cache mode, executor-private store
  // only): baseline comparisons fetch the same result blocks over and
  // over; serve repeats from the deserialized copy. Version 0 is a
  // constant — the cache is cleared whenever Execute may rewrite the
  // scope-0 keys it was built from.
  if (fetch_cache_ != nullptr) {
    std::lock_guard<std::mutex> lock(fetch_mu_);
    if (storage::BlockCache::ValuePtr hit =
            fetch_cache_->Get(static_cast<uint64_t>(id), 0)) {
      return *hit;
    }
    TB_ASSIGN_OR_RETURN(data::Matrix m,
                        ReadBlock(*store_, StorageKey(0, id)));
    storage::BlockCache::ValuePtr cached =
        fetch_cache_->Put(static_cast<uint64_t>(id), 0, std::move(m));
    return *cached;
  }
  return ReadBlock(*store_, StorageKey(0, id));
}

}  // namespace taskbench::runtime
