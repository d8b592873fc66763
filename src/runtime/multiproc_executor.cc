#include "runtime/multiproc_executor.h"

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <deque>
#include <memory>
#include <new>
#include <optional>
#include <span>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/strings.h"
#include "obs/metrics.h"
#include "runtime/attempt_body.h"
#include "runtime/attempt_ledger.h"
#include "runtime/metrics_export.h"
#include "runtime/spsc_ring.h"
#include "storage/block_cache.h"
#include "storage/serializer.h"
#include "storage/shm_arena.h"

#if !defined(_WIN32)
#include <dirent.h>
#if defined(__GLIBC__)
#include <malloc.h>
#endif
#include <sched.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <thread>

#include "hw/topology.h"
#endif

namespace taskbench::runtime {

#if defined(_WIN32)

struct MultiProcExecutor::Plane {};

MultiProcExecutor::MultiProcExecutor(RunOptions options)
    : options_(std::move(options)) {}

MultiProcExecutor::~MultiProcExecutor() = default;

bool MultiProcExecutor::Supported() { return false; }

Result<RunReport> MultiProcExecutor::Execute(TaskGraph&, const RunContext&) {
  return Status::Unimplemented(
      "multi-process execution needs fork + POSIX shared memory");
}

Result<data::Matrix> MultiProcExecutor::FetchData(const TaskGraph& graph,
                                                  DataId id) const {
  return FetchGraphValue(graph, id);
}

#else

namespace {

/// Coordinator -> worker: run this task attempt. `epoch` piggybacks
/// the coordinator's invalidation epoch on the dispatch ring: it
/// advances whenever a previously published directory slot is
/// republished (INOUT rewrites, crash-retry republication), telling
/// the worker to sweep block-cache entries whose stored tag no longer
/// matches the directory. Correctness never depends on the sweep —
/// entries are keyed by directory tag, and arena records are
/// immutable and never reused within a run, so a stale entry is
/// unreachable — the epoch only reclaims budget bytes dead entries
/// would otherwise pin until LRU eviction.
struct TaskMsg {
  int64_t task = -1;
  int32_t attempt = 1;
  uint64_t epoch = 0;
  /// The run this attempt belongs to. A worker that sees a new
  /// generation reads the run's header and drops its block cache:
  /// tags are arena offsets, and the arena is reset between runs.
  uint64_t generation = 0;
};

/// Worker -> coordinator: the attempt finished. code 0 = success,
/// 1 = retryable task failure (kernel / data error), 2 = fatal
/// (retrying cannot help, e.g. arena exhaustion — fail the run),
/// 3 = invariant violation detected inside the worker (fail the run).
/// A failure carries its Status: `status` is the StatusCode, `error`
/// the message.
struct CompletionMsg {
  int64_t task = -1;
  int32_t worker = -1;
  int32_t attempt = 1;
  int32_t code = 0;
  int32_t status = 0;
  /// Arena offset + 1 of the staged-outputs index record (0 = no
  /// outputs staged). The worker only *stages* output records; the
  /// coordinator performs the directory stores when it consumes this
  /// message, so publication is atomic with completion — a worker
  /// dying after staging but before its completion is consumed leaves
  /// the directory untouched and the retry re-reads pre-attempt
  /// values (INOUT tasks are never double-applied).
  uint64_t outputs = 0;
  double start = 0;
  double end = 0;
  perf::StageTimes stages;
  char error[196] = {0};
};

/// Per-worker control plane: one SPSC ring per direction. Lives in
/// the MAP_SHARED control segment, so both sides see the same atomics.
struct WorkerChannel {
  SpscRing<TaskMsg, 1024> inbox;       ///< coordinator produces
  Doorbell inbox_bell;                 ///< rung after each inbox push
  SpscRing<CompletionMsg, 256> outbox; ///< worker produces
};

struct ControlHeader {
  std::atomic<int> shutdown{0};
  /// Arena offset of the current run's RunHeader, written before the
  /// run's first dispatch (the ring push publishes it).
  uint64_t run_header = 0;
  /// Rung by a worker after each outbox push; the idle coordinator
  /// waits on it for the next completion from any worker.
  Doorbell completions;
};

/// One worker's block-cache counters, in the MAP_SHARED control
/// segment so the coordinator can merge them into the metrics
/// registry after the run. The worker stores absolute values after
/// each task (idempotent — a crashed worker leaves its last published
/// snapshot, which is exactly what it did); its cache and counters
/// start over with each run, and the coordinator zeroes the slots
/// before dispatching one.
struct CacheStatsSlot {
  std::atomic<int64_t> hits{0};
  std::atomic<int64_t> misses{0};
  std::atomic<int64_t> evictions{0};
  std::atomic<int64_t> invalidations{0};
  std::atomic<uint64_t> peak_bytes{0};
};

/// One task as workers see it: the kernel as plain data, and where its
/// params and argument bytes sit in the run's table.
struct TaskEntry {
  KernelFn::Fn fn = nullptr;
  uint64_t first_param = 0;  ///< index into the run's Param array
  uint64_t num_params = 0;
  uint64_t args = 0;  ///< offset into the run's argument bytes
  uint64_t args_bytes = 0;
};

/// Written at the front of the reset arena for every run, followed by
/// the block directory (one atomic tag per datum: record offset + 1,
/// 0 = never written), the task table, every task's params and the
/// kernels' argument bytes — all a worker forked before the graph
/// existed needs to run its tasks. Offsets are arena offsets.
struct RunHeader {
  uint64_t generation = 0;
  /// Shared clock origin: steady_clock (CLOCK_MONOTONIC — one clock
  /// for the whole box) nanoseconds captured just before the run's
  /// first dispatch, so coordinator and worker timestamps land on one
  /// axis.
  int64_t origin_ns = 0;
  uint64_t directory = 0;
  uint64_t tasks = 0;
  uint64_t params = 0;
  uint64_t args = 0;
};

static_assert(std::is_trivially_copyable_v<TaskMsg>);
static_assert(std::is_trivially_copyable_v<CompletionMsg>);
static_assert(std::is_trivially_copyable_v<TaskEntry>);
static_assert(std::is_trivially_copyable_v<Param>);

/// A run's table, resolved to pointers in one process's mapping.
struct RunView {
  int64_t origin_ns = 0;
  std::atomic<uint64_t>* directory = nullptr;
  const TaskEntry* tasks = nullptr;
  const Param* params = nullptr;
  const char* args = nullptr;

  RunView() = default;
  RunView(const storage::ShmArena& arena, uint64_t header_offset) {
    const auto* header =
        reinterpret_cast<const RunHeader*>(arena.At(header_offset));
    origin_ns = header->origin_ns;
    directory =
        reinterpret_cast<std::atomic<uint64_t>*>(arena.At(header->directory));
    tasks = reinterpret_cast<const TaskEntry*>(arena.At(header->tasks));
    params = reinterpret_cast<const Param*>(arena.At(header->params));
    args = reinterpret_cast<const char*>(arena.At(header->args));
  }
};

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double SecondsSince(int64_t origin_ns) {
  return static_cast<double>(NowNs() - origin_ns) * 1e-9;
}

uint64_t AlignUp64(uint64_t n) { return (n + 63) & ~uint64_t{63}; }

/// Serializes `m` into a fresh arena record ([u64 payload bytes |
/// payload]) WITHOUT touching the directory; returns the record
/// offset. Staged records become visible only when someone stores
/// offset+1 into the directory slot.
Result<uint64_t> StageBlock(storage::ShmArena& arena, const data::Matrix& m) {
  const uint64_t payload = storage::Serializer::SerializedSize(m);
  TB_ASSIGN_OR_RETURN(const uint64_t offset, arena.Allocate(8 + payload));
  uint8_t* record = arena.At(offset);
  std::memcpy(record, &payload, sizeof(payload));
  storage::Serializer::SerializeTo(m, record + 8);
  return offset;
}

/// Deserializes the arena record a (nonzero) directory tag points at.
/// Records are immutable once staged and offsets are never reused
/// within a run, so a tag identifies one block version for the run —
/// which is what makes tags usable as block-cache versions.
Result<data::Matrix> ReadBlockAt(const storage::ShmArena& arena,
                                 uint64_t tag) {
  const uint8_t* record = arena.At(tag - 1);
  uint64_t payload = 0;
  std::memcpy(&payload, record, sizeof(payload));
  return storage::Serializer::Deserialize(record + 8, payload);
}

void SetError(CompletionMsg* msg, const Status& status) {
  msg->status = static_cast<int32_t>(status.code());
  const std::string& text = status.message();
  const size_t n = std::min(text.size(), sizeof(msg->error) - 1);
  std::memcpy(msg->error, text.data(), n);
  msg->error[n] = '\0';
}

/// The multi-process plane: blocks live serialized in the arena, and a
/// datum's version is its directory tag. A worker only stages outputs;
/// the coordinator publishes them when it consumes the completion, so
/// a crash in between cannot expose them to a retry.
class ArenaPlane final : public BlockPlane {
 public:
  ArenaPlane(storage::ShmArena& arena, const RunView& run, bool check)
      : arena_(arena), run_(run), check_(check) {}

  Result<uint64_t> ReadVersion(TaskId, size_t, DataId d) override {
    const uint64_t tag = run_.directory[d].load(std::memory_order_acquire);
    if (tag == 0) {
      return Status::NotFound(StrFormat(
          "datum %lld has no record in the shm directory; was it ever "
          "written?",
          static_cast<long long>(d)));
    }
    if (check_) read_tags.emplace_back(d, tag);
    return tag;
  }
  Result<data::Matrix> Copy(DataId, uint64_t tag, double* seconds) override {
    const int64_t start_ns = NowNs();
    TB_ASSIGN_OR_RETURN(data::Matrix m, ReadBlockAt(arena_, tag));
    *seconds += SecondsSince(start_ns);
    return m;
  }
  Result<uint64_t> Store(TaskId, size_t, DataId d, data::Matrix& value,
                         double* seconds) override {
    const int64_t start_ns = NowNs();
    TB_ASSIGN_OR_RETURN(const uint64_t offset, StageBlock(arena_, value));
    *seconds += SecondsSince(start_ns);
    staged.emplace_back(static_cast<uint64_t>(d), offset);
    return offset + 1;  // the tag the coordinator will publish
  }

  /// (datum, tag) of every read, when checking.
  std::vector<std::pair<DataId, uint64_t>> read_tags;
  /// (datum, record offset) of every staged output.
  std::vector<std::pair<uint64_t, uint64_t>> staged;

 private:
  storage::ShmArena& arena_;
  const RunView& run_;
  const bool check_;
};

/// One task attempt inside a worker: the attempt body over the arena
/// plane and the worker's block cache (`cache`, when set). With `check`
/// on, each read's tag is loaded again after the kernel ran (code 3 if
/// it moved). The staged outputs are listed for the coordinator in one
/// index record [u64 count | count x (u64 data id, u64 record offset)]
/// referenced from the completion message.
CompletionMsg RunOne(int worker_id, const TaskMsg& msg, const RunView& run,
                     storage::ShmArena& arena, bool check,
                     storage::BlockCache* cache) {
  const int64_t origin_ns = run.origin_ns;
  CompletionMsg out;
  out.task = msg.task;
  out.worker = worker_id;
  out.attempt = msg.attempt;
  out.start = SecondsSince(origin_ns);

  const TaskEntry& task = run.tasks[msg.task];
  ArenaPlane plane(arena, run, check);
  AttemptBody body(
      msg.task,
      std::span<const Param>(run.params + task.first_param, task.num_params),
      task.fn, std::string_view(run.args + task.args, task.args_bytes));
  const auto finish = [&](int code, const Status& status) {
    out.code = code;
    if (!status.ok()) SetError(&out, status);
    out.stages = body.stages;
    out.end = SecondsSince(origin_ns);
    return out;
  };

  if (Status status = body.Compute(plane, cache); !status.ok()) {
    return finish(1, status);
  }
  // No input may be republished while its reader runs: write-after-read
  // edges order every overwriting task after all readers, and no task
  // has two live attempts. A moved tag means cached handles and arena
  // reads could disagree.
  for (const auto& [d, tag] : plane.read_tags) {
    const uint64_t now_tag = run.directory[d].load(std::memory_order_acquire);
    if (now_tag != tag) {
      return finish(3, Status::FailedPrecondition(StrFormat(
                           "invariant violation: datum %lld republished "
                           "(tag %llu -> %llu) while task %lld was reading "
                           "it",
                           static_cast<long long>(d),
                           static_cast<unsigned long long>(tag),
                           static_cast<unsigned long long>(now_tag),
                           static_cast<long long>(msg.task))));
    }
  }
  // Arena exhaustion: retrying cannot help.
  if (Status status = body.Store(plane, cache); !status.ok()) {
    return finish(2, status);
  }
  if (!plane.staged.empty()) {
    Result<uint64_t> index =
        arena.Allocate(8 + 16 * static_cast<uint64_t>(plane.staged.size()));
    if (!index.ok()) return finish(2, index.status());
    uint8_t* record = arena.At(*index);
    const uint64_t count = plane.staged.size();
    std::memcpy(record, &count, sizeof(count));
    for (size_t i = 0; i < plane.staged.size(); ++i) {
      std::memcpy(record + 8 + 16 * i, &plane.staged[i].first, 8);
      std::memcpy(record + 8 + 16 * i + 8, &plane.staged[i].second, 8);
    }
    out.outputs = *index + 1;
  }
  return finish(0, Status::OK());
}

/// Longest a parked worker sleeps before it checks that its
/// coordinator is still alive. Dispatch and shutdown ring the worker's
/// bell, so the slice only bounds how long an orphan lingers, mid-run
/// or idle between runs.
constexpr std::chrono::milliseconds kWorkerWaitSlice{10};

/// Worker process main loop. Never returns — exits with _exit so the
/// child skips atexit handlers, stdio flushing of inherited buffers
/// and (under sanitizers) the leak check, all of which belong to the
/// coordinator.
[[noreturn]] void WorkerMain(int worker_id, pid_t coordinator,
                             storage::ShmArena& arena, ControlHeader* header,
                             WorkerChannel* channel,
                             const std::vector<int>& pin_cpus, bool check,
                             uint64_t cache_bytes,
                             CacheStatsSlot* stats_slot) {
  if (!pin_cpus.empty()) {
    // Best effort: an unpinnable worker is slower, never wrong.
    const Status ignored = hw::PinCurrentThreadToCpus(pin_cpus);
    (void)ignored;
  }
#if defined(__GLIBC__)
  // A resident worker shares the coordinator's heap pages copy-on-write
  // for as long as it lives, and a page both still map costs the
  // coordinator a copy when it next writes it. Its next allocations
  // reuse the heap's free chunks first, which the worker never reads:
  // release the worker's mapping of them.
  ::malloc_trim(0);
#endif
  // Worker-local block cache, created for each run: each worker
  // process owns private heap entries keyed by the run's directory
  // tags (cache_bytes == 0 disables caching).
  std::optional<storage::BlockCache> cache;
  uint64_t generation = 0;  // the coordinator numbers runs from 1
  RunView run;
  uint64_t seen_epoch = 0;
  const auto stopping = [header] {
    return header->shutdown.load(std::memory_order_acquire) != 0;
  };
  for (;;) {
    TaskMsg msg;
    if (!channel->inbox.Pop(&msg)) {
      if (stopping()) _exit(0);
      // Park until the coordinator rings. A coordinator killed
      // outright (the OOM killer picks the largest process) never
      // raises the shutdown flag, so a wait that times out also checks
      // that this worker has not been re-parented.
      const bool rung = channel->inbox_bell.Wait(
          [&] { return channel->inbox.size() != 0 || stopping(); },
          kWorkerWaitSlice);
      if (!rung && ::getppid() != coordinator) _exit(1);
      continue;
    }
    if (msg.generation != generation) {
      // A new run: its table sits in the reset arena, and every cached
      // tag names a record of the previous run.
      generation = msg.generation;
      run = RunView(arena, header->run_header);
      seen_epoch = 0;
      if (cache_bytes > 0) cache.emplace(cache_bytes);
    }
    if (cache.has_value() && msg.epoch != seen_epoch) {
      // The coordinator republished at least one directory slot since
      // our last dispatch: sweep entries whose tag moved on, so dead
      // versions stop pinning budget bytes.
      seen_epoch = msg.epoch;
      cache->EvictStale([&run](uint64_t key) {
        return run.directory[static_cast<DataId>(key)].load(
            std::memory_order_acquire);
      });
    }
    const CompletionMsg done = RunOne(worker_id, msg, run, arena, check,
                                      cache.has_value() ? &*cache : nullptr);
    if (cache.has_value() && stats_slot != nullptr) {
      const storage::BlockCache::Stats& s = cache->stats();
      stats_slot->hits.store(s.hits, std::memory_order_relaxed);
      stats_slot->misses.store(s.misses, std::memory_order_relaxed);
      stats_slot->evictions.store(s.evictions, std::memory_order_relaxed);
      stats_slot->invalidations.store(s.invalidations,
                                      std::memory_order_relaxed);
      stats_slot->peak_bytes.store(s.peak_bytes, std::memory_order_relaxed);
    }
    while (!channel->outbox.Push(done)) {
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
    header->completions.Ring();
  }
}

/// Byte layout of a run's table record: RunHeader, directory, task
/// table, params, argument bytes; offsets from the record's start.
struct TableLayout {
  uint64_t directory = 0;
  uint64_t tasks = 0;
  uint64_t params = 0;
  uint64_t args = 0;
  uint64_t bytes = 0;

  explicit TableLayout(const TaskGraph& graph) {
    uint64_t num_params = 0;
    uint64_t args_bytes = 0;
    for (TaskId t = 0; t < graph.num_tasks(); ++t) {
      num_params += graph.task(t).spec.params.size();
      args_bytes += graph.task(t).spec.kernel.args.size();
    }
    directory = AlignUp64(sizeof(RunHeader));
    tasks = directory + AlignUp64(static_cast<uint64_t>(graph.num_data()) *
                                  sizeof(std::atomic<uint64_t>));
    params = tasks + AlignUp64(static_cast<uint64_t>(graph.num_tasks()) *
                               sizeof(TaskEntry));
    args = params + AlignUp64(num_params * sizeof(Param));
    bytes = args + AlignUp64(args_bytes);
  }
};

/// Arena capacity estimate from the graph for block records: one
/// record per initial value (an upper bound: a value no task reads is
/// never staged) plus one per task output write and
/// one index record per attempt (records are never freed within a
/// run), each at the datum's registered size plus framing, with 2x
/// headroom for kernels emitting denser blocks than registered and a
/// 1 MiB floor. The per-attempt terms are scaled by 1 + max_retries:
/// every retry of a crashed or failed attempt re-stages its outputs
/// into fresh records, so an arena sized for exactly one attempt per
/// task would exhaust during the recovery the retry budget promises.
uint64_t EstimateArenaBytes(const TaskGraph& graph, int max_retries) {
  auto record_bytes = [](uint64_t payload) {
    return AlignUp64(payload + 8 /* frame */ + 28 /* wire header */);
  };
  uint64_t initial = 0;
  for (DataId d = 0; d < graph.num_data(); ++d) {
    if (graph.data(d).value.has_value()) {
      initial += record_bytes(graph.data(d).bytes);
    }
  }
  uint64_t per_attempt = 0;
  for (TaskId t = 0; t < graph.num_tasks(); ++t) {
    uint64_t num_outputs = 0;
    for (const Param& p : graph.task(t).spec.params) {
      if (p.dir == Dir::kIn) continue;
      per_attempt += record_bytes(graph.data(p.data).bytes);
      ++num_outputs;
    }
    if (num_outputs > 0) per_attempt += AlignUp64(8 + 16 * num_outputs);
  }
  const uint64_t attempts =
      1 + static_cast<uint64_t>(std::max(0, max_retries));
  const uint64_t need = initial + attempts * per_attempt;
  return std::max<uint64_t>(2 * need, 1 << 20);
}

/// Threads in the calling process, via procfs; -1 when unknown (no
/// /proc, e.g. macOS). fork() without exec duplicates only the
/// calling thread, so any mutex another thread holds at fork time
/// (allocator, logging, metrics) stays locked forever in the child —
/// a worker then deadlocks on its first allocation. Execute refuses
/// to fork from a multi-threaded process instead of hanging.
int CountProcessThreads() {
  DIR* dir = ::opendir("/proc/self/task");
  if (dir == nullptr) return -1;
  int n = 0;
  while (const dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] != '.') ++n;
  }
  ::closedir(dir);
  return n;
}

/// CountProcessThreads, re-polled for up to 100 ms while it exceeds
/// one. pthread_join returns once the kernel clears the thread's tid,
/// which happens before the thread is unhashed from /proc/self/task,
/// so a thread the caller has just joined can stay listed for a
/// moment. A live second thread is still counted after the window.
int SettledProcessThreads() {
  int n = CountProcessThreads();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(100);
  while (n > 1 && std::chrono::steady_clock::now() < deadline) {
    ::sched_yield();
    n = CountProcessThreads();
  }
  return n;
}

/// Address space a plane's arena maps at least. Pages are backed only
/// once touched, and each run's capacity is still set by its own graph
/// (ShmArena::Reset), so the floor only lets a plane forked for a small
/// graph carry on with larger ones instead of being replaced.
constexpr uint64_t kMinArenaMapping = uint64_t{64} << 20;

/// Tasks queued to one worker beyond the one it is running — deep
/// enough to hide dispatch latency, shallow enough that the
/// coordinator keeps placement freedom (and far below the ring
/// capacity, so Push never blocks).
constexpr int kMaxInflightPerWorker = 4;

/// Longest an idle coordinator waits for a completion before it
/// re-checks worker liveness and cancellation; a pending retry backoff
/// shortens the wait to its due time. The slice bounds how late a
/// dead worker, a cancel or a due retry is noticed.
constexpr std::chrono::milliseconds kCoordinatorWaitSlice{1};

}  // namespace

struct MultiProcExecutor::Plane {
  storage::ShmSegment control;  ///< header, W channels, W cache stats
  storage::ShmArena arena;      ///< run table + block records
  ControlHeader* header = nullptr;
  WorkerChannel* channels = nullptr;
  CacheStatsSlot* cache_stats = nullptr;
  std::vector<pid_t> pids;
  /// Cleared once a worker is reaped: its pid may then be reused.
  std::vector<char> alive;
  bool workers_up = false;
  uint64_t generation = 0;
  /// The last successful run, for FetchData: its graph, the arena
  /// offset of its RunHeader, and the tag each datum was staged under
  /// (0 = no initial value).
  const TaskGraph* last_graph = nullptr;
  uint64_t last_run_header = 0;
  std::vector<uint64_t> initial_tag;

  /// Maps the segments and forks the workers.
  static Result<std::unique_ptr<Plane>> Fork(const RunOptions& options,
                                             uint64_t arena_bytes);

  Plane() = default;
  Plane(const Plane&) = delete;
  Plane& operator=(const Plane&) = delete;
  ~Plane() { StopWorkers(); }

  /// Shuts the workers down and reaps them; the mappings stay, so the
  /// last run's results can still be fetched.
  void StopWorkers();
};

Result<std::unique_ptr<MultiProcExecutor::Plane>>
MultiProcExecutor::Plane::Fork(const RunOptions& options,
                               uint64_t arena_bytes) {
  const int caller_threads = SettledProcessThreads();
  if (caller_threads > 1) {
    return Status::FailedPrecondition(StrFormat(
        "MultiProcExecutor::Execute must be called from a single-threaded "
        "process when it forks its workers (found %d threads): workers are "
        "forked without exec, so locks held by other threads at fork time "
        "stay locked forever in the children; join other threads before "
        "the first run (see docs/SCALE_OUT.md; resident services should "
        "use --executor=threads or sim instead)",
        caller_threads));
  }

  // The shared-memory plane: the control segment holds the per-worker
  // rings and cache counters, the arena each run's table and blocks.
  // Both are mapped before fork, so every process shares the pages at
  // the same addresses.
  const int num_workers = options.num_procs;
  auto plane = std::make_unique<Plane>();
  TB_ASSIGN_OR_RETURN(plane->arena,
                      storage::ShmArena::Create("arena", arena_bytes));
  const uint64_t channels_off = AlignUp64(sizeof(ControlHeader));
  const uint64_t cache_stats_off =
      AlignUp64(channels_off + static_cast<uint64_t>(num_workers) *
                                   sizeof(WorkerChannel));
  const uint64_t control_bytes =
      cache_stats_off +
      static_cast<uint64_t>(num_workers) * sizeof(CacheStatsSlot);
  TB_ASSIGN_OR_RETURN(plane->control,
                      storage::ShmSegment::Create("ctl", control_bytes));
  uint8_t* control = plane->control.base();
  plane->header = new (control) ControlHeader();
  plane->channels = reinterpret_cast<WorkerChannel*>(control + channels_off);
  plane->cache_stats =
      reinterpret_cast<CacheStatsSlot*>(control + cache_stats_off);
  for (int w = 0; w < num_workers; ++w) {
    new (&plane->channels[w]) WorkerChannel();
    new (&plane->cache_stats[w]) CacheStatsSlot();
  }

  // Fork the workers; flush stdio first so buffered output is not
  // duplicated into every child. Workers pin to their NUMA domain's
  // CPUs on multi-domain hosts.
  std::fflush(stdout);
  std::fflush(stderr);
  const hw::Topology& topo = hw::DetectTopology();
  const bool pin = topo.num_domains() > 1;
  const uint64_t cache_bytes =
      options.block_cache ? storage::kDefaultBlockCacheBytes : 0;
  const pid_t coordinator = getpid();
  plane->pids.assign(static_cast<size_t>(num_workers), -1);
  plane->alive.assign(static_cast<size_t>(num_workers), 0);
  plane->workers_up = true;
  for (int w = 0; w < num_workers; ++w) {
    const pid_t pid = fork();
    if (pid == 0) {
      const std::vector<int> cpus =
          pin ? topo.domains[static_cast<size_t>(
                                 topo.domain_of_worker(w, num_workers))]
                    .cpus
              : std::vector<int>{};
      WorkerMain(w, coordinator, plane->arena, plane->header,
                 &plane->channels[w], cpus, options.check_invariants,
                 cache_bytes, &plane->cache_stats[w]);
    }
    if (pid < 0) {
      const int err = errno;
      plane->StopWorkers();
      return Status::Internal(
          StrFormat("fork of worker %d failed: %s", w, std::strerror(err)));
    }
    plane->pids[static_cast<size_t>(w)] = pid;
    plane->alive[static_cast<size_t>(w)] = 1;
  }
  return plane;
}

void MultiProcExecutor::Plane::StopWorkers() {
  if (!workers_up) return;
  workers_up = false;
  // Workers exit once their inbox drains and the flag is up (the ring
  // wakes parked ones); SIGKILL is the backstop for workers stuck in a
  // kernel after a failed run.
  header->shutdown.store(1, std::memory_order_release);
  for (size_t w = 0; w < pids.size(); ++w) channels[w].inbox_bell.Ring();
  const int64_t reap_deadline_ns = NowNs() + 5'000'000'000LL;
  for (size_t w = 0; w < pids.size(); ++w) {
    if (!alive[w]) continue;
    alive[w] = 0;
    for (;;) {
      const pid_t r = waitpid(pids[w], nullptr, WNOHANG);
      if (r == pids[w]) break;
      // ECHILD + pid gone: auto-reaped (embedder ignores SIGCHLD).
      if (r < 0 && kill(pids[w], 0) != 0) break;
      if (NowNs() > reap_deadline_ns) {
        kill(pids[w], SIGKILL);
        waitpid(pids[w], nullptr, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
}

MultiProcExecutor::MultiProcExecutor(RunOptions options)
    : options_(std::move(options)) {}

MultiProcExecutor::~MultiProcExecutor() = default;

bool MultiProcExecutor::Supported() { return true; }

Result<data::Matrix> MultiProcExecutor::FetchData(const TaskGraph& graph,
                                                  DataId id) const {
  TB_RETURN_IF_ERROR(CheckDataId(graph, id));
  const size_t d = static_cast<size_t>(id);
  if (plane_ != nullptr && plane_->last_graph == &graph &&
      d < plane_->initial_tag.size()) {
    // A slot still holding its initial tag was never rewritten, and the
    // graph entry holds those exact bytes; so does a slot still at 0
    // whose initial value no task read (never staged: tag 0 as well).
    const RunView run(plane_->arena, plane_->last_run_header);
    const uint64_t tag = run.directory[id].load(std::memory_order_acquire);
    if (tag != plane_->initial_tag[d]) return ReadBlockAt(plane_->arena, tag);
  }
  return FetchGraphValue(graph, id);
}

Result<RunReport> MultiProcExecutor::Execute(TaskGraph& graph,
                                             const RunContext& ctx) {
  if (executing_.exchange(true, std::memory_order_acquire)) {
    return Status::FailedPrecondition(
        "MultiProcExecutor::Execute is already running on this executor; "
        "it is not reentrant (give each concurrent caller its own "
        "executor)");
  }
  struct ClearOnExit {
    std::atomic<bool>* flag;
    ~ClearOnExit() { flag->store(false, std::memory_order_release); }
  } clear_executing{&executing_};

  TB_RETURN_IF_ERROR(options_.Validate());
  TB_RETURN_IF_ERROR(graph.Validate());
  TB_RETURN_IF_ERROR(CheckKernels(graph, "multi-process"));
  const int64_t total = graph.num_tasks();
  const int64_t num_data = graph.num_data();

  // The run's arena holds its table plus its block records. A plane
  // whose workers are gone, or whose arena is too small, is replaced:
  // the old workers are reaped before the new ones fork.
  const TableLayout layout(graph);
  const uint64_t arena_bytes =
      layout.bytes + (options_.shm_arena_bytes > 0
                          ? options_.shm_arena_bytes
                          : EstimateArenaBytes(graph, options_.max_retries));
  if (plane_ != nullptr && (!plane_->workers_up ||
                            plane_->arena.max_capacity() < arena_bytes)) {
    plane_.reset();
  }
  if (plane_ == nullptr) {
    TB_ASSIGN_OR_RETURN(
        plane_, Plane::Fork(options_, std::max(arena_bytes, kMinArenaMapping)));
  }
  Plane& plane = *plane_;
  // Every early return fails the run, which tears the plane down.
  struct TearDownOnError {
    std::unique_ptr<Plane>* plane;
    ~TearDownOnError() {
      if (plane != nullptr) plane->reset();
    }
  } tear_down{&plane_};

  const int num_workers = options_.num_procs;
  const hw::Topology& topo = hw::DetectTopology();
  std::vector<int> worker_domain(static_cast<size_t>(num_workers), 0);
  for (int w = 0; w < num_workers; ++w) {
    worker_domain[static_cast<size_t>(w)] =
        topo.domain_of_worker(w, num_workers);
  }

  // ----------------------------------------------------------------
  // Write the run into the reset arena: the run header, the directory
  // and the task table. Workers are idle, so nothing reads the arena
  // until the first dispatch publishes it. The initial values are
  // staged later, on dispatch (stage_inputs).
  // ----------------------------------------------------------------
  plane.last_graph = nullptr;  // the reset discards the last run's values
  storage::ShmArena& arena = plane.arena;
  arena.Reset(arena_bytes);
  TB_ASSIGN_OR_RETURN(const uint64_t table, arena.Allocate(layout.bytes));
  uint8_t* table_base = arena.At(table);
  auto* run_header = new (table_base) RunHeader();
  run_header->generation = ++plane.generation;
  run_header->directory = table + layout.directory;
  run_header->tasks = table + layout.tasks;
  run_header->params = table + layout.params;
  run_header->args = table + layout.args;
  auto* directory =
      reinterpret_cast<std::atomic<uint64_t>*>(table_base + layout.directory);
  for (DataId d = 0; d < num_data; ++d) {
    new (&directory[d]) std::atomic<uint64_t>(0);
  }
  auto* tasks = reinterpret_cast<TaskEntry*>(table_base + layout.tasks);
  auto* params = reinterpret_cast<Param*>(table_base + layout.params);
  auto* args = reinterpret_cast<char*>(table_base + layout.args);
  uint64_t next_param = 0;
  uint64_t next_arg = 0;
  for (TaskId t = 0; t < total; ++t) {
    const TaskSpec& spec = graph.task(t).spec;
    new (&tasks[t]) TaskEntry{spec.kernel.fn, next_param, spec.params.size(),
                              next_arg, spec.kernel.args.size()};
    std::memcpy(params + next_param, spec.params.data(),
                sizeof(Param) * spec.params.size());
    std::memcpy(args + next_arg, spec.kernel.args.data(),
                spec.kernel.args.size());
    next_param += spec.params.size();
    next_arg += spec.kernel.args.size();
  }

  plane.initial_tag.assign(static_cast<size_t>(num_data), 0);
  for (int w = 0; w < num_workers; ++w) {
    new (&plane.cache_stats[w]) CacheStatsSlot();
  }
  run_header->origin_ns = NowNs();
  plane.header->run_header = table;
  WorkerChannel* channels = plane.channels;
  const std::vector<pid_t>& pids = plane.pids;

  // ----------------------------------------------------------------
  // Coordinator loop: dependency counting, topology-aware dispatch,
  // completion draining, liveness. Runs entirely in this thread; the
  // only block bytes that pass through here are the initial values it
  // stages on dispatch.
  // ----------------------------------------------------------------
  const int64_t origin_ns = run_header->origin_ns;
  std::vector<int> remaining(static_cast<size_t>(total), 0);
  std::deque<std::pair<TaskId, int>> ready;  // (task, attempt), FIFO
  struct Delayed {
    double when = 0;
    TaskId task = -1;
    int attempt = 1;
  };
  std::vector<Delayed> delayed;  // retry backoff queue
  // Completion, the order check (run here, at dispatch), the retry
  // budget and the attempt log.
  AttemptLedger ledger(graph, options_, /*simulated=*/false);
  int64_t dead_workers = 0;
  std::vector<int> inflight(static_cast<size_t>(num_workers), 0);
  std::vector<char>& alive = plane.alive;  // a reaped worker is cleared
  std::vector<std::vector<std::pair<TaskId, int>>> inflight_tasks(
      static_cast<size_t>(num_workers));
  // Domain whose worker produced each datum's current version; -1 for
  // initial (coordinator-staged) data. The locality signal of
  // placement, exactly like home_node feeds the simulated scheduler.
  std::vector<int> producer_domain(static_cast<size_t>(num_data), -1);
  std::vector<uint64_t> domain_bytes(
      static_cast<size_t>(std::max(1, topo.num_domains())), 0);

  for (TaskId t = 0; t < total; ++t) {
    const int deps = static_cast<int>(graph.task(t).deps.size());
    remaining[static_cast<size_t>(t)] = deps;
    if (deps == 0) ready.emplace_back(t, 1);
  }

  // Invalidation epoch piggybacked on every dispatch: bumped whenever
  // a previously published directory slot is republished, so workers
  // know when a cache sweep could reclaim dead entries.
  uint64_t inval_epoch = 0;

  bool failed = false;
  Status failure;
  auto fail_run = [&](Status status) {
    if (!failed) {
      failed = true;
      failure = std::move(status);
    }
  };

  // Stages and publishes the initial value of each datum task `t`
  // reads (IN, INOUT) whose directory slot is still 0, so staging
  // overlaps the tasks already running and a value no task reads is
  // never staged. The slot, not a per-datum "staged" flag, decides: a
  // datum an earlier task overwrote (OUT) holds that task's version,
  // and staging the initial value again would hand a later reader the
  // stale bytes. The directory stores offset+1, so 0 keeps meaning
  // "never written"; initial_tag remembers each publication, and since
  // records are not reused within a run, a slot still holding it after
  // the run was never rewritten.
  auto stage_inputs = [&](TaskId t) -> Status {
    for (const Param& p : graph.task(t).spec.params) {
      if (p.dir == Dir::kOut) continue;
      if (directory[p.data].load(std::memory_order_relaxed) != 0) continue;
      const DataEntry& entry = graph.data(p.data);
      if (!entry.value.has_value()) continue;
      Result<uint64_t> offset = StageBlock(arena, *entry.value);
      if (!offset.ok()) {
        return offset.status().WithContext(StrFormat(
            "staging datum %lld", static_cast<long long>(p.data)));
      }
      plane.initial_tag[static_cast<size_t>(p.data)] = *offset + 1;
      directory[p.data].store(*offset + 1, std::memory_order_release);
    }
    return Status::OK();
  };

  // Places one ready task: prefer the least-loaded worker in the
  // domain owning most of the task's input bytes; a remote worker
  // wins only when strictly less loaded (2x inflight + 1 domain
  // penalty), which is the process-level version of the thread pool's
  // domain-biased steal order. The task's initial inputs are staged
  // once a worker can take it; a staging failure fails the run.
  auto dispatch = [&](TaskId t, int attempt) -> bool {
    int preferred = -1;
    if (topo.num_domains() > 1) {
      std::fill(domain_bytes.begin(), domain_bytes.end(), 0);
      for (const Param& p : graph.task(t).spec.params) {
        if (p.dir == Dir::kOut) continue;
        const int pd = producer_domain[static_cast<size_t>(p.data)];
        if (pd >= 0) {
          domain_bytes[static_cast<size_t>(pd)] +=
              graph.data(p.data).bytes;
        }
      }
      uint64_t best_bytes = 0;
      for (size_t dom = 0; dom < domain_bytes.size(); ++dom) {
        if (domain_bytes[dom] > best_bytes) {
          best_bytes = domain_bytes[dom];
          preferred = static_cast<int>(dom);
        }
      }
    }
    int best = -1;
    int best_score = INT32_MAX;
    for (int w = 0; w < num_workers; ++w) {
      if (!alive[static_cast<size_t>(w)]) continue;
      if (inflight[static_cast<size_t>(w)] >= kMaxInflightPerWorker) continue;
      const int score =
          2 * inflight[static_cast<size_t>(w)] +
          (preferred >= 0 && worker_domain[static_cast<size_t>(w)] != preferred
               ? 1
               : 0);
      if (score < best_score) {
        best_score = score;
        best = w;
      }
    }
    if (best < 0) return false;  // every live worker is at capacity
    if (Status order = ledger.CheckStart(t); !order.ok()) {
      fail_run(ledger.Failure(t, attempt, "worker", best, order));
      return false;
    }
    if (Status staged = stage_inputs(t); !staged.ok()) {
      fail_run(std::move(staged));
      return false;
    }
    TaskMsg msg;
    msg.task = t;
    msg.attempt = attempt;
    msg.epoch = inval_epoch;
    msg.generation = plane.generation;
    if (!channels[best].inbox.Push(msg)) return false;
    channels[best].inbox_bell.Ring();
    ++inflight[static_cast<size_t>(best)];
    inflight_tasks[static_cast<size_t>(best)].emplace_back(t, attempt);
    return true;
  };

  auto handle_completion = [&](const CompletionMsg& msg) {
    auto& mine = inflight_tasks[static_cast<size_t>(msg.worker)];
    for (auto it = mine.begin(); it != mine.end(); ++it) {
      if (it->first == msg.task && it->second == msg.attempt) {
        mine.erase(it);
        --inflight[static_cast<size_t>(msg.worker)];
        break;
      }
    }
    if (ledger.claimed(msg.task)) return;  // stale duplicate
    if (msg.code == 0) {
      // Publish the attempt's staged outputs. Doing this here — not
      // in the worker — makes publication atomic with completion:
      // either the coordinator consumed the completion (outputs
      // visible, task done, never re-run) or it did not (directory
      // untouched, a retry re-reads pre-attempt values). The claim
      // also keeps a slower duplicate attempt from overwriting
      // versions successors already read.
      if (!ledger.Claim(msg.task)) return;
      if (msg.outputs != 0) {
        const uint8_t* record = arena.At(msg.outputs - 1);
        uint64_t count = 0;
        std::memcpy(&count, record, sizeof(count));
        for (uint64_t i = 0; i < count; ++i) {
          uint64_t id = 0;
          uint64_t offset = 0;
          std::memcpy(&id, record + 8 + 16 * i, 8);
          std::memcpy(&offset, record + 8 + 16 * i + 8, 8);
          // Republishing an already-written slot (INOUT rewrite, or
          // OUT over an initial value) strands the old tag in worker
          // caches: advance the invalidation epoch so the next
          // dispatch triggers a sweep.
          if (directory[static_cast<DataId>(id)].load(
                  std::memory_order_relaxed) != 0) {
            ++inval_epoch;
          }
          directory[static_cast<DataId>(id)].store(
              offset + 1, std::memory_order_release);
        }
      }
      const Task& task = graph.task(msg.task);
      TaskRecord rec;
      rec.task = msg.task;
      rec.type = task.spec.type;
      rec.level = task.level;
      rec.processor = Processor::kCpu;
      rec.node = msg.worker;
      rec.slot = 0;  // workers are single-threaded: one slot each
      rec.stages = msg.stages;
      rec.start = msg.start;
      rec.end = msg.end;
      rec.attempt = msg.attempt;
      for (const Param& p : task.spec.params) {
        if (p.dir != Dir::kIn) {
          producer_domain[static_cast<size_t>(p.data)] =
              worker_domain[static_cast<size_t>(msg.worker)];
        }
      }
      ledger.Complete(std::move(rec));
      for (TaskId succ : task.successors) {
        if (--remaining[static_cast<size_t>(succ)] == 0) {
          ready.emplace_back(succ, 1);
        }
      }
      return;
    }
    // Task failure inside a live worker, with the worker's own status
    // code. Fatal failures end the run: code 2 is arena exhaustion,
    // code 3 an invariant violation the worker detected.
    ledger.Log(TaskAttempt{msg.task, msg.attempt, msg.worker, Processor::kCpu,
                           msg.start, msg.end, AttemptOutcome::kFailed});
    Status cause(static_cast<StatusCode>(msg.status), msg.error);
    if (msg.code == 2) {
      cause = Status(cause.code(),
                     cause.message() +
                         " (each retry re-stages its outputs; raise "
                         "RunOptions::shm_arena_bytes when retrying under "
                         "memory pressure)");
    }
    Status failure =
        msg.code >= 2
            ? ledger.Failure(msg.task, msg.attempt, "worker", msg.worker, cause)
            : ledger.Retry(msg.task, msg.attempt, "worker", msg.worker, cause);
    if (!failure.ok()) {
      fail_run(std::move(failure));
      return;
    }
    delayed.push_back(Delayed{
        SecondsSince(origin_ns) + options_.RetryDelay(msg.attempt), msg.task,
        msg.attempt + 1});
  };

  // A dead worker's queued/running tasks become kNodeLost attempts
  // and are re-dispatched under the retry budget. Blocks the worker
  // already published live in the arena, so unlike a real cluster
  // node loss nothing has to be recomputed (lost_blocks stays 0).
  auto check_liveness = [&] {
    for (int w = 0; w < num_workers; ++w) {
      if (!alive[static_cast<size_t>(w)]) continue;
      int status = 0;
      const pid_t r = waitpid(pids[static_cast<size_t>(w)], &status, WNOHANG);
      if (r == 0) continue;  // still running, nothing to reap
      // r < 0 (ECHILD) happens when the embedder ignores SIGCHLD and
      // children are auto-reaped: waitpid can never observe the exit.
      // Ask the kernel directly — only a worker whose pid is gone is
      // dead; treating ECHILD as "alive" would spin forever on a
      // crashed worker's in-flight tasks.
      if (r < 0 && kill(pids[static_cast<size_t>(w)], 0) == 0) continue;
      alive[static_cast<size_t>(w)] = 0;
      ++dead_workers;
      // Completions the worker pushed before dying are still in its
      // (shared-memory) outbox — honor them before declaring losses.
      CompletionMsg msg;
      while (channels[w].outbox.Pop(&msg)) handle_completion(msg);
      auto lost = std::move(inflight_tasks[static_cast<size_t>(w)]);
      inflight_tasks[static_cast<size_t>(w)].clear();
      inflight[static_cast<size_t>(w)] = 0;
      const double now = SecondsSince(origin_ns);
      for (const auto& [task, attempt] : lost) {
        if (ledger.claimed(task)) continue;
        ledger.Log(TaskAttempt{task, attempt, w, Processor::kCpu, 0, now,
                               AttemptOutcome::kNodeLost});
        Status retry = ledger.Retry(task, attempt, "worker", w,
                                    Status::Internal("lost with worker"));
        if (!retry.ok()) {
          fail_run(std::move(retry));
          return;
        }
        delayed.push_back(
            Delayed{now + options_.RetryDelay(attempt), task, attempt + 1});
      }
    }
    if (!failed && ledger.num_completed() < total &&
        std::none_of(alive.begin(), alive.end(),
                     [](char a) { return a != 0; })) {
      fail_run(Status::Internal("all workers died before the run finished"));
    }
  };

  auto completions_pending = [&] {
    for (int w = 0; w < num_workers; ++w) {
      if (alive[static_cast<size_t>(w)] && channels[w].outbox.size() != 0) {
        return true;
      }
    }
    return false;
  };

  int progress_passes = 0;
  while (!failed && ledger.num_completed() < total) {
    if (ctx.cancel != nullptr && ctx.cancel->cancelled()) {
      fail_run(Status::Cancelled("run cancelled"));
      break;
    }
    bool progress = false;
    if (!delayed.empty()) {
      const double now = SecondsSince(origin_ns);
      for (size_t i = 0; i < delayed.size();) {
        if (delayed[i].when <= now) {
          ready.emplace_back(delayed[i].task, delayed[i].attempt);
          delayed[i] = delayed.back();
          delayed.pop_back();
          progress = true;
        } else {
          ++i;
        }
      }
    }
    while (!ready.empty()) {
      const auto [t, attempt] = ready.front();
      if (!dispatch(t, attempt)) break;
      ready.pop_front();
      progress = true;
    }
    for (int w = 0; w < num_workers && !failed; ++w) {
      if (!alive[static_cast<size_t>(w)]) continue;
      CompletionMsg msg;
      while (channels[w].outbox.Pop(&msg)) {
        progress = true;
        handle_completion(msg);
        if (failed) break;
      }
    }
    if (failed) break;
    if (progress) {
      if (++progress_passes % 64 == 0) check_liveness();
      continue;
    }
    // Idle: park on the completion bell for one slice, or until the
    // earliest retry backoff falls due. Only a slice that times out
    // unrung runs liveness — a dead worker never rings.
    std::chrono::nanoseconds slice = kCoordinatorWaitSlice;
    if (!delayed.empty()) {
      double due = delayed.front().when;
      for (const Delayed& d : delayed) due = std::min(due, d.when);
      const std::chrono::duration<double> until_due(due -
                                                    SecondsSince(origin_ns));
      if (until_due < slice) {
        slice = std::chrono::duration_cast<std::chrono::nanoseconds>(until_due);
      }
    }
    if (!plane.header->completions.Wait(completions_pending, slice)) {
      check_liveness();
    }
  }

  if (failed) return failure;  // tears the plane down
  tear_down.plane = nullptr;
  // A run that lost a worker gives its workers up but keeps the arena
  // for FetchData; so would one with attempts still in flight, which
  // cannot happen once every task completed, but the next run's rings
  // must start empty.
  const bool drained = std::all_of(inflight.begin(), inflight.end(),
                                   [](int n) { return n == 0; });
  if (dead_workers > 0 || !drained) plane.StopWorkers();

  RunReport report = ledger.TakeReport();
  report.faults.dead_nodes = dead_workers;
  // Every timestamp shares the CLOCK_MONOTONIC origin written into the
  // run header, so the busy-time bound applies.
  if (options_.check_invariants) {
    TB_RETURN_IF_ERROR(CheckBusyTimeBound(report.records, num_workers));
  }
  plane.last_graph = &graph;
  plane.last_run_header = table;

  // A per-run registry in the context scopes the instruments to this
  // run; the executor-wide RunOptions registry is the default.
  obs::MetricsRegistry* const metrics_sink =
      ctx.metrics != nullptr ? ctx.metrics : options_.metrics;
  if (metrics_sink != nullptr) {
    obs::MetricsRegistry& registry = *metrics_sink;
    registry.gauge("pool.procs")->Set(num_workers);
    registry.gauge("pool.domains")->Set(topo.num_domains());
    if (report.faults.retries > 0) {
      registry.counter("pool.retries")->Add(report.faults.retries);
    }
    if (dead_workers > 0) {
      registry.counter("pool.worker_crashes")->Add(dead_workers);
    }
    if (options_.block_cache) {
      // Workers published their last stats snapshot into the shared
      // control segment after each task.
      std::vector<storage::BlockCache::Stats> stats(
          static_cast<size_t>(num_workers));
      for (int w = 0; w < num_workers; ++w) {
        const CacheStatsSlot& slot = plane.cache_stats[w];
        storage::BlockCache::Stats& s = stats[static_cast<size_t>(w)];
        s.hits = slot.hits.load(std::memory_order_relaxed);
        s.misses = slot.misses.load(std::memory_order_relaxed);
        s.evictions = slot.evictions.load(std::memory_order_relaxed);
        s.invalidations = slot.invalidations.load(std::memory_order_relaxed);
        s.peak_bytes = slot.peak_bytes.load(std::memory_order_relaxed);
      }
      ExportCacheStats(stats, &registry);
    }
    StageRecorder stages(&registry);
    for (const TaskRecord& rec : report.records) stages.Record(rec);
  }
  return report;
}

#endif  // !defined(_WIN32)

}  // namespace taskbench::runtime
