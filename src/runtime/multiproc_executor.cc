#include "runtime/multiproc_executor.h"

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <deque>
#include <memory>
#include <new>
#include <optional>
#include <utility>
#include <vector>

#include "common/strings.h"
#include "obs/metrics.h"
#include "runtime/invariant_check.h"
#include "runtime/spsc_ring.h"
#include "storage/block_cache.h"
#include "storage/serializer.h"
#include "storage/shm_arena.h"

#if !defined(_WIN32)
#include <dirent.h>
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

MultiProcExecutor::MultiProcExecutor(RunOptions options)
    : options_(std::move(options)) {}

Result<data::Matrix> MultiProcExecutor::FetchData(const TaskGraph& graph,
                                                  DataId id) const {
  return FetchGraphValue(graph, id);
}

#if defined(_WIN32)

bool MultiProcExecutor::Supported() { return false; }

Result<RunReport> MultiProcExecutor::Execute(TaskGraph&) {
  return Status::Unimplemented(
      "multi-process execution needs fork + POSIX shared memory");
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
/// immutable and never reused, so a stale entry is unreachable — the
/// epoch only reclaims budget bytes dead entries would otherwise pin
/// until LRU eviction.
struct TaskMsg {
  int64_t task = -1;
  int32_t attempt = 1;
  uint64_t epoch = 0;
};

/// Worker -> coordinator: the attempt finished. code 0 = success,
/// 1 = retryable task failure (kernel / data error), 2 = fatal
/// (retrying cannot help, e.g. arena exhaustion — fail the run),
/// 3 = invariant violation detected inside the worker (fail the run).
struct CompletionMsg {
  int64_t task = -1;
  int32_t worker = -1;
  int32_t attempt = 1;
  int32_t code = 0;
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
  double deserialize_s = 0;
  double compute_s = 0;
  double serialize_s = 0;
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
  /// Shared clock origin: steady_clock (CLOCK_MONOTONIC — one clock
  /// for the whole box) nanoseconds captured just before fork, so
  /// coordinator and worker timestamps land on one axis.
  int64_t origin_ns = 0;
  /// Rung by a worker after each outbox push; the idle coordinator
  /// waits on it for the next completion from any worker.
  Doorbell completions;
};

/// One worker's block-cache counters, in the MAP_SHARED control
/// segment so the coordinator can merge them into the metrics
/// registry after the run. The worker stores absolute values after
/// each task (idempotent — a crashed worker leaves its last published
/// snapshot, which is exactly what it did).
struct CacheStatsSlot {
  std::atomic<int64_t> hits{0};
  std::atomic<int64_t> misses{0};
  std::atomic<int64_t> evictions{0};
  std::atomic<int64_t> invalidations{0};
  std::atomic<uint64_t> peak_bytes{0};
};

static_assert(std::is_trivially_copyable_v<TaskMsg>);
static_assert(std::is_trivially_copyable_v<CompletionMsg>);

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
/// Records are immutable once staged and offsets are never reused, so
/// a tag identifies one block version forever — which is what makes
/// tags usable as block-cache versions.
Result<data::Matrix> ReadBlockAt(const storage::ShmArena& arena,
                                 uint64_t tag) {
  const uint8_t* record = arena.At(tag - 1);
  uint64_t payload = 0;
  std::memcpy(&payload, record, sizeof(payload));
  return storage::Serializer::Deserialize(record + 8, payload);
}

void SetError(CompletionMsg* msg, const Status& status) {
  const std::string text = status.ToString();
  const size_t n = std::min(text.size(), sizeof(msg->error) - 1);
  std::memcpy(msg->error, text.data(), n);
  msg->error[n] = '\0';
}

/// One task attempt inside a worker — the multi-process counterpart
/// of the thread pool's run_task: gather inputs from the arena, run
/// the kernel, publish outputs back into the arena. When `cache` is
/// set, reads go through the worker's version-keyed block cache with
/// the directory tag as the version: a hot shared input deserializes
/// once per worker instead of once per task. With `check` on, each
/// non-OUT param's directory tag is re-loaded after the kernel ran —
/// the anti-dependency (write-after-read) edges of the graph make a
/// republication during execution impossible, so any change is an
/// invariant violation (code 3).
CompletionMsg RunOne(int worker_id, const TaskMsg& msg, const TaskGraph& graph,
                     storage::ShmArena& arena, std::atomic<uint64_t>* directory,
                     int64_t origin_ns, bool check,
                     storage::BlockCache* cache) {
  CompletionMsg out;
  out.task = msg.task;
  out.worker = worker_id;
  out.attempt = msg.attempt;
  out.start = SecondsSince(origin_ns);

  const Task& task = graph.task(msg.task);

  // Materialize inputs (IN + INOUT) and output slots (OUT + INOUT),
  // mirroring the thread-pool layout: kernel inputs are IN values
  // first, then INOUT values aliasing their output slots. IN values
  // are shared with the cache when enabled (no copy on hit); INOUT
  // slots always get private copies the kernel may mutate.
  std::vector<std::shared_ptr<const data::Matrix>> in_values;
  std::vector<data::Matrix> out_values;
  std::vector<DataId> out_ids;
  std::vector<size_t> inout_out_index;
  std::vector<std::pair<DataId, uint64_t>> read_tags;  // for the check
  in_values.reserve(task.spec.params.size());
  out_values.resize(task.spec.params.size());
  size_t num_outputs = 0;
  for (const Param& p : task.spec.params) {
    if (p.dir == Dir::kOut) {
      out_ids.push_back(p.data);
      ++num_outputs;
      continue;
    }
    const uint64_t tag = directory[p.data].load(std::memory_order_acquire);
    if (tag == 0) {
      out.code = 1;
      SetError(&out, Status::NotFound(StrFormat(
                         "datum %lld has no record in the shm directory; "
                         "was it ever written?",
                         static_cast<long long>(p.data))));
      out.end = SecondsSince(origin_ns);
      return out;
    }
    if (check) read_tags.emplace_back(p.data, tag);
    if (p.dir == Dir::kIn) {
      if (cache != nullptr) {
        if (storage::BlockCache::ValuePtr hit =
                cache->Get(static_cast<uint64_t>(p.data), tag)) {
          in_values.push_back(std::move(hit));
          continue;
        }
      }
      const double t0 = SecondsSince(origin_ns);
      Result<data::Matrix> value = ReadBlockAt(arena, tag);
      if (!value.ok()) {
        out.code = 1;
        SetError(&out, value.status());
        out.end = SecondsSince(origin_ns);
        return out;
      }
      out.deserialize_s += SecondsSince(origin_ns) - t0;
      if (cache != nullptr) {
        in_values.push_back(cache->Put(static_cast<uint64_t>(p.data), tag,
                                       std::move(value).value()));
      } else {
        in_values.push_back(std::make_shared<const data::Matrix>(
            std::move(value).value()));
      }
      continue;
    }
    // INOUT: private mutable copy. A cache hit copies the shared
    // entry instead of letting the kernel mutate it; a miss reads the
    // arena directly and is not inserted (this task is about to
    // overwrite the datum, so the entry would be instantly stale).
    bool materialized = false;
    if (cache != nullptr) {
      if (storage::BlockCache::ValuePtr hit =
              cache->Get(static_cast<uint64_t>(p.data), tag)) {
        out_values[num_outputs] = *hit;
        materialized = true;
      }
    }
    if (!materialized) {
      const double t0 = SecondsSince(origin_ns);
      Result<data::Matrix> value = ReadBlockAt(arena, tag);
      if (!value.ok()) {
        out.code = 1;
        SetError(&out, value.status());
        out.end = SecondsSince(origin_ns);
        return out;
      }
      out.deserialize_s += SecondsSince(origin_ns) - t0;
      out_values[num_outputs] = std::move(value).value();
    }
    inout_out_index.push_back(num_outputs);
    out_ids.push_back(p.data);
    ++num_outputs;
  }
  out_values.resize(num_outputs);

  std::vector<const data::Matrix*> inputs;
  std::vector<data::Matrix*> outputs;
  for (const auto& m : in_values) inputs.push_back(m.get());
  for (size_t idx : inout_out_index) inputs.push_back(&out_values[idx]);
  for (data::Matrix& m : out_values) outputs.push_back(&m);

  const double kernel_start = SecondsSince(origin_ns);
  const Status kernel_status = task.spec.kernel(inputs, outputs);
  out.compute_s = SecondsSince(origin_ns) - kernel_start;
  if (!kernel_status.ok()) {
    out.code = 1;
    SetError(&out, kernel_status);
    out.end = SecondsSince(origin_ns);
    return out;
  }

  // Invariant: no input block may be republished while the task that
  // reads it is running — the graph's write-after-read edges order
  // every overwriting task after all readers, and the coordinator
  // never dispatches two live attempts of one task. A moved tag means
  // cached handles and arena reads could disagree: fail the run.
  if (check) {
    for (const auto& [d, tag] : read_tags) {
      const uint64_t now_tag = directory[d].load(std::memory_order_acquire);
      if (now_tag != tag) {
        out.code = 3;
        SetError(&out,
                 Status::FailedPrecondition(StrFormat(
                     "invariant violation: datum %lld republished (tag "
                     "%llu -> %llu) while task %lld was reading it",
                     static_cast<long long>(d),
                     static_cast<unsigned long long>(tag),
                     static_cast<unsigned long long>(now_tag),
                     static_cast<long long>(msg.task))));
        out.end = SecondsSince(origin_ns);
        return out;
      }
    }
  }

  // Stage the outputs: serialize each into its own arena record, then
  // write one index record [u64 count | count x (u64 data id, u64
  // record offset)] referenced from the completion message. The
  // directory is deliberately NOT written here — only the coordinator
  // publishes, when it consumes the completion — so a crash between
  // staging and consumption cannot expose this attempt's outputs to a
  // retry (which would double-apply INOUT tasks).
  std::vector<std::pair<uint64_t, uint64_t>> staged;
  staged.reserve(out_ids.size());
  for (size_t i = 0; i < out_ids.size(); ++i) {
    const double t0 = SecondsSince(origin_ns);
    Result<uint64_t> offset = StageBlock(arena, out_values[i]);
    if (!offset.ok()) {
      out.code = 2;  // arena exhaustion: retrying cannot help
      SetError(&out, offset.status());
      out.end = SecondsSince(origin_ns);
      return out;
    }
    staged.emplace_back(static_cast<uint64_t>(out_ids[i]), *offset);
    out.serialize_s += SecondsSince(origin_ns) - t0;
  }
  if (!staged.empty()) {
    Result<uint64_t> index =
        arena.Allocate(8 + 16 * static_cast<uint64_t>(staged.size()));
    if (!index.ok()) {
      out.code = 2;
      SetError(&out, index.status());
      out.end = SecondsSince(origin_ns);
      return out;
    }
    uint8_t* record = arena.At(*index);
    const uint64_t count = staged.size();
    std::memcpy(record, &count, sizeof(count));
    for (size_t i = 0; i < staged.size(); ++i) {
      std::memcpy(record + 8 + 16 * i, &staged[i].first, 8);
      std::memcpy(record + 8 + 16 * i + 8, &staged[i].second, 8);
    }
    out.outputs = *index + 1;
  }
  // Write-through at the tags the coordinator will publish (staged
  // offset + 1). If this attempt's completion is never consumed —
  // worker declared dead, stale duplicate — those tags never enter
  // the directory, so a crashed attempt's staged outputs are
  // unreachable in every cache; the epoch sweep reclaims their bytes.
  if (cache != nullptr) {
    for (size_t i = 0; i < staged.size(); ++i) {
      cache->Put(staged[i].first, staged[i].second + 1,
                 std::move(out_values[i]));
    }
  }
  out.end = SecondsSince(origin_ns);
  return out;
}

/// Longest a parked worker sleeps before it checks that its
/// coordinator is still alive. Dispatch and shutdown ring the worker's
/// bell, so the slice only bounds how long an orphan lingers.
constexpr std::chrono::milliseconds kWorkerWaitSlice{10};

/// Worker process main loop. Never returns — exits with _exit so the
/// child skips atexit handlers, stdio flushing of inherited buffers
/// and (under sanitizers) the leak check, all of which belong to the
/// coordinator.
[[noreturn]] void WorkerMain(int worker_id, pid_t coordinator,
                             const TaskGraph& graph,
                             storage::ShmArena& arena, ControlHeader* header,
                             WorkerChannel* channel,
                             std::atomic<uint64_t>* directory,
                             const std::vector<int>& pin_cpus, bool check,
                             uint64_t cache_bytes,
                             CacheStatsSlot* stats_slot) {
  if (!pin_cpus.empty()) {
    // Best effort: an unpinnable worker is slower, never wrong.
    const Status ignored = hw::PinCurrentThreadToCpus(pin_cpus);
    (void)ignored;
  }
  // Worker-local block cache, created after the fork: each worker
  // process owns private heap entries keyed by the shared directory
  // tags (cache_bytes == 0 disables caching).
  std::optional<storage::BlockCache> cache;
  if (cache_bytes > 0) cache.emplace(cache_bytes);
  uint64_t seen_epoch = 0;
  const int64_t origin_ns = header->origin_ns;
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
    if (cache.has_value() && msg.epoch != seen_epoch) {
      // The coordinator republished at least one directory slot since
      // our last dispatch: sweep entries whose tag moved on, so dead
      // versions stop pinning budget bytes.
      seen_epoch = msg.epoch;
      cache->EvictStale([directory](uint64_t key) {
        return directory[static_cast<DataId>(key)].load(
            std::memory_order_acquire);
      });
    }
    const CompletionMsg done =
        RunOne(worker_id, msg, graph, arena, directory, origin_ns, check,
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

/// Arena capacity estimate from the graph: one record per staged
/// initial value plus one per task output write and one index record
/// per attempt (records are never freed), each at the datum's
/// registered size plus framing, with 2x headroom for kernels
/// emitting denser blocks than registered and a 1 MiB floor. The
/// per-attempt terms are scaled by 1 + max_retries: every retry of a
/// crashed or failed attempt re-stages its outputs into fresh
/// records, so an arena sized for exactly one attempt per task would
/// exhaust during the recovery the retry budget promises.
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

bool MultiProcExecutor::Supported() { return true; }

Result<RunReport> MultiProcExecutor::Execute(TaskGraph& graph,
                                             const RunContext& ctx) {
  TB_RETURN_IF_ERROR(options_.Validate());
  TB_RETURN_IF_ERROR(graph.Validate());
  const int64_t total = graph.num_tasks();
  const int64_t num_data = graph.num_data();
  for (TaskId t = 0; t < total; ++t) {
    if (graph.task(t).spec.kernel == nullptr) {
      return Status::FailedPrecondition(StrFormat(
          "task %lld (%s) has no kernel; simulation-only graphs cannot "
          "run on the multi-process executor",
          static_cast<long long>(t), graph.task(t).spec.type.c_str()));
    }
  }

  const int caller_threads = SettledProcessThreads();
  if (caller_threads > 1) {
    return Status::FailedPrecondition(StrFormat(
        "MultiProcExecutor::Execute must be called from a single-threaded "
        "process (found %d threads): workers are forked without exec, so "
        "locks held by other threads at fork time stay locked forever in "
        "the children; join other threads before running (see "
        "docs/SCALE_OUT.md; resident services should use --executor="
        "threads or sim instead)",
        caller_threads));
  }

  const int num_workers = options_.num_procs;
  const hw::Topology& topo = hw::DetectTopology();
  std::vector<int> worker_domain(static_cast<size_t>(num_workers), 0);
  for (int w = 0; w < num_workers; ++w) {
    worker_domain[static_cast<size_t>(w)] =
        topo.domain_of_worker(w, num_workers);
  }

  // ----------------------------------------------------------------
  // Shared-memory data plane: the block arena plus a control segment
  // holding the per-worker rings and the block directory. Everything
  // is mapped before fork so all processes share the pages at the
  // same addresses.
  // ----------------------------------------------------------------
  const uint64_t arena_bytes =
      options_.shm_arena_bytes > 0
          ? options_.shm_arena_bytes
          : EstimateArenaBytes(graph, options_.max_retries);
  TB_ASSIGN_OR_RETURN(storage::ShmArena arena,
                      storage::ShmArena::Create("arena", arena_bytes));

  const bool use_cache = options_.block_cache;
  const uint64_t cache_bytes =
      use_cache ? storage::kDefaultBlockCacheBytes : 0;

  const uint64_t header_off = 0;
  const uint64_t channels_off = AlignUp64(header_off + sizeof(ControlHeader));
  const uint64_t directory_off =
      AlignUp64(channels_off + static_cast<uint64_t>(num_workers) *
                                   sizeof(WorkerChannel));
  const uint64_t cache_stats_off =
      AlignUp64(directory_off +
                static_cast<uint64_t>(num_data) * sizeof(std::atomic<uint64_t>));
  const uint64_t control_bytes =
      cache_stats_off +
      static_cast<uint64_t>(num_workers) * sizeof(CacheStatsSlot);
  TB_ASSIGN_OR_RETURN(storage::ShmSegment control,
                      storage::ShmSegment::Create("ctl", control_bytes));
  auto* header = new (control.base() + header_off) ControlHeader();
  auto* channels =
      reinterpret_cast<WorkerChannel*>(control.base() + channels_off);
  for (int w = 0; w < num_workers; ++w) new (&channels[w]) WorkerChannel();
  auto* directory =
      reinterpret_cast<std::atomic<uint64_t>*>(control.base() + directory_off);
  for (DataId d = 0; d < num_data; ++d) {
    new (&directory[d]) std::atomic<uint64_t>(0);
  }
  auto* cache_stats =
      reinterpret_cast<CacheStatsSlot*>(control.base() + cache_stats_off);
  for (int w = 0; w < num_workers; ++w) new (&cache_stats[w]) CacheStatsSlot();

  // Stage and publish initial values (coordinator-side, pre-fork, so
  // the publications are trivially visible to every worker). The
  // directory stores offset+1 so 0 keeps meaning "never written".
  // initial_tag remembers each publication: records are never reused,
  // so a slot still holding it after the run was never rewritten.
  std::vector<uint64_t> initial_tag(static_cast<size_t>(num_data), 0);
  for (DataId d = 0; d < num_data; ++d) {
    const DataEntry& entry = graph.data(d);
    if (!entry.value.has_value()) continue;
    TB_ASSIGN_OR_RETURN(const uint64_t offset,
                        StageBlock(arena, *entry.value));
    initial_tag[static_cast<size_t>(d)] = offset + 1;
    directory[d].store(offset + 1, std::memory_order_release);
  }

  header->origin_ns = NowNs();

  // ----------------------------------------------------------------
  // Fork the workers. Kernels (std::function) and the graph ride into
  // the children via copy-on-write; flush stdio first so buffered
  // output is not duplicated into every child.
  // ----------------------------------------------------------------
  std::fflush(stdout);
  std::fflush(stderr);
  std::vector<pid_t> pids(static_cast<size_t>(num_workers), -1);
  // Workers pin to their NUMA domain's CPUs on multi-domain hosts.
  const bool pin = topo.num_domains() > 1;
  const pid_t coordinator = getpid();
  for (int w = 0; w < num_workers; ++w) {
    const pid_t pid = fork();
    if (pid == 0) {
      const std::vector<int> cpus =
          pin ? topo.domains[static_cast<size_t>(
                               worker_domain[static_cast<size_t>(w)])].cpus
              : std::vector<int>{};
      WorkerMain(w, coordinator, graph, arena, header, &channels[w],
                 directory, cpus, options_.check_invariants, cache_bytes,
                 &cache_stats[w]);
    }
    if (pid < 0) {
      header->shutdown.store(1, std::memory_order_release);
      for (int k = 0; k < w; ++k) {
        kill(pids[static_cast<size_t>(k)], SIGKILL);
        waitpid(pids[static_cast<size_t>(k)], nullptr, 0);
      }
      return Status::Internal(
          StrFormat("fork of worker %d failed: %s", w, std::strerror(errno)));
    }
    pids[static_cast<size_t>(w)] = pid;
  }

  // ----------------------------------------------------------------
  // Coordinator loop: dependency counting, topology-aware dispatch,
  // completion draining, liveness. Runs entirely in this thread; no
  // block bytes ever pass through here.
  // ----------------------------------------------------------------
  const int64_t origin_ns = header->origin_ns;
  std::vector<int> remaining(static_cast<size_t>(total), 0);
  std::deque<std::pair<TaskId, int>> ready;  // (task, attempt), FIFO
  struct Delayed {
    double when = 0;
    TaskId task = -1;
    int attempt = 1;
  };
  std::vector<Delayed> delayed;  // retry backoff queue
  std::vector<char> completed(static_cast<size_t>(total), 0);
  std::vector<TaskRecord> records(static_cast<size_t>(total));
  std::vector<TaskAttempt> attempts;
  int64_t retries = 0;
  int64_t dead_workers = 0;
  int64_t num_completed = 0;
  std::vector<int> inflight(static_cast<size_t>(num_workers), 0);
  std::vector<char> alive(static_cast<size_t>(num_workers), 1);
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

  // Places one ready task: prefer the least-loaded worker in the
  // domain owning most of the task's input bytes; a remote worker
  // wins only when strictly less loaded (2x inflight + 1 domain
  // penalty), which is the process-level version of the thread pool's
  // domain-biased steal order.
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
    TaskMsg msg;
    msg.task = t;
    msg.attempt = attempt;
    msg.epoch = inval_epoch;
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
    if (completed[static_cast<size_t>(msg.task)]) return;  // stale duplicate
    if (msg.code == 0) {
      // Publish the attempt's staged outputs. Doing this here — not
      // in the worker — makes publication atomic with completion:
      // either the coordinator consumed the completion (outputs
      // visible, task done, never re-run) or it did not (directory
      // untouched, a retry re-reads pre-attempt values). The stale
      // check above also keeps a slower duplicate attempt from
      // overwriting versions successors already read.
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
      completed[static_cast<size_t>(msg.task)] = 1;
      ++num_completed;
      const Task& task = graph.task(msg.task);
      TaskRecord& rec = records[static_cast<size_t>(msg.task)];
      rec.task = msg.task;
      rec.type = task.spec.type;
      rec.level = task.level;
      rec.processor = Processor::kCpu;
      rec.node = msg.worker;
      rec.slot = 0;  // workers are single-threaded: one slot each
      rec.stages = perf::StageTimes{};
      rec.stages.deserialize = msg.deserialize_s;
      rec.stages.parallel_fraction = msg.compute_s;
      rec.stages.serialize = msg.serialize_s;
      rec.start = msg.start;
      rec.end = msg.end;
      rec.attempt = msg.attempt;
      for (const Param& p : task.spec.params) {
        if (p.dir != Dir::kIn) {
          producer_domain[static_cast<size_t>(p.data)] =
              worker_domain[static_cast<size_t>(msg.worker)];
        }
      }
      if (options_.max_retries > 0) {
        attempts.push_back(TaskAttempt{msg.task, msg.attempt, msg.worker,
                                       Processor::kCpu, msg.start, msg.end,
                                       AttemptOutcome::kCompleted});
      }
      for (TaskId succ : task.successors) {
        if (--remaining[static_cast<size_t>(succ)] == 0) {
          ready.emplace_back(succ, 1);
        }
      }
      return;
    }
    // Task failure inside a live worker. Fatal failures end the run:
    // code 2 is arena exhaustion (note that every retry re-stages its
    // outputs, so heavy retrying needs extra arena headroom), code 3
    // is an invariant violation the worker detected.
    if (msg.code >= 2 || msg.attempt > options_.max_retries) {
      fail_run(Status::Internal(msg.error).WithContext(StrFormat(
          msg.code == 2
              ? "task %lld attempt %d on worker %d (each retry re-stages "
                "its outputs; raise RunOptions::shm_arena_bytes when "
                "retrying under memory pressure)"
              : "task %lld attempt %d on worker %d",
          static_cast<long long>(msg.task), msg.attempt, msg.worker)));
      return;
    }
    ++retries;
    if (options_.max_retries > 0) {
      attempts.push_back(TaskAttempt{msg.task, msg.attempt, msg.worker,
                                     Processor::kCpu, msg.start, msg.end,
                                     AttemptOutcome::kFailed});
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
        if (completed[static_cast<size_t>(task)]) continue;
        if (options_.max_retries > 0) {
          attempts.push_back(TaskAttempt{task, attempt, w, Processor::kCpu, 0,
                                         now, AttemptOutcome::kNodeLost});
        }
        if (attempt > options_.max_retries) {
          fail_run(Status::Internal(StrFormat(
              "task %lld lost with worker %d (attempt %d); retry budget "
              "exhausted",
              static_cast<long long>(task), w, attempt)));
          return;
        }
        ++retries;
        delayed.push_back(
            Delayed{now + options_.RetryDelay(attempt), task, attempt + 1});
      }
    }
    if (!failed && num_completed < total &&
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
  while (!failed && num_completed < total) {
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
    if (!header->completions.Wait(completions_pending, slice)) {
      check_liveness();
    }
  }

  // Shut the plane down: workers exit once their inbox drains and the
  // flag is up (the ring wakes parked ones); SIGKILL is the backstop
  // for workers stuck in a kernel after a failed run.
  header->shutdown.store(1, std::memory_order_release);
  for (int w = 0; w < num_workers; ++w) channels[w].inbox_bell.Ring();
  const int64_t reap_deadline_ns = NowNs() + 5'000'000'000LL;
  for (int w = 0; w < num_workers; ++w) {
    if (!alive[static_cast<size_t>(w)]) continue;
    for (;;) {
      const pid_t r = waitpid(pids[static_cast<size_t>(w)], nullptr, WNOHANG);
      if (r == pids[static_cast<size_t>(w)]) break;
      // ECHILD + pid gone: auto-reaped (embedder ignores SIGCHLD).
      if (r < 0 && kill(pids[static_cast<size_t>(w)], 0) != 0) break;
      if (NowNs() > reap_deadline_ns) {
        kill(pids[static_cast<size_t>(w)], SIGKILL);
        waitpid(pids[static_cast<size_t>(w)], nullptr, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }

  if (failed) return failure;

  // Persist the values the run wrote onto the graph entries (the
  // arena unmaps when this function returns). A slot still holding its
  // initial tag was never rewritten, and the graph already holds those
  // exact bytes.
  for (DataId d = 0; d < num_data; ++d) {
    const uint64_t tag = directory[d].load(std::memory_order_acquire);
    if (tag == initial_tag[static_cast<size_t>(d)]) continue;
    TB_ASSIGN_OR_RETURN(graph.mutable_data(d).value, ReadBlockAt(arena, tag));
  }

  double makespan = 0;
  for (const TaskRecord& rec : records) {
    makespan = std::max(makespan, rec.end);
  }

  // Every timestamp shares the CLOCK_MONOTONIC origin written into the
  // control header, so the busy-time bound applies.
  if (options_.check_invariants) {
    TB_RETURN_IF_ERROR(CheckBusyTimeBound(records, num_workers));
  }

  if (options_.metrics != nullptr) {
    obs::MetricsRegistry& registry = *options_.metrics;
    registry.gauge("pool.procs")->Set(num_workers);
    registry.gauge("pool.domains")->Set(topo.num_domains());
    if (retries > 0) registry.counter("pool.retries")->Add(retries);
    if (dead_workers > 0) {
      registry.counter("pool.worker_crashes")->Add(dead_workers);
    }
    if (use_cache) {
      // Workers published their last stats snapshot into the shared
      // control segment after each task; sum them here (same names as
      // the thread pool's cache counters, so dashboards line up).
      int64_t hits = 0, misses = 0, evictions = 0, invalidations = 0;
      uint64_t peak = 0;
      for (int w = 0; w < num_workers; ++w) {
        hits += cache_stats[w].hits.load(std::memory_order_relaxed);
        misses += cache_stats[w].misses.load(std::memory_order_relaxed);
        evictions += cache_stats[w].evictions.load(std::memory_order_relaxed);
        invalidations +=
            cache_stats[w].invalidations.load(std::memory_order_relaxed);
        peak = std::max(
            peak, cache_stats[w].peak_bytes.load(std::memory_order_relaxed));
      }
      registry.counter("cache.hits")->Add(hits);
      registry.counter("cache.misses")->Add(misses);
      registry.counter("cache.evictions")->Add(evictions);
      registry.counter("cache.invalidations")->Add(invalidations);
      registry.gauge("cache.peak_bytes")->SetMax(static_cast<double>(peak));
    }
    for (const TaskRecord& rec : records) {
      registry
          .histogram(StrFormat("task.%s.deserialize_s", rec.type.c_str()))
          ->Record(rec.stages.deserialize);
      registry.histogram(StrFormat("task.%s.compute_s", rec.type.c_str()))
          ->Record(rec.stages.parallel_fraction);
      registry.histogram(StrFormat("task.%s.serialize_s", rec.type.c_str()))
          ->Record(rec.stages.serialize);
      registry.histogram(StrFormat("task.%s.duration_s", rec.type.c_str()))
          ->Record(rec.duration());
    }
  }

  RunReport report;
  report.records = std::move(records);
  report.makespan = makespan;
  report.faults.retries = retries;
  report.faults.dead_nodes = dead_workers;
  report.attempts = std::move(attempts);
  return report;
}

#endif  // !defined(_WIN32)

}  // namespace taskbench::runtime
