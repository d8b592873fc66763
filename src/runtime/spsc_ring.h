#ifndef TASKBENCH_RUNTIME_SPSC_RING_H_
#define TASKBENCH_RUNTIME_SPSC_RING_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <type_traits>

#if defined(__linux__)
#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cerrno>
#include <ctime>
#else
#include <algorithm>
#include <thread>
#endif

namespace taskbench::runtime {

/// Lock-free single-producer/single-consumer ring for trivially
/// copyable messages — the coordinator↔worker control plane of the
/// multi-process executor. One instance lives in a MAP_SHARED segment
/// per direction per worker: the coordinator produces into a worker's
/// task ring and consumes its completion ring, so every ring has
/// exactly one producer process and one consumer process and needs no
/// locks at all, only an acquire/release pair per transfer.
///
/// head_ and tail_ are free-running 64-bit counters (they never wrap
/// in any realistic run), masked into the slot array on access. The
/// producer owns tail_, the consumer owns head_; each reads the
/// other's counter with acquire semantics so the slot contents it
/// observes are the ones that counter update published.
template <typename T, uint64_t kCapacity>
class SpscRing {
  static_assert(std::is_trivially_copyable_v<T>,
                "ring messages cross process boundaries as raw bytes");
  static_assert(kCapacity > 0 && (kCapacity & (kCapacity - 1)) == 0,
                "capacity must be a power of two");
  static_assert(std::atomic<uint64_t>::is_always_lock_free,
                "cross-process rings need lock-free counters");

 public:
  SpscRing() = default;
  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  /// Producer side. False when the ring is full (the caller keeps the
  /// message and retries; the executor bounds in-flight work below
  /// the capacity so dispatch never actually blocks).
  bool Push(const T& item) {
    const uint64_t tail = tail_.load(std::memory_order_relaxed);
    const uint64_t head = head_.load(std::memory_order_acquire);
    if (tail - head == kCapacity) return false;
    slots_[tail & (kCapacity - 1)] = item;
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side. False when empty.
  bool Pop(T* out) {
    const uint64_t head = head_.load(std::memory_order_relaxed);
    const uint64_t tail = tail_.load(std::memory_order_acquire);
    if (head == tail) return false;
    *out = slots_[head & (kCapacity - 1)];
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Messages currently queued (either side may call; a racing
  /// producer/consumer makes this a snapshot, not a guarantee).
  uint64_t size() const {
    return tail_.load(std::memory_order_acquire) -
           head_.load(std::memory_order_acquire);
  }

  static constexpr uint64_t capacity() { return kCapacity; }

 private:
  alignas(64) std::atomic<uint64_t> head_{0};  ///< consumer cursor
  alignas(64) std::atomic<uint64_t> tail_{0};  ///< producer cursor
  T slots_[kCapacity];
};

/// Wake-on-push for rings in a MAP_SHARED segment: the consumer of an
/// empty ring blocks in the kernel until a producer rings, rather than
/// waking on a timer to poll.
///
/// Handshake. The waiter snapshots seq_, announces itself in
/// sleepers_, re-checks its ring(s) and exit flag, then FUTEX_WAITs on
/// the snapshot. The ringer pushes, bumps seq_ and calls FUTEX_WAKE
/// only when a waiter announced, so ringing a busy peer costs one
/// atomic RMW and no syscall. Announce-then-read-seq against
/// bump-then-read-sleepers, all seq_cst, is a Dekker pair: either the
/// ringer sees the announcement and wakes, or the kernel's compare in
/// FUTEX_WAIT sees the new sequence and returns at once. A push is
/// never slept through.
///
/// The futex ops are shared, not FUTEX_PRIVATE_FLAG: waiter and ringer
/// are different processes (std::atomic::wait uses private futexes and
/// never wakes another process). The words hold no lock, so a process
/// killed mid-handshake wedges nobody; its peer's next wait times out.
///
/// Other POSIX hosts have no futex: Wait sleeps a 100 µs poll interval
/// (capped at the timeout) and reports a timeout, so callers run their
/// timeout checks on every poll.
class alignas(64) Doorbell {
 public:
  Doorbell() = default;
  Doorbell(const Doorbell&) = delete;
  Doorbell& operator=(const Doorbell&) = delete;

  /// Producer side, after the push.
  void Ring() {
    seq_.fetch_add(1, std::memory_order_seq_cst);
    if (sleepers_.load(std::memory_order_seq_cst) > 0) Wake();
  }

  /// Consumer side: blocks until a Ring, the timeout or a signal,
  /// unless `ready()` (re-checked after announcing) already holds.
  /// False only when the whole timeout passed unrung; a true return
  /// may be spurious, so the caller re-checks its rings.
  template <typename Ready>
  bool Wait(Ready&& ready, std::chrono::nanoseconds timeout) {
    const uint32_t seq = seq_.load(std::memory_order_seq_cst);
    sleepers_.fetch_add(1, std::memory_order_seq_cst);
    const bool rung = ready() || Sleep(seq, timeout);
    sleepers_.fetch_sub(1, std::memory_order_seq_cst);
    return rung;
  }

 private:
#if defined(__linux__)
  static_assert(sizeof(std::atomic<uint32_t>) == sizeof(uint32_t) &&
                    std::atomic<uint32_t>::is_always_lock_free,
                "the futex word is the atomic's own storage");

  uint32_t* word() { return reinterpret_cast<uint32_t*>(&seq_); }

  bool Sleep(uint32_t seq, std::chrono::nanoseconds timeout) {
    const int64_t ns = timeout.count() > 0 ? timeout.count() : 0;
    timespec relative{};
    relative.tv_sec = static_cast<time_t>(ns / 1'000'000'000);
    relative.tv_nsec = static_cast<long>(ns % 1'000'000'000);
    if (::syscall(SYS_futex, word(), FUTEX_WAIT, seq, &relative, nullptr,
                  0) == 0) {
      return true;
    }
    return errno != ETIMEDOUT;  // EAGAIN: rung before we slept; EINTR
  }

  void Wake() {
    ::syscall(SYS_futex, word(), FUTEX_WAKE, INT32_MAX, nullptr, nullptr, 0);
  }
#else
  bool Sleep(uint32_t, std::chrono::nanoseconds timeout) {
    std::this_thread::sleep_for(
        std::min<std::chrono::nanoseconds>(timeout,
                                           std::chrono::microseconds(100)));
    return false;
  }

  void Wake() {}
#endif

  std::atomic<uint32_t> seq_{0};      ///< bumped by every Ring
  std::atomic<int32_t> sleepers_{0};  ///< waiters between announce and wake
};

}  // namespace taskbench::runtime

#endif  // TASKBENCH_RUNTIME_SPSC_RING_H_
