#ifndef TASKBENCH_STORAGE_BLOCK_CACHE_H_
#define TASKBENCH_STORAGE_BLOCK_CACHE_H_

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <unordered_map>

#include "data/matrix.h"

namespace taskbench::storage {

/// Byte budget of each worker's cache (and of the thread pool's
/// post-run fetch cache).
inline constexpr uint64_t kDefaultBlockCacheBytes = 64ull << 20;  // 64 MiB

/// A bounded, byte-budgeted, *version-keyed* cache of deserialized
/// blocks. One instance per worker (single-threaded by design — no
/// locks on the hot path); the executor supplies the version it
/// expects for every lookup and the cache only ever answers with an
/// entry stored under exactly that version. Versions come from the
/// data-plane's own commit bookkeeping (writer ordinals on the thread
/// pool, immutable shared-memory directory tags on the multi-process
/// plane), so an INOUT rewrite or a crash-retry republication changes
/// the expected version and makes every stale entry unreachable — a
/// wrong-version hit is impossible by construction, not by protocol
/// discipline.
///
/// Hits hand out shared-ownership handles (`shared_ptr<const Matrix>`)
/// so no copy happens on the read path; eviction only drops the
/// cache's reference, never invalidates a handle a task still holds.
/// Entries are evicted LRU-first once the byte budget is exceeded.
/// A single value larger than the whole budget is not admitted.
class BlockCache {
 public:
  using Key = uint64_t;
  using Version = uint64_t;
  using ValuePtr = std::shared_ptr<const data::Matrix>;

  struct Stats {
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t evictions = 0;      // capacity evictions (LRU)
    int64_t invalidations = 0;  // explicit Invalidate/EvictStale drops
    int64_t inserts = 0;
    uint64_t bytes = 0;       // currently resident payload bytes
    uint64_t peak_bytes = 0;  // high-water mark of `bytes`
  };

  explicit BlockCache(uint64_t budget_bytes) : budget_(budget_bytes) {}

  BlockCache(const BlockCache&) = delete;
  BlockCache& operator=(const BlockCache&) = delete;

  /// Returns the cached value iff `key` is present *and* was stored
  /// under exactly `version`; a version mismatch counts as a miss and
  /// leaves the entry in place (the resident version may still be the
  /// expected one for a concurrent reader at another ordinal — it
  /// stays until capacity or an explicit invalidation drops it).
  ValuePtr Get(Key key, Version version);

  /// Inserts (or overwrites) `key` at `version`. Values at or above
  /// the whole budget are not admitted (returns the pointer either
  /// way so callers can keep using it).
  ValuePtr Put(Key key, Version version, ValuePtr value);
  /// Convenience overload: takes ownership of a freshly built matrix.
  ValuePtr Put(Key key, Version version, data::Matrix&& value) {
    return Put(key, version,
               std::make_shared<const data::Matrix>(std::move(value)));
  }

  /// Drops `key` if present. Returns true when something was dropped.
  bool Invalidate(Key key);

  /// Drops every entry whose stored version no longer matches
  /// `current_version(key)` — the bulk-invalidation path the
  /// multi-process workers run when the coordinator's invalidation
  /// epoch advances. Returns the number of entries dropped.
  int64_t EvictStale(
      const std::function<Version(Key)>& current_version);

  /// Drops everything (budget and stats except counters retained).
  void Clear();

  const Stats& stats() const { return stats_; }
  uint64_t budget_bytes() const { return budget_; }
  int64_t entry_count() const { return static_cast<int64_t>(map_.size()); }

 private:
  struct Entry {
    Key key;
    Version version;
    ValuePtr value;
    uint64_t bytes;
  };
  using LruList = std::list<Entry>;

  void EvictLruUntilFits(uint64_t incoming_bytes);
  void DropEntry(LruList::iterator it, bool capacity_eviction);

  uint64_t budget_;
  LruList lru_;  // front = most recently used
  std::unordered_map<Key, LruList::iterator> map_;
  Stats stats_;
};

}  // namespace taskbench::storage

#endif  // TASKBENCH_STORAGE_BLOCK_CACHE_H_
