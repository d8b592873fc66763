#ifndef TASKBENCH_STORAGE_BLOCK_STORAGE_H_
#define TASKBENCH_STORAGE_BLOCK_STORAGE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace taskbench::storage {

/// Key/value storage for serialized blocks — the pluggable "storage
/// architecture" component (RocksDB-style interface). Implementations
/// must be thread-safe: the thread-pool executor issues concurrent
/// reads and writes, mirroring the concurrent (de)serialization
/// streams the paper measures.
///
/// Every backend implements one data pair, which hands a callback the
/// stored bytes themselves, so the hot paths verify or serialize a
/// block in place with no staging buffer: `Read(key, fn)` and
/// `Write(key, size, fill)`. `Get(key)` and `Put(key, vector)` are
/// owning conveniences built on that pair.
class BlockStorage {
 public:
  /// Called on the bytes stored under a key; its status is Read's.
  using ReadFn = std::function<Status(const uint8_t* data, size_t size)>;
  /// Called with `size` writable bytes to fill completely.
  using FillFn = std::function<void(uint8_t* out)>;

  virtual ~BlockStorage() = default;

  /// Runs `fn` on the value under `key` and returns its status;
  /// NotFound (and `fn` not run) when absent. `fn` may run under the
  /// backend's lock, so it must not call back into this storage.
  virtual Status Read(const std::string& key, const ReadFn& fn) const = 0;

  /// Stores a `size`-byte value under `key`, replacing any previous
  /// value, whose bytes `fill` writes. `fill` may write straight into
  /// the stored slot under the backend's lock, so it must not call
  /// back into this storage.
  virtual Status Write(const std::string& key, size_t size,
                       const FillFn& fill) = 0;

  /// Stores `bytes` under `key` (one Write).
  Status Put(const std::string& key, const std::vector<uint8_t>& bytes);

  /// A copy of the value under `key` (one Read); NotFound when absent.
  Result<std::vector<uint8_t>> Get(const std::string& key) const;

  /// Removes `key`. OK even when absent (idempotent).
  virtual Status Delete(const std::string& key) = 0;

  /// True when `key` exists.
  virtual bool Contains(const std::string& key) const = 0;

  /// Number of stored objects.
  virtual size_t Size() const = 0;

  /// Total payload bytes currently stored.
  virtual uint64_t TotalBytes() const = 0;
};

/// Heap-backed storage. Used as the "memory" storage device and as the
/// backing for unit tests.
///
/// Sharded: keys hash onto independent (map, lock) pairs so concurrent
/// streams from the thread-pool workers contend only when they land on
/// the same stripe, not on one global lock. Reads share their stripe's
/// lock, so workers deserializing one shared input do not queue on each
/// other; a write or delete holds it alone. The shard count derives
/// from the detected core count, so wider hosts automatically get
/// wider striping.
class InMemoryStorage final : public BlockStorage {
 public:
  InMemoryStorage();

  /// Shard count derived from the host topology: enough stripes that
  /// every core can stream blocks with little collision probability,
  /// clamped to [16, 256] (16 is the old compile-time constant, so
  /// small hosts behave exactly as before).
  static size_t DefaultShards();

  /// `fn` runs on the stored bytes under the key's shard lock, shared
  /// with other readers.
  Status Read(const std::string& key, const ReadFn& fn) const override;
  /// `fill` writes the key's slot in place under its shard lock, held
  /// alone. The slot keeps its capacity, so rewriting a block allocates
  /// nothing; a new or larger slot is allocated uninitialised, so
  /// `fill` is the only pass over its bytes.
  Status Write(const std::string& key, size_t size,
               const FillFn& fill) override;
  Status Delete(const std::string& key) override;
  bool Contains(const std::string& key) const override;
  size_t Size() const override;
  uint64_t TotalBytes() const override;

 private:
  struct Slot {
    std::unique_ptr<uint8_t[]> data;
    size_t size = 0;
    size_t capacity = 0;
  };
  struct Shard {
    mutable std::shared_mutex mu;
    std::map<std::string, Slot> objects;
    uint64_t bytes = 0;
  };

  Shard& ShardFor(const std::string& key) const {
    return shards_[std::hash<std::string>{}(key) & (shards_.size() - 1)];
  }

  // Sized once at construction, never reallocated (Shard is immovable).
  mutable std::vector<Shard> shards_;
};

/// Filesystem-backed storage: one file per key under a root directory.
/// Keys are sanitized into file names. This is the "disk" storage
/// device of the real execution path.
class FileStorage final : public BlockStorage {
 public:
  /// Creates (or reuses) `root_dir` as the storage directory.
  static Result<std::unique_ptr<FileStorage>> Open(const std::string& root_dir);

  /// Reads the file, then runs `fn` on the copy.
  Status Read(const std::string& key, const ReadFn& fn) const override;
  /// Fills a buffer, then writes it as the file.
  Status Write(const std::string& key, size_t size,
               const FillFn& fill) override;
  Status Delete(const std::string& key) override;
  bool Contains(const std::string& key) const override;
  size_t Size() const override;
  uint64_t TotalBytes() const override;

 private:
  explicit FileStorage(std::string root_dir);
  std::string PathFor(const std::string& key) const;

  std::string root_dir_;
};

}  // namespace taskbench::storage

#endif  // TASKBENCH_STORAGE_BLOCK_STORAGE_H_
