#ifndef TASKBENCH_STORAGE_BLOCK_STORAGE_H_
#define TASKBENCH_STORAGE_BLOCK_STORAGE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
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
/// Two access styles exist for the hot paths:
///  - the owning style (`Put(key, vector)` / `Get(key)`), which every
///    backend must implement, and
///  - the buffer-reusing style (`Put(key, ptr, size)` /
///    `GetInto(key, &buf)`), which defaults to the owning style but
///    lets backends (and callers holding pooled scratch buffers)
///    avoid allocating a fresh byte vector per operation.
class BlockStorage {
 public:
  virtual ~BlockStorage() = default;

  /// Stores `bytes` under `key`, replacing any previous value.
  virtual Status Put(const std::string& key, std::vector<uint8_t> bytes) = 0;

  /// Retrieves the value under `key`; NotFound when absent.
  virtual Result<std::vector<uint8_t>> Get(const std::string& key) const = 0;

  /// Stores `size` bytes at `data` under `key`. The caller keeps
  /// ownership of the buffer (it may be pooled scratch); backends
  /// overriding this should reuse the capacity of any value already
  /// stored under `key`. Default: copies into a vector and calls the
  /// owning Put, so wrappers stay fault-transparent.
  virtual Status Put(const std::string& key, const uint8_t* data, size_t size);

  /// Reads the value under `key` into `*out`, reusing its capacity.
  /// NotFound when absent. Default: calls the owning Get and moves.
  virtual Status GetInto(const std::string& key,
                         std::vector<uint8_t>* out) const;

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
/// Sharded: keys hash onto independent (map, mutex) pairs so
/// concurrent Put/Get streams from the thread-pool workers contend
/// only when they land on the same stripe, not on one global lock.
/// The shard count derives from the detected core count, so wider
/// hosts automatically get wider striping.
class InMemoryStorage final : public BlockStorage {
 public:
  InMemoryStorage();

  /// Shard count derived from the host topology: enough stripes that
  /// every core can stream blocks with little collision probability,
  /// clamped to [16, 256] (16 is the old compile-time constant, so
  /// small hosts behave exactly as before).
  static size_t DefaultShards();

  Status Put(const std::string& key, std::vector<uint8_t> bytes) override;
  Result<std::vector<uint8_t>> Get(const std::string& key) const override;
  Status Put(const std::string& key, const uint8_t* data,
             size_t size) override;
  Status GetInto(const std::string& key,
                 std::vector<uint8_t>* out) const override;
  Status Delete(const std::string& key) override;
  bool Contains(const std::string& key) const override;
  size_t Size() const override;
  uint64_t TotalBytes() const override;

 private:
  struct Shard {
    mutable std::mutex mu;
    std::map<std::string, std::vector<uint8_t>> objects;
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

  Status Put(const std::string& key, std::vector<uint8_t> bytes) override;
  Result<std::vector<uint8_t>> Get(const std::string& key) const override;
  Status Put(const std::string& key, const uint8_t* data,
             size_t size) override;
  Status GetInto(const std::string& key,
                 std::vector<uint8_t>* out) const override;
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
