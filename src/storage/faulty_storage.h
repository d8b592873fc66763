#ifndef TASKBENCH_STORAGE_FAULTY_STORAGE_H_
#define TASKBENCH_STORAGE_FAULTY_STORAGE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/block_storage.h"

namespace taskbench::storage {

/// Storage wrapper that starts failing after a configurable number of
/// successful operations, optionally heals after a bounded number of
/// injected failures (for exercising retry recovery), or corrupts
/// payloads on read. Thread-safe like every BlockStorage; used by the
/// failure-injection tests and the fault-recovery benchmark.
class FaultyStorage final : public BlockStorage {
 public:
  explicit FaultyStorage(std::shared_ptr<BlockStorage> inner)
      : inner_(std::move(inner)) {}

  // mutable: Read() is const in the interface but consumes fault
  // budget.
  mutable std::atomic<int> ops_until_put_failure{1 << 30};
  mutable std::atomic<int> ops_until_get_failure{1 << 30};
  /// How many failures to inject once triggered before the fault
  /// heals and operations pass through again. The (huge) default
  /// means a triggered fault is effectively permanent.
  mutable std::atomic<int> put_failures_remaining{1 << 30};
  mutable std::atomic<int> get_failures_remaining{1 << 30};
  std::atomic<bool> corrupt_reads{false};

  // Read and Write forward to the inner backend's; each call consumes
  // exactly one op of fault budget, and so does each Get or Put built
  // on them. A corrupting Read hands `fn` a private, corrupted copy:
  // the stored bytes stay intact.
  Status Read(const std::string& key, const ReadFn& fn) const override;
  Status Write(const std::string& key, size_t size,
               const FillFn& fill) override;
  Status Delete(const std::string& key) override;
  bool Contains(const std::string& key) const override;
  size_t Size() const override;
  uint64_t TotalBytes() const override;

 private:
  std::shared_ptr<BlockStorage> inner_;
};

}  // namespace taskbench::storage

#endif  // TASKBENCH_STORAGE_FAULTY_STORAGE_H_
