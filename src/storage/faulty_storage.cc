#include "storage/faulty_storage.h"

#include <vector>

namespace taskbench::storage {

namespace {

/// One fault-budget draw: trigger countdown, then bounded failures.
bool DrawFault(std::atomic<int>& ops_until_failure,
               std::atomic<int>& failures_remaining) {
  return ops_until_failure.fetch_sub(1) <= 0 &&
         failures_remaining.fetch_sub(1) > 0;
}

}  // namespace

Status FaultyStorage::Write(const std::string& key, size_t size,
                            const FillFn& fill) {
  if (DrawFault(ops_until_put_failure, put_failures_remaining)) {
    return Status::Internal("injected put failure");
  }
  return inner_->Write(key, size, fill);
}

Status FaultyStorage::Read(const std::string& key, const ReadFn& fn) const {
  if (DrawFault(ops_until_get_failure, get_failures_remaining)) {
    return Status::Internal("injected get failure");
  }
  if (!corrupt_reads.load()) return inner_->Read(key, fn);
  return inner_->Read(key, [&fn](const uint8_t* data, size_t size) {
    std::vector<uint8_t> copy(data, data + size);
    if (!copy.empty()) copy[copy.size() / 2] ^= 0xff;
    return fn(copy.data(), copy.size());
  });
}

Status FaultyStorage::Delete(const std::string& key) {
  return inner_->Delete(key);
}

bool FaultyStorage::Contains(const std::string& key) const {
  return inner_->Contains(key);
}

size_t FaultyStorage::Size() const { return inner_->Size(); }

uint64_t FaultyStorage::TotalBytes() const { return inner_->TotalBytes(); }

}  // namespace taskbench::storage
