#include "storage/block_storage.h"

#include <algorithm>
#include <filesystem>
#include <fstream>

#include "common/strings.h"
#include "hw/topology.h"

namespace taskbench::storage {

namespace fs = std::filesystem;

namespace {
size_t NextPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}
}  // namespace

size_t InMemoryStorage::DefaultShards() {
  const int cores = hw::DetectTopology().total_cpus();
  const size_t want = NextPow2(static_cast<size_t>(cores) * 4);
  return std::min<size_t>(256, std::max<size_t>(16, want));
}

InMemoryStorage::InMemoryStorage() : shards_(DefaultShards()) {}

Status BlockStorage::Put(const std::string& key, const uint8_t* data,
                         size_t size) {
  return Put(key, std::vector<uint8_t>(data, data + size));
}

Status BlockStorage::GetInto(const std::string& key,
                             std::vector<uint8_t>* out) const {
  TB_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes, Get(key));
  *out = std::move(bytes);
  return Status::OK();
}

Status InMemoryStorage::Put(const std::string& key,
                            std::vector<uint8_t> bytes) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.objects.find(key);
  if (it != shard.objects.end()) shard.bytes -= it->second.size();
  shard.bytes += bytes.size();
  shard.objects[key] = std::move(bytes);
  return Status::OK();
}

Status InMemoryStorage::Put(const std::string& key, const uint8_t* data,
                            size_t size) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  std::vector<uint8_t>& slot = shard.objects[key];
  shard.bytes += size;
  shard.bytes -= slot.size();
  slot.assign(data, data + size);  // reuses the old value's capacity
  return Status::OK();
}

Result<std::vector<uint8_t>> InMemoryStorage::Get(
    const std::string& key) const {
  const Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.objects.find(key);
  if (it == shard.objects.end()) {
    return Status::NotFound(StrFormat("no object under key '%s'", key.c_str()));
  }
  return it->second;
}

Status InMemoryStorage::GetInto(const std::string& key,
                                std::vector<uint8_t>* out) const {
  const Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.objects.find(key);
  if (it == shard.objects.end()) {
    return Status::NotFound(StrFormat("no object under key '%s'", key.c_str()));
  }
  out->assign(it->second.begin(), it->second.end());
  return Status::OK();
}

Status InMemoryStorage::Delete(const std::string& key) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.objects.find(key);
  if (it != shard.objects.end()) {
    shard.bytes -= it->second.size();
    shard.objects.erase(it);
  }
  return Status::OK();
}

bool InMemoryStorage::Contains(const std::string& key) const {
  const Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  return shard.objects.count(key) > 0;
}

size_t InMemoryStorage::Size() const {
  size_t count = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    count += shard.objects.size();
  }
  return count;
}

uint64_t InMemoryStorage::TotalBytes() const {
  uint64_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.bytes;
  }
  return total;
}

FileStorage::FileStorage(std::string root_dir)
    : root_dir_(std::move(root_dir)) {}

Result<std::unique_ptr<FileStorage>> FileStorage::Open(
    const std::string& root_dir) {
  std::error_code ec;
  fs::create_directories(root_dir, ec);
  if (ec) {
    return Status::Internal(StrFormat("cannot create storage dir '%s': %s",
                                      root_dir.c_str(),
                                      ec.message().c_str()));
  }
  return std::unique_ptr<FileStorage>(new FileStorage(root_dir));
}

std::string FileStorage::PathFor(const std::string& key) const {
  std::string safe;
  safe.reserve(key.size());
  for (char c : key) {
    safe += (std::isalnum(static_cast<unsigned char>(c)) || c == '-' ||
             c == '_' || c == '.')
                ? c
                : '_';
  }
  return root_dir_ + "/" + safe + ".blk";
}

Status FileStorage::Put(const std::string& key, std::vector<uint8_t> bytes) {
  return Put(key, bytes.data(), bytes.size());
}

Status FileStorage::Put(const std::string& key, const uint8_t* data,
                        size_t size) {
  const std::string path = PathFor(key);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::Internal(StrFormat("cannot open '%s' for write",
                                      path.c_str()));
  }
  out.write(reinterpret_cast<const char*>(data),
            static_cast<std::streamsize>(size));
  if (!out) {
    return Status::Internal(StrFormat("short write to '%s'", path.c_str()));
  }
  return Status::OK();
}

Result<std::vector<uint8_t>> FileStorage::Get(const std::string& key) const {
  std::vector<uint8_t> bytes;
  TB_RETURN_IF_ERROR(GetInto(key, &bytes));
  return bytes;
}

Status FileStorage::GetInto(const std::string& key,
                            std::vector<uint8_t>* out) const {
  const std::string path = PathFor(key);
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) {
    return Status::NotFound(StrFormat("no object under key '%s'", key.c_str()));
  }
  const std::streamsize size = in.tellg();
  in.seekg(0);
  out->resize(static_cast<size_t>(size));
  in.read(reinterpret_cast<char*>(out->data()), size);
  if (!in) {
    return Status::Internal(StrFormat("short read from '%s'", path.c_str()));
  }
  return Status::OK();
}

Status FileStorage::Delete(const std::string& key) {
  std::error_code ec;
  fs::remove(PathFor(key), ec);  // absent file is fine (idempotent)
  return Status::OK();
}

bool FileStorage::Contains(const std::string& key) const {
  std::error_code ec;
  return fs::exists(PathFor(key), ec);
}

size_t FileStorage::Size() const {
  std::error_code ec;
  size_t count = 0;
  for (auto it = fs::directory_iterator(root_dir_, ec);
       !ec && it != fs::directory_iterator(); it.increment(ec)) {
    if (it->path().extension() == ".blk") ++count;
  }
  return count;
}

uint64_t FileStorage::TotalBytes() const {
  std::error_code ec;
  uint64_t total = 0;
  for (auto it = fs::directory_iterator(root_dir_, ec);
       !ec && it != fs::directory_iterator(); it.increment(ec)) {
    if (it->path().extension() == ".blk") {
      total += fs::file_size(it->path(), ec);
    }
  }
  return total;
}

}  // namespace taskbench::storage
