#include "storage/shm_arena.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <new>

#include "common/strings.h"

#if !defined(_WIN32)
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace taskbench::storage {

#if defined(_WIN32)

Result<ShmSegment> ShmSegment::Create(const std::string&, uint64_t) {
  return Status::Unimplemented("POSIX shared memory unavailable");
}
ShmSegment::~ShmSegment() = default;
ShmSegment::ShmSegment(ShmSegment&& other) noexcept { (void)other; }
ShmSegment& ShmSegment::operator=(ShmSegment&& other) noexcept {
  (void)other;
  return *this;
}

#else

Result<ShmSegment> ShmSegment::Create(const std::string& name_hint,
                                      uint64_t bytes) {
  if (bytes == 0) {
    return Status::InvalidArgument("shm segment needs a non-zero size");
  }
  // O_EXCL retry loop: the name only has to be unique for the instant
  // between shm_open and shm_unlink.
  int fd = -1;
  for (int attempt = 0; attempt < 64 && fd < 0; ++attempt) {
    const std::string name =
        StrFormat("/tb-%s-%d-%d", name_hint.c_str(),
                  static_cast<int>(::getpid()), attempt);
    fd = ::shm_open(name.c_str(), O_CREAT | O_EXCL | O_RDWR, 0600);
    if (fd >= 0) {
      ::shm_unlink(name.c_str());
      break;
    }
    if (errno != EEXIST) {
      return Status::Internal(StrFormat("shm_open(%s) failed: %s",
                                        name.c_str(), std::strerror(errno)));
    }
  }
  if (fd < 0) {
    return Status::Internal("could not find a free shm object name");
  }
  if (::ftruncate(fd, static_cast<off_t>(bytes)) != 0) {
    const int err = errno;
    ::close(fd);
    return Status::Internal(StrFormat("ftruncate(%llu) on shm failed: %s",
                                      static_cast<unsigned long long>(bytes),
                                      std::strerror(err)));
  }
  void* base = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED,
                      fd, 0);
  ::close(fd);  // the mapping keeps the object alive
  if (base == MAP_FAILED) {
    return Status::Internal(StrFormat("mmap(%llu shm bytes) failed: %s",
                                      static_cast<unsigned long long>(bytes),
                                      std::strerror(errno)));
  }
  ShmSegment segment;
  segment.base_ = base;
  segment.bytes_ = bytes;
  return segment;
}

ShmSegment::~ShmSegment() {
  if (base_ != nullptr) ::munmap(base_, bytes_);
}

ShmSegment::ShmSegment(ShmSegment&& other) noexcept
    : base_(other.base_), bytes_(other.bytes_) {
  other.base_ = nullptr;
  other.bytes_ = 0;
}

ShmSegment& ShmSegment::operator=(ShmSegment&& other) noexcept {
  if (this != &other) {
    if (base_ != nullptr) ::munmap(base_, bytes_);
    base_ = other.base_;
    bytes_ = other.bytes_;
    other.base_ = nullptr;
    other.bytes_ = 0;
  }
  return *this;
}

#endif  // !_WIN32

namespace {
constexpr uint64_t kAlign = 64;

uint64_t AlignUp(uint64_t n) { return (n + (kAlign - 1)) & ~(kAlign - 1); }
}  // namespace

Result<ShmArena> ShmArena::Create(const std::string& name_hint,
                                  uint64_t capacity) {
  const uint64_t header_bytes = AlignUp(sizeof(Header));
  TB_ASSIGN_OR_RETURN(ShmSegment segment,
                      ShmSegment::Create(name_hint,
                                         header_bytes + AlignUp(capacity)));
  ShmArena arena;
  arena.segment_ = std::move(segment);
  Header* header = new (arena.segment_.base()) Header;
  header->next.store(header_bytes, std::memory_order_relaxed);
  header->capacity = arena.segment_.bytes();
  return arena;
}

Result<uint64_t> ShmArena::Allocate(uint64_t bytes) {
  Header* h = header();
  const uint64_t need = AlignUp(bytes);
  // CAS loop instead of fetch_add + back-out: the cursor only ever
  // holds committed reservations, so a failing large allocation can
  // never transiently inflate it and make a concurrent smaller
  // allocation that would fit fail spuriously (workers treat
  // ResourceExhausted as fatal, so a spurious one kills the run).
  uint64_t offset = h->next.load(std::memory_order_relaxed);
  for (;;) {
    if (offset + need > h->capacity || offset + need < offset) {
      const uint64_t usable = h->capacity - AlignUp(sizeof(Header));
      if (need > usable) {
        return Status::ResourceExhausted(StrFormat(
            "block of %llu bytes exceeds the whole shm arena (%llu usable "
            "bytes); raise RunOptions::shm_arena_bytes",
            static_cast<unsigned long long>(bytes),
            static_cast<unsigned long long>(usable)));
      }
      return Status::ResourceExhausted(StrFormat(
          "shm arena exhausted: %llu of %llu bytes used, %llu more "
          "requested; raise RunOptions::shm_arena_bytes",
          static_cast<unsigned long long>(offset),
          static_cast<unsigned long long>(h->capacity),
          static_cast<unsigned long long>(bytes)));
    }
    if (h->next.compare_exchange_weak(offset, offset + need,
                                      std::memory_order_relaxed)) {
      return offset;
    }
  }
}

void ShmArena::Reset(uint64_t capacity) {
  const uint64_t header_bytes = AlignUp(sizeof(Header));
  Header* h = header();
  h->capacity = std::min(header_bytes + AlignUp(capacity), segment_.bytes());
  h->next.store(header_bytes, std::memory_order_relaxed);
}

uint64_t ShmArena::capacity() const { return header()->capacity; }

uint64_t ShmArena::max_capacity() const {
  return segment_.bytes() - AlignUp(sizeof(Header));
}

uint64_t ShmArena::used() const {
  return header()->next.load(std::memory_order_relaxed);
}

}  // namespace taskbench::storage
