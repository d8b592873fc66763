#include "storage/block_storage.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <unistd.h>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace taskbench::storage {
namespace {

std::vector<uint8_t> Bytes(std::initializer_list<uint8_t> values) {
  return std::vector<uint8_t>(values);
}

/// Stores `size` bytes of `value` under `key` through Write.
Status WriteFilled(BlockStorage& storage, const std::string& key, size_t size,
                   uint8_t value) {
  return storage.Write(key, size, [size, value](uint8_t* out) {
    std::fill(out, out + size, value);
  });
}

/// The value under `key`, copied out through Read.
Result<std::vector<uint8_t>> ReadCopy(const BlockStorage& storage,
                                      const std::string& key) {
  std::vector<uint8_t> copy;
  TB_RETURN_IF_ERROR(
      storage.Read(key, [&copy](const uint8_t* data, size_t size) {
        copy.assign(data, data + size);
        return Status::OK();
      }));
  return copy;
}

/// Unique scratch directory per fixture instance so parallel ctest
/// processes never collide.
std::filesystem::path FreshDir(const std::string& tag) {
  static std::atomic<int> counter{0};
  const auto dir = std::filesystem::temp_directory_path() /
                   ("tb_" + tag + "_" + std::to_string(::getpid()) + "_" +
                    std::to_string(counter.fetch_add(1)));
  std::filesystem::remove_all(dir);
  return dir;
}

template <typename T>
class BlockStorageTest : public ::testing::Test {
 protected:
  BlockStorageTest() {
    if constexpr (std::is_same_v<T, FileStorage>) {
      dir_ = FreshDir("storage_test");
      auto opened = FileStorage::Open(dir_.string());
      EXPECT_TRUE(opened.ok());
      storage_ = std::move(opened).value();
    } else {
      storage_ = std::make_unique<InMemoryStorage>();
    }
  }
  ~BlockStorageTest() override {
    storage_.reset();
    if (!dir_.empty()) std::filesystem::remove_all(dir_);
  }
  std::filesystem::path dir_;
  std::unique_ptr<BlockStorage> storage_;
};

using Implementations = ::testing::Types<InMemoryStorage, FileStorage>;
TYPED_TEST_SUITE(BlockStorageTest, Implementations);

TYPED_TEST(BlockStorageTest, PutGetRoundTrip) {
  ASSERT_TRUE(this->storage_->Put("k1", Bytes({1, 2, 3})).ok());
  auto got = this->storage_->Get("k1");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, Bytes({1, 2, 3}));
}

TYPED_TEST(BlockStorageTest, GetMissingIsNotFound) {
  auto got = this->storage_->Get("absent");
  ASSERT_FALSE(got.ok());
  EXPECT_TRUE(got.status().IsNotFound());
}

TYPED_TEST(BlockStorageTest, PutOverwrites) {
  ASSERT_TRUE(this->storage_->Put("k", Bytes({1})).ok());
  ASSERT_TRUE(this->storage_->Put("k", Bytes({9, 9})).ok());
  auto got = this->storage_->Get("k");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, Bytes({9, 9}));
}

TYPED_TEST(BlockStorageTest, DeleteIsIdempotent) {
  ASSERT_TRUE(this->storage_->Put("k", Bytes({1})).ok());
  EXPECT_TRUE(this->storage_->Delete("k").ok());
  EXPECT_FALSE(this->storage_->Contains("k"));
  EXPECT_TRUE(this->storage_->Delete("k").ok());  // second delete fine
}

TYPED_TEST(BlockStorageTest, SizeTracksObjects) {
  EXPECT_EQ(this->storage_->Size(), 0u);
  ASSERT_TRUE(this->storage_->Put("a", Bytes({1})).ok());
  ASSERT_TRUE(this->storage_->Put("b", Bytes({2, 2})).ok());
  EXPECT_EQ(this->storage_->Size(), 2u);
  EXPECT_EQ(this->storage_->TotalBytes(), 3u);
}

TYPED_TEST(BlockStorageTest, ConcurrentPutsAndGets) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([this, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const std::string key =
            "t" + std::to_string(t) + "_" + std::to_string(i);
        ASSERT_TRUE(this->storage_
                        ->Put(key, Bytes({static_cast<uint8_t>(t),
                                          static_cast<uint8_t>(i)}))
                        .ok());
        auto got = this->storage_->Get(key);
        ASSERT_TRUE(got.ok());
        EXPECT_EQ((*got)[0], static_cast<uint8_t>(t));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(this->storage_->Size(),
            static_cast<size_t>(kThreads * kPerThread));
}

TYPED_TEST(BlockStorageTest, WriteReadRoundTrip) {
  ASSERT_TRUE(this->storage_
                  ->Write("k", 3,
                          [](uint8_t* out) {
                            out[0] = 1;
                            out[1] = 2;
                            out[2] = 3;
                          })
                  .ok());
  auto read = ReadCopy(*this->storage_, "k");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, Bytes({1, 2, 3}));
  // Both styles see one store.
  auto got = this->storage_->Get("k");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, Bytes({1, 2, 3}));
  ASSERT_TRUE(this->storage_->Put("p", Bytes({7, 8})).ok());
  read = ReadCopy(*this->storage_, "p");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, Bytes({7, 8}));
}

TYPED_TEST(BlockStorageTest, ReadMissingIsNotFound) {
  bool called = false;
  const Status status =
      this->storage_->Read("absent", [&called](const uint8_t*, size_t) {
        called = true;
        return Status::OK();
      });
  EXPECT_TRUE(status.IsNotFound());
  EXPECT_FALSE(called);
}

TYPED_TEST(BlockStorageTest, WriteSmallerValueUpdatesTotalBytes) {
  ASSERT_TRUE(WriteFilled(*this->storage_, "k", 100, 1).ok());
  EXPECT_EQ(this->storage_->TotalBytes(), 100u);
  ASSERT_TRUE(WriteFilled(*this->storage_, "k", 10, 2).ok());
  EXPECT_EQ(this->storage_->TotalBytes(), 10u);
  EXPECT_EQ(this->storage_->Size(), 1u);
  auto read = ReadCopy(*this->storage_, "k");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, std::vector<uint8_t>(10, 2));
}

TYPED_TEST(BlockStorageTest, ReadReturnsTheCallbackError) {
  ASSERT_TRUE(this->storage_->Put("k", Bytes({1})).ok());
  const Status status =
      this->storage_->Read("k", [](const uint8_t*, size_t) {
        return Status::InvalidArgument("rejected by reader");
      });
  EXPECT_TRUE(status.IsInvalidArgument());
  EXPECT_EQ(status.message(), "rejected by reader");
}

TEST(BlockStorageConcurrencyTest, InMemoryReadsNeverSeeTornWrites) {
  // Four threads rewrite one shared key and their own private key with
  // values whose every byte and whose length encode one write; a Read
  // must see one whole write, never a mix or a half-resized slot.
  InMemoryStorage storage;
  constexpr int kThreads = 4;
  constexpr int kIterations = 400;
  auto size_of = [](uint8_t value) { return size_t{16} + 4 * value; };
  auto check = [&size_of](const uint8_t* data, size_t size) {
    if (size == 0 || size != size_of(data[0]) ||
        !std::all_of(data, data + size,
                     [&](uint8_t b) { return b == data[0]; })) {
      return Status::Internal("torn read");
    }
    return Status::OK();
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const std::string own = "private" + std::to_string(t);
      for (int i = 0; i < kIterations; ++i) {
        const auto value = static_cast<uint8_t>(t * 61 + i);
        ASSERT_TRUE(WriteFilled(storage, "shared", size_of(value), value).ok());
        ASSERT_TRUE(WriteFilled(storage, own, size_of(value), value).ok());
        const Status shared = storage.Read("shared", check);
        ASSERT_TRUE(shared.ok()) << shared.ToString();
        // Nobody else writes the private key: the last write is read.
        ASSERT_TRUE(storage
                        .Read(own,
                              [&](const uint8_t* data, size_t size) {
                                EXPECT_EQ(size, size_of(value));
                                EXPECT_EQ(data[0], value);
                                return check(data, size);
                              })
                        .ok());
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(storage.Size(), static_cast<size_t>(kThreads + 1));
}

TEST(BlockStorageConcurrencyTest, InMemoryReadsOfOneKeyOverlap) {
  // Workers deserializing one shared input must not queue on each
  // other: each reader waits inside `fn` until the other has entered
  // too, which an exclusive shard lock would never allow.
  InMemoryStorage storage;
  ASSERT_TRUE(storage.Put("shared", Bytes({1})).ok());
  std::atomic<int> inside{0};
  auto read = [&] {
    return storage.Read("shared", [&](const uint8_t*, size_t) {
      inside.fetch_add(1);
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (inside.load() < 2 && std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
      return inside.load() >= 2 ? Status::OK()
                                : Status::Internal("readers were serialized");
    });
  };
  Status other;
  std::thread thread([&] { other = read(); });
  const Status mine = read();
  thread.join();
  EXPECT_TRUE(mine.ok()) << mine.ToString();
  EXPECT_TRUE(other.ok()) << other.ToString();
}

TEST(FileStorageTest, SanitizesHostileKeys) {
  const auto dir =
      std::filesystem::temp_directory_path() / "tb_storage_hostile";
  std::filesystem::remove_all(dir);
  auto opened = FileStorage::Open(dir.string());
  ASSERT_TRUE(opened.ok());
  auto& storage = **opened;
  ASSERT_TRUE(storage.Put("../../etc/passwd", Bytes({1})).ok());
  // The object is stored inside the root dir, not outside.
  EXPECT_TRUE(storage.Contains("../../etc/passwd"));
  EXPECT_EQ(storage.Size(), 1u);
  bool outside = std::filesystem::exists(dir.parent_path() / "etc");
  EXPECT_FALSE(outside);
}

TEST(FileStorageTest, PersistsAcrossReopen) {
  const auto dir =
      std::filesystem::temp_directory_path() / "tb_storage_reopen";
  std::filesystem::remove_all(dir);
  {
    auto opened = FileStorage::Open(dir.string());
    ASSERT_TRUE(opened.ok());
    ASSERT_TRUE((*opened)->Put("persist", Bytes({4, 2})).ok());
  }
  auto reopened = FileStorage::Open(dir.string());
  ASSERT_TRUE(reopened.ok());
  auto got = (*reopened)->Get("persist");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, Bytes({4, 2}));
}

}  // namespace
}  // namespace taskbench::storage
