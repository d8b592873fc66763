#include "storage/serializer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <string>

#include "common/random.h"
#include "data/generators.h"

namespace taskbench::storage {
namespace {

// The byte-at-a-time CRC-32 the serializer used before slice-by-16:
// the reference every faster formulation must match bit for bit.
uint32_t BytewiseCrc32(const uint8_t* data, size_t size) {
  uint32_t table[256];
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  uint32_t crc = 0xffffffffu;
  for (size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ data[i]) & 0xffu] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

std::vector<uint8_t> RandomBytes(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> bytes(n);
  for (auto& b : bytes) b = static_cast<uint8_t>(rng.NextUint64());
  return bytes;
}

data::Matrix RandomMatrix(int64_t rows, int64_t cols, uint64_t seed) {
  data::Matrix m(rows, cols);
  Rng rng(seed);
  data::FillUniform(&m, &rng);
  return m;
}

// The CRC of `data` by every path the serializer has: slice-by-16 on
// its own, the path the CPU picks, and the fused copy, whose copied
// bytes (stored one byte off alignment) must equal the input and stay
// inside the destination.
constexpr std::array<const char*, 3> kCrcPaths = {"portable", "dispatched",
                                                  "fused copy"};
std::array<uint32_t, 3> CrcByEveryPath(const uint8_t* data, size_t size) {
  std::vector<uint8_t> dst(size + 2, 0xa5);
  const uint32_t fused = Serializer::CopyWithCrc32(dst.data() + 1, data, size);
  EXPECT_TRUE(std::equal(data, data + size, dst.begin() + 1))
      << "fused copy of " << size << " bytes";
  EXPECT_TRUE(dst.front() == 0xa5 && dst.back() == 0xa5)
      << "fused copy of " << size << " bytes wrote outside its destination";
  return {Serializer::Crc32Portable(data, size), Serializer::Crc32(data, size),
          fused};
}

// A bare header: magic, version, dimensions and CRC field, no payload.
std::vector<uint8_t> Header(int64_t rows, int64_t cols, uint32_t crc) {
  std::vector<uint8_t> bytes(28);
  const uint32_t magic = 0x544b4c42, version = 1;
  std::memcpy(&bytes[0], &magic, 4);
  std::memcpy(&bytes[4], &version, 4);
  std::memcpy(&bytes[8], &rows, 8);
  std::memcpy(&bytes[16], &cols, 8);
  std::memcpy(&bytes[24], &crc, 4);
  return bytes;
}

TEST(SerializerTest, RoundTripPreservesContents) {
  const data::Matrix original = RandomMatrix(13, 7, 3);
  std::vector<uint8_t> bytes;
  Serializer::Serialize(original, &bytes);
  EXPECT_EQ(bytes.size(), Serializer::SerializedSize(original));
  auto restored = Serializer::Deserialize(bytes);
  ASSERT_TRUE(restored.ok());
  EXPECT_TRUE(restored->ApproxEquals(original, 0));
}

TEST(SerializerTest, EmptyMatrixRoundTrip) {
  const data::Matrix original;
  std::vector<uint8_t> bytes;
  Serializer::Serialize(original, &bytes);
  auto restored = Serializer::Deserialize(bytes);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->rows(), 0);
  EXPECT_EQ(restored->cols(), 0);
}

TEST(SerializerTest, DetectsTruncation) {
  const data::Matrix original = RandomMatrix(4, 4, 1);
  std::vector<uint8_t> bytes;
  Serializer::Serialize(original, &bytes);
  bytes.resize(bytes.size() - 8);
  EXPECT_FALSE(Serializer::Deserialize(bytes).ok());
  bytes.resize(5);
  EXPECT_FALSE(Serializer::Deserialize(bytes).ok());
}

TEST(SerializerTest, DetectsCorruptedPayload) {
  const data::Matrix original = RandomMatrix(4, 4, 1);
  std::vector<uint8_t> bytes;
  Serializer::Serialize(original, &bytes);
  bytes.back() ^= 0xff;  // flip payload bits
  const auto result = Serializer::Deserialize(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("checksum"), std::string::npos);
}

TEST(SerializerTest, DetectsBadMagic) {
  const data::Matrix original = RandomMatrix(2, 2, 1);
  std::vector<uint8_t> bytes;
  Serializer::Serialize(original, &bytes);
  bytes[0] ^= 0xff;
  EXPECT_FALSE(Serializer::Deserialize(bytes).ok());
}

TEST(SerializerTest, Crc32KnownVector) {
  // CRC-32 of "123456789" is 0xCBF43926 (IEEE check value).
  const uint8_t data[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  const auto crcs = CrcByEveryPath(data, sizeof(data));
  for (size_t path = 0; path < crcs.size(); ++path) {
    EXPECT_EQ(crcs[path], 0xCBF43926u) << kCrcPaths[path];
  }
}

TEST(SerializerTest, Crc32MatchesBytewiseReference) {
  // Every length across the fold's 64-byte minimum, its 64- and 16-byte
  // strides and the table loop's tail, at every alignment of the start
  // pointer.
  const std::vector<uint8_t> buf = RandomBytes(300 + 16, 11);
  for (size_t offset = 0; offset < 16; ++offset) {
    for (size_t len = 0; len <= 300; ++len) {
      const uint8_t* data = buf.data() + offset;
      const uint32_t want = BytewiseCrc32(data, len);
      const auto crcs = CrcByEveryPath(data, len);
      for (size_t path = 0; path < crcs.size(); ++path) {
        ASSERT_EQ(crcs[path], want) << kCrcPaths[path] << ", offset "
                                    << offset << " length " << len;
      }
    }
  }
  const std::vector<uint8_t> big = RandomBytes(1 << 20, 12);
  const uint32_t want = BytewiseCrc32(big.data(), big.size());
  const auto crcs = CrcByEveryPath(big.data(), big.size());
  for (size_t path = 0; path < crcs.size(); ++path) {
    EXPECT_EQ(crcs[path], want) << kCrcPaths[path];
  }
}

TEST(SerializerTest, DetectsEverySingleBitFlip) {
  // 3x3 (72 payload bytes) stays short of the fold's four-lane loop;
  // 16x16 (2 KiB) runs through it.
  for (const int64_t n : {3, 16}) {
    const data::Matrix original = RandomMatrix(n, n, 5);
    std::vector<uint8_t> bytes;
    Serializer::Serialize(original, &bytes);
    const size_t header = bytes.size() - original.bytes();
    uint32_t stored = 0;
    std::memcpy(&stored, &bytes[header - 4], sizeof(stored));
    for (size_t bit = header * 8; bit < bytes.size() * 8; ++bit) {
      std::vector<uint8_t> flipped = bytes;
      flipped[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
      const auto crcs =
          CrcByEveryPath(flipped.data() + header, original.bytes());
      for (size_t path = 0; path < crcs.size(); ++path) {
        ASSERT_NE(crcs[path], stored)
            << kCrcPaths[path] << ", " << n << "x" << n << " bit " << bit;
      }
      const auto result = Serializer::Deserialize(flipped);
      ASSERT_FALSE(result.ok()) << n << "x" << n << " bit " << bit;
      EXPECT_NE(result.status().message().find("checksum"), std::string::npos)
          << n << "x" << n << " bit " << bit;
    }
  }
}

TEST(SerializerTest, RejectsDimensionsWhosePayloadSizeWraps) {
  // rows * cols * 8 wraps to 0 in 64 bits for both headers, so a bare
  // header matched the wrapped size and the (empty) payload's CRC, and
  // the process died allocating the matrix. The CRC field holds what
  // each path computes for an empty payload.
  const std::vector<std::pair<int64_t, int64_t>> dims = {
      {int64_t{1} << 32, int64_t{1} << 29}, {int64_t{1} << 61, 8}};
  for (const auto& [rows, cols] : dims) {
    for (const uint32_t crc : CrcByEveryPath(nullptr, 0)) {
      const auto result = Serializer::Deserialize(Header(rows, cols, crc));
      ASSERT_FALSE(result.ok()) << rows << "x" << cols;
      EXPECT_TRUE(result.status().IsInvalidArgument());
      EXPECT_NE(result.status().message().find(std::to_string(rows) + "x" +
                                               std::to_string(cols)),
                std::string::npos)
          << result.status().message();
    }
  }
}

TEST(SerializerTest, WireFormatGolden) {
  // Pins magic, version, dimensions, CRC and payload layout. The
  // expected bytes come from an independent CRC-32 (zlib's crc32).
  data::Matrix m(2, 2);
  m.At(0, 0) = 1.0;
  m.At(0, 1) = -2.5;
  m.At(1, 0) = 0.125;
  m.At(1, 1) = 3.0;
  std::vector<uint8_t> bytes;
  Serializer::Serialize(m, &bytes);
  std::string hex;
  for (uint8_t b : bytes) {
    char buf[3];
    std::snprintf(buf, sizeof(buf), "%02x", b);
    hex += buf;
  }
  EXPECT_EQ(hex,
            "424c4b54"                          // magic 'TBLK'
            "01000000"                          // version 1
            "0200000000000000"                  // rows
            "0200000000000000"                  // cols
            "cda4a07b"                          // crc32 of the payload
            "000000000000f03f00000000000004c0"  // 1.0, -2.5
            "000000000000c03f0000000000000840"  // 0.125, 3.0
  );
  std::vector<uint8_t> in_place(Serializer::SerializedSize(m));
  Serializer::SerializeTo(m, in_place.data());
  EXPECT_EQ(in_place, bytes);
  const auto crcs = CrcByEveryPath(bytes.data() + 28, m.bytes());
  for (size_t path = 0; path < crcs.size(); ++path) {
    EXPECT_EQ(crcs[path], 0x7ba0a4cdu) << kCrcPaths[path];
  }
  // A block long enough for the fold: its CRC field is slice-by-16's.
  const data::Matrix big = RandomMatrix(16, 16, 9);
  std::vector<uint8_t> big_bytes;
  Serializer::Serialize(big, &big_bytes);
  uint32_t stored = 0;
  std::memcpy(&stored, &big_bytes[24], sizeof(stored));
  EXPECT_EQ(stored, Serializer::Crc32Portable(big_bytes.data() + 28,
                                              big.bytes()));
}

TEST(SerializerTest, AppendsToExistingBuffer) {
  const data::Matrix a = RandomMatrix(2, 3, 1);
  const data::Matrix b = RandomMatrix(3, 2, 2);
  std::vector<uint8_t> bytes;
  Serializer::Serialize(a, &bytes);
  const size_t a_size = bytes.size();
  Serializer::Serialize(b, &bytes);
  EXPECT_EQ(bytes.size(), a_size + Serializer::SerializedSize(b));
  // First record still parses when isolated.
  std::vector<uint8_t> first(bytes.begin(), bytes.begin() + a_size);
  auto restored = Serializer::Deserialize(first);
  ASSERT_TRUE(restored.ok());
  EXPECT_TRUE(restored->ApproxEquals(a, 0));
}

class SerializerSizeSweep : public ::testing::TestWithParam<int64_t> {};

TEST_P(SerializerSizeSweep, RoundTripAcrossSizes) {
  const int64_t n = GetParam();
  const data::Matrix original = RandomMatrix(n, n, 7);
  std::vector<uint8_t> bytes;
  Serializer::Serialize(original, &bytes);
  auto restored = Serializer::Deserialize(bytes);
  ASSERT_TRUE(restored.ok());
  EXPECT_TRUE(restored->ApproxEquals(original, 0));
}

INSTANTIATE_TEST_SUITE_P(Sizes, SerializerSizeSweep,
                         ::testing::Values(1, 2, 3, 8, 17, 64, 129));

}  // namespace
}  // namespace taskbench::storage
