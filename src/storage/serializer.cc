#include "storage/serializer.h"

#include <array>
#include <bit>
#include <cstring>

#include "common/strings.h"

namespace taskbench::storage {

namespace {

constexpr uint32_t kMagic = 0x544b4c42;  // 'TBLK' little-endian-ish tag
constexpr uint32_t kVersion = 1;
constexpr size_t kHeaderBytes = 4 + 4 + 8 + 8 + 4;

// The wire format stores every field little-endian by copying it out of
// memory, and slice-by-16 below reads payload words the same way.
static_assert(std::endian::native == std::endian::little,
              "taskbench's wire format assumes a little-endian host");

// Slice-by-16 tables for the reflected IEEE polynomial. Row 0 is the
// classic byte-at-a-time table; row k maps a byte to its CRC after k
// further zero bytes, so one step folds 16 input bytes with 16 lookups.
// Built at compile time: no guarded static is initialized at run time.
using CrcTables = std::array<std::array<uint32_t, 256>, 16>;

constexpr CrcTables BuildCrcTables() {
  CrcTables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (size_t k = 1; k < t.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
    }
  }
  return t;
}

constexpr CrcTables kCrcTables = BuildCrcTables();

template <typename T>
void AppendPod(std::vector<uint8_t>* out, T value) {
  const auto* p = reinterpret_cast<const uint8_t*>(&value);
  out->insert(out->end(), p, p + sizeof(T));
}

template <typename T>
T ReadPod(const uint8_t* p) {
  T value;
  std::memcpy(&value, p, sizeof(T));
  return value;
}

}  // namespace

uint32_t Serializer::Crc32(const uint8_t* data, size_t size) {
  const auto& t = kCrcTables;
  uint32_t crc = 0xffffffffu;
  for (; size >= 16; data += 16, size -= 16) {
    uint32_t w[4];
    std::memcpy(w, data, sizeof(w));  // any alignment
    w[0] ^= crc;
    crc = t[15][w[0] & 0xffu] ^ t[14][(w[0] >> 8) & 0xffu] ^
          t[13][(w[0] >> 16) & 0xffu] ^ t[12][w[0] >> 24] ^
          t[11][w[1] & 0xffu] ^ t[10][(w[1] >> 8) & 0xffu] ^
          t[9][(w[1] >> 16) & 0xffu] ^ t[8][w[1] >> 24] ^
          t[7][w[2] & 0xffu] ^ t[6][(w[2] >> 8) & 0xffu] ^
          t[5][(w[2] >> 16) & 0xffu] ^ t[4][w[2] >> 24] ^
          t[3][w[3] & 0xffu] ^ t[2][(w[3] >> 8) & 0xffu] ^
          t[1][(w[3] >> 16) & 0xffu] ^ t[0][w[3] >> 24];
  }
  for (; size > 0; ++data, --size) {
    crc = t[0][(crc ^ *data) & 0xffu] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

uint64_t Serializer::SerializedSize(const data::Matrix& m) {
  return kHeaderBytes + m.bytes();
}

void Serializer::Serialize(const data::Matrix& m, std::vector<uint8_t>* out) {
  out->reserve(out->size() + SerializedSize(m));
  AppendPod<uint32_t>(out, kMagic);
  AppendPod<uint32_t>(out, kVersion);
  AppendPod<int64_t>(out, m.rows());
  AppendPod<int64_t>(out, m.cols());
  const auto* payload = reinterpret_cast<const uint8_t*>(m.data());
  const size_t payload_bytes = m.bytes();
  AppendPod<uint32_t>(out, Crc32(payload, payload_bytes));
  out->insert(out->end(), payload, payload + payload_bytes);
}

void Serializer::SerializeTo(const data::Matrix& m, uint8_t* out) {
  auto write_pod = [&out](auto value) {
    std::memcpy(out, &value, sizeof(value));
    out += sizeof(value);
  };
  write_pod(kMagic);
  write_pod(kVersion);
  write_pod(m.rows());
  write_pod(m.cols());
  const auto* payload = reinterpret_cast<const uint8_t*>(m.data());
  const size_t payload_bytes = m.bytes();
  write_pod(Crc32(payload, payload_bytes));
  if (payload_bytes > 0) std::memcpy(out, payload, payload_bytes);
}

Result<data::Matrix> Serializer::Deserialize(
    const std::vector<uint8_t>& bytes) {
  return Deserialize(bytes.data(), bytes.size());
}

Result<data::Matrix> Serializer::Deserialize(const uint8_t* data,
                                             size_t size) {
  if (size < kHeaderBytes) {
    return Status::InvalidArgument(
        StrFormat("serialized block truncated: %zu bytes", size));
  }
  const uint8_t* p = data;
  const auto magic = ReadPod<uint32_t>(p);
  if (magic != kMagic) {
    return Status::InvalidArgument("bad magic in serialized block");
  }
  const auto version = ReadPod<uint32_t>(p + 4);
  if (version != kVersion) {
    return Status::InvalidArgument(
        StrFormat("unsupported block version %u", version));
  }
  const auto rows = ReadPod<int64_t>(p + 8);
  const auto cols = ReadPod<int64_t>(p + 16);
  if (rows < 0 || cols < 0) {
    return Status::InvalidArgument("negative dimensions in serialized block");
  }
  const auto crc = ReadPod<uint32_t>(p + 24);
  const uint64_t payload_bytes = static_cast<uint64_t>(rows) *
                                 static_cast<uint64_t>(cols) * 8;
  if (size != kHeaderBytes + payload_bytes) {
    return Status::InvalidArgument(StrFormat(
        "serialized block size mismatch: header says %llu payload bytes, "
        "buffer has %zu",
        static_cast<unsigned long long>(payload_bytes),
        size - kHeaderBytes));
  }
  const uint8_t* payload = p + kHeaderBytes;
  if (Crc32(payload, payload_bytes) != crc) {
    return Status::InvalidArgument("checksum mismatch in serialized block");
  }
  data::Matrix m(rows, cols);
  // 0x0 matrices have no payload and a null backing pointer; memcpy
  // requires non-null arguments even for zero sizes (UB otherwise).
  if (payload_bytes > 0) std::memcpy(m.data(), payload, payload_bytes);
  return m;
}

}  // namespace taskbench::storage
