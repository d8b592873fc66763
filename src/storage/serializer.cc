#include "storage/serializer.h"

#include <array>
#include <bit>
#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "common/strings.h"

namespace taskbench::storage {

namespace {

constexpr uint32_t kMagic = 0x544b4c42;  // 'TBLK' little-endian-ish tag
constexpr uint32_t kVersion = 1;
constexpr size_t kHeaderBytes = 4 + 4 + 8 + 8 + 4;
constexpr size_t kCrcOffset = 4 + 4 + 8 + 8;

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

// Advances the running (pre-inversion) CRC `crc` over `size` bytes at
// `src` by slice-by-16; with kCopy, also copies them to `dst` in the
// same pass. `dst` is untouched (and may be null) without kCopy.
template <bool kCopy>
uint32_t TableCrc(uint32_t crc, const uint8_t* src, uint8_t* dst,
                  size_t size) {
  const auto& t = kCrcTables;
  size_t i = 0;
  for (; size - i >= 16; i += 16) {
    uint32_t w[4];
    std::memcpy(w, src + i, sizeof(w));  // any alignment
    if constexpr (kCopy) std::memcpy(dst + i, w, sizeof(w));
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
  for (; i < size; ++i) {
    if constexpr (kCopy) dst[i] = src[i];
    crc = t[0][(crc ^ src[i]) & 0xffu] ^ (crc >> 8);
  }
  return crc;
}

#if defined(__x86_64__)

// Decided once, before main. A call made during static initialization
// that runs before this initializer reads the zero-initialized `false`
// and takes slice-by-16, which gives the same value.
const bool kFoldSupported = [] {
  __builtin_cpu_init();
  return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
}();

// One unaligned 16-byte lane of `src` at `offset`, stored to `dst` at
// the same offset first with kCopy.
template <bool kCopy>
__m128i LoadLane(const uint8_t* src, uint8_t* dst, size_t offset) {
  const __m128i lane =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + offset));
  if constexpr (kCopy) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + offset), lane);
  }
  return lane;
}

// Advances the running CRC `crc` over `size` bytes at `src` (a multiple
// of 16, at least 64) by carry-less-multiply folding: Gopal et al., "Fast
// CRC Computation for Generic Polynomials Using PCLMULQDQ Instruction"
// (Intel, 2009). Four 128-bit lanes fold over 64-byte strides, then into
// one lane, then 16 bytes at a time, and a Barrett reduction leaves 32
// bits. The constants are the published ones for the reflected
// polynomial 0xedb88320 (zlib and Chromium use the same): k1..k5 derive
// from x^(4*128+32), x^(4*128-32), x^(128+32), x^(128-32) and x^64
// mod P; P' and mu are the polynomial and its Barrett quotient.
// With kCopy, every lane is stored to `dst` as it is loaded.
template <bool kCopy>
__attribute__((target("pclmul,sse4.1"))) uint32_t FoldCrc(
    uint32_t crc, const uint8_t* src, uint8_t* dst, size_t size) {
  const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124);
  const __m128i poly_mu = _mm_set_epi64x(0x1f7011641, 0x1db710641);
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

  __m128i x[4];
  for (size_t i = 0; i < 4; ++i) x[i] = LoadLane<kCopy>(src, dst, 16 * i);
  x[0] = _mm_xor_si128(x[0], _mm_cvtsi32_si128(static_cast<int>(crc)));
  size_t offset = 64;
  for (; size - offset >= 64; offset += 64) {
    for (size_t i = 0; i < 4; ++i) {
      x[i] = _mm_xor_si128(
          _mm_xor_si128(_mm_clmulepi64_si128(x[i], k1k2, 0x00),
                        _mm_clmulepi64_si128(x[i], k1k2, 0x11)),
          LoadLane<kCopy>(src, dst, offset + 16 * i));
    }
  }

  // Four lanes into one, then the remaining 16-byte lanes.
  __m128i acc = x[0];
  for (size_t i = 1; i < 4; ++i) {
    acc = _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(acc, k3k4, 0x00),
                                      _mm_clmulepi64_si128(acc, k3k4, 0x11)),
                        x[i]);
  }
  for (; offset < size; offset += 16) {
    acc = _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(acc, k3k4, 0x00),
                                      _mm_clmulepi64_si128(acc, k3k4, 0x11)),
                        LoadLane<kCopy>(src, dst, offset));
  }

  // 128 bits to 64, then Barrett-reduce to 32.
  acc = _mm_xor_si128(_mm_srli_si128(acc, 8),
                      _mm_clmulepi64_si128(acc, k3k4, 0x10));
  acc = _mm_xor_si128(
      _mm_srli_si128(acc, 4),
      _mm_clmulepi64_si128(_mm_and_si128(acc, low32), k5, 0x00));
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(acc, low32), poly_mu, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly_mu, 0x00);
  return static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(acc, t), 1));
}

#endif  // defined(__x86_64__)

// CRC-32 of `size` bytes at `src`, copied to `dst` in the same pass with
// kCopy. The fold takes whole 16-byte lanes of spans of 64 bytes or more
// on hosts that have it; slice-by-16 takes the rest.
template <bool kCopy>
uint32_t Crc(const uint8_t* src, uint8_t* dst, size_t size) {
  uint32_t crc = 0xffffffffu;
  size_t done = 0;
#if defined(__x86_64__)
  if (size >= 64 && kFoldSupported) {
    done = size & ~size_t{15};
    crc = FoldCrc<kCopy>(crc, src, dst, done);
  }
#endif
  uint8_t* tail = nullptr;
  if constexpr (kCopy) tail = dst + done;
  return TableCrc<kCopy>(crc, src + done, tail, size - done) ^ 0xffffffffu;
}

template <typename T>
T ReadPod(const uint8_t* p) {
  T value;
  std::memcpy(&value, p, sizeof(T));
  return value;
}

}  // namespace

uint32_t Serializer::Crc32(const uint8_t* data, size_t size) {
  return Crc<false>(data, nullptr, size);
}

uint32_t Serializer::Crc32Portable(const uint8_t* data, size_t size) {
  return TableCrc<false>(0xffffffffu, data, nullptr, size) ^ 0xffffffffu;
}

uint32_t Serializer::CopyWithCrc32(uint8_t* dst, const uint8_t* src,
                                   size_t size) {
  return Crc<true>(src, dst, size);
}

uint64_t Serializer::SerializedSize(const data::Matrix& m) {
  return kHeaderBytes + m.bytes();
}

void Serializer::Serialize(const data::Matrix& m, std::vector<uint8_t>* out) {
  const size_t at = out->size();
  out->resize(at + SerializedSize(m));
  SerializeTo(m, out->data() + at);
}

void Serializer::SerializeTo(const data::Matrix& m, uint8_t* out) {
  auto write_pod = [](uint8_t* at, auto value) {
    std::memcpy(at, &value, sizeof(value));
  };
  write_pod(out, kMagic);
  write_pod(out + 4, kVersion);
  write_pod(out + 8, m.rows());
  write_pod(out + 16, m.cols());
  const uint32_t crc =
      CopyWithCrc32(out + kHeaderBytes,
                    reinterpret_cast<const uint8_t*>(m.data()), m.bytes());
  write_pod(out + kCrcOffset, crc);
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
  // Bound rows x cols by the buffer before multiplying: the product of
  // two corrupt dimensions can wrap to a small (even zero) payload size.
  const size_t buffer_payload = size - kHeaderBytes;
  if (cols > 0 && static_cast<uint64_t>(rows) >
                      buffer_payload / 8 / static_cast<uint64_t>(cols)) {
    return Status::InvalidArgument(StrFormat(
        "serialized block dimensions %lldx%lld exceed its %zu payload bytes",
        static_cast<long long>(rows), static_cast<long long>(cols),
        buffer_payload));
  }
  const uint64_t payload_bytes = static_cast<uint64_t>(rows) *
                                 static_cast<uint64_t>(cols) * 8;
  if (payload_bytes != buffer_payload) {
    return Status::InvalidArgument(StrFormat(
        "serialized block size mismatch: header says %llu payload bytes, "
        "buffer has %zu",
        static_cast<unsigned long long>(payload_bytes), buffer_payload));
  }
  data::Matrix m = data::Matrix::Uninitialized(rows, cols);
  if (CopyWithCrc32(reinterpret_cast<uint8_t*>(m.data()), p + kHeaderBytes,
                    payload_bytes) != ReadPod<uint32_t>(p + kCrcOffset)) {
    return Status::InvalidArgument("checksum mismatch in serialized block");
  }
  return m;
}

}  // namespace taskbench::storage
