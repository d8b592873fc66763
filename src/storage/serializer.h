#ifndef TASKBENCH_STORAGE_SERIALIZER_H_
#define TASKBENCH_STORAGE_SERIALIZER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "data/matrix.h"

namespace taskbench::storage {

/// Binary serialization of matrix blocks — the real counterpart of
/// the (de)serialization stage the paper identifies as a dominant
/// overhead (Section 5.1.2).
///
/// Wire format (little-endian):
///   magic  u32   'TBLK'
///   version u32  1
///   rows   i64
///   cols   i64
///   crc32  u32   of the payload
///   payload rows*cols float64
class Serializer {
 public:
  /// Appends the serialized form of `m` to `out`: one resize, then
  /// SerializeTo at the old end.
  static void Serialize(const data::Matrix& m, std::vector<uint8_t>* out);

  /// Writes exactly SerializedSize(m) bytes at `out` in one pass over
  /// the payload (the CRC is computed while it is copied). Lets callers
  /// holding mapped destinations (the shared-memory arena, a store
  /// slot) serialize in place with no staging copy.
  static void SerializeTo(const data::Matrix& m, uint8_t* out);

  /// Parses one serialized block from `bytes`. Fails on truncation,
  /// bad magic/version, dimensions the buffer cannot hold, or checksum
  /// mismatch. The payload is verified while it is copied into the
  /// returned matrix: one pass.
  static Result<data::Matrix> Deserialize(const std::vector<uint8_t>& bytes);

  /// Same, from a raw buffer (stored bytes or an arena record).
  static Result<data::Matrix> Deserialize(const uint8_t* data, size_t size);

  /// Size in bytes Serialize() will produce for `m`.
  static uint64_t SerializedSize(const data::Matrix& m);

  /// CRC-32 (IEEE 802.3 polynomial, reflected, init and final XOR
  /// 0xffffffff) of `data`. The CPU picks the path, once per process:
  /// on x86-64 hosts with PCLMULQDQ and SSE4.1, spans of 64 bytes or
  /// more fold with carry-less multiplies; every other span and host
  /// runs slice-by-16. Both give the same value.
  static uint32_t Crc32(const uint8_t* data, size_t size);

  /// Copies `size` bytes from `src` to the non-overlapping `dst` and
  /// returns their Crc32, reading each byte once.
  static uint32_t CopyWithCrc32(uint8_t* dst, const uint8_t* src,
                                size_t size);

  /// Crc32 by slice-by-16 on every host: the portable path, and the
  /// reference the fold is tested against.
  static uint32_t Crc32Portable(const uint8_t* data, size_t size);
};

}  // namespace taskbench::storage

#endif  // TASKBENCH_STORAGE_SERIALIZER_H_
