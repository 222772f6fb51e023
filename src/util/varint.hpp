// LEB128-style variable-length integer codec.
//
// Used by the binary trace format, the compressed timestamp store, and the
// durability WAL's record grammar (which CTC1 images store their events in):
// event numbers and process ids are overwhelmingly small, so most values fit
// one byte.
//
// Decoding is hardened against hostile input (docs/FAULT_MODEL.md §7): a
// truncated, overlong (non-canonical), or >10-byte encoding is reported as a
// structured VarintError — the decoder never reads past the buffer and never
// silently discards overflowed bits. `try_get_varint` is the non-throwing
// entry the WAL frame decoder uses on possibly-torn bytes; `get_varint`
// wraps it with a CheckFailure for trusted-format readers.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "util/check.hpp"

namespace ct {

/// Appends `value` to `out` as unsigned LEB128 (1–10 bytes, canonical).
inline void put_varint(std::string& out, std::uint64_t value) {
  while (value >= 0x80) {
    out.push_back(static_cast<char>((value & 0x7f) | 0x80));
    value >>= 7;
  }
  out.push_back(static_cast<char>(value));
}

enum class VarintError : std::uint8_t {
  kOk,
  kTruncated,  ///< buffer ended inside the encoding
  kTooLong,    ///< more than 10 bytes (cannot encode any uint64)
  kOverlong,   ///< non-canonical: padded continuation or overflowed bits
};

inline const char* to_string(VarintError e) {
  switch (e) {
    case VarintError::kOk: return "ok";
    case VarintError::kTruncated: return "truncated";
    case VarintError::kTooLong: return "too long";
    case VarintError::kOverlong: return "overlong";
  }
  return "?";
}

struct VarintDecode {
  std::uint64_t value = 0;
  std::uint8_t length = 0;  ///< bytes consumed (0 on kTruncated at end)
  VarintError error = VarintError::kOk;

  bool ok() const { return error == VarintError::kOk; }
};

/// Decodes an unsigned LEB128 at `data[pos]` without advancing `pos` and
/// without ever reading past `data`. Canonical encodings only: a final byte
/// of 0x00 after a continuation byte (zero-padding) and a 10th byte with
/// bits beyond 2^64 are both rejected as kOverlong.
inline VarintDecode try_get_varint(std::string_view data, std::size_t pos) {
  VarintDecode out;
  std::uint64_t value = 0;
  for (int shift = 0;; shift += 7) {
    if (out.length >= 10) {
      out.error = VarintError::kTooLong;
      return out;
    }
    if (pos + out.length >= data.size()) {
      out.error = VarintError::kTruncated;
      return out;
    }
    const auto byte =
        static_cast<unsigned char>(data[pos + out.length]);
    ++out.length;
    if ((byte & 0x80) == 0) {
      if (byte == 0 && out.length > 1) {
        // A terminating 0x00 after continuation bytes encodes nothing the
        // shorter form could not — non-canonical padding.
        out.error = VarintError::kOverlong;
        return out;
      }
      if (shift == 63 && byte > 1) {
        // 10th byte may contribute only bit 63.
        out.error = VarintError::kOverlong;
        return out;
      }
      out.value = value | (static_cast<std::uint64_t>(byte) << shift);
      return out;
    }
    if (shift == 63) {
      // A continuation on the 10th byte always overflows.
      out.error = VarintError::kTooLong;
      return out;
    }
    value |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
  }
}

/// Reads an unsigned LEB128 from `data` at `pos`, advancing `pos`.
/// Throws CheckFailure (naming the error and byte offset) on truncated,
/// overlong, or over-length input.
inline std::uint64_t get_varint(const std::string& data, std::size_t& pos) {
  const VarintDecode d = try_get_varint(data, pos);
  CT_CHECK_MSG(d.ok(),
               "varint " << to_string(d.error) << " at byte offset " << pos);
  pos += d.length;
  return d.value;
}

}  // namespace ct
