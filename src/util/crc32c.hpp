// CRC32C (Castagnoli) — the frame checksum of the durability layer.
//
// The WAL (src/durability/wal.hpp) frames every record with a CRC32C so a
// torn, short, or bit-rotted write is detected at recovery instead of
// replayed into the monitor, and every CTC1 snapshot image
// (src/durability/format.hpp) checksums every block of every column segment
// for the same reason.
//
// Two tiers, same wire format. Short inputs (WAL frames — fsync-bound
// anyway) use the compile-time byte table inline. Longer inputs route
// through crc32c_long(), which runtime-dispatches to the SSE4.2 crc32
// instruction on x86-64 (crc32c.cpp, same detection idiom as
// core/precedence_kernels.cpp): the mapped snapshot cold-start path
// verifies hundreds of megabytes of block CRCs before serving, and there
// the table implementation — ~0.25 GB/s vs ~15 GB/s — IS the cold start.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace ct {

namespace detail {

/// Reflected Castagnoli polynomial.
inline constexpr std::uint32_t kCrc32cPoly = 0x82f63b78u;

inline constexpr std::array<std::uint32_t, 256> make_crc32c_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) ? (crc >> 1) ^ kCrc32cPoly : crc >> 1;
    }
    table[i] = crc;
  }
  return table;
}

inline constexpr std::array<std::uint32_t, 256> kCrc32cTable =
    make_crc32c_table();

/// Byte-table CRC32C kernel over the raw (pre-inverted) state.
inline std::uint32_t crc32c_table_raw(std::string_view data,
                                      std::uint32_t crc) {
  for (const char c : data) {
    crc = kCrc32cTable[(crc ^ static_cast<unsigned char>(c)) & 0xff] ^
          (crc >> 8);
  }
  return crc;
}

}  // namespace detail

/// Hardware-dispatched CRC32C for long inputs (crc32c.cpp). Bit-identical
/// to the table tier; falls back to it off x86-64 or pre-SSE4.2.
std::uint32_t crc32c_long(std::string_view data, std::uint32_t seed);

/// crc32c() of three buffers of `n` bytes each, computed as three
/// independent chains: the hardware crc32 instruction has a three-cycle
/// latency but starts a new one every cycle, so three chains check CTC1
/// blocks about twice as fast as one (docs/PERF.md §6).
std::array<std::uint32_t, 3> crc32c_x3(const char* a, const char* b,
                                       const char* c, std::size_t n);

/// CRC32C of `data`, continuing from `seed` (0 for a fresh checksum).
/// crc32c(b) == crc32c(b2, crc32c(b1)) for any split b = b1 + b2.
inline std::uint32_t crc32c(std::string_view data, std::uint32_t seed = 0) {
  if (data.size() >= 64) return crc32c_long(data, seed);
  return ~detail::crc32c_table_raw(data, ~seed);
}

}  // namespace ct
