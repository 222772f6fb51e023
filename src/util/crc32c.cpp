// Hardware CRC32C tier (see crc32c.hpp for why it exists).
//
// The SSE4.2 crc32 instruction implements exactly the reflected Castagnoli
// polynomial the byte table does, including the ~in/~out convention once we
// feed it the raw (pre-inverted) state — so the two tiers are bit-identical
// and the dispatch is invisible to every stored checksum. Detection follows
// core/precedence_kernels.cpp: one __builtin_cpu_supports probe, latched in
// a function-local static.
#include "util/crc32c.hpp"

#include <cstring>

namespace ct {
namespace {

#if defined(__x86_64__) || defined(__i386__)
#define CT_CRC32C_X86 1
#endif

#if defined(CT_CRC32C_X86)

__attribute__((target("sse4.2"))) std::uint32_t sse42_raw(
    std::string_view data, std::uint32_t crc) {
  const char* p = data.data();
  std::size_t n = data.size();
  // Align to 8 so the wide loads below are aligned-friendly.
  while (n > 0 && (reinterpret_cast<std::uintptr_t>(p) & 7u) != 0) {
    crc = __builtin_ia32_crc32qi(crc, static_cast<unsigned char>(*p));
    ++p;
    --n;
  }
  std::uint64_t wide = crc;
  while (n >= 8) {
    std::uint64_t word;
    std::memcpy(&word, p, 8);
    wide = __builtin_ia32_crc32di(wide, word);
    p += 8;
    n -= 8;
  }
  crc = static_cast<std::uint32_t>(wide);
  while (n > 0) {
    crc = __builtin_ia32_crc32qi(crc, static_cast<unsigned char>(*p));
    ++p;
    --n;
  }
  return crc;
}

__attribute__((target("sse4.2"))) std::array<std::uint32_t, 3> sse42_x3(
    const char* a, const char* b, const char* c, std::size_t n) {
  std::uint64_t ca = 0xffffffffu, cb = 0xffffffffu, cc = 0xffffffffu;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t wa, wb, wc;
    std::memcpy(&wa, a + i, 8);
    std::memcpy(&wb, b + i, 8);
    std::memcpy(&wc, c + i, 8);
    ca = __builtin_ia32_crc32di(ca, wa);
    cb = __builtin_ia32_crc32di(cb, wb);
    cc = __builtin_ia32_crc32di(cc, wc);
  }
  auto ra = static_cast<std::uint32_t>(ca);
  auto rb = static_cast<std::uint32_t>(cb);
  auto rc = static_cast<std::uint32_t>(cc);
  for (; i < n; ++i) {
    ra = __builtin_ia32_crc32qi(ra, static_cast<unsigned char>(a[i]));
    rb = __builtin_ia32_crc32qi(rb, static_cast<unsigned char>(b[i]));
    rc = __builtin_ia32_crc32qi(rc, static_cast<unsigned char>(c[i]));
  }
  return {~ra, ~rb, ~rc};
}

bool has_sse42() {
  static const bool supported = __builtin_cpu_supports("sse4.2") != 0;
  return supported;
}

#endif  // CT_CRC32C_X86

}  // namespace

std::uint32_t crc32c_long(std::string_view data, std::uint32_t seed) {
#if defined(CT_CRC32C_X86)
  if (has_sse42()) return ~sse42_raw(data, ~seed);
#endif
  return ~detail::crc32c_table_raw(data, ~seed);
}

std::array<std::uint32_t, 3> crc32c_x3(const char* a, const char* b,
                                       const char* c, std::size_t n) {
#if defined(CT_CRC32C_X86)
  if (has_sse42()) return sse42_x3(a, b, c, n);
#endif
  return {crc32c({a, n}), crc32c({b, n}), crc32c({c, n})};
}

}  // namespace ct
