#include "core/precedence_kernels.hpp"

#if defined(CT_KERNELS_X86)
#include <immintrin.h>
#endif

namespace ct::kernels {

const char* to_string(KernelTier tier) {
  switch (tier) {
    case KernelTier::kScalar:
      return "scalar";
    case KernelTier::kAvx2:
      return "avx2";
  }
  return "unknown";
}

KernelTier active_tier() {
#if defined(CT_KERNELS_X86)
  static const KernelTier kTier = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") ? KernelTier::kAvx2
                                          : KernelTier::kScalar;
  }();
  return kTier;
#else
  return KernelTier::kScalar;
#endif
}

#if defined(CT_KERNELS_X86)
namespace avx2 {

// The vector body never reads past n; the tail falls through to the scalar
// loop.
__attribute__((target("avx2"))) void max_into(EventIndex* into,
                                              const EventIndex* other,
                                              std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(into + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(other + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(into + i),
                        _mm256_max_epu32(va, vb));
  }
  scalar::max_into(into + i, other + i, n - i);
}

}  // namespace avx2
#endif  // CT_KERNELS_X86

void max_into(EventIndex* into, const EventIndex* other, std::size_t n) {
#if defined(CT_KERNELS_X86)
  static const bool kAvx2 = active_tier() == KernelTier::kAvx2;
  if (kAvx2) {
    avx2::max_into(into, other, n);
    return;
  }
#endif
  scalar::max_into(into, other, n);
}

}  // namespace ct::kernels
