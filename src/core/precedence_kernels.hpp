// Vector kernels of the timestamp backends.
//
// Two primitive operations over vectors of 32-bit components: "into =
// max(into, other)" and "how many sorted components are <= a bound". Each
// is a plain scalar loop: the portable path and the test reference. One op
// also has an 8-lane AVX2 body, selected ONCE by CPUID on x86-64: max_into,
// the Fidge/Mattern join that cold-start replay runs over full-width
// vectors, the only op whose lane width pays end to end (docs/PERF.md §7).
// That body is byte-identical to its scalar loop, which
// tests/perf_layer_test.cpp checks on the edge values 0, 2^31 and 2^32-1,
// every length from 0 to 40, and unaligned bases.
//
// Contracts:
//   * all ops treat components as unsigned 32-bit values over the FULL range;
//   * no kernel reads past `n` elements; unaligned bases are allowed;
//   * kernels never allocate and never touch errno/FP state.
//
// count_leq is always inline: its power-of-two descent is branch-free
// scalar CMOV and gains nothing from lanes.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

#include "model/ids.hpp"

#if defined(__x86_64__) || defined(__i386__)
#define CT_KERNELS_X86 1
#endif

namespace ct::kernels {

enum class KernelTier : std::uint8_t {
  kScalar = 0,  ///< plain loops (portable; the test reference)
  kAvx2 = 1,    ///< max_into in 8 lanes / 256-bit vectors (x86-64)
};

const char* to_string(KernelTier tier);

/// kAvx2 when this CPU executes AVX2 (probed once), else kScalar.
KernelTier active_tier();

namespace scalar {
/// max_into's scalar loop: the portable path and the reference its AVX2
/// body must match byte for byte.
inline void max_into(EventIndex* into, const EventIndex* other,
                     std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if (other[i] > into[i]) into[i] = other[i];
  }
}
}  // namespace scalar

#if defined(CT_KERNELS_X86)
namespace avx2 {
/// max_into's AVX2 body. Call it only when active_tier() is kAvx2.
void max_into(EventIndex* into, const EventIndex* other, std::size_t n);
}  // namespace avx2
#endif

/// into = max(into, other), element-wise: the Fidge/Mattern join.
void max_into(EventIndex* into, const EventIndex* other, std::size_t n);

/// Branchless upper_bound over a sorted ascending array: the number of
/// elements <= `bound` (i.e. the index one past the last such element).
/// Power-of-two stride descent; every iteration is a conditional add the
/// compiler turns into CMOV. An empty row (n == 0) is a valid input and
/// yields 0 — checked explicitly so the contract survives refactors of the
/// descent arithmetic (bit_ceil(1) >> 1 happening to be 0 is not a contract).
inline std::size_t count_leq(const EventIndex* sorted, std::size_t n,
                             EventIndex bound) {
  if (n == 0) return 0;
  std::size_t pos = 0;
  std::size_t step = std::bit_ceil(n + 1) >> 1;
  for (; step != 0; step >>= 1) {
    const std::size_t probe = pos + step;
    pos += (probe <= n && sorted[probe - 1] <= bound) ? step : 0;
  }
  return pos;
}

}  // namespace ct::kernels
