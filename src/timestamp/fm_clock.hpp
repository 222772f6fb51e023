// The Fidge/Mattern vector clock value type and precedence test.
#pragma once

#include <vector>

#include "core/precedence_kernels.hpp"
#include "model/event.hpp"
#include "model/ids.hpp"
#include "util/check.hpp"

namespace ct {

/// A Fidge/Mattern timestamp: component p counts the events of process p
/// known to (i.e. in the causal history of, inclusive) the stamped event.
/// FM(e)[p_e] equals e's own index within its process.
using FmClock = std::vector<EventIndex>;

/// Element-wise maximum: into = max(into, other). The inner loop of every
/// FM-engine receive and of on-demand reconstruction, so it runs the AVX2
/// body where the CPU has one (core/precedence_kernels.hpp).
inline void clock_max(FmClock& into, const FmClock& other) {
  CT_DCHECK(into.size() == other.size());
  kernels::max_into(into.data(), other.data(), into.size());
}

/// The Fidge/Mattern precedence test (paper Eq. 3, standard self-inclusive
/// form): e → f ⟺ e ≠ f ∧ FM(e)[p_e] ≤ FM(f)[p_e] — with one special case:
/// the two halves of a synchronous pair carry identical vectors and are
/// mutually concurrent, so partners never precede each other.
inline bool fm_precedes(const Event& e, const FmClock& fm_e, const Event& f,
                        const FmClock& fm_f) {
  if (e.id == f.id) return false;
  if (e.kind == EventKind::kSync && e.partner == f.id) return false;
  CT_DCHECK(e.id.process < fm_f.size());
  return fm_e[e.id.process] <= fm_f[e.id.process];
}

}  // namespace ct
