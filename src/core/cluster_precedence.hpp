// The cluster-timestamp precedence test (§2.3, DESIGN.md §3) over one
// stored row: the library's one copy of it. The engine runs it over its
// live arena (core/engine.hpp) and the mapped view over a CTC1 image's
// arena columns (store/mapped_view.hpp), which persist the same layout, so
// both give the same answers for the same ticks.
//
//   e → f ⟺ p_e covered by TS(f):  index(e) ≤ TS(f)[p_e]          (exact)
//          otherwise:  ∃ q ∈ covered(f) with a cluster receive r_q at
//                      index ≤ TS(f)[q] and index(e) ≤ FM(r_q)[p_e]
//
// FM(e)[p_e] is e's own index, and any causal path entering covered(f)
// from outside passes through a non-merged cluster receive, whose full
// vector the store keeps. The store resolves, once per projection slot, the
// greatest cluster receive at or below the slot's bound (a probe), so the
// walk is one component read per probe.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>

#include "model/event.hpp"
#include "model/ids.hpp"
#include "timestamp/query_cost.hpp"

namespace ct {

/// Row aux (in place of a covered-set id) of a row that holds a full
/// Fidge/Mattern vector.
inline constexpr std::uint32_t kFullRow = 0xffff'ffffu;
/// Probe of a slot with no cluster receive at or below its bound.
inline constexpr std::uint32_t kNoProbe = 0xffff'ffffu;

/// What the test reads of f's stored timestamp, resolved by its store.
struct ResolvedRow {
  EventId id;  ///< f
  /// The component pool; probes are offsets of full rows in it.
  const EventIndex* pool = nullptr;
  /// f's components: indexed by process for a full row, by slot otherwise.
  const EventIndex* values = nullptr;
  /// Projection: process → slot in `values`, or -1. Null for a full row.
  const std::int32_t* slot_of = nullptr;
  /// Projection: one probe per slot (kNoProbe where none).
  const std::uint32_t* probes = nullptr;
  std::size_t width = 0;  ///< projection slots
};

/// Did `ev_e` happen before the event whose row is `f`? Charges one tick
/// for the direct test and one per probe read, and returns nullopt once
/// `cost`'s budget runs out. The caller has checked that `f` is stored and
/// that e's process is known (an unstored e of a known process reads in
/// bounds and precedes nothing, as delivery order is causal).
inline std::optional<bool> cluster_precedes(const Event& ev_e,
                                            const ResolvedRow& f,
                                            QueryCost& cost) {
  const EventId e = ev_e.id;
  if (e == f.id) return false;
  // Sync partners carry identical vectors but are mutually concurrent.
  if (ev_e.kind == EventKind::kSync && ev_e.partner == f.id) return false;

  // Direct test: exact whenever f's row covers e's process (same cluster,
  // or f is a full cluster receive).
  if (!cost.charge(1)) return std::nullopt;
  if (f.slot_of == nullptr) return e.index <= f.values[e.process];
  if (const std::int32_t slot = f.slot_of[e.process]; slot >= 0) {
    return e.index <= f.values[static_cast<std::size_t>(slot)];
  }

  // e's process is outside covered(f): walk the greatest cluster receive f
  // has seen in each covered slot.
  for (std::size_t i = 0; i < f.width; ++i) {
    const std::uint32_t off = f.probes[i];
    if (off == kNoProbe) continue;
    if (!cost.charge(1)) return std::nullopt;
    if (e.index <= f.pool[off + e.process]) return true;
  }
  return false;
}

}  // namespace ct
