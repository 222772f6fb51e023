// Flat timestamp arena: contiguous SoA storage for FM / cluster vectors.
//
// The seed implementation kept every timestamp's components in an
// individually heap-allocated std::vector — one allocation per event, rows
// scattered across the heap, and three dependent pointer chases per random
// access. This arena is the performance layer underneath: all rows live in
// ONE contiguous component pool addressed by 32-bit offset handles, so a
// random row access is a single offset load plus a dense pool read, and
// sequential scans stream through the cache. It is the data-layout half of
// the "fast as the hardware allows" trajectory (ROADMAP); the compute half
// is core/precedence_kernels.hpp, which operates directly on arena rows.
//
// Two features:
//  * hot pool   — append-only SoA rows + offset handles (the engine's
//                 timestamp store, FmStore);
//  * interning  — content dedup of identical rows: sync halves carry equal
//                 vectors, and repeated projections between receives often
//                 coincide, so equal rows share pool storage (handles stay
//                 distinct). Disabled where rows are mutated in place
//                 (the engine's corruption/repair hooks must not alias).
//
// Thread safety: appends are single-writer; reads of previously appended
// rows are safe concurrently with nothing (same contract as the stores that
// embed it — the broker quiesces writers before fanning out readers).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "model/ids.hpp"
#include "util/check.hpp"

namespace ct {

class TsArena {
 public:
  using RowHandle = std::uint32_t;
  static constexpr RowHandle kNoRow = 0xffff'ffffu;

  struct Options {
    /// Content-dedup identical rows (equal rows share pool storage).
    bool intern = true;
  };

  explicit TsArena(std::size_t process_count);
  TsArena(std::size_t process_count, Options options);

  std::size_t process_count() const { return rows_of_.size(); }

  /// Reserves pool capacity (satellite of the allocation-churn work: stores
  /// that know their totals from trace metadata pre-size the pool once).
  void reserve(std::size_t total_rows, std::size_t total_components);

  /// Appends a row for process `p` (append order within a process is the
  /// event-index order of its rows). Returns the row's handle.
  RowHandle append(ProcessId p, const EventIndex* values, std::size_t width);
  RowHandle append(ProcessId p, std::span<const EventIndex> values) {
    return append(p, values.data(), values.size());
  }

  std::size_t row_count() const { return rows_.size(); }
  std::size_t rows(ProcessId p) const { return rows_of_[p].size(); }

  /// Handle of the i-th appended row of process `p` (0-based).
  RowHandle handle_of(ProcessId p, std::size_t i) const {
    return rows_of_[p][i];
  }

  // Hot accessors — inline, no checks beyond debug: these sit inside the
  // precedence inner loops.
  const EventIndex* data(RowHandle h) const {
    CT_DCHECK(h < rows_.size());
    return pool_.data() + rows_[h].offset;
  }
  /// Pool offset of a row — stable across appends (indices, not pointers),
  /// so embedding stores can cache offsets and skip the rows_ indirection.
  std::uint32_t offset_of(RowHandle h) const {
    CT_DCHECK(h < rows_.size());
    return rows_[h].offset;
  }
  /// Pool base for offset-addressed reads. Invalidated by append (pool may
  /// reallocate) — re-fetch per query, never cache across writes.
  const EventIndex* pool_data() const { return pool_.data(); }
  std::uint32_t width(RowHandle h) const {
    CT_DCHECK(h < rows_.size());
    return rows_[h].width;
  }
  EventIndex component(RowHandle h, std::size_t slot) const {
    CT_DCHECK(h < rows_.size() && slot < rows_[h].width);
    return pool_[rows_[h].offset + slot];
  }
  std::span<const EventIndex> values(RowHandle h) const {
    CT_CHECK_MSG(h < rows_.size(), "bad row handle " << h);
    return {pool_.data() + rows_[h].offset, rows_[h].width};
  }

  /// In-place mutation hooks (corruption injection / self-repair).
  /// Require interning OFF: shared storage would alias the write.
  void overwrite_component(RowHandle h, std::size_t slot, EventIndex value);
  void overwrite_row(RowHandle h, const EventIndex* values,
                     std::size_t width);

  /// Pool components actually stored (after dedup).
  std::size_t pool_words() const { return pool_.size(); }
  /// Appends that were satisfied by an existing identical row.
  std::size_t interned_hits() const { return interned_hits_; }

 private:
  struct Row {
    std::uint32_t offset;
    std::uint32_t width;
  };

  RowHandle intern_lookup(const EventIndex* values, std::size_t width) const;

  Options options_;
  std::vector<EventIndex> pool_;
  std::vector<Row> rows_;
  std::vector<std::vector<RowHandle>> rows_of_;  // [process] -> handles
  /// Content hash -> handles with that hash (collision chain).
  std::unordered_map<std::uint64_t, std::vector<RowHandle>> interned_;
  std::size_t interned_hits_ = 0;
};

}  // namespace ct
