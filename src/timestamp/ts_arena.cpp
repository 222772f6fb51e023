#include "timestamp/ts_arena.hpp"

#include <limits>

namespace ct {
namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

std::uint64_t row_hash(const EventIndex* values, std::size_t width) {
  std::uint64_t h = kFnvOffset;
  h = (h ^ width) * kFnvPrime;
  for (std::size_t i = 0; i < width; ++i) {
    h = (h ^ values[i]) * kFnvPrime;
  }
  return h;
}

}  // namespace

TsArena::TsArena(std::size_t process_count)
    : TsArena(process_count, Options{}) {}

TsArena::TsArena(std::size_t process_count, Options options)
    : options_(options), rows_of_(process_count) {
  CT_CHECK(process_count > 0);
}

void TsArena::reserve(std::size_t total_rows, std::size_t total_components) {
  rows_.reserve(total_rows);
  pool_.reserve(total_components);
}

TsArena::RowHandle TsArena::intern_lookup(const EventIndex* values,
                                          std::size_t width) const {
  const auto it = interned_.find(row_hash(values, width));
  if (it == interned_.end()) return kNoRow;
  for (const RowHandle h : it->second) {
    const Row& row = rows_[h];
    if (row.width != width) continue;
    bool equal = true;
    for (std::size_t i = 0; i < width && equal; ++i) {
      equal = pool_[row.offset + i] == values[i];
    }
    if (equal) return h;
  }
  return kNoRow;
}

TsArena::RowHandle TsArena::append(ProcessId p, const EventIndex* values,
                                   std::size_t width) {
  CT_CHECK_MSG(p < rows_of_.size(), "process " << p << " out of range");
  CT_CHECK_MSG(rows_.size() < kNoRow, "arena row table overflow");
  const auto handle = static_cast<RowHandle>(rows_.size());

  if (options_.intern) {
    if (const RowHandle twin = intern_lookup(values, width); twin != kNoRow) {
      ++interned_hits_;
      rows_.push_back(Row{rows_[twin].offset,
                          static_cast<std::uint32_t>(width)});
      rows_of_[p].push_back(handle);
      return handle;
    }
  }
  CT_CHECK_MSG(pool_.size() + width <=
                   std::numeric_limits<std::uint32_t>::max(),
               "arena pool overflow");
  const auto offset = static_cast<std::uint32_t>(pool_.size());
  pool_.insert(pool_.end(), values, values + width);
  rows_.push_back(Row{offset, static_cast<std::uint32_t>(width)});
  rows_of_[p].push_back(handle);
  if (options_.intern) {
    interned_[row_hash(values, width)].push_back(handle);
  }
  return handle;
}

void TsArena::overwrite_component(RowHandle h, std::size_t slot,
                                  EventIndex value) {
  CT_CHECK_MSG(!options_.intern,
               "in-place mutation requires a non-interning arena");
  CT_CHECK_MSG(h < rows_.size(), "bad row handle " << h);
  const Row& row = rows_[h];
  CT_CHECK_MSG(slot < row.width, "slot " << slot << " out of row width");
  pool_[row.offset + slot] = value;
}

void TsArena::overwrite_row(RowHandle h, const EventIndex* values,
                            std::size_t width) {
  CT_CHECK_MSG(!options_.intern,
               "in-place mutation requires a non-interning arena");
  CT_CHECK_MSG(h < rows_.size(), "bad row handle " << h);
  const Row& row = rows_[h];
  CT_CHECK_MSG(width == row.width, "row width mismatch on overwrite");
  for (std::size_t i = 0; i < width; ++i) pool_[row.offset + i] = values[i];
}

}  // namespace ct
