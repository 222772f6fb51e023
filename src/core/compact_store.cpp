#include "core/compact_store.hpp"

#include "util/check.hpp"
#include "util/varint.hpp"

namespace ct {
namespace {

// Record: varint(header) then components.
//   header = 0                     → full vector; then varint(count) values
//   header = covered_set_id + 1    → projection over that interned set
constexpr std::uint64_t kFullHeader = 0;

}  // namespace

CompactTimestampStore::CompactTimestampStore(std::size_t process_count)
    : process_count_(process_count), per_process_(process_count) {
  CT_CHECK(process_count > 0);
}

std::uint32_t CompactTimestampStore::intern(
    const std::shared_ptr<const std::vector<ProcessId>>& covered) {
  const auto [it, inserted] = interned_by_ptr_.try_emplace(
      covered.get(), static_cast<std::uint32_t>(covered_sets_.size()));
  if (inserted) {
    covered_sets_.push_back(covered);
    covered_words_ += covered->size();
  }
  return it->second;
}

void CompactTimestampStore::append(EventId id, const ClusterTimestamp& ts) {
  CT_CHECK_MSG(id.process < process_count_, "process out of range");
  PerProcess& pp = per_process_[id.process];
  CT_CHECK_MSG(pp.offsets.size() + 1 == id.index,
               "append out of order at " << id);
  CT_CHECK_MSG(pp.arena.size() < UINT32_MAX, "arena overflow");
  pp.offsets.push_back(static_cast<std::uint32_t>(pp.arena.size()));

  if (ts.is_full()) {
    put_varint(pp.arena, kFullHeader);
    put_varint(pp.arena, ts.values.size());
  } else {
    put_varint(pp.arena, intern(ts.covered) + 1);
  }
  for (const EventIndex v : ts.values) put_varint(pp.arena, v);
  ++events_;
}

ClusterTimestamp CompactTimestampStore::decode(EventId id) const {
  CT_CHECK_MSG(id.process < process_count_, "process out of range");
  const PerProcess& pp = per_process_[id.process];
  CT_CHECK_MSG(id.index >= 1 && id.index <= pp.offsets.size(),
               "event " << id << " not stored");

  std::size_t pos = pp.offsets[id.index - 1];
  ClusterTimestamp ts;
  const std::uint64_t header = get_varint(pp.arena, pos);
  std::size_t count;
  if (header == kFullHeader) {
    count = get_varint(pp.arena, pos);
    ts.cluster_receive = true;
  } else {
    const std::uint64_t set_id = header - 1;
    CT_CHECK_MSG(set_id < covered_sets_.size(), "bad covered-set id");
    ts.covered = covered_sets_[set_id];
    count = ts.covered->size();
  }
  ts.values.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    ts.values.push_back(static_cast<EventIndex>(get_varint(pp.arena, pos)));
  }
  return ts;
}

std::size_t CompactTimestampStore::bytes() const {
  std::size_t total = covered_words_ * sizeof(ProcessId);
  for (const PerProcess& pp : per_process_) {
    total += pp.arena.size() + pp.offsets.size() * sizeof(std::uint32_t);
  }
  return total;
}

}  // namespace ct
