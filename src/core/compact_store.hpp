// Byte-exact compact storage of cluster timestamps.
//
// The paper's space accounting (§3.1/§4) assumes fixed-width vectors —
// projections padded to maxCS, full vectors to the tool's width — "since
// any variation in sizing of the vectors is likely to have a detrimental
// impact on the performance of the memory-allocation system". This store
// tests that assumption with an implementation a real tool could use: one
// append-only byte arena per process, covered-process sets interned once
// and referenced by id, all components varint-coded. Random access is kept
// via a per-event 32-bit offset table (counted in the footprint). Every
// record is self-contained.
//
// bench/table_encoded_bytes compares: raw FM (N words), tool-convention FM
// (300 words), padded cluster words (the paper's accounting), and this
// store's actual bytes.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <memory>
#include <vector>

#include "core/cluster_timestamp.hpp"
#include "model/ids.hpp"

namespace ct {

class CompactTimestampStore {
 public:
  explicit CompactTimestampStore(std::size_t process_count);

  /// Appends the timestamp of the next event of its process (index order).
  void append(EventId id, const ClusterTimestamp& ts);

  /// Reconstructs a stored timestamp (covered sets are shared with the
  /// interned table, values are freshly decoded).
  ClusterTimestamp decode(EventId id) const;

  std::size_t events() const { return events_; }

  /// Exact footprint in bytes: arenas + offset tables + interned covered
  /// sets (each process id 4 bytes).
  std::size_t bytes() const;

 private:
  struct PerProcess {
    std::string arena;
    std::vector<std::uint32_t> offsets;  // arena offset per event
  };

  std::uint32_t intern(
      const std::shared_ptr<const std::vector<ProcessId>>& covered);

  std::size_t process_count_;
  std::vector<PerProcess> per_process_;
  // Interned covered sets: pointer identity first (snapshots are shared),
  // content as fallback.
  std::map<const void*, std::uint32_t> interned_by_ptr_;
  std::vector<std::shared_ptr<const std::vector<ProcessId>>> covered_sets_;
  std::size_t covered_words_ = 0;
  std::size_t events_ = 0;
};

}  // namespace ct
