// The mapped read path of the out-of-core store.
//
// A MappedSnapshot opens a CTC1 image (durability/format.hpp) and serves
// the arena read API — precedence queries, event lookups — directly from
// the persisted columns, with zero replay: opening costs O(processes +
// covered sets) to rebuild prefix sums and covered-set position tables,
// never O(events). An events-only image (a checkpoint) serves event
// lookups and the replay path only.
// Against a FileStorage backend the image is memory-mapped read-only
// (PROT_READ), so a cold server answers its first query after one mmap and
// the page cache faults columns in on demand; RSS is bounded by the touched
// pages, not the file. Against SimulatedStorage the bytes are copied — the
// crash sweep exercises the same code over its materialized images.
//
// Verification is tiered to keep each caller honest about what it paid for:
//   open                — footer CRC + manifest structure, O(columns);
//   verify_blocks()     — every block CRC, O(file bytes) at hardware CRC
//                         speed; covers every column byte;
//   verify_digests()    — per-column FNV audit, O(file bytes) but serial;
//   verify_structure()  — semantic bounds of every row/probe/event,
//                         O(events);
//   verify()            — the three above, in that order.
// The recovery ladder (recovery_ladder.hpp) runs all four before trusting
// an image; the mapped cold-start path pays blocks + structure. precedes()
// checks its operands against the image's extents, in release builds too;
// the bounds of the rows and probes it then follows are verify_structure()'s.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "durability/format.hpp"
#include "model/event.hpp"

namespace ct {

class StorageBackend;

/// Read-only bytes of one storage object: an mmap when the object is a real
/// file, an owned copy otherwise. Move-only; unmaps on destruction.
class ColdBytes {
 public:
  ColdBytes() = default;
  ColdBytes(ColdBytes&& other) noexcept;
  ColdBytes& operator=(ColdBytes&& other) noexcept;
  ColdBytes(const ColdBytes&) = delete;
  ColdBytes& operator=(const ColdBytes&) = delete;
  ~ColdBytes();

  /// Maps `path` read-only. Throws CheckFailure if it cannot be opened.
  static ColdBytes map_file(const std::string& path);
  static ColdBytes from_string(std::string bytes);

  std::string_view view() const {
    return map_ != nullptr
               ? std::string_view(static_cast<const char*>(map_), map_size_)
               : std::string_view(owned_);
  }
  bool mapped() const { return map_ != nullptr; }

 private:
  std::string owned_;
  void* map_ = nullptr;
  std::size_t map_size_ = 0;
};

/// Reads object `name` as ColdBytes: mmap'd when `storage` is a
/// FileStorage, copied via read() otherwise.
ColdBytes read_cold(const StorageBackend& storage, const std::string& name);

class MappedSnapshot {
 public:
  /// Parses and structurally validates the manifest, then builds the O(P)
  /// index tables (row/probe prefix sums, covered-set position maps).
  /// Throws ChecksumError / CheckFailure exactly as
  /// parse_columnar_manifest does, plus byte-offset-tagged failures for
  /// index-table inconsistencies (covered-set bounds, count sums).
  explicit MappedSnapshot(ColdBytes bytes);
  MappedSnapshot(const MappedSnapshot&) = delete;
  MappedSnapshot& operator=(const MappedSnapshot&) = delete;

  const ColumnarManifest& manifest() const { return manifest_; }
  bool has_arena() const { return manifest_.has_arena; }
  std::uint64_t event_count() const { return manifest_.event_count; }
  std::size_t process_count() const {
    return static_cast<std::size_t>(manifest_.process_count);
  }
  std::string_view bytes() const { return bytes_.view(); }

  /// The i-th delivered event: one offset load and one record decode in
  /// an arena image, which indexes every record; in a checkpoint image it
  /// decodes from the start of the record's run. Exact on an image that
  /// passed verify_structure(); never reads outside the image; throws
  /// CheckFailure when a record it decodes is malformed.
  Event event(std::uint64_t i) const;

  /// Visits every delivered event in delivery order, decoding the record
  /// column front to back — O(events), the replay path. Throws CheckFailure
  /// on a malformed record.
  template <typename Visit>
  void for_each_event(Visit&& visit) const {
    std::size_t pos = 0;
    for (std::uint64_t i = 0; i < manifest_.event_count; ++i) {
      visit(decode_event(i, pos));
    }
  }

  /// Delivered events of process `p` (arena images only).
  EventIndex delivered_count(ProcessId p) const;

  /// Happened-before from the mapped arena columns: resolves f's row and
  /// calls the engine's test, cluster_precedes (core/cluster_precedence.hpp).
  /// Throws CheckFailure on an events-only image, when `f` is not in this
  /// image, or when `e`'s process is not — the operand checks the engine
  /// makes; the rows it follows are trusted after a verify_structure() pass.
  bool precedes(const Event& e, const Event& f) const;

  /// Recomputes every block CRC (covers every column byte). O(file).
  void verify_blocks() const {
    verify_columnar_blocks(bytes_.view(), manifest_);
  }

  /// Recomputes every per-column FNV digest — the deep audit. O(file).
  void verify_digests() const {
    verify_columnar_digests(bytes_.view(), manifest_);
  }

  /// Semantic bounds of every event row: records well formed and filling
  /// their column exactly, every run offset on its record's first byte,
  /// event ids in range and per-process consecutive, row extents inside the
  /// pool, projections consistent with their covered sets, probe targets
  /// full-width. O(events). Throws CheckFailure tagged with the byte offset
  /// of the offending element.
  void verify_structure() const;

  /// Every tier: verify_blocks, verify_digests, verify_structure.
  void verify() const {
    verify_blocks();
    verify_digests();
    verify_structure();
  }

 private:
  const std::uint32_t* u32_column(ColumnId id) const;
  /// Byte offset, within ev_records, of the first record of run `run`.
  std::uint64_t run_offset(std::uint64_t run) const;
  /// Decodes record `i` at `pos` of ev_records and advances `pos`.
  Event decode_event(std::uint64_t i, std::size_t& pos) const;

  ColdBytes bytes_;
  ColumnarManifest manifest_;

  std::string_view records_;      ///< the ev_records column
  std::string_view run_offsets_;  ///< ev_run_offsets, u64le each

  const std::uint32_t* pool_ = nullptr;
  const std::uint32_t* row_offset_ = nullptr;
  const std::uint32_t* row_aux_ = nullptr;
  const std::uint32_t* row_probe_ = nullptr;
  const std::uint32_t* row_width_ = nullptr;
  const std::uint32_t* probes_ = nullptr;

  std::vector<std::uint64_t> row_base_;    ///< P+1 prefix sums of row_counts
  std::vector<std::uint64_t> probe_base_;  ///< P+1 prefix sums of probe_counts

  struct CsIndex {
    std::uint64_t size = 0;               ///< member count
    std::vector<std::int32_t> pos;        ///< process → slot, -1 if absent
  };
  std::vector<CsIndex> cs_;
};

}  // namespace ct
