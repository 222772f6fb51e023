// CTC1 — the on-disk columnar snapshot format of the out-of-core store.
//
// A CTC1 object persists everything a restarted monitor OR a read-only
// mapped server needs, as fixed-width little-endian column segments (the
// dejavuii loader idiom: fixed-width records + id-interned tables, never
// ad-hoc per-record serialization):
//
//   "CTC1" | pad to 8
//   column segments, each 8-byte aligned:
//     ev_process / ev_index / ev_kind / ev_partner_* — the delivery log in
//       delivery order (the replay source of the recovery ladder);
//     pool — the TsArena component pool, verbatim;
//     row_offset / row_aux / row_probe / row_width — per-event RowRef
//       descriptors, process-major in event-index order;
//     row_counts / probe_counts — per-process extents (prefix sums are
//       rebuilt at open, O(processes));
//     probes — the store-time-resolved probe rows, flattened per process;
//     cs_sizes / cs_procs — the interned covered sets.
//   footer manifest (varint body):
//     generation, covered WAL position, monitor options + health + state
//     digest (the CTS1 restore contract), and a column table carrying per-
//     column FNV-1a digests and block-level CRC32C checksums.
//   16-byte trailer: u64le footer_offset | u32le crc32c(footer) | "CT1E"
//
// The trailer lets a reader locate the footer from the end of the file; the
// footer CRC is verified before a single manifest byte is trusted. Block
// CRCs localize corruption to a byte range (the tagged errors the recovery
// ladder reports); the per-column FNV digest is the whole-column second
// opinion. The arena columns mirror exactly what
// ClusterTimestampEngine::precedes reads, so a mapped snapshot answers
// precedence with zero replay — cold start is O(map), not O(WAL).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "monitor/monitor.hpp"
#include "util/check.hpp"

namespace ct {

inline constexpr char kColumnarMagic[] = "CTC1";
inline constexpr char kColumnarEndMagic[] = "CT1E";
inline constexpr std::uint8_t kColumnarVersion = 1;
inline constexpr std::size_t kColumnarHeaderBytes = 8;   // magic + pad
inline constexpr std::size_t kColumnarTrailerBytes = 16;

/// Sentinels shared with ClusterTimestampEngine::kExport{FullRow,NoProbe}.
inline constexpr std::uint32_t kColumnarFullRow = 0xffff'ffffu;
inline constexpr std::uint32_t kColumnarNoProbe = 0xffff'ffffu;

/// Thrown when stored and recomputed checksums disagree (footer CRC, block
/// CRC, column digest, post-replay state digest). The recovery ladder
/// counts these separately from structural rejections.
class ChecksumError : public CheckFailure {
 public:
  explicit ChecksumError(const std::string& what) : CheckFailure(what) {}
};

enum class ColumnId : std::uint8_t {
  kEvProcess = 0,
  kEvIndex,
  kEvKind,
  kEvPartnerProcess,
  kEvPartnerIndex,
  kPool,
  kRowOffset,
  kRowAux,
  kRowProbe,
  kRowWidth,
  kRowCounts,
  kProbes,
  kProbeCounts,
  kCsSizes,
  kCsProcs,
};
inline constexpr std::size_t kEventColumnCount = 5;
inline constexpr std::size_t kColumnarColumnCount = 15;

const char* to_string(ColumnId id);

struct ColumnInfo {
  ColumnId id{};
  std::uint32_t element_size = 0;
  std::uint64_t element_count = 0;
  std::uint64_t offset = 0;  ///< byte offset of the segment in the file
  std::uint64_t bytes = 0;   ///< element_size * element_count
  std::uint64_t digest = 0;  ///< FNV-1a of the segment bytes
  std::vector<std::uint32_t> block_crcs;  ///< CRC32C per block_bytes block
};

struct ColumnarManifest {
  std::uint8_t version = kColumnarVersion;
  /// False for monitors whose backend cannot export an arena (precomputed
  /// FM): the file carries only the event columns and
  /// serves the replay rungs, not the mapped read path.
  bool has_arena = false;
  std::uint64_t generation = 0;
  std::uint64_t wal_position = 0;  ///< delivered records the file covers
  std::uint64_t process_count = 0;
  std::uint64_t event_count = 0;
  std::uint64_t pool_words = 0;
  std::uint64_t covered_set_count = 0;
  std::uint64_t block_bytes = 0;
  MonitorOptions options;
  /// Saved with the CTS1 restored-state adjustment already applied
  /// (pending/quarantined dropped from ingested, then zeroed).
  MonitorHealth health;
  std::uint64_t state_digest = 0;
  std::vector<ColumnInfo> columns;  ///< ascending ColumnId order
  std::uint64_t footer_offset = 0;  ///< filled by the parser

  const ColumnInfo* column(ColumnId id) const;
};

/// FNV-1a over `data`, continuing from `seed`.
std::uint64_t fnv1a64(std::string_view data,
                      std::uint64_t seed = 14695981039346656037ull);

/// Serializes the monitor's delivered state as one CTC1 image. Exports the
/// arena columns when the monitor can (cluster backend in arena mode);
/// single-writer phase. `block_bytes` is the CRC block grid (smaller blocks
/// localize corruption more precisely at more footer bytes).
std::string encode_columnar(const MonitoringEntity& monitor,
                            std::uint64_t generation,
                            std::size_t block_bytes = 64 * 1024);

/// Parses and validates the magic, trailer, footer CRC, and manifest of a
/// CTC1 image, including the column table's structural invariants (bounds,
/// alignment, ordering, count cross-checks). O(columns) — no column data is
/// read. Throws ChecksumError on footer-CRC mismatch and CheckFailure
/// (byte-offset-tagged) on everything else.
ColumnarManifest parse_columnar_manifest(std::string_view bytes);

/// Recomputes every block CRC against the stored ones. O(file) at hardware
/// CRC speed (util/crc32c.hpp) — every column byte is covered, so this is
/// the integrity tier the mapped cold-start path pays. Throws ChecksumError
/// naming the column, block, and byte offset of the first mismatch.
void verify_columnar_blocks(std::string_view bytes,
                            const ColumnarManifest& manifest);

/// Recomputes every per-column FNV-1a digest — the deep audit tier, an
/// end-to-end cross-check independent of the CRC polynomial. O(file) at
/// ~1 GB/s (FNV is serial by construction), so the recovery ladder and
/// `ctsnap verify` run it, while the mapped serving path relies on
/// verify_columnar_blocks. Throws ChecksumError naming the column.
void verify_columnar_digests(std::string_view bytes,
                             const ColumnarManifest& manifest);

// --- object naming ---------------------------------------------------------
//
// Published generations are `<ns>ctc-<generation>.col`; a publication in
// flight writes `<ns>ctc-<generation>.col.tmp` and renames it into place
// (snapshot_store.hpp). The parse function rejects tmp names, so a crash
// that leaves a half-published generation leaves an object the ladder never
// mistakes for a snapshot — it is counted loudly instead (SnapshotHealth).

std::string columnar_object_name(std::uint64_t generation,
                                 const std::string& ns = "");
std::string columnar_tmp_name(std::uint64_t generation,
                              const std::string& ns = "");
std::optional<std::uint64_t> parse_columnar_name(const std::string& name,
                                                 const std::string& ns = "");
bool is_columnar_tmp_name(const std::string& name, const std::string& ns = "");

}  // namespace ct
