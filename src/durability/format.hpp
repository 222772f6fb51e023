// CTC1 — the one on-disk snapshot format: checkpoints and published
// generations alike.
//
// A CTC1 object persists everything a restarted monitor OR a read-only
// mapped server needs, as 8-byte aligned column segments:
//
//   "CTC1" | pad to 8
//   column segments, each 8-byte aligned:
//     ev_records — the delivery log in delivery order, one entry per event
//       in the WAL record grammar (wal::encode_record: varint process,
//       varint index, u8 kind, varint partner process, varint partner
//       index) — the replay source of the recovery ladder;
//     ev_run_offsets — u64le byte offset of the first record of every run
//       of `run_records` records: 1 in arena images, so the mapped
//       server's event(i) is one offset load; kEventRunRecords in
//       checkpoints (0.03 B/event), whose records are only replayed;
//   and, in arena images only (published generations), fixed-width u32
//   columns mirroring the engine's arena:
//     pool — the TsArena component pool, verbatim;
//     row_offset / row_aux / row_probe / row_width — per-event RowRef
//       descriptors, process-major in event-index order (row_aux holds
//       kFullRow for a full row, core/cluster_precedence.hpp);
//     row_counts / probe_counts — per-process extents (prefix sums are
//       rebuilt at open, O(processes));
//     probes — the store-time-resolved probe rows, flattened per process
//       (kNoProbe where a slot has none);
//     cs_sizes / cs_procs — the interned covered sets.
//   footer manifest (varint body):
//     version, arena flag, generation, covered WAL position, run length,
//     monitor options + health + state digest (the restore contract), and a
//     column table carrying per-column FNV-1a digests and block-level
//     CRC32C checksums.
//   16-byte trailer: u64le footer_offset | u32le crc32c(footer) | "CT1E"
//
// DurableLog::checkpoint writes events-only images under `snap-<seq>.cts`
// names; publish_columnar (store/snapshot_store.hpp) writes arena images
// under `ctc-<gen>.col` names. Both recover through one verify-and-restore
// path (store/recovery_ladder.hpp).
//
// The trailer lets a reader locate the footer from the end of the file; the
// footer CRC is verified before a single manifest byte is trusted. Block
// CRCs localize corruption to a byte range (the tagged errors the recovery
// ladder reports); the per-column FNV digest is the whole-column second
// opinion. The arena columns mirror exactly what
// ClusterTimestampEngine::precedes reads, so a mapped snapshot answers
// precedence through the same test (cluster_precedes) with zero replay —
// cold start is O(map), not O(WAL).
//
// A version-1 image (fixed-width event columns) and an object in the
// removed CTS1 format are both refused by name; no reader for either is
// kept.
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
inline constexpr std::uint8_t kColumnarVersion = 2;
inline constexpr std::size_t kColumnarHeaderBytes = 8;   // magic + pad
inline constexpr std::size_t kColumnarTrailerBytes = 16;
/// Default CRC block grid.
inline constexpr std::size_t kColumnarBlockBytes = 64 * 1024;
/// Records per ev_run_offsets entry in checkpoint images, and the longest
/// run a reader accepts. Arena images index every record.
inline constexpr std::uint64_t kEventRunRecords = 256;
/// Newest images of each family — checkpoints and published generations —
/// that survive pruning.
inline constexpr std::size_t kRetainedImages = 2;

/// Thrown when stored and recomputed checksums disagree (footer CRC, block
/// CRC, column digest, post-replay state digest). The recovery ladder
/// counts these separately from structural rejections.
class ChecksumError : public CheckFailure {
 public:
  explicit ChecksumError(const std::string& what) : CheckFailure(what) {}
};

enum class ColumnId : std::uint8_t {
  kEvRecords = 0,
  kEvRunOffsets,
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
inline constexpr std::size_t kEventColumnCount = 2;
inline constexpr std::size_t kColumnarColumnCount = 12;

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
  /// False for checkpoint images and for monitors whose backend cannot
  /// export an arena (precomputed FM): the file carries only the event
  /// columns and serves the replay path, not the mapped read path.
  bool has_arena = false;
  std::uint64_t generation = 0;
  std::uint64_t wal_position = 0;  ///< delivered records the file covers
  std::uint64_t process_count = 0;
  std::uint64_t event_count = 0;
  std::uint64_t run_records = 0;  ///< records per ev_run_offsets entry
  std::uint64_t pool_words = 0;
  std::uint64_t covered_set_count = 0;
  std::uint64_t block_bytes = 0;
  MonitorOptions options;
  /// Saved with the restored-state adjustment already applied: records
  /// still pending or quarantined are not in the image, so they are dropped
  /// from `ingested` and zeroed (docs/FAULT_MODEL.md §5).
  MonitorHealth health;
  std::uint64_t state_digest = 0;
  std::vector<ColumnInfo> columns;  ///< ascending ColumnId order
  std::uint64_t footer_offset = 0;  ///< filled by the parser

  const ColumnInfo* column(ColumnId id) const;
};

/// FNV-1a over `data`, continuing from `seed`.
std::uint64_t fnv1a64(std::string_view data,
                      std::uint64_t seed = 14695981039346656037ull);

/// Serializes the monitor's delivered state as one CTC1 arena image — a
/// published generation — with the arena columns when the monitor can
/// export them (cluster backend), events-only otherwise. Single-writer
/// phase. `block_bytes` is the CRC block grid (smaller blocks localize
/// corruption more precisely at more footer bytes).
std::string encode_columnar(const MonitoringEntity& monitor,
                            std::uint64_t generation,
                            std::size_t block_bytes = kColumnarBlockBytes);

/// The checkpoint image DurableLog::checkpoint writes: events only,
/// generation 0, the default block grid.
std::string encode_checkpoint(const MonitoringEntity& monitor);

/// Parses and validates the magic, trailer, footer CRC, and manifest of a
/// CTC1 image, including the column table's structural invariants (bounds,
/// alignment, ordering, count cross-checks). O(columns) — no column data is
/// read. Throws ChecksumError on footer-CRC mismatch and CheckFailure
/// (byte-offset-tagged) on everything else; a CTS1 object and a version-1
/// image are refused with a reason that names them.
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
