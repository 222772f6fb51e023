// Segmented write-ahead delivery log (docs/FAULT_MODEL.md §7).
//
// Every event the monitoring entity delivers is appended as one framed
// record, so a crashed monitor restarts from its latest checkpoint snapshot
// plus the log tail instead of re-requesting the whole stream. The format is
// built for truncate-at-first-invalid-frame recovery:
//
//   segment object "wal-<seq>.log":
//     "CTW1" | varint segment_seq | varint first_record_seq
//     frame*
//   frame:
//     u8 type | varint payload_len | payload | u32le CRC32C(type..payload)
//   record payload (type 1):
//     varint process | varint index | u8 kind
//     | varint partner.process | varint partner.index
//   commit payload (type 2, written at every sync point):
//     varint next_record_seq | u64le FNV-1a of this segment's record
//     payloads so far
//   migration-intent payload (type 3, prepare phase of src/recluster/):
//     varint position | varint epoch | u64le plan digest
//     | varint move_count | (varint process | varint from | varint to)*
//     | varint cluster_count | (varint size | varint member*)*
//   migration-commit payload (type 4, the migration's atomic commit point):
//     varint position | varint epoch | u64le plan digest
//
// The two-phase migration protocol writes an intent frame (synced) before
// dual-read verification and a commit frame (synced) at the moment of the
// in-memory swap. Recovery applies the newest migration whose COMMIT frame
// survived and discards intents without commits — so a crash anywhere in
// plan/prepare/commit yields exactly the pre- or post-migration clustering,
// never a hybrid.
//
// Record sequence numbers are implicit (first_record_seq + position), so a
// segment is self-describing and segments chain by construction: recovery
// (recovery.hpp) checks that each segment starts exactly where the previous
// one ended and stops — prefix-consistent — at the first gap, bad CRC,
// malformed varint, or commit frame whose sequence/digest disagrees with
// what was actually read.
//
// Sync points are explicit (SyncPolicy): a commit frame is appended and the
// segment fsync'd. Everything after the last sync is the un-synced tail a
// crash may lose — never more (the storage model in storage.hpp enforces
// exactly this, and the crash sweep verifies it).
//
// checkpoint() writes a CTS1 snapshot object (trace/snapshot.hpp, v2: the
// snapshot embeds its WAL position and a whole-file CRC), prunes segments
// wholly covered by the oldest retained snapshot, and keeps the newest
// `retain_checkpoints` snapshots — incremental checkpointing: the WAL only
// ever grows by the tail since the last snapshot.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/cluster_set.hpp"
#include "durability/storage.hpp"
#include "model/event.hpp"

namespace ct {

class MonitoringEntity;

/// When the log makes appended records durable.
enum class SyncPolicy : std::uint8_t {
  kNone,          ///< never explicitly (rotation/checkpoint still sync)
  kEveryRecord,   ///< after every append — loses at most the in-flight record
  kEveryN,        ///< after every `sync_every` appends
  kOnCheckpoint,  ///< only when a checkpoint is cut
};

const char* to_string(SyncPolicy p);

struct WalOptions {
  SyncPolicy policy = SyncPolicy::kEveryRecord;
  std::size_t sync_every = 64;            ///< kEveryN batch size
  std::size_t segment_bytes = 256 * 1024; ///< rotation threshold
  std::size_t retain_checkpoints = 2;     ///< snapshots kept after pruning
  /// Namespace prefix prepended to every object this log creates (segments
  /// and snapshots). Many tenants can then share one StorageBackend with
  /// disjoint object sets: appends, pruning, and recovery of one namespace
  /// never read or remove another namespace's objects (the bulkhead the
  /// shard router relies on — docs/FAULT_MODEL.md §8). Must not contain
  /// '/' (FileStorage maps names to flat paths); "" is the legacy
  /// single-tenant namespace.
  std::string ns;
};

struct WalStats {
  std::uint64_t appends = 0;
  std::uint64_t syncs = 0;          ///< storage syncs issued
  std::uint64_t commits = 0;        ///< commit frames written
  std::uint64_t rotations = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t segments_pruned = 0;
  std::uint64_t snapshots_pruned = 0;
  std::uint64_t bytes_appended = 0;
};

/// One process move of a migration plan (for the WAL frame and health
/// accounting; the full plan lives in src/recluster/).
struct MigrationMove {
  ProcessId process = 0;
  ClusterId from = 0;
  ClusterId to = 0;
};

/// A migration as the WAL records it: the intent frame's full payload plus
/// whether a matching commit frame survived. `partition` is the complete
/// target clustering — recovery needs no other state to re-apply it.
struct WalMigration {
  std::uint64_t position = 0;  ///< record seq the plan covers
  std::uint64_t epoch = 0;     ///< monotone migration epoch
  std::uint64_t plan_digest = 0;
  std::vector<MigrationMove> moves;
  std::vector<std::vector<ProcessId>> partition;
  bool committed = false;
};

/// The write-ahead log. Install on the ingest path with
/// `monitor.set_delivery_tap([&](const Event& e) { log.append(e); })`.
class DurableLog {
 public:
  /// Opens the log over `storage`, starting a fresh segment. `resume_seq`
  /// is the next record sequence (0 for an empty log; after a crash, pass
  /// RecoveryReport::recovered_seq — the new segment chains onto the
  /// recovered prefix and the possibly-torn old tail is never appended to).
  /// A last segment that crashed before its header reached disk holds no
  /// record; it is reopened under its own number rather than left mid-log.
  DurableLog(StorageBackend& storage, WalOptions options,
             std::uint64_t resume_seq = 0);

  /// Appends one delivered event; applies the sync policy; rotates when the
  /// segment is full.
  void append(const Event& e);

  /// Writes a commit frame and makes the segment durable. No-op if nothing
  /// was appended since the last sync.
  void sync();

  /// Snapshots `monitor` (which must be the monitor this log records for),
  /// makes it durable, prunes covered segments and stale snapshots.
  void checkpoint(const MonitoringEntity& monitor);

  /// Appends a migration-intent frame for the prepare phase and makes it
  /// durable immediately (the intent must survive any crash during verify).
  /// `m.position` is overwritten with the current record sequence — the
  /// delivered prefix the plan was computed over. Returns that position.
  std::uint64_t append_migration_intent(WalMigration& m);

  /// Appends a migration-commit frame and makes it durable: the atomic
  /// commit point of the two-phase protocol. Call at the instant of (just
  /// before) the in-memory engine swap.
  void append_migration_commit(std::uint64_t position, std::uint64_t epoch,
                               std::uint64_t plan_digest);

  std::uint64_t next_record_seq() const { return next_seq_; }
  /// Records guaranteed durable (everything below the last sync point).
  std::uint64_t synced_record_seq() const { return synced_seq_; }
  const WalStats& stats() const { return stats_; }
  const std::string& segment_name() const { return segment_name_; }

 private:
  void open_segment(std::uint64_t first_record_seq);

  StorageBackend& storage_;
  WalOptions options_;
  WalStats stats_;
  std::string segment_name_;
  std::uint64_t segment_seq_ = 0;
  std::uint64_t segment_first_seq_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t synced_seq_ = 0;
  std::uint64_t segment_digest_;     // FNV over this segment's payloads
  std::size_t segment_size_ = 0;     // bytes appended to the current segment
  std::size_t unsynced_records_ = 0;
};

// --- shared WAL grammar (recovery and tests use these) ---------------------

namespace wal {

inline constexpr char kSegmentMagic[] = "CTW1";
inline constexpr std::uint8_t kRecordFrame = 1;
inline constexpr std::uint8_t kCommitFrame = 2;
inline constexpr std::uint8_t kMigrationIntentFrame = 3;
inline constexpr std::uint8_t kMigrationCommitFrame = 4;
inline constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ull;

/// Object names are `<ns>wal-<seq>.log` / `<ns>snap-<seq>.cts`; the
/// namespace prefix `ns` (default "": the single-tenant layout, unchanged
/// from before namespaces existed) partitions one StorageBackend between
/// tenants. The parse functions return nullopt for names outside `ns` —
/// including another tenant's objects — which is what keeps every scan,
/// prune, and recovery namespace-local.
std::string segment_object_name(std::uint64_t segment_seq,
                                const std::string& ns = "");
std::string snapshot_object_name(std::uint64_t record_seq,
                                 const std::string& ns = "");
std::optional<std::uint64_t> parse_segment_name(const std::string& name,
                                                const std::string& ns = "");
std::optional<std::uint64_t> parse_snapshot_name(const std::string& name,
                                                 const std::string& ns = "");

/// Canonical namespace of one tenant: "tenant-<id>.". Fixed-width and
/// '/'-free so it is valid for both storage backends and lexicographically
/// groups each tenant's objects.
std::string tenant_namespace(std::uint32_t tenant);

/// True when `ns` is usable as an object-name prefix (no '/', no NUL).
bool valid_namespace(const std::string& ns);

/// True when `data` is a strict prefix of segment `segment_seq`'s header
/// (empty, or a torn header append): what a crash between open_segment's
/// sync_dir and the header reaching disk leaves behind. Such a segment
/// holds no record; scan_wal reads it as an empty tail and a restarted
/// DurableLog reopens it.
bool headerless_segment(std::string_view data, std::uint64_t segment_seq);

/// Serializes one record payload (no frame).
std::string encode_record(const Event& e);
/// Serializes one migration-intent payload (no frame).
std::string encode_migration_intent(const WalMigration& m);
/// Appends one framed record/commit to `out`.
void put_frame(std::string& out, std::uint8_t type, const std::string& payload);

struct WalRecord {
  std::uint64_t seq = 0;
  Event event;
};

struct WalScan {
  /// Valid records with seq >= from_seq, in order.
  std::vector<WalRecord> records;
  /// Every migration intent whose frame survived, in append order, with
  /// `committed` set when its commit frame survived too. An orphan commit
  /// (its intent pruned with a covered segment) is appended with an empty
  /// partition — always superseded by a snapshot's baked epoch.
  std::vector<WalMigration> migrations;
  std::uint64_t next_seq = 0;  ///< one past the last valid record
  /// One past the last valid record seq physically present in the durable
  /// log, INCLUDING records below from_seq. Lets recovery tell "the log
  /// simply ends at the snapshot's position" (log_end >= from_seq) from "a
  /// snapshot claims a WAL position the log never reached" (log_end <
  /// from_seq with segments present) — the position-gap rejection cause.
  std::uint64_t log_end = 0;
  std::size_t segments_scanned = 0;
  bool truncated = false;      ///< stopped before the physical end
  std::string detail;          ///< what stopped the scan
};

/// Scans every WAL segment of namespace `ns` in `storage`, enforcing the
/// chaining and framing rules, stopping — never throwing — at the first
/// inconsistency. Objects outside `ns` (other tenants' segments, however
/// damaged) are never read.
WalScan scan_wal(const StorageBackend& storage, std::uint64_t from_seq,
                 const std::string& ns = "");

}  // namespace wal

}  // namespace ct
