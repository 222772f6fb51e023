// Verified crash recovery: WAL-tail replay past a restored image.
//
// Recovery turns whatever a crash left in storage back into a monitoring
// entity, guaranteeing PREFIX CONSISTENCY: the recovered monitor's delivered
// log is exactly a prefix of the pre-crash delivered log — never a record
// invented, reordered, or half-applied. The procedure:
//
//   1. Restore the newest usable CTC1 image — a published generation or a
//      checkpoint — or start from scratch. The recovery ladder
//      (store/recovery_ladder.hpp, the one entry point) verifies every
//      candidate and falls back, loudly accounted, past each one it
//      rejects.
//   2. Scan the WAL segments in order (wal.hpp grammar), checking segment
//      chaining, per-frame CRCs, and commit-frame sequence/digest
//      agreement; stop at the first inconsistency (truncate-at-first-
//      invalid-frame).
//   3. Replay the tail records past the image's WAL position through the
//      same delivered-order restore path images use — the WAL *is* the
//      delivery order, so recovery reproduces it byte for byte. (Feeding
//      the tail through ingest() instead would be subtly wrong: the
//      delivery manager may re-pair a sync's two halves in the opposite
//      order from the recording when the original trigger was the other
//      half.) A trailing sync half whose partner frame did not survive is
//      HELD — not replayed, reported in `held` — because a lone half is
//      not a deliverable prefix; it pairs up when the upstream stream is
//      re-fed (overlap drops as kDuplicate).
//
// What recovery CANNOT know is how many records existed past the last
// durable byte; the caller that does know (the crash sweep, or an operator
// comparing against an upstream source) declares the difference with
// MonitoringEntity::note_wal_loss, which surfaces as health().wal_lost.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "monitor/monitor.hpp"

namespace ct {

namespace wal {
struct WalScan;
}

struct RecoveryReport {
  /// Image the monitor was restored from; empty = from scratch.
  std::string snapshot_object;
  /// Always 0: the ladder counts every rejected image once, by cause, in
  /// SnapshotHealth. Kept for callers that add it to
  /// SnapshotHealth::total_rejected() (perfbench's cold-start child).
  std::size_t snapshots_rejected = 0;
  std::uint64_t snapshot_seq = 0;      ///< WAL position the snapshot covered
  std::uint64_t replayed = 0;          ///< WAL tail records re-applied
  std::uint64_t recovered_seq = 0;     ///< records recovered in total
  /// 0 or 1: a durable trailing sync half whose partner frame was lost —
  /// not delivered (see above), but not lost either.
  std::uint64_t held = 0;
  std::size_t segments_scanned = 0;
  bool truncated = false;              ///< WAL scan stopped early
  std::string truncate_detail;
  /// Two-phase re-clustering (src/recluster/): 1 when a committed
  /// migration newer than the snapshot's baked epoch was re-applied (only
  /// the newest matters — engine state is a function of the last committed
  /// partition plus the delivered prefix).
  std::uint64_t migrations_applied = 0;
  /// Intent frames without a surviving commit frame: migrations rolled
  /// back by the crash, discarded exactly as the protocol promises.
  std::uint64_t migrations_discarded = 0;
  /// Epoch of the recovered clustering (0 = never migrated).
  std::uint64_t migration_epoch = 0;
};

/// Steps 2–3 of recovery, run by the recovery ladder (src/store/) on every
/// rung: holds back a trailing unpaired sync half, replays the scanned tail
/// records past report.snapshot_seq through the delivered-order restore
/// path, fixes up health accounting, and re-applies the newest committed
/// migration. Fills report.{replayed, held, recovered_seq,
/// segments_scanned, truncated, truncate_detail, migrations_*,
/// migration_epoch}; requires report.snapshot_seq to be the position the
/// monitor was restored to.
void replay_wal_tail(const wal::WalScan& scan, MonitoringEntity& monitor,
                     RecoveryReport& report);

}  // namespace ct
