// The recovery ladder: the one recovery entry point. Newest usable CTC1
// image + WAL tail, then every older rung, each one loudly accounted.
//
// recover_with_ladder() tries, in order:
//
//   kMapped       the newest published generation (`ctc-<gen>.col`);
//   kMappedPrior  each older generation;
//   kSnapshot     the checkpoint images (`snap-<seq>.cts`, events-only),
//                 newest first;
//   kWalReplay    full WAL replay from sequence 0;
//   kScratch      a fresh monitor (nothing durable survived).
//
// Every image, generation or checkpoint, takes the same steps, and all must
// pass: footer CRC and manifest, name agreement (the footer's generation
// for `ctc-*`, its covered WAL position for `snap-*`), block CRCs, column
// digests, O(n) structural bounds, WAL-position reachability, replay of the
// event records with state-digest agreement — then the WAL tail.
//
// Every rejected image is quarantined, not deleted: it is counted once in
// SnapshotHealth by the cause the shared verifier found — checksum,
// structural, name mismatch, position-past-log-end, replay divergence — with
// a byte-offset-tagged reason, so an operator can distinguish media rot
// from logic bugs from foreign objects at a glance. A CTS1 object or a
// version-1 image under a checkpoint name is a structural rejection whose
// reason names it. Half-published `.tmp` objects are counted
// (tmp_quarantined), never read as snapshots.
//
// The guarantee, verified by the crash sweep and the ladder property test:
// whatever rung recovery lands on, the recovered monitor's delivered log is
// a prefix of the pre-crash log, its answers are FM-oracle-identical on
// that prefix, and running recovery twice yields byte-identical state
// digests (idempotence).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "durability/recovery.hpp"
#include "durability/storage.hpp"
#include "monitor/monitor.hpp"

namespace ct {

class MappedSnapshot;  // store/mapped_view.hpp

enum class RecoveryRung : std::uint8_t {
  kMapped,       ///< newest CTC1 columnar generation + WAL tail
  kMappedPrior,  ///< an older CTC1 generation + WAL tail
  kSnapshot,     ///< a checkpoint image + WAL tail
  kWalReplay,    ///< full WAL replay from scratch
  kScratch,      ///< nothing durable survived
};

const char* to_string(RecoveryRung rung);

/// Snapshot accounting of one recovery: what was seen, what was rejected,
/// and why. Cause counters sum to the number of rejected images of either
/// family; `details` holds one "object: reason" line each, tagged with the
/// byte offset of the failure where one exists.
struct SnapshotHealth {
  std::size_t generations_seen = 0;     ///< published CTC1 objects found
  std::size_t tmp_quarantined = 0;      ///< half-published `.tmp` leftovers
  std::size_t rejected_checksum = 0;    ///< footer/block/digest mismatch
  std::size_t rejected_structural = 0;  ///< bounds/shape/manifest violations
  /// The footer's generation (`ctc-*`) or covered WAL position (`snap-*`)
  /// disagrees with the object name.
  std::size_t rejected_name_mismatch = 0;
  std::size_t rejected_position = 0;    ///< WAL position past the log end
  std::size_t rejected_replay = 0;      ///< replay failed or digest diverged
  std::vector<std::string> details;

  std::size_t total_rejected() const {
    return rejected_checksum + rejected_structural + rejected_name_mismatch +
           rejected_position + rejected_replay;
  }
};

struct LadderRecovery {
  std::unique_ptr<MonitoringEntity> monitor;
  RecoveryRung rung = RecoveryRung::kScratch;
  /// Generation restored from (kMapped/kMappedPrior rungs only).
  std::uint64_t generation = 0;
  /// WAL-tail accounting of the rung that won (durability/recovery.hpp).
  RecoveryReport report;
  /// Snapshot accounting of both families, regardless of which rung won.
  SnapshotHealth health;
};

/// Runs the ladder over `storage`. `process_count` and `options` configure
/// the monitor only when no usable image exists (an image carries its own
/// configuration). Storage damage of any kind is absorbed into the
/// accounting — the ladder only throws on internal invariant violations
/// (bugs).
///
/// `ns` is the WAL namespace to recover (WalOptions::ns): only images and
/// segments carrying that prefix are read, so recovering one tenant of a
/// shared StorageBackend never scans — and is never derailed by — a
/// sibling tenant's objects, however corrupt those are (the per-tenant
/// durability bulkhead, verified by tests/wal_namespace_test.cpp).
LadderRecovery recover_with_ladder(const StorageBackend& storage,
                                   std::size_t process_count,
                                   const MonitorOptions& options,
                                   const std::string& ns = "");

/// Rebuilds a live monitor from `snap` by replaying its event records
/// through the delivered-order restore path — the ladder's restore step.
/// Run snap.verify() first: this trusts the records' bounds. Throws
/// ChecksumError when the rebuilt state's digest disagrees with the
/// footer's, CheckFailure when a record does not replay.
std::unique_ptr<MonitoringEntity> restore_columnar(const MappedSnapshot& snap);

}  // namespace ct
