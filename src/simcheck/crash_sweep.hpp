// Crash-point sweep: durability verification over simulated schedules.
//
// One sweep takes a generated schedule (generator.hpp), runs it against a
// live monitor whose deliveries feed a write-ahead log on SimulatedStorage
// (the recording pass), then crashes the storage at many points — every
// sync boundary, just past every namespace op (create, sync_dir, rename,
// remove), plus sampled mid-record torn writes, bit flips, and stale
// segments — and recovers from each crashed image. For every crash point it
// checks, against a recovery of the *perfect* image at the same cut (what an
// ideal disk would have kept):
//
//   * prefix consistency — the recovered delivery log is exactly a prefix
//     of the perfect one (nothing invented, reordered, or half-applied);
//   * loss accounting — health().wal_lost equals perfect minus recovered,
//     the accounting identity still holds, and the sync policy's guarantee
//     is honored (a crash AT a sync boundary loses nothing; every-record
//     never loses more than the one in-flight record);
//   * answer identity — the recovered monitor answers sampled precedence
//     queries and one causal frontier bit-identically to an on-demand
//     Fidge/Mattern oracle rebuilt over its delivered state;
//   * never-hybrid migrations — when the schedule carries kMigrate ops, the
//     recording pass runs them through a WAL-attached MigrationCoordinator,
//     and every crash point must recover EXACTLY the pre-migration
//     clustering or the partition of some migration that actually
//     committed — an intent whose commit frame did not survive the crash
//     leaves no trace, and the recovered epoch never exceeds the perfect
//     image's.
//
// Failures surface as SimDivergence (oracle.hpp), so the ddmin shrinker and
// the .ctsim replay corpus work for durability bugs exactly as they do for
// answer divergences.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>

#include "durability/wal.hpp"
#include "simcheck/oracle.hpp"
#include "simcheck/schedule.hpp"

namespace ct {

struct CrashSweepParams {
  SyncPolicy policy = SyncPolicy::kEveryN;
  std::size_t sync_every = 8;
  /// Small on purpose: rotation and pruning must happen at schedule scale.
  std::size_t segment_bytes = 4096;
  std::size_t torn_samples = 16;   ///< sampled mid-record (torn-write) cuts
  std::size_t short_samples = 8;   ///< sampled record-boundary (short) cuts
  std::size_t rot_samples = 4;     ///< sampled bit-rot crashes
  std::size_t stale_samples = 2;   ///< sampled stale-segment crashes
  /// Publish a CTC1 columnar generation (src/store/) at every checkpoint op
  /// and at the end of the recording pass, and recover every crash point
  /// through the recovery ladder. The sweep then also crashes at every
  /// snapshot-publication sync boundary, at sampled stale-rename points
  /// (a publication rename reverted by the crash), and with sampled
  /// mapped-region bit rot — and checks that the recovered state is always
  /// some published generation (or an older rung), never a half-published
  /// or silently-corrupt one.
  bool columnar_store = true;
  std::size_t stale_rename_samples = 3;
  std::size_t mapped_rot_samples = 3;
  std::size_t pairs_per_check = 24;
  std::uint64_t seed = 1;
};

struct CrashSweepReport {
  std::size_t sync_boundary_points = 0;
  std::size_t namespace_points = 0;  ///< cuts just past a namespace op
  std::size_t torn_points = 0;   ///< mid-record cuts actually checked
  /// Every other cut checked: short-write, bit-rot, stale-segment,
  /// stale-rename, mapped-rot and namespace-op.
  std::size_t other_points = 0;
  std::size_t crash_points = 0;  ///< total crash points checked
  std::uint64_t records_lost = 0;  ///< summed over all crash points
  std::uint64_t migrations_committed = 0;    ///< recording-pass commits
  std::uint64_t migrations_rolled_back = 0;  ///< recording-pass rollbacks
  std::size_t generations_published = 0;  ///< CTC1 images the recording cut
  /// Which recovery-ladder rung each crash point landed on (their sum is
  /// crash_points when the columnar store is on).
  std::size_t ladder_mapped = 0;    ///< a CTC1 generation + WAL tail
  std::size_t ladder_snapshot = 0;  ///< a checkpoint image + WAL tail
  std::size_t ladder_wal = 0;       ///< full WAL replay or scratch
  /// Images of either family loudly rejected across all crash points
  /// (checksum, structural, name-mismatch, position, replay causes) plus
  /// quarantined half-published tmps — the zero-silent-corruption ledger.
  std::size_t snapshots_quarantined = 0;
  std::uint64_t checks = 0;
  std::optional<SimDivergence> divergence;

  bool ok() const { return !divergence.has_value(); }
};

/// Runs the recording pass and the crash sweep. Never throws on storage
/// damage — every violated guarantee becomes the report's divergence (the
/// first one found; `op_index` carries the journal cut).
CrashSweepReport run_crash_sweep(const SimSchedule& schedule,
                                 const CrashSweepParams& params);

}  // namespace ct
