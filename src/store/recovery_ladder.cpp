#include "store/recovery_ladder.hpp"

#include <utility>

#include "durability/format.hpp"
#include "durability/wal.hpp"
#include "store/mapped_view.hpp"
#include "store/snapshot_store.hpp"
#include "util/check.hpp"

namespace ct {

const char* to_string(RecoveryRung rung) {
  switch (rung) {
    case RecoveryRung::kMapped: return "mapped";
    case RecoveryRung::kMappedPrior: return "mapped-prior";
    case RecoveryRung::kSnapshot: return "snapshot";
    case RecoveryRung::kWalReplay: return "wal-replay";
    case RecoveryRung::kScratch: return "scratch";
  }
  return "?";
}

std::unique_ptr<MonitoringEntity> restore_columnar(
    const MappedSnapshot& snap) {
  const ColumnarManifest& m = snap.manifest();
  auto monitor = std::make_unique<MonitoringEntity>(
      static_cast<std::size_t>(m.process_count), m.options);
  snap.for_each_event(
      [&monitor](const Event& e) { monitor->replay_delivered(e); });
  monitor->finish_restore(m.health);
  if (monitor->state_digest() != m.state_digest) {
    throw ChecksumError("columnar replay diverged from the saved state digest");
  }
  return monitor;
}

LadderRecovery recover_with_ladder(const StorageBackend& storage,
                                   std::size_t process_count,
                                   const MonitorOptions& options,
                                   const std::string& ns) {
  LadderRecovery out;
  SnapshotHealth& health = out.health;
  health.tmp_quarantined = list_columnar_tmps(storage, ns).size();
  auto reject = [&health](std::size_t* cause, const std::string& name,
                          const std::string& detail) {
    ++*cause;
    health.details.push_back(name + ": " + detail);
  };

  // One image through every step. `key` is what the object name promises:
  // the generation of a `ctc-*` image, the covered WAL position of a
  // `snap-*` checkpoint. True when the image restored `out.monitor`.
  auto try_image = [&](const std::string& name, std::uint64_t key,
                       bool checkpoint) {
    std::unique_ptr<MappedSnapshot> snap;
    try {
      snap = std::make_unique<MappedSnapshot>(read_cold(storage, name));
      const ColumnarManifest& m = snap->manifest();
      const std::uint64_t claimed =
          checkpoint ? m.wal_position : m.generation;
      if (claimed != key) {
        reject(&health.rejected_name_mismatch, name,
               std::string(checkpoint ? "covered WAL position "
                                      : "footer generation ") +
                   std::to_string(claimed) +
                   " disagrees with the object name");
        return false;
      }
      snap->verify();
    } catch (const ChecksumError& failure) {
      reject(&health.rejected_checksum, name, failure.what());
      return false;
    } catch (const CheckFailure& failure) {
      reject(&health.rejected_structural, name, failure.what());
      return false;
    }
    // Structurally sound and checksum-clean. The durable log must reach the
    // position the image claims to cover: an image past the log end would
    // make recovery silently skip the records in between.
    const std::uint64_t seq = snap->manifest().wal_position;
    wal::WalScan scan = wal::scan_wal(storage, seq, ns);
    if (scan.segments_scanned > 0 && scan.log_end < seq) {
      reject(&health.rejected_position, name,
             "references WAL position " + std::to_string(seq) +
                 " past the durable log end " + std::to_string(scan.log_end));
      return false;
    }
    std::unique_ptr<MonitoringEntity> monitor;
    try {
      monitor = restore_columnar(*snap);
    } catch (const CheckFailure& failure) {
      // Replay threw or the rebuilt state's digest diverged: the image lied
      // about something the structural checks cannot see.
      reject(&health.rejected_replay, name, failure.what());
      return false;
    }
    out.monitor = std::move(monitor);
    out.report.snapshot_object = name;
    out.report.snapshot_seq = seq;
    replay_wal_tail(scan, *out.monitor, out.report);
    return true;
  };

  // ---- published generations, newest first ----
  const auto generations = list_columnar(storage, ns);  // ascending
  health.generations_seen = generations.size();
  for (auto it = generations.rbegin(); it != generations.rend(); ++it) {
    if (try_image(it->second, it->first, /*checkpoint=*/false)) {
      out.rung = it == generations.rbegin() ? RecoveryRung::kMapped
                                            : RecoveryRung::kMappedPrior;
      out.generation = it->first;
      return out;
    }
  }

  // ---- checkpoint images, newest first ----
  const auto checkpoints = list_checkpoints(storage, ns);  // ascending
  for (auto it = checkpoints.rbegin(); it != checkpoints.rend(); ++it) {
    if (try_image(it->second, it->first, /*checkpoint=*/true)) {
      out.rung = RecoveryRung::kSnapshot;
      return out;
    }
  }

  // ---- full WAL replay, or scratch when nothing was logged ----
  out.monitor = std::make_unique<MonitoringEntity>(process_count, options);
  replay_wal_tail(wal::scan_wal(storage, 0, ns), *out.monitor, out.report);
  out.rung = out.report.replayed > 0 || out.report.held > 0
                 ? RecoveryRung::kWalReplay
                 : RecoveryRung::kScratch;
  return out;
}

}  // namespace ct
