#include "durability/recovery.hpp"

#include "durability/wal.hpp"
#include "util/check.hpp"

namespace ct {

void replay_wal_tail(const wal::WalScan& scan, MonitoringEntity& monitor,
                     RecoveryReport& report) {
  report.segments_scanned = scan.segments_scanned;
  report.truncated = scan.truncated;
  report.truncate_detail = scan.detail;

  // A crash can cut between the two halves of a sync pair (they append
  // back-to-back, but a torn tail keeps only the first). The log otherwise
  // keeps pair halves adjacent — and a checkpoint never cuts between them —
  // so only the LAST record can be an unpaired half: hold it back.
  std::size_t replayable = scan.records.size();
  if (replayable > 0) {
    const Event& last = scan.records[replayable - 1].event;
    const bool paired =
        replayable >= 2 &&
        scan.records[replayable - 2].event.id == last.partner &&
        scan.records[replayable - 2].event.kind == EventKind::kSync &&
        scan.records[replayable - 2].event.partner == last.id;
    if (last.kind == EventKind::kSync && !paired) {
      --replayable;
      report.held = 1;
    }
  }

  // Replay through the delivered-order restore path (not ingest — see the
  // header comment): the WAL tail is the recorded delivery order, verbatim.
  for (std::size_t i = 0; i < replayable; ++i) {
    monitor.replay_delivered(scan.records[i].event);
    ++report.replayed;
  }
  MonitorHealth health = monitor.health();
  health.ingested += report.replayed;
  health.delivered += report.replayed;
  monitor.finish_restore(health);

  report.recovered_seq = monitor.delivery_log().size();
  CT_CHECK_MSG(report.recovered_seq == report.snapshot_seq + report.replayed,
               "recovery accounting: snapshot " << report.snapshot_seq
                                                << " + replayed "
                                                << report.replayed
                                                << " != delivered "
                                                << report.recovered_seq);

  // ---- re-apply the newest committed migration; discard the rest ----
  // The snapshot already bakes every migration committed at or before its
  // position (options.preset_partition); only a commit in the replayed tail
  // can be newer. Intents without commits are the crash's rollbacks.
  const WalMigration* newest = nullptr;
  for (const WalMigration& m : scan.migrations) {
    if (!m.committed) {
      ++report.migrations_discarded;
      continue;
    }
    if (m.epoch <= monitor.migration_epoch()) continue;
    if (newest == nullptr || m.epoch > newest->epoch) newest = &m;
  }
  if (newest != nullptr) {
    CT_CHECK_MSG(!newest->partition.empty(),
                 "committed migration epoch "
                     << newest->epoch
                     << " survived without its intent partition");
    CT_CHECK_MSG(newest->position <= report.recovered_seq,
                 "committed migration at position "
                     << newest->position << " beyond recovered prefix "
                     << report.recovered_seq);
    monitor.apply_migration(newest->partition, newest->epoch);
    report.migrations_applied = 1;
  }
  report.migration_epoch = monitor.migration_epoch();
}

}  // namespace ct
