#include "simcheck/crash_sweep.hpp"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "durability/recovery.hpp"
#include "durability/storage.hpp"
#include "model/trace.hpp"
#include "monitor/monitor.hpp"
#include "monitor/queries.hpp"
#include "recluster/coordinator.hpp"
#include "store/recovery_ladder.hpp"
#include "store/snapshot_store.hpp"
#include "timestamp/ondemand_fm.hpp"
#include "util/check.hpp"
#include "util/prng.hpp"

namespace ct {

namespace {

MonitorOptions schedule_options(const SimSchedule& schedule) {
  MonitorOptions mo;
  mo.backend = TimestampBackend::kClusterDynamic;
  mo.cluster.max_cluster_size = schedule.max_cluster_size;
  mo.cluster.fm_vector_width = schedule.process_count;
  mo.nth_threshold = schedule.nth_threshold;
  return mo;
}

}  // namespace

CrashSweepReport run_crash_sweep(const SimSchedule& schedule,
                                 const CrashSweepParams& params) {
  CrashSweepReport report;
  CT_CHECK_MSG(schedule.process_count > 0, "schedule has no processes");
  const MonitorOptions mo = schedule_options(schedule);

  auto diverge = [&report](std::size_t cut, std::string config,
                           std::string detail, EventId e = kNoEvent,
                           EventId f = kNoEvent) {
    if (!report.divergence) {
      report.divergence =
          SimDivergence{cut, std::move(config), std::move(detail), e, f};
    }
  };

  // ---- recording pass: live monitor + WAL over simulated storage --------
  SimulatedStorage sim;
  WalOptions wo;
  wo.policy = params.policy;
  wo.sync_every = params.sync_every;
  wo.segment_bytes = params.segment_bytes;
  // Every partition the recording pass actually committed, in epoch order.
  // The sweep's never-hybrid check admits exactly these states (plus the
  // pre-migration one) after any crash.
  struct CommittedMigration {
    std::uint64_t epoch;
    std::vector<std::vector<ProcessId>> partition;
  };
  std::vector<CommittedMigration> committed;
  // Every CTC1 generation the recording pass published: after any crash, a
  // mapped-rung recovery must restore exactly one of these (generation AND
  // covered position) — anything else is a half-published or foreign image
  // the ladder failed to quarantine.
  struct PublishedGen {
    std::uint64_t generation;
    std::uint64_t delivered;
  };
  std::vector<PublishedGen> published;
  ColumnarPublishOptions copts;
  copts.block_bytes = 1024;  // small blocks: mid-column faults hit many
  {
    MonitoringEntity monitor(schedule.process_count, mo);
    DurableLog log(sim, wo);
    monitor.set_delivery_tap([&log](const Event& e) { log.append(e); });
    auto publish = [&](std::uint64_t generation) {
      // checkpoint()/sync() made the covered prefix durable first, so a
      // publication sync boundary still loses nothing.
      publish_columnar(sim, monitor, generation, copts);
      published.push_back(
          PublishedGen{generation, monitor.delivery_log().size()});
      ++report.generations_published;
    };
    MigrationConfig mc;
    mc.planner.hysteresis = 0.1;
    mc.planner.max_moves = 4;
    mc.planner.min_weight = 1.0;
    mc.planner.decay_window = 64;
    mc.planner.cooldown_epochs = 0;
    mc.verify_pairs = 16;
    mc.verify_deadline_ticks = 0;  // unlimited: the sweep wants commits
    mc.seed = schedule.seed | 1;
    MigrationCoordinator coordinator(monitor, mc);
    coordinator.attach_wal(&log);
    try {
      for (const SimOp& op : schedule.ops) {
        if (op.kind == SimOp::Kind::kEmit) {
          monitor.ingest(op.event);
        } else if (op.kind == SimOp::Kind::kCheckpointRestore) {
          log.checkpoint(monitor);
          if (params.columnar_store) {
            publish(static_cast<std::uint64_t>(published.size()) + 1);
          }
        } else if (op.kind == SimOp::Kind::kMigrate) {
          const auto fault = static_cast<MigrationFault>(op.b % 3);
          const MigrationOutcome outcome = coordinator.run_cycle(fault);
          if (outcome == MigrationOutcome::kCommitted) {
            ++report.migrations_committed;
            committed.push_back(CommittedMigration{
                monitor.migration_epoch(), monitor.preset_partition()});
          } else if (outcome == MigrationOutcome::kRolledBack) {
            ++report.migrations_rolled_back;
          }
        }
        // Rebuilds, corruption episodes, and probes are the differential
        // oracle's business; the sweep only needs the delivered stream.
      }
      log.sync();
      if (params.columnar_store) {
        publish(static_cast<std::uint64_t>(published.size()) + 1);
      }
    } catch (const CheckFailure& fail) {
      diverge(sim.op_count(), "recording", fail.what());
      return report;
    }
  }

  // ---- crash-point selection --------------------------------------------
  Prng prng(params.seed ^ schedule.seed);
  struct Point {
    std::size_t cut;
    CrashFault fault;
    std::uint64_t seed;
    bool at_sync_boundary;
  };
  std::vector<Point> points;
  for (const std::size_t cut : sim.sync_points()) {
    points.push_back(Point{cut, CrashFault::kLostSuffix, prng(), true});
  }
  report.sync_boundary_points = points.size();
  const std::vector<std::size_t> appends = sim.append_points();
  auto sample_appends = [&](std::size_t n, CrashFault fault) {
    for (std::size_t i = 0; i < n && !appends.empty(); ++i) {
      points.push_back(
          Point{appends[prng.index(appends.size())], fault, prng(), false});
    }
  };
  sample_appends(params.torn_samples, CrashFault::kTornWrite);
  sample_appends(params.short_samples, CrashFault::kShortWrite);
  sample_appends(params.rot_samples, CrashFault::kBitRot);
  sample_appends(params.stale_samples, CrashFault::kStaleSegment);
  if (params.columnar_store) {
    // A publication rename whose directory entry the crash reverted: cut
    // just past a sampled rename, before any later sync_dir re-hardens it.
    const std::vector<std::size_t> renames = sim.rename_points();
    for (std::size_t i = 0;
         i < params.stale_rename_samples && !renames.empty(); ++i) {
      const std::size_t at = renames[prng.index(renames.size())];
      const std::size_t cut =
          std::min(at + 1 + prng.index(3), sim.op_count());
      points.push_back(Point{cut, CrashFault::kStaleRename, prng(), false});
    }
    // Bit rot in the DURABLE image (mapped-region decay): the one fault
    // that may corrupt synced bytes, so it is never sampled as a
    // sync-boundary point — detection, not loss-freedom, is its contract.
    sample_appends(params.mapped_rot_samples, CrashFault::kMappedRot);
  }
  points.push_back(Point{sim.op_count(), CrashFault::kClean, prng(), true});
  // A power cut just past every namespace op, whatever the policy: the
  // moment a name is durable but the bytes that should follow it are not
  // (a segment created and dir-synced before its header append, a snapshot
  // created before its payload, a rename or removal before its sync_dir).
  for (const std::size_t cut : sim.namespace_points()) {
    points.push_back(Point{cut, CrashFault::kLostSuffix, prng(), false});
    ++report.namespace_points;
  }

  // ---- sweep -------------------------------------------------------------
  for (const Point& point : points) {
    if (report.divergence) break;
    const std::string label = std::string("crash/") + to_string(point.fault) +
                              "/" + to_string(params.policy);

    // What an ideal disk kept at this cut — the loss-accounting baseline.
    // Both recoveries run the full ladder: with the columnar store off no
    // CTC1 objects exist and the ladder IS recover_monitor.
    LadderRecovery perfect;
    try {
      const auto ideal =
          sim.materialize(CrashSpec{point.cut, CrashFault::kClean, 0});
      perfect = recover_with_ladder(*ideal, schedule.process_count, mo);
    } catch (const CheckFailure& fail) {
      diverge(point.cut, label,
              std::string("perfect-image recovery threw: ") + fail.what());
      break;
    }
    if (perfect.report.truncated) {
      diverge(point.cut, label,
              "perfect image does not recover cleanly: " +
                  perfect.report.truncate_detail);
      break;
    }

    LadderRecovery got;
    try {
      const auto image = sim.materialize(
          CrashSpec{point.cut, point.fault, point.seed});
      got = recover_with_ladder(*image, schedule.process_count, mo);
    } catch (const CheckFailure& fail) {
      diverge(point.cut, label,
              std::string("crashed-image recovery threw: ") + fail.what());
      break;
    }
    ++report.crash_points;
    switch (got.rung) {
      case RecoveryRung::kMapped:
      case RecoveryRung::kMappedPrior:
        ++report.ladder_mapped;
        break;
      case RecoveryRung::kSnapshot:
        ++report.ladder_snapshot;
        break;
      case RecoveryRung::kWalReplay:
      case RecoveryRung::kScratch:
        ++report.ladder_wal;
        break;
    }
    report.snapshots_quarantined +=
        got.health.total_rejected() + got.health.tmp_quarantined;

    // Generation membership: a mapped-rung recovery must have restored a
    // generation the recording pass actually published, at exactly the
    // position it covered — never a half-published or foreign image.
    if (got.rung == RecoveryRung::kMapped ||
        got.rung == RecoveryRung::kMappedPrior) {
      ++report.checks;
      bool known = false;
      for (const PublishedGen& pg : published) {
        if (pg.generation == got.generation) {
          known = pg.delivered == got.report.snapshot_seq;
          break;
        }
      }
      if (!known) {
        diverge(point.cut, label,
                "mapped recovery restored generation " +
                    std::to_string(got.generation) + " at position " +
                    std::to_string(got.report.snapshot_seq) +
                    ", which the recording pass never published");
        break;
      }
    }
    if (point.at_sync_boundary) {
      // counted above
    } else if (point.fault == CrashFault::kTornWrite) {
      ++report.torn_points;
    } else {
      ++report.other_points;
    }

    // Prefix consistency against the perfect image.
    const auto expected_log = perfect.monitor->delivery_log();
    const auto recovered_log = got.monitor->delivery_log();
    ++report.checks;
    if (recovered_log.size() > expected_log.size() ||
        !std::equal(recovered_log.begin(), recovered_log.end(),
                    expected_log.begin())) {
      diverge(point.cut, label,
              "recovered delivery log is not a prefix of the pre-crash log (" +
                  std::to_string(recovered_log.size()) + " vs " +
                  std::to_string(expected_log.size()) + " records)");
      break;
    }

    // Loss accounting on DURABLE records: a crash can cut between the two
    // halves of a sync pair, leaving the first half durable but held back
    // by recovery (it pairs up when the upstream tail is re-fed) — held is
    // not lost. Either recovery may hold such a half, depending on where
    // the fault truncated relative to the cut.
    const std::uint64_t expected_total =
        expected_log.size() + perfect.report.held;
    const std::uint64_t recovered_total =
        recovered_log.size() + got.report.held;
    ++report.checks;
    if (recovered_total > expected_total) {
      diverge(point.cut, label,
              "recovery admitted more records than were ever written (" +
                  std::to_string(recovered_total) + " vs " +
                  std::to_string(expected_total) + ")");
      break;
    }
    const std::uint64_t lost = expected_total - recovered_total;
    report.records_lost += lost;
    got.monitor->note_wal_loss(lost);
    const MonitorHealth& health = got.monitor->health();
    ++report.checks;
    if (!health.accounted() || health.wal_lost != lost) {
      diverge(point.cut, label,
              "loss accounting broken: wal_lost " +
                  std::to_string(health.wal_lost) + ", lost " +
                  std::to_string(lost));
      break;
    }
    if (point.at_sync_boundary && point.fault != CrashFault::kClean &&
        lost != 0) {
      diverge(point.cut, label,
              "crash at a sync boundary lost " + std::to_string(lost) +
                  " records");
      break;
    }
    if (point.fault == CrashFault::kClean && lost != 0) {
      diverge(point.cut, label, "clean crash lost records");
      break;
    }
    if (params.policy == SyncPolicy::kEveryRecord && lost > 1 &&
        (point.fault == CrashFault::kLostSuffix ||
         point.fault == CrashFault::kShortWrite ||
         point.fault == CrashFault::kTornWrite)) {
      diverge(point.cut, label,
              "every-record policy lost " + std::to_string(lost) +
                  " records (max is the one in-flight append)");
      break;
    }

    // Never-hybrid migrations: the recovered clustering must be EXACTLY the
    // pre-migration state (epoch 0, no preset partition) or the partition
    // of some migration the recording pass committed. A synced intent whose
    // commit frame did not survive must leave no trace.
    const std::uint64_t repoch = got.report.migration_epoch;
    ++report.checks;
    bool hybrid;
    if (repoch == 0) {
      hybrid = !got.monitor->preset_partition().empty();
    } else {
      hybrid = true;
      for (const CommittedMigration& cm : committed) {
        if (cm.epoch == repoch) {
          hybrid = got.monitor->preset_partition() != cm.partition;
          break;
        }
      }
    }
    if (hybrid) {
      diverge(point.cut, label,
              "recovered clustering is neither pre- nor post-migration "
              "(epoch " +
                  std::to_string(repoch) + ")");
      break;
    }
    ++report.checks;
    if (repoch > perfect.report.migration_epoch) {
      diverge(point.cut, label,
              "crash recovered migration epoch " + std::to_string(repoch) +
                  " beyond the perfect image's " +
                  std::to_string(perfect.report.migration_epoch));
      break;
    }
    if (point.fault == CrashFault::kClean && point.cut == sim.op_count() &&
        !committed.empty()) {
      ++report.checks;
      if (repoch != committed.back().epoch) {
        diverge(point.cut, label,
                "full clean image lost committed migration epoch " +
                    std::to_string(committed.back().epoch) + " (recovered " +
                    std::to_string(repoch) + ")");
        break;
      }
    }

    // Answer identity over the recovered state.
    const Trace t = got.monitor->delivered_trace();
    const std::size_t n = t.event_count();
    if (n == 0) continue;
    OnDemandFmEngine truth(t, 512);
    Prng qrng(point.seed ^ 0x5eedu);
    const auto order = t.delivery_order();
    bool bad = false;
    for (std::size_t k = 0; k < params.pairs_per_check; ++k) {
      const EventId e = order[qrng.index(n)];
      const EventId f = order[qrng.index(n)];
      ++report.checks;
      const bool want = truth.precedes(e, f);
      if (got.monitor->precedes(e, f) != want) {
        diverge(point.cut, label,
                "recovered monitor disagrees with on-demand FM", e, f);
        bad = true;
        break;
      }
    }
    if (bad) break;
    const EventId anchor = order[qrng.index(n)];
    const CausalFrontiers want_frontier = compute_frontiers_with(
        t.process_count(), anchor,
        [&truth](EventId a, EventId b) { return truth.precedes(a, b); },
        [&t](ProcessId q) { return t.process_size(q); });
    const CausalFrontiers got_frontier = compute_frontiers_with(
        t.process_count(), anchor,
        [&got](EventId a, EventId b) { return got.monitor->precedes(a, b); },
        [&t](ProcessId q) { return t.process_size(q); });
    ++report.checks;
    if (got_frontier.greatest_predecessor !=
            want_frontier.greatest_predecessor ||
        got_frontier.greatest_concurrent != want_frontier.greatest_concurrent) {
      diverge(point.cut, label, "recovered frontier mismatch", anchor);
      break;
    }
  }
  return report;
}

}  // namespace ct
