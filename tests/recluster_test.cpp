// Crash-safe online re-clustering tests (docs/FAULT_MODEL.md §9): the
// decaying communication matrix, the migration planner's hysteresis /
// cooldown / size-cap bars, the two-phase coordinator (intent → dual-read
// verify → commit / rollback), WAL migration frames, recovery's
// apply-newest-committed / discard-uncommitted rule, snapshot v3 round-trips
// of a migrated monitor, the MigratingClusterEngine stale-reference
// regression, and the ShardRouter epoch integration.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <vector>

#include "cluster/comm_matrix.hpp"
#include "core/migrating_engine.hpp"
#include "durability/recovery.hpp"
#include "durability/storage.hpp"
#include "durability/wal.hpp"
#include "model/event.hpp"
#include "monitor/monitor.hpp"
#include "recluster/coordinator.hpp"
#include "recluster/migration_plan.hpp"
#include "shard/shard_router.hpp"
#include "simcheck/crash_sweep.hpp"
#include "simcheck/generator.hpp"
#include "timestamp/ondemand_fm.hpp"
#include "trace/snapshot.hpp"
#include "util/check.hpp"

namespace ct {
namespace {

Event make(ProcessId p, EventIndex i, EventKind k,
           EventId partner = kNoEvent) {
  Event e;
  e.id = EventId{p, i};
  e.kind = k;
  e.partner = partner;
  return e;
}

/// Appends a send on `from` and its receive on `to` to `out`.
void message(std::vector<Event>& out, std::vector<EventIndex>& next,
             ProcessId from, ProcessId to) {
  const EventIndex fi = next[from]++;
  const EventIndex ti = next[to]++;
  out.push_back(make(from, fi, EventKind::kSend, EventId{to, ti}));
  out.push_back(make(to, ti, EventKind::kReceive, EventId{from, fi}));
}

MonitorOptions cluster_options(std::size_t process_count,
                               std::size_t max_cluster_size,
                               double nth_threshold) {
  MonitorOptions mo;
  mo.backend = TimestampBackend::kClusterDynamic;
  mo.cluster.max_cluster_size = max_cluster_size;
  mo.cluster.fm_vector_width = process_count;
  mo.nth_threshold = nth_threshold;
  return mo;
}

/// Six processes, merge-on-first, maxCS 3: stage A pairs up {0,1} {2,3}
/// {4,5}; stage B floods 4 → 0 so the decayed matrix wants 0 in 4's
/// cluster (room: 2 + 1 <= 3).
std::vector<Event> phase_shift_stream() {
  std::vector<Event> out;
  std::vector<EventIndex> next(6, 1);
  for (int r = 0; r < 30; ++r) {
    message(out, next, 0, 1);
    message(out, next, 2, 3);
    message(out, next, 4, 5);
  }
  for (int r = 0; r < 120; ++r) message(out, next, 4, 0);
  return out;
}

void ingest_all(MonitoringEntity& monitor, const std::vector<Event>& events) {
  for (const Event& e : events) monitor.ingest(e);
}

MigrationConfig eager_config() {
  MigrationConfig mc;
  mc.planner.hysteresis = 0.1;
  mc.planner.max_moves = 4;
  mc.planner.min_weight = 1.0;
  mc.planner.decay_window = 64;
  mc.planner.cooldown_epochs = 0;
  mc.verify_pairs = 32;
  mc.verify_deadline_ticks = 0;  // unlimited
  mc.seed = 7;
  return mc;
}

/// Every ordered pair of delivered events answers identically to an
/// on-demand Fidge/Mattern oracle over the same delivered trace.
void expect_answer_identity(const MonitoringEntity& monitor) {
  const Trace t = monitor.delivered_trace();
  OnDemandFmEngine truth(t, 512);
  const auto order = t.delivery_order();
  for (const EventId e : order) {
    for (const EventId f : order) {
      ASSERT_EQ(monitor.precedes(e, f), truth.precedes(e, f))
          << e << " vs " << f;
    }
  }
}

// ---------------------------------------------------------------------------
// DecayingCommMatrix (satellite: windowed exponential decay)
// ---------------------------------------------------------------------------

TEST(DecayingCommMatrix, DecaysToExactZero) {
  DecayingCommMatrix m(4, 0.5, 4);
  m.record_pair(0, 1);
  EXPECT_GT(m.affinity(0, 1), 0.0);
  // Roll many windows with unrelated traffic: 0-1 halves each window and
  // must eventually snap to exactly zero, not a denormal residue.
  for (int i = 0; i < 50 * 4; ++i) m.record_pair(2, 3);
  EXPECT_EQ(m.affinity(0, 1), 0.0);
  EXPECT_GT(m.affinity(2, 3), 0.0);
  EXPECT_GT(m.windows_rolled(), 0u);
}

TEST(DecayingCommMatrix, SingleHotPairDominates) {
  DecayingCommMatrix m(6, 0.8, 16);
  for (int i = 0; i < 200; ++i) {
    m.record_pair(0, 4);                       // the hot pair
    if (i % 8 == 0) m.record_pair(1, 2);       // background noise
    if (i % 16 == 0) m.record_pair(3, 5);
  }
  for (ProcessId p = 0; p < 6; ++p) {
    for (ProcessId q = p + 1; q < 6; ++q) {
      if (p == 0 && q == 4) continue;
      EXPECT_GT(m.affinity(0, 4), m.affinity(p, q)) << p << "," << q;
    }
  }
  EXPECT_GT(m.toward(0, {4, 5}), m.toward(0, {1, 2, 3}));
}

TEST(DecayingCommMatrix, SymmetryPreserved) {
  DecayingCommMatrix m(5, 0.7, 8);
  for (int i = 0; i < 300; ++i) {
    const auto p = static_cast<ProcessId>(i % 5);
    const auto q = static_cast<ProcessId>((i * 3 + 1) % 5);
    if (p == q) continue;  // record_pair requires two distinct processes
    m.record_pair(p, q);
  }
  for (ProcessId p = 0; p < 5; ++p) {
    for (ProcessId q = 0; q < 5; ++q) {
      EXPECT_EQ(m.affinity(p, q), m.affinity(q, p)) << p << "," << q;
    }
  }
}

TEST(DecayingCommMatrix, IgnoresSelfMessagesAndNonReceives) {
  DecayingCommMatrix m(3, 0.8, 8);
  m.record(make(0, 1, EventKind::kUnary));
  m.record(make(0, 2, EventKind::kSend, EventId{1, 1}));
  m.record(make(1, 1, EventKind::kReceive, EventId{1, 2}));  // self-message
  EXPECT_EQ(m.recorded(), 0u);
  m.record(make(1, 2, EventKind::kReceive, EventId{0, 2}));
  EXPECT_EQ(m.recorded(), 1u);
  EXPECT_GT(m.affinity(0, 1), 0.0);
}

// ---------------------------------------------------------------------------
// Migration planner
// ---------------------------------------------------------------------------

TEST(MigrationPlanner, MovesHotProcessTowardItsTraffic) {
  MonitoringEntity monitor(6, cluster_options(6, 3, -1.0));
  ingest_all(monitor, phase_shift_stream());

  MigrationConfig mc = eager_config();
  DecayingCommMatrix matrix(6, mc.planner.decay, mc.planner.decay_window);
  for (const EventId id : monitor.delivery_log()) {
    matrix.record(monitor.event(id));
  }
  std::vector<std::uint64_t> never_moved(6, 0);
  const MigrationPlan plan =
      build_migration_plan(monitor, matrix, mc.planner, never_moved, 1);
  ASSERT_FALSE(plan.empty());
  bool moves_zero = false;
  for (const MigrationMove& mv : plan.moves) {
    if (mv.process == 0) moves_zero = true;
  }
  EXPECT_TRUE(moves_zero) << "process 0's traffic moved to cluster {4,5}";
  // The plan's partition is complete: every process appears exactly once.
  std::vector<int> seen(6, 0);
  for (const auto& cluster : plan.partition) {
    for (const ProcessId p : cluster) ++seen[p];
  }
  for (ProcessId p = 0; p < 6; ++p) EXPECT_EQ(seen[p], 1) << "process " << p;
  EXPECT_NE(plan.digest(), 0u);
}

TEST(MigrationPlanner, CooldownBlocksAtTheBoundary) {
  MonitoringEntity monitor(6, cluster_options(6, 3, -1.0));
  ingest_all(monitor, phase_shift_stream());

  MigrationPlannerConfig pc = eager_config().planner;
  pc.cooldown_epochs = 2;
  DecayingCommMatrix matrix(6, pc.decay, pc.decay_window);
  for (const EventId id : monitor.delivery_log()) {
    matrix.record(monitor.event(id));
  }
  // Process 0 moved at epoch 3; planning epoch 5 sits exactly AT the
  // cooldown boundary (epoch <= last + cooldown) and must refuse the move;
  // epoch 6 is one past and must allow it again.
  std::vector<std::uint64_t> moved(6, 0);
  moved[0] = 3;
  const MigrationPlan at_boundary =
      build_migration_plan(monitor, matrix, pc, moved, 5);
  for (const MigrationMove& mv : at_boundary.moves) {
    EXPECT_NE(mv.process, 0u) << "cooldown epoch must block process 0";
  }
  const MigrationPlan past_boundary =
      build_migration_plan(monitor, matrix, pc, moved, 6);
  bool moves_zero = false;
  for (const MigrationMove& mv : past_boundary.moves) {
    if (mv.process == 0) moves_zero = true;
  }
  EXPECT_TRUE(moves_zero);
}

TEST(MigrationPlanner, RespectsTargetExactlyAtMaxClusterSize) {
  // maxCS 2: {4,5} is already full, so 0 cannot join it no matter how hot
  // the traffic — the plan may split 0 off but never overfill a cluster.
  MonitoringEntity monitor(6, cluster_options(6, 2, -1.0));
  ingest_all(monitor, phase_shift_stream());

  const MigrationPlannerConfig pc = eager_config().planner;
  DecayingCommMatrix matrix(6, pc.decay, pc.decay_window);
  for (const EventId id : monitor.delivery_log()) {
    matrix.record(monitor.event(id));
  }
  std::vector<std::uint64_t> never_moved(6, 0);
  const MigrationPlan plan =
      build_migration_plan(monitor, matrix, pc, never_moved, 1);
  const std::size_t cap = monitor.options().cluster.max_cluster_size;
  for (const auto& cluster : plan.partition) {
    EXPECT_LE(cluster.size(), cap);
  }
}

// ---------------------------------------------------------------------------
// MigrationCoordinator: two-phase protocol
// ---------------------------------------------------------------------------

TEST(Coordinator, CommitSwapsEngineAndPreservesAnswers) {
  MonitoringEntity monitor(6, cluster_options(6, 3, -1.0));
  ingest_all(monitor, phase_shift_stream());

  MigrationCoordinator coordinator(monitor, eager_config());
  ASSERT_EQ(coordinator.run_cycle(), MigrationOutcome::kCommitted);
  EXPECT_EQ(monitor.migration_epoch(), 1u);
  EXPECT_FALSE(monitor.preset_partition().empty());
  const MigrationStats& stats = coordinator.stats();
  EXPECT_EQ(stats.committed, 1u);
  EXPECT_EQ(stats.rolled_back, 0u);
  EXPECT_GE(stats.moves_applied, 1u);
  EXPECT_GT(stats.verify_checks, 0u);
  expect_answer_identity(monitor);

  // The monitor keeps ingesting after the swap and stays exact.
  std::vector<EventIndex> next(6, 1);
  for (ProcessId p = 0; p < 6; ++p) {
    next[p] = monitor.delivered_count(p) + 1;
  }
  std::vector<Event> more;
  for (int r = 0; r < 10; ++r) message(more, next, 0, 5);
  ingest_all(monitor, more);
  expect_answer_identity(monitor);
}

TEST(Coordinator, CorruptShadowIsCaughtAndRolledBack) {
  MonitoringEntity monitor(6, cluster_options(6, 3, -1.0));
  ingest_all(monitor, phase_shift_stream());

  MigrationCoordinator coordinator(monitor, eager_config());
  ASSERT_EQ(coordinator.run_cycle(MigrationFault::kCorruptShadow),
            MigrationOutcome::kRolledBack);
  const MigrationStats& stats = coordinator.stats();
  EXPECT_EQ(stats.faults_injected, 1u);
  EXPECT_EQ(stats.rollback_divergence, 1u);
  EXPECT_EQ(stats.rollback_fault, 1u);
  EXPECT_EQ(stats.committed, 0u);
  // Rollback restores the old clustering exactly: the live engine was
  // never touched.
  EXPECT_EQ(monitor.migration_epoch(), 0u);
  EXPECT_TRUE(monitor.preset_partition().empty());
  expect_answer_identity(monitor);
}

TEST(Coordinator, StalledVerifyRollsBackOnDeadline) {
  MonitoringEntity monitor(6, cluster_options(6, 3, -1.0));
  ingest_all(monitor, phase_shift_stream());

  MigrationConfig mc = eager_config();
  mc.verify_deadline_ticks = 10'000;
  MigrationCoordinator coordinator(monitor, mc);
  ASSERT_EQ(coordinator.run_cycle(MigrationFault::kStalledVerify),
            MigrationOutcome::kRolledBack);
  EXPECT_EQ(coordinator.stats().rollback_deadline, 1u);
  EXPECT_EQ(monitor.migration_epoch(), 0u);
  expect_answer_identity(monitor);
}

TEST(Coordinator, NoPlanWhenClusteringAlreadyFits) {
  // Traffic that matches the clustering exactly: pairs merge on first
  // message and stay; nothing clears the hysteresis bar.
  MonitoringEntity monitor(6, cluster_options(6, 3, -1.0));
  std::vector<Event> stream;
  std::vector<EventIndex> next(6, 1);
  for (int r = 0; r < 40; ++r) {
    message(stream, next, 0, 1);
    message(stream, next, 2, 3);
    message(stream, next, 4, 5);
  }
  ingest_all(monitor, stream);
  MigrationCoordinator coordinator(monitor, eager_config());
  EXPECT_EQ(coordinator.run_cycle(), MigrationOutcome::kNoPlan);
  EXPECT_EQ(coordinator.stats().planned, 0u);
}

// ---------------------------------------------------------------------------
// WAL migration frames + recovery
// ---------------------------------------------------------------------------

TEST(WalMigration, IntentAndCommitRoundTripThroughScan) {
  SimulatedStorage sim;
  DurableLog log(sim, {});
  MonitoringEntity monitor(6, cluster_options(6, 3, -1.0));
  monitor.set_delivery_tap([&log](const Event& e) { log.append(e); });
  std::vector<Event> stream;
  std::vector<EventIndex> next(6, 1);
  for (int r = 0; r < 5; ++r) message(stream, next, 0, 1);
  ingest_all(monitor, stream);

  WalMigration intent;
  intent.epoch = 1;
  intent.plan_digest = 0xfeedbeefULL;
  intent.moves = {MigrationMove{0, 0, 4}};
  intent.partition = {{1}, {0, 4, 5}, {2, 3}};
  const std::uint64_t position = log.append_migration_intent(intent);
  EXPECT_EQ(position, monitor.delivery_log().size());

  wal::WalScan scan = wal::scan_wal(sim, 0);
  ASSERT_EQ(scan.migrations.size(), 1u);
  EXPECT_FALSE(scan.migrations[0].committed);
  EXPECT_EQ(scan.migrations[0].position, position);
  EXPECT_EQ(scan.migrations[0].epoch, 1u);
  EXPECT_EQ(scan.migrations[0].plan_digest, 0xfeedbeefULL);
  ASSERT_EQ(scan.migrations[0].moves.size(), 1u);
  EXPECT_EQ(scan.migrations[0].moves[0].process, 0u);
  EXPECT_EQ(scan.migrations[0].moves[0].to, 4u);
  EXPECT_EQ(scan.migrations[0].partition, intent.partition);

  log.append_migration_commit(position, 1, 0xfeedbeefULL);
  scan = wal::scan_wal(sim, 0);
  ASSERT_EQ(scan.migrations.size(), 1u);
  EXPECT_TRUE(scan.migrations[0].committed);
  // The frames do not disturb record accounting.
  EXPECT_EQ(scan.records.size(), monitor.delivery_log().size());
}

TEST(Recovery, CommittedMigrationIsReappliedUncommittedDiscarded) {
  const MonitorOptions mo = cluster_options(6, 3, -1.0);
  SimulatedStorage sim;
  {
    MonitoringEntity monitor(6, mo);
    DurableLog log(sim, {});
    monitor.set_delivery_tap([&log](const Event& e) { log.append(e); });
    ingest_all(monitor, phase_shift_stream());

    MigrationCoordinator coordinator(monitor, eager_config());
    coordinator.attach_wal(&log);
    // One committed cycle, then a faulted cycle whose intent must be
    // discarded by recovery.
    ASSERT_EQ(coordinator.run_cycle(), MigrationOutcome::kCommitted);
    std::vector<EventIndex> next(6, 1);
    for (ProcessId p = 0; p < 6; ++p) {
      next[p] = monitor.delivered_count(p) + 1;
    }
    std::vector<Event> more;
    for (int r = 0; r < 40; ++r) message(more, next, 1, 2);
    ingest_all(monitor, more);
    const MigrationOutcome second =
        coordinator.run_cycle(MigrationFault::kStalledVerify);
    EXPECT_NE(second, MigrationOutcome::kCommitted);
    log.sync();

    const auto img = sim.materialize({sim.op_count(), CrashFault::kClean, 1});
    RecoveredMonitor rec = recover_monitor(*img, 6, mo);
    EXPECT_EQ(rec.report.migrations_applied, 1u);
    if (second == MigrationOutcome::kRolledBack) {
      EXPECT_EQ(rec.report.migrations_discarded, 1u);
    }
    EXPECT_EQ(rec.report.migration_epoch, 1u);
    EXPECT_EQ(rec.monitor->migration_epoch(), monitor.migration_epoch());
    EXPECT_EQ(rec.monitor->preset_partition(), monitor.preset_partition());
    // Recovered answers match the live monitor bit-for-bit.
    const auto order = monitor.delivery_log();
    for (std::size_t i = 0; i < order.size(); i += 7) {
      for (std::size_t j = 0; j < order.size(); j += 11) {
        ASSERT_EQ(rec.monitor->precedes(order[i], order[j]),
                  monitor.precedes(order[i], order[j]));
      }
    }
  }
}

TEST(Recovery, CrashBeforeCommitRestoresOldClustering) {
  const MonitorOptions mo = cluster_options(6, 3, -1.0);
  SimulatedStorage sim;
  MonitoringEntity monitor(6, mo);
  DurableLog log(sim, {});
  monitor.set_delivery_tap([&log](const Event& e) { log.append(e); });
  ingest_all(monitor, phase_shift_stream());
  log.sync();
  const std::size_t before_commit = sim.op_count();

  MigrationCoordinator coordinator(monitor, eager_config());
  coordinator.attach_wal(&log);
  ASSERT_EQ(coordinator.run_cycle(), MigrationOutcome::kCommitted);

  // Crash between the intent and the commit frame: materialize the storage
  // as it stood before the cycle's commit sync. Recovery must restore the
  // pre-migration clustering exactly — never a hybrid.
  const auto img = sim.materialize({before_commit, CrashFault::kClean, 1});
  RecoveredMonitor rec = recover_monitor(*img, 6, mo);
  EXPECT_EQ(rec.report.migrations_applied, 0u);
  EXPECT_EQ(rec.monitor->migration_epoch(), 0u);
  EXPECT_TRUE(rec.monitor->preset_partition().empty());
  expect_answer_identity(*rec.monitor);
}

// ---------------------------------------------------------------------------
// Snapshot v3
// ---------------------------------------------------------------------------

TEST(SnapshotV3, RoundTripsAMigratedMonitor) {
  MonitoringEntity monitor(6, cluster_options(6, 3, -1.0));
  ingest_all(monitor, phase_shift_stream());
  MigrationCoordinator coordinator(monitor, eager_config());
  ASSERT_EQ(coordinator.run_cycle(), MigrationOutcome::kCommitted);

  std::stringstream buffer;
  save_snapshot(buffer, monitor);
  SnapshotMeta meta;
  auto restored = load_snapshot(buffer, &meta);
  EXPECT_EQ(meta.version, 3u);
  EXPECT_EQ(restored->migration_epoch(), monitor.migration_epoch());
  EXPECT_EQ(restored->preset_partition(), monitor.preset_partition());
  expect_answer_identity(*restored);
}

// ---------------------------------------------------------------------------
// MigratingClusterEngine stale-reference regression (satellite audit)
// ---------------------------------------------------------------------------

TEST(MigratingEngine, StoredSnapshotsSurviveLaterMigrations) {
  // Audit conclusion: observe() snapshots the member list as a shared_ptr
  // BEFORE note_receive() can migrate, and rebuild_members() publishes a
  // fresh vector instead of mutating in place — so stored timestamps can
  // never dangle or silently change. This regression pins both halves.
  MigratingEngineConfig config;
  config.max_cluster_size = 2;
  config.fm_vector_width = 8;
  config.nth_threshold = -1.0;  // merge-on-first pairs {0,1} up
  config.window = 4;
  config.home_share_low = 0.95;
  config.cooldown = 0;
  MigratingClusterEngine engine(6, config);

  std::vector<Event> stream;
  std::vector<EventIndex> next(6, 1);
  // The merge receive lands on P0, so P1's window stays clean.
  message(stream, next, 1, 0);  // merge {0,1}
  // P1's window: three foreign receives from P4, then ONE home receive
  // from P0. The home receive is intra-cluster (covered snapshot of
  // {0,1}) and is the event whose window tips P1 into migrating to {4} —
  // the exact mid-observe hazard the audit targets.
  for (int i = 0; i < 3; ++i) message(stream, next, 4, 1);
  message(stream, next, 0, 1);
  const EventId tipping = stream.back().id;
  for (const Event& e : stream) engine.observe(e);
  ASSERT_EQ(engine.migrations(), 1u);

  const ClusterTimestamp& stored = engine.timestamp(tipping);
  ASSERT_NE(stored.covered, nullptr);
  const auto snapshot_members = *stored.covered;
  const void* snapshot_ptr = stored.covered.get();
  // R2: the snapshot covers P1's OLD home cluster {0,1} (which includes
  // the sender), not the post-migration {1,4}.
  EXPECT_EQ(snapshot_members, (std::vector<ProcessId>{0, 1}));

  // Drive more merges and traffic; the stored snapshot must not move or
  // change even though {0,1} was rebuilt to {0} when P1 left.
  stream.clear();
  message(stream, next, 2, 3);  // merge {2,3}
  message(stream, next, 0, 5);  // merge {0,5}
  for (int i = 0; i < 8; ++i) message(stream, next, 4, 1);
  for (const Event& e : stream) engine.observe(e);
  const ClusterTimestamp& reread = engine.timestamp(tipping);
  EXPECT_EQ(reread.covered.get(), snapshot_ptr);
  EXPECT_EQ(*reread.covered, snapshot_members);
}

TEST(MigratingEngine, CooldownBoundaryAndEmptiedHomeCluster) {
  MigratingEngineConfig config;
  config.max_cluster_size = 2;
  config.fm_vector_width = 8;
  config.nth_threshold = 1e9;
  config.window = 4;
  config.home_share_low = 0.95;
  config.cooldown = 1;
  MigratingClusterEngine engine(6, config);
  const std::size_t initial_clusters = engine.stats().final_clusters;

  std::vector<Event> stream;
  std::vector<EventIndex> next(6, 1);
  // Window 1: four receives from P1 migrate P0 into {1}; P0's home
  // singleton cluster empties and dies.
  for (int i = 0; i < 4; ++i) message(stream, next, 1, 0);
  for (const Event& e : stream) engine.observe(e);
  EXPECT_EQ(engine.migrations(), 1u);
  EXPECT_EQ(engine.stats().final_clusters, initial_clusters - 1);

  // Window 2: traffic shifts to P2, but the window lands exactly on the
  // cooldown — it burns the cooldown instead of migrating.
  stream.clear();
  for (int i = 0; i < 4; ++i) message(stream, next, 2, 0);
  for (const Event& e : stream) engine.observe(e);
  EXPECT_EQ(engine.migrations(), 1u) << "cooldown window must not migrate";

  // Window 3: one past the boundary; the move to {2} goes through
  // (target size 1 + 1 <= maxCS 2).
  stream.clear();
  for (int i = 0; i < 4; ++i) message(stream, next, 2, 0);
  for (const Event& e : stream) engine.observe(e);
  EXPECT_EQ(engine.migrations(), 2u);

  // Target exactly at max_cluster_size: P3's traffic points at the full
  // cluster {0,2}; the migration rule must refuse it.
  stream.clear();
  for (int w = 0; w < 3; ++w) {
    for (int i = 0; i < 4; ++i) message(stream, next, 2, 3);
  }
  for (const Event& e : stream) engine.observe(e);
  EXPECT_EQ(engine.migrations(), 2u)
      << "a full target cluster must block the move";
}

// ---------------------------------------------------------------------------
// ShardRouter integration: migrations ride serving epochs
// ---------------------------------------------------------------------------

TEST(ShardMigration, RidesEpochBoundaryAndKeepsAnswersExact) {
  ShardRouter router;
  TenantConfig tc;
  tc.process_count = 6;
  tc.monitor = cluster_options(6, 3, -1.0);
  tc.shards = 3;
  const TenantId t = router.add_tenant(tc);
  SimulatedStorage storage;
  router.attach_wal(t, storage);

  for (const Event& e : phase_shift_stream()) router.ingest(t, e);

  const auto result = router.migrate_tenant(t, eager_config());
  ASSERT_EQ(result.outcome, MigrationOutcome::kCommitted);
  EXPECT_EQ(result.migration_epoch, 1u);
  EXPECT_EQ(result.replicas_applied, 3u);
  EXPECT_EQ(result.replicas_skipped, 0u);
  EXPECT_EQ(router.tenant_migration_epoch(t), 1u);
  EXPECT_EQ(router.tenant_health(t).migrations_committed, 1u);

  // Every replica adopted the partition, so the epoch opens with a fully
  // coherent set and answers stay exact.
  router.open_epoch();
  EXPECT_EQ(router.tenant_health(t).divergent_replicas, 0u);
  const Trace trace = router.shard_monitor(t, 0).delivered_trace();
  OnDemandFmEngine truth(trace, 512);
  const auto order = trace.delivery_order();
  for (std::size_t i = 0; i < order.size(); i += 5) {
    for (std::size_t j = 0; j < order.size(); j += 9) {
      const RouterQueryResult r = router.precedence(t, order[i], order[j]);
      ASSERT_TRUE(r.answer.has_value());
      ASSERT_EQ(*r.answer, truth.precedes(order[i], order[j]));
    }
  }
  router.close_epoch();

  // The migration is durable: recovery of the tenant's namespaced WAL
  // re-applies it.
  const auto img =
      storage.materialize({storage.op_count(), CrashFault::kClean, 1});
  RecoveredMonitor rec =
      recover_monitor(*img, 6, tc.monitor, wal::tenant_namespace(t));
  EXPECT_EQ(rec.monitor->migration_epoch(), 1u);
  EXPECT_EQ(rec.monitor->preset_partition(),
            router.shard_monitor(t, 0).preset_partition());
}

TEST(ShardMigration, DivergentReplicaSkipsThenReconciles) {
  ShardRouter router;
  TenantConfig tc;
  tc.process_count = 6;
  tc.monitor = cluster_options(6, 3, -1.0);
  tc.shards = 3;
  const TenantId t = router.add_tenant(tc);
  for (const Event& e : phase_shift_stream()) router.ingest(t, e);

  // Corrupt replica 2's cluster store: its digest now disagrees with the
  // leader, so the migration must skip it rather than migrate wrong state.
  MonitoringEntity& victim = router.mutable_shard_monitor(t, 2);
  const EventId target = victim.delivery_log().front();
  victim.inject_timestamp_corruption(target, 0, 0x7777);

  const auto result = router.migrate_tenant(t, eager_config());
  ASSERT_EQ(result.outcome, MigrationOutcome::kCommitted);
  EXPECT_EQ(result.replicas_applied, 2u);
  EXPECT_EQ(result.replicas_skipped, 1u);
  EXPECT_EQ(router.tenant_health(t).replicas_skipped_migration, 1u);

  // The skipped replica quarantines at the next epoch (partition folds
  // into the replica digest) — the fleet keeps serving without it.
  router.open_epoch();
  EXPECT_EQ(router.tenant_health(t).divergent_replicas, 1u);
  router.close_epoch();

  // Repair + reconcile: rebuild the corrupt clusters, re-align the
  // partition, and the replica rejoins the coherent set.
  for (const ClusterId c : victim.cluster_ids()) victim.rebuild_cluster(c);
  router.reconcile_replica(t, 2);
  EXPECT_EQ(victim.migration_epoch(), router.tenant_migration_epoch(t));
  const std::uint64_t quarantines_before =
      router.tenant_health(t).divergent_replicas;
  router.open_epoch();
  EXPECT_EQ(router.tenant_health(t).divergent_replicas, quarantines_before);
  router.close_epoch();
}

// ---------------------------------------------------------------------------
// Crash sweep: never-hybrid across generated schedules
// ---------------------------------------------------------------------------

TEST(CrashSweepMigration, GeneratedSchedulesStayNeverHybrid) {
  CrashSweepParams params;
  params.torn_samples = 8;
  params.short_samples = 4;
  std::uint64_t committed = 0, rolled_back = 0;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    const SimSchedule schedule = generate_schedule(seed);
    const CrashSweepReport report = run_crash_sweep(schedule, params);
    ASSERT_TRUE(report.ok())
        << "seed " << seed << ": " << report.divergence->detail;
    committed += report.migrations_committed;
    rolled_back += report.migrations_rolled_back;
  }
  // The sweep only proves never-hybrid if migrations actually commit (and
  // faulted ones roll back) somewhere in the corpus.
  EXPECT_GT(committed, 0u);
  EXPECT_GT(rolled_back, 0u);
}

}  // namespace
}  // namespace ct
