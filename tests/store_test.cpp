// Out-of-core columnar snapshot store tests (docs/FAULT_MODEL.md §10): CTC1
// encode/parse roundtrips, mapped-view answer identity against the live
// engine, the atomic-rename publication protocol under stale-rename crashes,
// the recovery ladder's rung-by-rung behavior and rejection accounting
// across clustering strategies, exhaustive footer bit-flip detection, the
// seeded whole-image corruption fuzz, and the columnar crash-sweep smoke.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "durability/recovery.hpp"
#include "durability/storage.hpp"
#include "durability/wal.hpp"
#include "model/event.hpp"
#include "monitor/monitor.hpp"
#include "simcheck/crash_sweep.hpp"
#include "simcheck/generator.hpp"
#include "simcheck/schedule.hpp"
#include "store/format.hpp"
#include "store/mapped_view.hpp"
#include "store/recovery_ladder.hpp"
#include "store/snapshot_store.hpp"
#include "util/check.hpp"
#include "util/prng.hpp"

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

/// A small causally ordered stream: rounds of unary events with a
/// send/receive between neighbors each round.
std::vector<Event> small_stream(std::size_t n, std::size_t rounds) {
  std::vector<Event> out;
  std::vector<EventIndex> next(n, 1);
  for (std::size_t r = 0; r < rounds; ++r) {
    for (ProcessId p = 0; p < n; ++p) {
      out.push_back(make(p, next[p]++, EventKind::kUnary));
    }
    const ProcessId a = static_cast<ProcessId>(r % n);
    const ProcessId b = static_cast<ProcessId>((r + 1) % n);
    const EventIndex ai = next[a]++;
    const EventIndex bi = next[b]++;
    out.push_back(make(a, ai, EventKind::kSend, EventId{b, bi}));
    out.push_back(make(b, bi, EventKind::kReceive, EventId{a, ai}));
  }
  return out;
}

struct Strategy {
  const char* name;
  MonitorOptions options;
};

/// The four clustering strategies every durability property must hold for.
std::vector<Strategy> strategies(std::size_t process_count) {
  MonitorOptions base;
  base.backend = TimestampBackend::kClusterDynamic;
  base.cluster.max_cluster_size = 4;
  base.cluster.fm_vector_width = process_count;
  std::vector<Strategy> out;
  MonitorOptions fm;
  fm.backend = TimestampBackend::kPrecomputedFm;
  fm.cluster.fm_vector_width = process_count;
  out.push_back({"precomputed-fm", fm});
  MonitorOptions first = base;
  first.nth_threshold = -1.0;  // merge-on-1st
  out.push_back({"merge-1st", first});
  MonitorOptions nth = base;
  nth.nth_threshold = 4.0;
  out.push_back({"merge-nth/t4", nth});
  MonitorOptions nth10 = base;
  nth10.nth_threshold = 10.0;
  out.push_back({"merge-nth/t10", nth10});
  return out;
}

std::unique_ptr<MonitoringEntity> fed_monitor(const MonitorOptions& options,
                                              std::size_t process_count,
                                              const std::vector<Event>& s) {
  auto monitor = std::make_unique<MonitoringEntity>(process_count, options);
  for (const Event& e : s) monitor->ingest(e);
  return monitor;
}

// ---------------------------------------------------------------------------
// CTC1 format: encode/parse roundtrip
// ---------------------------------------------------------------------------

TEST(ColumnarFormat, RoundTripsManifestAcrossStrategies) {
  const std::vector<Event> stream = small_stream(5, 12);
  for (const Strategy& s : strategies(5)) {
    SCOPED_TRACE(s.name);
    const auto monitor = fed_monitor(s.options, 5, stream);
    const std::string image = encode_columnar(*monitor, 7);
    const ColumnarManifest m = parse_columnar_manifest(image);
    EXPECT_EQ(m.generation, 7u);
    EXPECT_EQ(m.process_count, 5u);
    EXPECT_EQ(m.event_count, monitor->delivery_log().size());
    EXPECT_EQ(m.wal_position, m.event_count);
    EXPECT_EQ(m.state_digest, monitor->state_digest());
    EXPECT_EQ(m.has_arena, monitor->can_export_arena());
    EXPECT_EQ(m.columns.size(),
              m.has_arena ? kColumnarColumnCount : kEventColumnCount);
    EXPECT_NO_THROW(verify_columnar_blocks(image, m));

    MappedSnapshot snap(ColdBytes::from_string(image));
    EXPECT_NO_THROW(snap.verify_structure());
    for (std::uint64_t i = 0; i < m.event_count; ++i) {
      const Event want = *monitor->find(monitor->delivery_log()[i]);
      EXPECT_EQ(snap.event(i), want) << "event " << i;
    }
  }
}

TEST(ColumnarFormat, MappedPrecedenceMatchesTheLiveEngine) {
  const std::vector<Event> stream = small_stream(6, 15);
  MonitorOptions mo = strategies(6)[2].options;  // merge-nth/t4
  const auto monitor = fed_monitor(mo, 6, stream);
  ASSERT_TRUE(monitor->can_export_arena());

  MappedSnapshot snap(
      ColdBytes::from_string(encode_columnar(*monitor, 1)));
  ASSERT_TRUE(snap.has_arena());
  snap.verify_blocks();
  snap.verify_structure();
  const auto log = monitor->delivery_log();
  ASSERT_EQ(snap.event_count(), log.size());
  for (const EventId e : log) {
    EXPECT_EQ(snap.delivered_count(e.process),
              monitor->delivered_count(e.process));
    for (const EventId f : log) {
      const Event ee = *monitor->find(e);
      const Event ef = *monitor->find(f);
      EXPECT_EQ(snap.precedes(ee, ef), monitor->precedes(e, f))
          << e << " ?< " << f;
    }
  }
}

TEST(ColumnarFormat, NamingRoundTripsAndRejectsForeignNames) {
  EXPECT_EQ(columnar_object_name(12), "ctc-12.col");
  EXPECT_EQ(columnar_tmp_name(12, "tenant-3."), "tenant-3.ctc-12.col.tmp");
  EXPECT_EQ(parse_columnar_name("ctc-12.col").value_or(0), 12u);
  EXPECT_EQ(parse_columnar_name("tenant-3.ctc-9.col", "tenant-3.").value_or(0),
            9u);
  EXPECT_FALSE(parse_columnar_name("ctc-12.col.tmp").has_value());
  EXPECT_FALSE(parse_columnar_name("ctc-12.col", "tenant-3.").has_value());
  EXPECT_FALSE(parse_columnar_name("wal-12.log").has_value());
  EXPECT_FALSE(parse_columnar_name("ctc-.col").has_value());
  EXPECT_FALSE(parse_columnar_name("ctc-1x.col").has_value());
  EXPECT_TRUE(is_columnar_tmp_name("ctc-12.col.tmp"));
  EXPECT_FALSE(is_columnar_tmp_name("ctc-12.col"));
}

// ---------------------------------------------------------------------------
// Storage rename + stale-rename crash materialization
// ---------------------------------------------------------------------------

TEST(StorageRename, SimulatedRenameMovesDataAndReplacesTarget) {
  SimulatedStorage sim;
  sim.create("a");
  sim.append("a", "alpha");
  sim.create("b");
  sim.append("b", "beta");
  sim.rename("a", "b");
  EXPECT_FALSE(sim.exists("a"));
  EXPECT_EQ(sim.read("b"), "alpha");
  EXPECT_EQ(sim.rename_points().size(), 1u);
}

TEST(StorageRename, FileStorageRenames) {
  const std::string root =
      ::testing::TempDir() + "ct_store_rename_" +
      std::to_string(::testing::UnitTest::GetInstance()->random_seed());
  FileStorage files(root);
  files.create("x.tmp");
  files.append("x.tmp", "payload");
  files.sync("x.tmp");
  files.rename("x.tmp", "x");
  files.sync_dir();
  EXPECT_FALSE(files.exists("x.tmp"));
  EXPECT_EQ(files.read("x"), "payload");
  for (const std::string& name : files.list()) files.remove(name);
}

TEST(StorageRename, StaleRenameRevertsAnUnsyncedPublication) {
  SimulatedStorage sim;
  sim.create("g.tmp");
  sim.append("g.tmp", "image");
  sim.sync("g.tmp");
  sim.rename("g.tmp", "g");
  // No sync_dir: the rename is in the volatile directory only.
  {
    const auto img =
        sim.materialize({sim.op_count(), CrashFault::kStaleRename, 3});
    EXPECT_TRUE(img->exists("g.tmp"));
    EXPECT_FALSE(img->exists("g"));
    EXPECT_EQ(img->read("g.tmp"), "image");  // bytes survive, name reverts
  }
  sim.sync_dir();
  {
    const auto img =
        sim.materialize({sim.op_count(), CrashFault::kStaleRename, 3});
    EXPECT_TRUE(img->exists("g"));  // durable rename cannot revert
    EXPECT_FALSE(img->exists("g.tmp"));
  }
}

// ---------------------------------------------------------------------------
// Publication protocol
// ---------------------------------------------------------------------------

TEST(ColumnarPublish, PublishesPrunesAndQuarantinesTmps) {
  const std::vector<Event> stream = small_stream(4, 10);
  const auto monitor = fed_monitor(strategies(4)[2].options, 4, stream);
  SimulatedStorage sim;
  ColumnarPublishOptions copts;
  copts.retain_generations = 2;
  for (std::uint64_t g = 1; g <= 4; ++g) {
    const ColumnarPublishResult r =
        publish_columnar(sim, *monitor, g, copts);
    EXPECT_EQ(r.generation, g);
    EXPECT_EQ(r.object, columnar_object_name(g));
    EXPECT_EQ(r.wal_position, monitor->delivery_log().size());
  }
  const auto gens = list_columnar(sim);
  ASSERT_EQ(gens.size(), 2u);  // retention window
  EXPECT_EQ(gens[0].first, 3u);
  EXPECT_EQ(gens[1].first, 4u);
  EXPECT_TRUE(list_columnar_tmps(sim).empty());

  // A crash mid-publication (before the rename) leaves only a tmp, which
  // the ladder quarantines and the next publication sweeps away.
  sim.create(columnar_tmp_name(9));
  sim.append(columnar_tmp_name(9), "torn half-published image");
  EXPECT_EQ(list_columnar_tmps(sim).size(), 1u);
  const LadderRecovery rec = recover_with_ladder(sim, 4, MonitorOptions{});
  EXPECT_EQ(rec.health.tmp_quarantined, 1u);
  publish_columnar(sim, *monitor, 5, copts);
  EXPECT_TRUE(list_columnar_tmps(sim).empty());
}

// ---------------------------------------------------------------------------
// Recovery ladder: every rung, across strategies, with loud accounting
// ---------------------------------------------------------------------------

struct LadderRig {
  SimulatedStorage sim;
  std::unique_ptr<MonitoringEntity> reference;
  std::uint32_t process_count = 5;
};

/// Feeds `stream` through a WAL-attached monitor, checkpoints + publishes
/// mid-stream and at the end (generations 1 and 2).
LadderRig run_rig(const MonitorOptions& options,
                  const std::vector<Event>& stream) {
  LadderRig rig;
  rig.reference = std::make_unique<MonitoringEntity>(rig.process_count,
                                                     options);
  WalOptions wo;
  wo.policy = SyncPolicy::kEveryN;
  wo.sync_every = 4;
  DurableLog log(rig.sim, wo);
  rig.reference->set_delivery_tap(
      [&log](const Event& e) { log.append(e); });
  for (std::size_t i = 0; i < stream.size(); ++i) {
    rig.reference->ingest(stream[i]);
    if (i == stream.size() / 2) {
      log.checkpoint(*rig.reference);
      publish_columnar(rig.sim, *rig.reference, 1);
    }
  }
  log.sync();
  publish_columnar(rig.sim, *rig.reference, 2);
  rig.reference->set_delivery_tap(nullptr);
  return rig;
}

void expect_identical(const MonitoringEntity& got,
                      const MonitoringEntity& want) {
  EXPECT_EQ(got.state_digest(), want.state_digest());
  const auto glog = got.delivery_log();
  const auto wlog = want.delivery_log();
  ASSERT_EQ(glog.size(), wlog.size());
  EXPECT_TRUE(std::equal(glog.begin(), glog.end(), wlog.begin()));
  // FM-oracle answer identity on sampled pairs.
  Prng prng(99);
  for (std::size_t k = 0; k < 64 && !wlog.empty(); ++k) {
    const EventId e = wlog[prng.index(wlog.size())];
    const EventId f = wlog[prng.index(wlog.size())];
    EXPECT_EQ(got.precedes(e, f), want.precedes(e, f)) << e << " ?< " << f;
  }
}

TEST(RecoveryLadder, EveryRungRecoversIdenticallyAcrossStrategies) {
  const std::vector<Event> stream = small_stream(5, 14);
  for (const Strategy& s : strategies(5)) {
    SCOPED_TRACE(s.name);

    // ---- rung 1: newest columnar generation ----
    LadderRig rig = run_rig(s.options, stream);
    {
      const LadderRecovery rec =
          recover_with_ladder(rig.sim, 5, s.options);
      EXPECT_EQ(rec.rung, RecoveryRung::kMapped) << to_string(rec.rung);
      EXPECT_EQ(rec.generation, 2u);
      EXPECT_EQ(rec.health.total_rejected(), 0u);
      expect_identical(*rec.monitor, *rig.reference);
      // Idempotence: recovering the same image twice is byte-identical.
      const LadderRecovery again =
          recover_with_ladder(rig.sim, 5, s.options);
      EXPECT_EQ(again.rung, rec.rung);
      EXPECT_EQ(again.monitor->state_digest(),
                rec.monitor->state_digest());
    }

    // ---- rung 2: newest generation corrupt → prior generation + tail ----
    {
      const std::string newest = columnar_object_name(2);
      std::string bytes = rig.sim.read(newest);
      bytes[bytes.size() / 2] =
          static_cast<char>(bytes[bytes.size() / 2] ^ 0x40);
      rig.sim.remove(newest);
      rig.sim.create(newest);
      rig.sim.append(newest, bytes);
      const LadderRecovery rec =
          recover_with_ladder(rig.sim, 5, s.options);
      EXPECT_EQ(rec.rung, RecoveryRung::kMappedPrior) << to_string(rec.rung);
      EXPECT_EQ(rec.generation, 1u);
      EXPECT_EQ(rec.health.total_rejected(), 1u);
      ASSERT_EQ(rec.health.details.size(), 1u);
      EXPECT_NE(rec.health.details[0].find(newest), std::string::npos);
      expect_identical(*rec.monitor, *rig.reference);
    }

    // ---- rung 3: no columnar generations → CTS1 checkpoint ----
    {
      for (const auto& [gen, name] : list_columnar(rig.sim)) {
        (void)gen;
        rig.sim.remove(name);
      }
      const LadderRecovery rec =
          recover_with_ladder(rig.sim, 5, s.options);
      EXPECT_EQ(rec.rung, RecoveryRung::kSnapshot) << to_string(rec.rung);
      EXPECT_EQ(rec.health.generations_seen, 0u);
      expect_identical(*rec.monitor, *rig.reference);
    }

    // ---- rung 4: no snapshots of either format → full WAL replay ----
    {
      for (const std::string& name : rig.sim.list()) {
        if (wal::parse_snapshot_name(name).has_value()) {
          rig.sim.remove(name);
        }
      }
      const LadderRecovery rec =
          recover_with_ladder(rig.sim, 5, s.options);
      EXPECT_EQ(rec.rung, RecoveryRung::kWalReplay) << to_string(rec.rung);
      expect_identical(*rec.monitor, *rig.reference);
    }

    // ---- rung 5: nothing at all → scratch ----
    {
      SimulatedStorage empty;
      const LadderRecovery rec = recover_with_ladder(empty, 5, s.options);
      EXPECT_EQ(rec.rung, RecoveryRung::kScratch) << to_string(rec.rung);
      EXPECT_EQ(rec.monitor->delivery_log().size(), 0u);
    }
  }
}

TEST(RecoveryLadder, RejectionCausesAreCountedSeparately) {
  const std::vector<Event> stream = small_stream(5, 10);
  const MonitorOptions mo = strategies(5)[2].options;

  // Name mismatch: a generation renamed to impersonate another.
  {
    LadderRig rig = run_rig(mo, stream);
    rig.sim.rename(columnar_object_name(2), columnar_object_name(9));
    const LadderRecovery rec = recover_with_ladder(rig.sim, 5, mo);
    EXPECT_EQ(rec.health.rejected_name_mismatch, 1u);
    // Gen 1 is still usable, but it is not the newest *listed* generation
    // (the impostor is), so it counts as the prior-generation rung.
    EXPECT_EQ(rec.rung, RecoveryRung::kMappedPrior);
    EXPECT_EQ(rec.generation, 1u);
  }

  // Position past the durable log end: the image covers records the WAL of
  // THIS storage never reached (a foreign or mis-copied snapshot).
  {
    LadderRig rig = run_rig(mo, stream);
    const std::string image = rig.sim.read(columnar_object_name(2));
    SimulatedStorage other;
    WalOptions wo;
    DurableLog log(other, wo);
    MonitoringEntity shortmon(5, mo);
    shortmon.set_delivery_tap([&log](const Event& e) { log.append(e); });
    for (std::size_t i = 0; i < 6; ++i) shortmon.ingest(stream[i]);
    log.sync();
    other.create(columnar_object_name(2));
    other.append(columnar_object_name(2), image);
    const LadderRecovery rec = recover_with_ladder(other, 5, mo);
    EXPECT_EQ(rec.health.rejected_position, 1u);
    EXPECT_NE(rec.rung, RecoveryRung::kMapped);
    ASSERT_EQ(rec.health.details.size(), 1u);
    EXPECT_NE(rec.health.details[0].find("past the durable log end"),
              std::string::npos);
  }

  // Checksum: a flipped byte inside a column is caught by the block CRCs
  // and tagged with its byte offset.
  {
    LadderRig rig = run_rig(mo, stream);
    const std::string name = columnar_object_name(2);
    std::string bytes = rig.sim.read(name);
    const ColumnarManifest m = parse_columnar_manifest(bytes);
    const ColumnInfo* pool = m.column(ColumnId::kPool);
    ASSERT_NE(pool, nullptr);
    ASSERT_GT(pool->bytes, 0u);
    const std::size_t victim = static_cast<std::size_t>(pool->offset) + 2;
    bytes[victim] = static_cast<char>(bytes[victim] ^ 1);
    rig.sim.remove(name);
    rig.sim.create(name);
    rig.sim.append(name, bytes);
    const LadderRecovery rec = recover_with_ladder(rig.sim, 5, mo);
    EXPECT_EQ(rec.health.rejected_checksum, 1u);
    EXPECT_EQ(rec.health.rejected_structural, 0u);
    EXPECT_EQ(rec.rung, RecoveryRung::kMappedPrior);
    ASSERT_EQ(rec.health.details.size(), 1u);
    EXPECT_NE(rec.health.details[0].find("byte offset"), std::string::npos);
  }
}

TEST(Recovery, WalGapAttestationAcceptsSnapshotAtPrunedLogHead) {
  // After checkpoint pruning, the newest segment may be empty: its header's
  // first_record_seq attests the log reached the snapshot position, so the
  // snapshot must NOT be rejected for a position gap.
  const std::vector<Event> stream = small_stream(4, 12);
  const MonitorOptions mo = strategies(4)[2].options;
  SimulatedStorage sim;
  WalOptions wo;
  wo.policy = SyncPolicy::kEveryRecord;
  wo.segment_bytes = 512;  // force rotation so pruning has prey
  wo.retain_checkpoints = 1;
  MonitoringEntity monitor(4, mo);
  DurableLog log(sim, wo);
  monitor.set_delivery_tap([&log](const Event& e) { log.append(e); });
  for (const Event& e : stream) monitor.ingest(e);
  log.checkpoint(monitor);  // prunes covered segments
  const RecoveredMonitor rec = recover_monitor(sim, 4, mo);
  EXPECT_EQ(rec.report.snapshots_rejected_position, 0u);
  EXPECT_FALSE(rec.report.snapshot_object.empty());
  EXPECT_EQ(rec.monitor->state_digest(), monitor.state_digest());
  // The cause counters partition the total.
  EXPECT_EQ(rec.report.snapshots_rejected,
            rec.report.snapshots_rejected_structural +
                rec.report.snapshots_rejected_position);
}

// ---------------------------------------------------------------------------
// Corruption detection: exhaustive footer flips + seeded whole-image fuzz
// ---------------------------------------------------------------------------

/// Detected = some verification tier throws; the full tier stack a ladder
/// rung runs before trusting an image.
bool detects(const std::string& image) {
  try {
    MappedSnapshot snap(ColdBytes::from_string(image));
    snap.verify_blocks();
    snap.verify_digests();
    snap.verify_structure();
    return false;
  } catch (const CheckFailure&) {
    return true;
  }
}

TEST(ColumnarCorruption, EveryFooterByteFlipIsDetected) {
  const std::vector<Event> stream = small_stream(4, 8);
  const auto monitor = fed_monitor(strategies(4)[2].options, 4, stream);
  const std::string image = encode_columnar(*monitor, 3);
  const ColumnarManifest m = parse_columnar_manifest(image);
  // Every byte of the footer manifest AND the 16-byte trailer.
  for (std::size_t at = static_cast<std::size_t>(m.footer_offset);
       at < image.size(); ++at) {
    for (const unsigned mask : {0x01u, 0x80u}) {
      std::string flipped = image;
      flipped[at] = static_cast<char>(
          static_cast<unsigned char>(flipped[at]) ^ mask);
      EXPECT_TRUE(detects(flipped))
          << "undetected flip of footer byte " << at << " mask " << mask;
    }
  }
}

TEST(ColumnarCorruption, EveryBlockCrcCoversItsBlock) {
  const std::vector<Event> stream = small_stream(4, 8);
  const auto monitor = fed_monitor(strategies(4)[2].options, 4, stream);
  const std::string image = encode_columnar(*monitor, 3, /*block_bytes=*/64);
  const ColumnarManifest m = parse_columnar_manifest(image);
  // One flip inside every CRC block of every column must be detected.
  for (const ColumnInfo& c : m.columns) {
    for (std::size_t b = 0; b < c.block_crcs.size(); ++b) {
      const std::size_t at = static_cast<std::size_t>(c.offset) + b * 64;
      std::string flipped = image;
      flipped[at] = static_cast<char>(
          static_cast<unsigned char>(flipped[at]) ^ 0x10);
      EXPECT_TRUE(detects(flipped))
          << "undetected flip in " << to_string(c.id) << " block " << b;
    }
  }
}

TEST(ColumnarCorruption, SeededFuzzEveryFlipDetectedOrAnswerIdentical) {
  const std::vector<Event> stream = small_stream(5, 10);
  const auto monitor = fed_monitor(strategies(5)[2].options, 5, stream);
  const std::string image = encode_columnar(*monitor, 1, /*block_bytes=*/256);
  const std::uint64_t want_digest = monitor->state_digest();

  Prng prng(20260809);
  std::size_t detected = 0;
  for (int round = 0; round < 300; ++round) {
    std::string fuzzed = image;
    const std::size_t at = prng.index(fuzzed.size());
    fuzzed[at] = static_cast<char>(static_cast<unsigned char>(fuzzed[at]) ^
                                   (1u << prng.index(8)));
    try {
      MappedSnapshot snap(ColdBytes::from_string(fuzzed));
      snap.verify_blocks();
      snap.verify_digests();
      snap.verify_structure();
      // Undetected: the flip must be semantically inert (alignment
      // padding). The restored state must be bit-identical.
      ASSERT_EQ(snap.manifest().state_digest, want_digest)
          << "round " << round << " byte " << at;
      const LadderRecovery check = [&] {
        SimulatedStorage sim;
        sim.create(columnar_object_name(1));
        sim.append(columnar_object_name(1), fuzzed);
        return recover_with_ladder(sim, 5, MonitorOptions{});
      }();
      ASSERT_EQ(check.rung, RecoveryRung::kMapped)
          << "round " << round << " byte " << at;
      ASSERT_EQ(check.monitor->state_digest(), want_digest)
          << "round " << round << " byte " << at;
    } catch (const CheckFailure&) {
      ++detected;  // loudly rejected: exactly what the ladder would do
    }
  }
  // Nearly every byte is checksummed; only pad bytes may slip through
  // (and those proved answer-identical above).
  EXPECT_GT(detected, 250u);
}

// ---------------------------------------------------------------------------
// Columnar crash-sweep smoke
// ---------------------------------------------------------------------------

TEST(ColumnarSweep, GeneratedSchedulesRecoverOnMappedRungs) {
  CrashSweepParams params;
  params.policy = SyncPolicy::kEveryN;
  params.sync_every = 8;
  params.torn_samples = 8;
  params.short_samples = 4;
  params.rot_samples = 2;
  params.stale_samples = 1;
  params.stale_rename_samples = 3;
  params.mapped_rot_samples = 3;
  for (const std::uint64_t seed : {11ull, 29ull}) {
    const SimSchedule schedule = generate_schedule(seed);
    const CrashSweepReport report = run_crash_sweep(schedule, params);
    ASSERT_TRUE(report.ok())
        << "seed " << seed << " cut " << report.divergence->op_index << " ["
        << report.divergence->config << "]: " << report.divergence->detail;
    EXPECT_GT(report.generations_published, 0u);
    EXPECT_GT(report.ladder_mapped, 0u);
    EXPECT_EQ(report.ladder_mapped + report.ladder_snapshot +
                  report.ladder_wal,
              report.crash_points);
  }
}

TEST(ColumnarSweep, TurningTheStoreOffRestoresTheLegacySweep) {
  CrashSweepParams params;
  params.columnar_store = false;
  const SimSchedule schedule = generate_schedule(13);
  const CrashSweepReport report = run_crash_sweep(schedule, params);
  ASSERT_TRUE(report.ok())
      << report.divergence->config << ": " << report.divergence->detail;
  EXPECT_EQ(report.generations_published, 0u);
  EXPECT_EQ(report.ladder_mapped, 0u);
}

// ---------------------------------------------------------------------------
// Mapped cold path on real files
// ---------------------------------------------------------------------------

TEST(MappedView, FileStorageServesQueriesThroughMmap) {
  const std::vector<Event> stream = small_stream(5, 10);
  const auto monitor = fed_monitor(strategies(5)[2].options, 5, stream);
  const std::string root =
      ::testing::TempDir() + "ct_store_mmap_" +
      std::to_string(::testing::UnitTest::GetInstance()->random_seed());
  FileStorage files(root);
  publish_columnar(files, *monitor, 4);

  ColdBytes cold = read_cold(files, columnar_object_name(4));
  EXPECT_TRUE(cold.mapped());
  MappedSnapshot snap(std::move(cold));
  snap.verify_blocks();
  snap.verify_structure();
  const auto log = monitor->delivery_log();
  Prng prng(5);
  for (std::size_t k = 0; k < 200; ++k) {
    const EventId e = log[prng.index(log.size())];
    const EventId f = log[prng.index(log.size())];
    EXPECT_EQ(snap.precedes(*monitor->find(e), *monitor->find(f)),
              monitor->precedes(e, f));
  }
  const LadderRecovery rec = recover_with_ladder(files, 5, MonitorOptions{});
  EXPECT_EQ(rec.rung, RecoveryRung::kMapped);
  EXPECT_EQ(rec.monitor->state_digest(), monitor->state_digest());
  for (const std::string& name : files.list()) files.remove(name);
}

}  // namespace
}  // namespace ct
