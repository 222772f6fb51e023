// Crash-consistent durability tests (docs/FAULT_MODEL.md §7): the simulated
// storage's crash model, the write-ahead log's framing / rotation /
// checkpoint pruning, prefix-consistent recovery under every storage fault,
// recovery idempotency across clustering strategies, and the crash-point
// sweep harness.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "durability/storage.hpp"
#include "durability/wal.hpp"
#include "model/event.hpp"
#include "monitor/monitor.hpp"
#include "simcheck/crash_sweep.hpp"
#include "simcheck/generator.hpp"
#include "simcheck/replay_io.hpp"
#include "simcheck/schedule.hpp"
#include "store/recovery_ladder.hpp"
#include "util/check.hpp"

#ifndef CT_SIMCHECK_CORPUS_DIR
#error "CT_SIMCHECK_CORPUS_DIR must point at tests/simcheck_corpus"
#endif

namespace ct {
namespace {

MonitorOptions options_for(std::size_t process_count) {
  MonitorOptions mo;
  mo.backend = TimestampBackend::kClusterDynamic;
  mo.cluster.max_cluster_size = 8;
  mo.cluster.fm_vector_width = process_count;
  mo.nth_threshold = 4.0;
  return mo;
}

Event make(ProcessId p, EventIndex i, EventKind k,
           EventId partner = kNoEvent) {
  Event e;
  e.id = EventId{p, i};
  e.kind = k;
  e.partner = partner;
  return e;
}

/// A small causally ordered stream over `n` processes: rounds of unary
/// events with a send/receive between neighbors each round.
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

/// Emits of a generated schedule — a realistic fault-mangled stream.
std::vector<Event> schedule_stream(std::uint64_t seed,
                                   std::uint32_t* process_count) {
  const SimSchedule s = generate_schedule(seed);
  *process_count = s.process_count;
  std::vector<Event> out;
  for (const SimOp& op : s.ops) {
    if (op.kind == SimOp::Kind::kEmit) out.push_back(op.event);
  }
  return out;
}

// ---------------------------------------------------------------------------
// SimulatedStorage crash model
// ---------------------------------------------------------------------------

TEST(SimStorage, CleanMaterializeKeepsEveryByte) {
  SimulatedStorage sim;
  sim.create("a");
  sim.append("a", "hello ");
  sim.append("a", "world");
  const auto img = sim.materialize({sim.op_count(), CrashFault::kClean, 7});
  EXPECT_EQ(img->read("a"), "hello world");
}

TEST(SimStorage, LostSuffixKeepsExactlyTheSyncedPrefix) {
  SimulatedStorage sim;
  sim.create("a");
  sim.append("a", "durable|");
  sim.sync("a");
  sim.append("a", "volatile");
  const auto img =
      sim.materialize({sim.op_count(), CrashFault::kLostSuffix, 7});
  EXPECT_EQ(img->read("a"), "durable|");
}

TEST(SimStorage, SyncOnlyCoversItsOwnObject) {
  SimulatedStorage sim;
  sim.create("a");
  sim.create("b");
  sim.append("a", "aaaa");
  sim.append("b", "bbbb");
  sim.sync("a");
  const auto img =
      sim.materialize({sim.op_count(), CrashFault::kLostSuffix, 1});
  EXPECT_EQ(img->read("a"), "aaaa");
  EXPECT_EQ(img->read("b"), "");
}

TEST(SimStorage, ShortWriteCutsAtAppendBoundaries) {
  SimulatedStorage sim;
  sim.create("a");
  sim.append("a", "one|");
  sim.append("a", "two|");
  sim.append("a", "three|");
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    const auto img =
        sim.materialize({sim.op_count(), CrashFault::kShortWrite, seed});
    const std::string got = img->read("a");
    EXPECT_TRUE(got.empty() || got == "one|" || got == "one|two|")
        << "unexpected short-write image: '" << got << "'";
  }
}

TEST(SimStorage, TornWriteCutsMidAppend) {
  SimulatedStorage sim;
  sim.create("a");
  sim.append("a", "0123456789");
  bool saw_partial = false;
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    const auto img =
        sim.materialize({sim.op_count(), CrashFault::kTornWrite, seed});
    const std::string got = img->read("a");
    EXPECT_TRUE(std::string("0123456789").starts_with(got));
    saw_partial = saw_partial || (!got.empty() && got.size() < 10);
  }
  EXPECT_TRUE(saw_partial) << "torn write never produced a partial append";
}

TEST(SimStorage, BitRotFlipsExactlyOneUnsyncedBit) {
  SimulatedStorage sim;
  sim.create("a");
  sim.append("a", "synced");
  sim.sync("a");
  sim.append("a", std::string(8, '\0'));
  const auto img = sim.materialize({sim.op_count(), CrashFault::kBitRot, 3});
  const std::string got = img->read("a");
  ASSERT_EQ(got.size(), 14u);
  EXPECT_EQ(got.substr(0, 6), "synced") << "bit rot hit the synced prefix";
  int flipped = 0;
  for (std::size_t i = 6; i < got.size(); ++i) {
    flipped += std::popcount(static_cast<unsigned>(
        static_cast<unsigned char>(got[i])));
  }
  EXPECT_EQ(flipped, 1);
}

TEST(SimStorage, StaleSegmentDropsOneUnsyncedCreation) {
  SimulatedStorage sim;
  sim.create("old");
  sim.append("old", "x");
  sim.sync("old");
  sim.sync_dir();
  sim.create("fresh");
  sim.append("fresh", "y");
  sim.sync("fresh");  // data synced — but the dir entry never was
  const auto img =
      sim.materialize({sim.op_count(), CrashFault::kStaleSegment, 5});
  EXPECT_TRUE(img->exists("old"));
  EXPECT_FALSE(img->exists("fresh"));
}

TEST(SimStorage, MaterializeIsDeterministic) {
  SimulatedStorage sim;
  sim.create("a");
  for (int i = 0; i < 20; ++i) sim.append("a", "chunk" + std::to_string(i));
  for (const CrashFault fault :
       {CrashFault::kShortWrite, CrashFault::kTornWrite, CrashFault::kBitRot}) {
    const auto x = sim.materialize({sim.op_count(), fault, 42});
    const auto y = sim.materialize({sim.op_count(), fault, 42});
    EXPECT_EQ(x->read("a"), y->read("a")) << to_string(fault);
  }
}

TEST(SimStorage, DoubleCrashPreservesTheMaterializedBase) {
  SimulatedStorage sim;
  sim.create("a");
  sim.append("a", "first");
  sim.sync("a");
  auto crashed = sim.materialize({sim.op_count(), CrashFault::kLostSuffix, 1});
  // The survivor writes more, then crashes again before syncing.
  crashed->append("a", "+second");
  const auto again =
      crashed->materialize({crashed->op_count(), CrashFault::kLostSuffix, 2});
  EXPECT_EQ(again->read("a"), "first");
}

// ---------------------------------------------------------------------------
// WAL + recovery
// ---------------------------------------------------------------------------

/// Feeds `stream` into a monitor with an attached log; returns the monitor's
/// final digest.
std::uint64_t record_stream(const std::vector<Event>& stream,
                            std::size_t process_count, SimulatedStorage& sim,
                            const WalOptions& wo,
                            std::size_t checkpoint_every = 0) {
  MonitoringEntity monitor(process_count, options_for(process_count));
  DurableLog log(sim, wo);
  monitor.set_delivery_tap([&log](const Event& e) { log.append(e); });
  std::size_t fed = 0;
  for (const Event& e : stream) {
    monitor.ingest(e);
    if (checkpoint_every != 0 && ++fed % checkpoint_every == 0) {
      log.checkpoint(monitor);
    }
  }
  log.sync();
  return monitor.state_digest();
}

// The record codec the WAL frames and the CTC1 event column share: every
// field width round-trips and each malformed shape is refused.
TEST(Wal, RecordCodecRoundTripsAndRefusesMalformedRecords) {
  const std::vector<std::uint32_t> widths = {
      0, 1, 127, 128, 16383, 16384, 2097151, 2097152, 1u << 28, 0xffffffffu};
  std::vector<Event> events;
  for (std::size_t i = 0; i < widths.size(); ++i) {
    for (std::size_t j = 0; j < widths.size(); j += 3) {
      const std::uint32_t a = widths[i];
      const std::uint32_t b = widths[j];
      events.push_back(make(a, b, static_cast<EventKind>((i + j) % 4), {b, a}));
    }
  }
  std::string column;
  for (const Event& e : events) wal::encode_record(column, e);
  std::size_t pos = 0;
  for (std::size_t i = 0; i < events.size(); ++i) {
    Event got;
    ASSERT_TRUE(wal::decode_record(column, pos, got)) << "record " << i;
    EXPECT_EQ(got, events[i]) << "record " << i;
  }
  EXPECT_EQ(pos, column.size());

  auto refused = [](const std::string& bytes) {
    std::size_t at = 0;
    Event e;
    return !wal::decode_record(bytes, at, e);
  };
  const std::string good = "\x01\x02\x01\x03\x04";
  EXPECT_FALSE(refused(good));
  for (std::size_t len = 0; len < good.size(); ++len) {
    EXPECT_TRUE(refused(good.substr(0, len))) << "truncated to " << len;
  }
  EXPECT_TRUE(refused(std::string("\x01\x02\x04\x03\x04")));  // kind 4
  EXPECT_TRUE(refused(std::string("\x01\x02\x80\x03\x04")));  // kind 128
  // A two-byte field ending in 0x00 is non-canonical, wherever it sits.
  EXPECT_TRUE(refused(std::string("\x81\x00\x02\x01\x03\x04", 6)));
  EXPECT_TRUE(refused(std::string("\x01\x02\x01\x03\x84\x00", 6)));
  // So is a five-byte one.
  EXPECT_TRUE(
      refused(std::string("\x81\x80\x80\x80\x00\x02\x01\x03\x04", 9)));
  // 2^32 does not fit a 32-bit id, nor does any six-byte field.
  EXPECT_TRUE(refused(std::string("\x80\x80\x80\x80\x10\x02\x01\x03\x04")));
  EXPECT_TRUE(
      refused(std::string("\x81\x80\x80\x80\x80\x01\x02\x01\x03\x04")));
}

TEST(Wal, CleanRecoveryIsBitIdentical) {
  const std::vector<Event> stream = small_stream(4, 12);
  SimulatedStorage sim;
  WalOptions wo;
  wo.policy = SyncPolicy::kEveryN;
  wo.sync_every = 5;
  const std::uint64_t want = record_stream(stream, 4, sim, wo);

  const auto img = sim.materialize({sim.op_count(), CrashFault::kClean, 0});
  const LadderRecovery rec = recover_with_ladder(*img, 4, options_for(4));
  EXPECT_FALSE(rec.report.truncated) << rec.report.truncate_detail;
  EXPECT_EQ(rec.report.recovered_seq, stream.size());
  EXPECT_EQ(rec.monitor->state_digest(), want);
  EXPECT_TRUE(rec.monitor->health().accounted());
}

TEST(Wal, LostSuffixRecoversTheSyncedPrefixExactly) {
  const std::vector<Event> stream = small_stream(4, 12);
  SimulatedStorage sim;
  WalOptions wo;
  wo.policy = SyncPolicy::kEveryN;
  wo.sync_every = 7;
  MonitoringEntity monitor(4, options_for(4));
  DurableLog log(sim, wo);
  monitor.set_delivery_tap([&log](const Event& e) { log.append(e); });
  for (const Event& e : stream) monitor.ingest(e);
  // No final sync: the tail past the last every-7 commit is volatile.
  const std::uint64_t synced = log.synced_record_seq();
  const std::uint64_t total = log.next_record_seq();
  ASSERT_LT(synced, total);

  const auto img =
      sim.materialize({sim.op_count(), CrashFault::kLostSuffix, 3});
  const LadderRecovery rec = recover_with_ladder(*img, 4, options_for(4));
  EXPECT_EQ(rec.report.recovered_seq, synced);
  rec.monitor->note_wal_loss(total - rec.report.recovered_seq);
  EXPECT_EQ(rec.monitor->health().wal_lost, total - synced);
  EXPECT_TRUE(rec.monitor->health().accounted());
  // The recovered log is the exact delivered prefix.
  const auto logged = rec.monitor->delivery_log();
  const auto full = monitor.delivery_log();
  ASSERT_LE(logged.size(), full.size());
  EXPECT_TRUE(std::equal(logged.begin(), logged.end(), full.begin()));
}

TEST(Wal, EveryRecordPolicyLosesAtMostTheInFlightRecord) {
  const std::vector<Event> stream = small_stream(3, 10);
  SimulatedStorage sim;
  WalOptions wo;
  wo.policy = SyncPolicy::kEveryRecord;
  record_stream(stream, 3, sim, wo);
  for (const std::size_t cut : sim.append_points()) {
    const auto img = sim.materialize({cut, CrashFault::kLostSuffix, 1});
    const auto perfect = sim.materialize({cut, CrashFault::kClean, 0});
    const LadderRecovery got = recover_with_ladder(*img, 3, options_for(3));
    const LadderRecovery want =
        recover_with_ladder(*perfect, 3, options_for(3));
    EXPECT_LE(want.report.recovered_seq - got.report.recovered_seq, 1u)
        << "cut " << cut;
  }
}

TEST(Wal, TornFrameTruncatesAtFirstInvalidFrame) {
  const std::vector<Event> stream = small_stream(4, 8);
  SimulatedStorage sim;
  WalOptions wo;
  wo.policy = SyncPolicy::kNone;
  record_stream(stream, 4, sim, wo);
  bool saw_truncation = false;
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const auto img =
        sim.materialize({sim.op_count() - 1, CrashFault::kTornWrite, seed});
    const LadderRecovery rec = recover_with_ladder(*img, 4, options_for(4));
    EXPECT_TRUE(rec.monitor->health().accounted());
    EXPECT_LE(rec.report.recovered_seq, stream.size());
    saw_truncation = saw_truncation || rec.report.truncated;
  }
  EXPECT_TRUE(saw_truncation);
}

TEST(Wal, BitRotIsDetectedAndTruncated) {
  const std::vector<Event> stream = small_stream(4, 10);
  SimulatedStorage sim;
  WalOptions wo;
  wo.policy = SyncPolicy::kNone;
  {
    // No final sync: kBitRot only corrupts bytes the log never synced, so
    // the whole record region must still be volatile at the crash cut.
    MonitoringEntity monitor(4, options_for(4));
    DurableLog log(sim, wo);
    monitor.set_delivery_tap([&log](const Event& e) { log.append(e); });
    for (const Event& e : stream) monitor.ingest(e);
  }
  // Flip a bit in the un-synced record region; the CRC must catch it and
  // recovery must stop (prefix-consistent), never deliver a mangled event.
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const auto img =
        sim.materialize({sim.op_count(), CrashFault::kBitRot, seed});
    const LadderRecovery rec = recover_with_ladder(*img, 4, options_for(4));
    EXPECT_TRUE(rec.monitor->health().accounted());
    EXPECT_TRUE(rec.report.truncated) << "seed " << seed;
  }
}

TEST(Wal, RotationChainsSegmentsAndRecoversAcrossThem) {
  const std::vector<Event> stream = small_stream(4, 40);
  SimulatedStorage sim;
  WalOptions wo;
  wo.policy = SyncPolicy::kEveryN;
  wo.sync_every = 4;
  wo.segment_bytes = 256;  // force many rotations
  const std::uint64_t want = record_stream(stream, 4, sim, wo);
  std::size_t segments = 0;
  for (const std::string& name : sim.list()) {
    segments += wal::parse_segment_name(name).has_value();
  }
  EXPECT_GT(segments, 3u);

  const auto img = sim.materialize({sim.op_count(), CrashFault::kClean, 0});
  const LadderRecovery rec = recover_with_ladder(*img, 4, options_for(4));
  EXPECT_FALSE(rec.report.truncated) << rec.report.truncate_detail;
  EXPECT_EQ(rec.monitor->state_digest(), want);
  EXPECT_EQ(rec.report.segments_scanned, segments);
}

TEST(Wal, MissingMiddleSegmentStopsPrefixConsistent) {
  const std::vector<Event> stream = small_stream(4, 40);
  SimulatedStorage sim;
  WalOptions wo;
  wo.policy = SyncPolicy::kEveryN;
  wo.sync_every = 4;
  wo.segment_bytes = 256;
  record_stream(stream, 4, sim, wo);
  std::vector<std::string> segments;
  for (const std::string& name : sim.list()) {
    if (wal::parse_segment_name(name)) segments.push_back(name);
  }
  ASSERT_GT(segments.size(), 2u);
  sim.remove(segments[1]);

  const auto img = sim.materialize({sim.op_count(), CrashFault::kClean, 0});
  const LadderRecovery rec = recover_with_ladder(*img, 4, options_for(4));
  EXPECT_TRUE(rec.report.truncated);
  EXPECT_NE(rec.report.truncate_detail.find("gap"), std::string::npos)
      << rec.report.truncate_detail;
  // Only the first segment's records survive — never a resynthesized order.
  EXPECT_TRUE(rec.monitor->health().accounted());
  EXPECT_LT(rec.report.recovered_seq, stream.size());
}

// Opening a segment is create -> sync_dir -> append(header), so a crash just
// past a rotation's sync_dir leaves a durable last segment with no header.
// It holds no record: recovery reads it as an empty tail, and a restarted
// log reopens it instead of leaving it mid-log.
TEST(Wal, HeaderlessLastSegmentIsAnEmptyTailAndIsReopened) {
  const std::vector<Event> stream = small_stream(4, 40);
  SimulatedStorage sim;
  WalOptions wo;
  wo.policy = SyncPolicy::kEveryRecord;
  wo.segment_bytes = 256;  // force many rotations
  record_stream(stream, 4, sim, wo);

  std::size_t headerless = 0;
  for (const std::size_t cut : sim.namespace_points()) {
    const auto img = sim.materialize({cut, CrashFault::kClean, 0});
    const LadderRecovery rec = recover_with_ladder(*img, 4, options_for(4));
    ASSERT_FALSE(rec.report.truncated)
        << "cut " << cut << ": " << rec.report.truncate_detail;
    EXPECT_TRUE(rec.monitor->health().accounted());

    const std::string last = img->list().back();  // segments only
    const std::uint64_t last_seq = *wal::parse_segment_name(last);
    if (!wal::headerless_segment(img->read(last), last_seq)) continue;
    ++headerless;

    const std::uint64_t resume = rec.report.recovered_seq;
    DurableLog restarted(*img, wo, resume);
    EXPECT_EQ(restarted.segment_name(), last) << "cut " << cut;
    rec.monitor->set_delivery_tap(
        [&restarted](const Event& e) { restarted.append(e); });
    for (std::size_t i = resume; i < stream.size(); ++i) {
      rec.monitor->ingest(stream[i]);
    }
    for (const std::string& name : img->list()) {
      EXPECT_FALSE(wal::headerless_segment(
          img->read(name), *wal::parse_segment_name(name)))
          << name << " left header-less at cut " << cut;
    }
    const LadderRecovery again =
        recover_with_ladder(*img, 4, options_for(4));
    EXPECT_FALSE(again.report.truncated) << again.report.truncate_detail;
    EXPECT_EQ(again.report.recovered_seq, stream.size()) << "cut " << cut;
  }
  EXPECT_GT(headerless, 0u);
}

// An empty segment is no licence to skip records: the segment after it
// must still chain onto the records read so far.
TEST(Wal, HeaderlessMiddleSegmentStillStopsAtTheGapAfterIt) {
  const std::vector<Event> stream = small_stream(4, 40);
  SimulatedStorage sim;
  WalOptions wo;
  wo.policy = SyncPolicy::kEveryN;
  wo.sync_every = 4;
  wo.segment_bytes = 256;
  record_stream(stream, 4, sim, wo);
  std::vector<std::string> segments;
  for (const std::string& name : sim.list()) {
    if (wal::parse_segment_name(name)) segments.push_back(name);
  }
  ASSERT_GT(segments.size(), 2u);
  sim.create(segments[1]);  // truncates: its records are gone

  const auto img = sim.materialize({sim.op_count(), CrashFault::kClean, 0});
  const LadderRecovery rec = recover_with_ladder(*img, 4, options_for(4));
  EXPECT_TRUE(rec.report.truncated);
  EXPECT_NE(rec.report.truncate_detail.find("gap"), std::string::npos)
      << rec.report.truncate_detail;
  EXPECT_TRUE(rec.monitor->health().accounted());
  EXPECT_LT(rec.report.recovered_seq, stream.size());
}

TEST(Wal, CheckpointPrunesCoveredSegmentsAndStaleSnapshots) {
  const std::vector<Event> stream = small_stream(4, 60);
  SimulatedStorage sim;
  WalOptions wo;
  wo.policy = SyncPolicy::kOnCheckpoint;
  wo.segment_bytes = 256;
  const std::uint64_t want = record_stream(stream, 4, sim, wo, 50);

  std::size_t snapshots = 0, segments = 0;
  for (const std::string& name : sim.list()) {
    snapshots += wal::parse_snapshot_name(name).has_value();
    segments += wal::parse_segment_name(name).has_value();
  }
  EXPECT_LE(snapshots, 2u);
  EXPECT_GE(snapshots, 1u);
  // Pruning must have removed fully covered segments: far fewer on disk
  // than the rotation count implies.
  EXPECT_LT(segments, 12u);

  const auto img = sim.materialize({sim.op_count(), CrashFault::kClean, 0});
  const LadderRecovery rec = recover_with_ladder(*img, 4, options_for(4));
  EXPECT_FALSE(rec.report.truncated) << rec.report.truncate_detail;
  EXPECT_FALSE(rec.report.snapshot_object.empty());
  EXPECT_GT(rec.report.snapshot_seq, 0u);
  EXPECT_EQ(rec.monitor->state_digest(), want);
}

TEST(Wal, CorruptSnapshotFallsBackToOlderOrScratch) {
  const std::vector<Event> stream = small_stream(4, 30);
  SimulatedStorage sim;
  WalOptions wo;
  wo.policy = SyncPolicy::kEveryN;
  wo.sync_every = 4;
  const std::uint64_t want = record_stream(stream, 4, sim, wo, 40);

  // Mangle the newest checkpoint: its block CRCs must reject it whole.
  std::string newest;
  for (const std::string& name : sim.list()) {
    if (wal::parse_snapshot_name(name)) newest = name;  // list is sorted
  }
  ASSERT_FALSE(newest.empty());
  const std::string data = sim.read(newest);
  sim.remove(newest);
  sim.create(newest);
  std::string mangled = data;
  mangled[mangled.size() / 2] ^= 0x10;
  sim.append(newest, mangled);

  const auto img = sim.materialize({sim.op_count(), CrashFault::kClean, 0});
  const LadderRecovery rec = recover_with_ladder(*img, 4, options_for(4));
  EXPECT_EQ(rec.health.total_rejected(), 1u);
  EXPECT_EQ(rec.monitor->state_digest(), want);
}

TEST(Wal, FileStorageRoundTripsOnRealFiles) {
  const std::vector<Event> stream = small_stream(3, 8);
  const std::string root =
      ::testing::TempDir() + "ct_wal_test_" +
      std::to_string(::testing::UnitTest::GetInstance()->random_seed());
  FileStorage files(root);
  MonitoringEntity monitor(3, options_for(3));
  WalOptions wo;
  wo.policy = SyncPolicy::kEveryN;
  wo.sync_every = 3;
  DurableLog log(files, wo);
  monitor.set_delivery_tap([&log](const Event& e) { log.append(e); });
  for (const Event& e : stream) monitor.ingest(e);
  log.checkpoint(monitor);

  const LadderRecovery rec = recover_with_ladder(files, 3, options_for(3));
  EXPECT_FALSE(rec.report.truncated) << rec.report.truncate_detail;
  EXPECT_EQ(rec.monitor->state_digest(), monitor.state_digest());
  for (const std::string& name : files.list()) files.remove(name);
}

// ---------------------------------------------------------------------------
// Recovery idempotency (crash → recover → re-feed the overlapping tail)
// ---------------------------------------------------------------------------

TEST(Recovery, RefeedingTheOverlappingTailConvergesAcrossStrategies) {
  std::uint32_t pc = 0;
  const std::vector<Event> stream = schedule_stream(1234, &pc);
  ASSERT_GT(stream.size(), 50u);

  struct Strategy {
    const char* name;
    MonitorOptions options;
  };
  std::vector<Strategy> strategies;
  {
    MonitorOptions fm;
    fm.backend = TimestampBackend::kPrecomputedFm;
    fm.cluster.fm_vector_width = pc;
    strategies.push_back({"precomputed-fm", fm});
    MonitorOptions first = options_for(pc);
    first.nth_threshold = -1.0;  // merge-on-1st
    strategies.push_back({"merge-1st", first});
    MonitorOptions nth = options_for(pc);
    nth.nth_threshold = 4.0;
    strategies.push_back({"merge-nth/t4", nth});
    MonitorOptions nth10 = options_for(pc);
    nth10.nth_threshold = 10.0;
    strategies.push_back({"merge-nth/t10", nth10});
  }

  for (const Strategy& s : strategies) {
    SCOPED_TRACE(s.name);
    // Reference: the whole stream, no crash.
    MonitoringEntity reference(pc, s.options);
    for (const Event& e : stream) reference.ingest(e);

    // Crashed run: half the stream, lost un-synced suffix, recover.
    SimulatedStorage sim;
    WalOptions wo;
    wo.policy = SyncPolicy::kEveryN;
    wo.sync_every = 6;
    {
      MonitoringEntity monitor(pc, s.options);
      DurableLog log(sim, wo);
      monitor.set_delivery_tap([&log](const Event& e) { log.append(e); });
      for (std::size_t i = 0; i < stream.size() / 2; ++i) {
        monitor.ingest(stream[i]);
      }
      // Crash without a final sync.
    }
    const auto img =
        sim.materialize({sim.op_count(), CrashFault::kLostSuffix, 9});
    LadderRecovery rec = recover_with_ladder(*img, pc, s.options);
    EXPECT_TRUE(rec.monitor->health().accounted());

    // Re-feed with overlap: from well before the crash point through the
    // end. Records already recovered drop as duplicates; lost ones land.
    const std::size_t resume = stream.size() / 4;
    for (std::size_t i = resume; i < stream.size(); ++i) {
      rec.monitor->ingest(stream[i]);
    }
    EXPECT_EQ(rec.monitor->state_digest(), reference.state_digest());
    EXPECT_EQ(rec.monitor->delivery_log().size(),
              reference.delivery_log().size());
    EXPECT_TRUE(rec.monitor->health().accounted());
  }
}

TEST(Recovery, RecoverRefeedRecoverIsIdempotent) {
  const std::vector<Event> stream = small_stream(5, 20);
  SimulatedStorage sim;
  WalOptions wo;
  wo.policy = SyncPolicy::kEveryN;
  wo.sync_every = 5;
  {
    MonitoringEntity monitor(5, options_for(5));
    DurableLog log(sim, wo);
    monitor.set_delivery_tap([&log](const Event& e) { log.append(e); });
    for (std::size_t i = 0; i < stream.size() / 2; ++i) {
      monitor.ingest(stream[i]);
    }
  }
  // First crash + recovery, resume logging, feed the rest, crash again.
  auto img1 = sim.materialize({sim.op_count(), CrashFault::kLostSuffix, 1});
  LadderRecovery rec1 = recover_with_ladder(*img1, 5, options_for(5));
  {
    DurableLog log(*img1, wo, rec1.report.recovered_seq);
    rec1.monitor->set_delivery_tap(
        [&log](const Event& e) { log.append(e); });
    for (std::size_t i = stream.size() / 4; i < stream.size(); ++i) {
      rec1.monitor->ingest(stream[i]);
    }
    log.sync();
  }
  const auto img2 =
      img1->materialize({img1->op_count(), CrashFault::kClean, 0});
  const LadderRecovery rec2 = recover_with_ladder(*img2, 5, options_for(5));
  EXPECT_FALSE(rec2.report.truncated) << rec2.report.truncate_detail;

  MonitoringEntity reference(5, options_for(5));
  for (const Event& e : stream) reference.ingest(e);
  EXPECT_EQ(rec2.monitor->state_digest(), reference.state_digest());
}

// ---------------------------------------------------------------------------
// Crash sweep harness
// ---------------------------------------------------------------------------

TEST(CrashSweep, PassesOnGeneratedSchedules) {
  CrashSweepParams params;
  params.policy = SyncPolicy::kEveryN;
  params.sync_every = 8;
  params.torn_samples = 8;
  params.short_samples = 4;
  params.rot_samples = 2;
  params.stale_samples = 1;
  for (const std::uint64_t seed : {7ull, 21ull}) {
    const SimSchedule schedule = generate_schedule(seed);
    const CrashSweepReport report = run_crash_sweep(schedule, params);
    ASSERT_TRUE(report.ok())
        << "seed " << seed << " cut " << report.divergence->op_index << " ["
        << report.divergence->config << "]: " << report.divergence->detail;
    EXPECT_GT(report.sync_boundary_points, 0u);
    EXPECT_GT(report.torn_points, 0u);
    EXPECT_GT(report.checks, 0u);
  }
}

TEST(CrashSweep, EveryRecordPolicyHoldsItsGuarantee) {
  CrashSweepParams params;
  params.policy = SyncPolicy::kEveryRecord;
  params.torn_samples = 6;
  params.short_samples = 3;
  const SimSchedule schedule = generate_schedule(3);
  const CrashSweepReport report = run_crash_sweep(schedule, params);
  ASSERT_TRUE(report.ok())
      << report.divergence->config << ": " << report.divergence->detail;
}

// The CI every-record sweep's failure, shrunk: schedule sim-s111 crashed
// at cut 493, between a rotation's create and its header append, and the
// perfect image there did not recover cleanly. The namespace-op points cut
// in that window directly.
TEST(CrashSweep, HeaderlessLastSegmentRecoversAtEveryNamespaceOp) {
  const SimSchedule schedule = load_replay(
      std::string(CT_SIMCHECK_CORPUS_DIR) +
      "/durability/every-record-s111.ctsim");
  CrashSweepParams params;
  params.policy = SyncPolicy::kEveryRecord;
  params.torn_samples = 24;
  params.seed = 101;
  const CrashSweepReport report = run_crash_sweep(schedule, params);
  ASSERT_TRUE(report.ok())
      << "cut " << report.divergence->op_index << " ["
      << report.divergence->config << "]: " << report.divergence->detail;
  EXPECT_GT(report.namespace_points, 0u);
}

TEST(CrashSweep, OnCheckpointPolicySurvivesCheckpointCrashes) {
  CrashSweepParams params;
  params.policy = SyncPolicy::kOnCheckpoint;
  params.torn_samples = 6;
  const SimSchedule schedule = generate_schedule(5);
  const CrashSweepReport report = run_crash_sweep(schedule, params);
  ASSERT_TRUE(report.ok())
      << report.divergence->config << ": " << report.divergence->detail;
}

}  // namespace
}  // namespace ct
