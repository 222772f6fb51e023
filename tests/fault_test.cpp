// Fault-tolerant ingestion tests (docs/FAULT_MODEL.md): the seeded fault
// injector, quarantine/eviction accounting under drop/dup/reorder/corrupt
// faults on every trace family of the standard suite, and checkpoint/
// restore round-trips through the CTS1 snapshot format.
#include <gtest/gtest.h>

#include <cstdio>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "model/event.hpp"
#include "monitor/fault_injector.hpp"
#include "monitor/monitor.hpp"
#include "timestamp/fm_store.hpp"
#include "trace/generators.hpp"
#include "trace/snapshot.hpp"
#include "trace/suite.hpp"
#include "util/check.hpp"
#include "util/prng.hpp"

namespace ct {
namespace {

/// Interleaves a trace's per-process streams into one arrival sequence:
/// per-process FIFO, cross-process schedule shuffled and bursty.
std::vector<Event> interleave(const Trace& t, std::uint64_t seed) {
  std::vector<std::vector<Event>> streams(t.process_count());
  for (const EventId id : t.delivery_order()) {
    streams[id.process].push_back(t.event(id));
  }
  std::vector<std::size_t> cursor(t.process_count(), 0);
  std::vector<Event> arrival;
  arrival.reserve(t.event_count());
  Prng rng(seed);
  std::size_t remaining = t.event_count();
  while (remaining > 0) {
    ProcessId p;
    do {
      p = static_cast<ProcessId>(rng.index(t.process_count()));
    } while (cursor[p] >= streams[p].size());
    const std::size_t burst = 1 + rng.index(4);
    for (std::size_t k = 0; k < burst && cursor[p] < streams[p].size(); ++k) {
      arrival.push_back(streams[p][cursor[p]++]);
      --remaining;
    }
  }
  return arrival;
}

const SuiteEntry& suite_entry(const std::string& id) {
  for (const SuiteEntry& entry : standard_suite()) {
    if (entry.id == id) return entry;
  }
  CT_CHECK_MSG(false, "suite entry '" << id << "' not found");
  return standard_suite().front();
}

// One moderate-size computation per trace family of src/trace/suite.cpp.
const char* kFamilyRepresentatives[] = {
    "pvm/wavefront-9x9",   // kPvm
    "java/pubsub-84",      // kJava
    "dce/chain-50",        // kDce (synchronous pairs)
    "ctl/local-60-tight",  // kControl
};

// --------------------------------------------------------- fault injector

TEST(FaultInjector, DeterministicForAGivenSeed) {
  const Trace t = suite_entry("pvm/wavefront-9x9").make();
  const auto arrival = interleave(t, 3);

  const auto run = [&](std::uint64_t seed) {
    std::vector<Event> emitted;
    FaultPlan plan;
    plan.seed = seed;
    plan.drop_rate = 0.03;
    plan.dup_rate = 0.03;
    plan.reorder_rate = 0.05;
    plan.corrupt_rate = 0.02;
    FaultInjector injector(plan,
                           [&](const Event& e) { emitted.push_back(e); });
    for (const Event& e : arrival) injector.push(e);
    injector.flush();
    EXPECT_EQ(injector.stats().seen, arrival.size());
    return emitted;
  };

  const auto first = run(42);
  const auto second = run(42);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    ASSERT_EQ(first[i], second[i]) << "divergence at " << i;
  }
}

TEST(FaultInjector, CleanPlanIsTransparent) {
  const Trace t = suite_entry("ctl/local-60-tight").make();
  const auto arrival = interleave(t, 5);
  std::vector<Event> emitted;
  FaultInjector injector(FaultPlan{.seed = 1},
                         [&](const Event& e) { emitted.push_back(e); });
  for (const Event& e : arrival) injector.push(e);
  injector.flush();
  ASSERT_EQ(emitted.size(), arrival.size());
  for (std::size_t i = 0; i < emitted.size(); ++i) {
    ASSERT_EQ(emitted[i], arrival[i]);
  }
}

// ------------------------------------- degradation under drop/dup/reorder

// With seeded 1–5% drop/dup/reorder on a representative of every trace
// family, the monitor must absorb the stream without crashing, its health
// counters must account for every record, and precedence answers on pairs
// of fully-delivered events must agree with the Fidge/Mattern oracle.
TEST(FaultTolerance, EveryFamilySurvivesLossAndAgreesWithOracleOnDelivered) {
  for (const char* id : kFamilyRepresentatives) {
    const Trace t = suite_entry(id).make();
    const FmStore oracle(t);
    const auto arrival = interleave(t, 11);

    for (const double rate : {0.01, 0.05}) {
      MonitorOptions options;
      options.cluster.max_cluster_size = 8;
      options.cluster.fm_vector_width = 300;
      MonitoringEntity monitor(t.process_count(), options);

      FaultPlan plan;
      plan.seed = 1000 + static_cast<std::uint64_t>(rate * 100);
      plan.drop_rate = rate;
      plan.dup_rate = rate;
      plan.reorder_rate = rate;
      FaultInjector injector(plan,
                             [&](const Event& e) { monitor.ingest(e); });
      for (const Event& e : arrival) injector.push(e);
      injector.flush();

      const MonitorHealth health = monitor.health();
      ASSERT_TRUE(health.accounted())
          << id << " rate " << rate << ": ingested " << health.ingested
          << " != delivered " << health.delivered << " + dup "
          << health.duplicates << " + rejected " << health.rejected
          << " + evicted " << health.evicted << " + pending "
          << health.pending << " + quarantined " << health.quarantined;
      ASSERT_EQ(health.ingested, injector.stats().forwarded) << id;
      ASSERT_EQ(health.delivered, monitor.stored()) << id;
      // Losses really occurred and really cost deliveries.
      ASSERT_GT(injector.stats().dropped, 0u) << id;
      ASSERT_LT(monitor.stored(), t.event_count()) << id;

      // Delivered events of each process form a contiguous prefix; sampled
      // precedence answers on delivered pairs match the oracle exactly.
      // (Loss cascades through receives, so under heavy drop rates on
      // tightly coupled computations the delivered set can be small — we
      // sample from it directly.)
      std::vector<EventId> deliverable;
      for (ProcessId p = 0; p < t.process_count(); ++p) {
        for (EventIndex i = 1; i <= monitor.delivered_count(p); ++i) {
          deliverable.push_back(EventId{p, i});
        }
      }
      ASSERT_EQ(deliverable.size(), monitor.stored()) << id;
      ASSERT_GT(deliverable.size(), 1u) << id;
      Prng rng(17);
      for (int q = 0; q < 4000; ++q) {
        const EventId e = rng.pick(deliverable);
        const EventId f = rng.pick(deliverable);
        ASSERT_EQ(monitor.precedes(e, f), oracle.precedes(e, f))
            << id << " rate " << rate << ": " << e << " vs " << f;
      }
    }
  }
}

// Corruption on top, with bounded buffering: still no crash, still fully
// accounted. (Corrupted records may parse as plausible events, so oracle
// agreement is out of scope here — docs/FAULT_MODEL.md.)
TEST(FaultTolerance, CorruptionWithBoundedBufferStaysAccounted) {
  for (const char* id : kFamilyRepresentatives) {
    const Trace t = suite_entry(id).make();
    const auto arrival = interleave(t, 23);

    MonitorOptions options;
    options.cluster.max_cluster_size = 8;
    options.cluster.fm_vector_width = 300;
    options.delivery.max_buffered = 256;
    options.delivery.orphan_timeout = 2000;
    MonitoringEntity monitor(t.process_count(), options);

    FaultPlan plan;
    plan.seed = 99;
    plan.drop_rate = 0.02;
    plan.dup_rate = 0.02;
    plan.reorder_rate = 0.03;
    plan.corrupt_rate = 0.02;
    FaultInjector injector(plan,
                           [&](const Event& e) { monitor.ingest(e); });
    for (const Event& e : arrival) injector.push(e);
    injector.flush();

    const MonitorHealth health = monitor.health();
    ASSERT_TRUE(health.accounted()) << id;
    ASSERT_LE(health.pending + health.quarantined, 256u) << id;
    ASSERT_GT(injector.stats().corrupted, 0u) << id;
    // Corrupt kinds / out-of-range processes must have been caught.
    ASSERT_GT(health.rejected + health.quarantined + health.evicted, 0u)
        << id;
  }
}

// ------------------------------------------------------ checkpoint/restore

void round_trip_backend(TimestampBackend backend) {
  const Trace t = suite_entry("java/pubsub-84").make();
  const auto arrival = interleave(t, 31);
  const std::size_t cut = arrival.size() * 3 / 5;

  MonitorOptions options;
  options.backend = backend;
  options.cluster.max_cluster_size = 8;
  options.cluster.fm_vector_width = 300;
  MonitoringEntity original(t.process_count(), options);
  for (std::size_t i = 0; i < cut; ++i) original.ingest(arrival[i]);
  ASSERT_GT(original.pending(), 0u)
      << "cut landed on a quiescent point; pick another seed";

  std::ostringstream os;
  save_snapshot(os, original);
  std::istringstream is(os.str());
  auto restored = load_snapshot(is);
  ASSERT_EQ(restored->stored(), original.stored());
  ASSERT_EQ(restored->state_digest(), original.state_digest());
  ASSERT_EQ(restored->timestamp_words(), original.timestamp_words());

  // The restored manager knows which delivered events are sends and which
  // sends are consumed: a receive naming either kind of bad partner is
  // quarantined exactly as the original does. The records sit past every
  // process's last event, so they never collide with the stream below.
  std::optional<EventId> consumed_send, non_send;
  for (const EventId id : original.delivery_log()) {
    const Event& e = original.event(id);
    if (e.kind == EventKind::kReceive && !consumed_send) {
      consumed_send = e.partner;
    }
    if (e.kind != EventKind::kSend && !non_send) non_send = id;
  }
  ASSERT_TRUE(consumed_send.has_value());
  ASSERT_TRUE(non_send.has_value());
  const auto beyond = static_cast<EventIndex>(t.event_count() + 1);
  for (const auto& [index, partner] :
       {std::pair{beyond, *consumed_send}, std::pair{beyond + 1, *non_send}}) {
    Event bad;
    bad.id = EventId{0, index};
    bad.kind = EventKind::kReceive;
    bad.partner = partner;
    const IngestResult want = original.ingest(bad);
    const IngestResult got = restored->ingest(bad);
    EXPECT_EQ(want.status, IngestStatus::kQuarantined) << partner;
    EXPECT_EQ(want.error, IngestError::kBadPartner) << partner;
    EXPECT_EQ(got.status, want.status) << partner;
    EXPECT_EQ(got.error, want.error) << partner;
  }

  // Buffered-at-cut records are not in the snapshot: replay the stream with
  // overlap — already-delivered records drop as duplicates — then the tail.
  for (std::size_t i = 0; i < cut; ++i) restored->ingest(arrival[i]);
  for (std::size_t i = cut; i < arrival.size(); ++i) {
    original.ingest(arrival[i]);
    restored->ingest(arrival[i]);
  }
  ASSERT_EQ(original.stored(), t.event_count());
  ASSERT_EQ(restored->stored(), t.event_count());
  ASSERT_GT(restored->health().duplicates, 0u);
  ASSERT_TRUE(restored->health().accounted());

  // Identical precedence answers and identical storage accounting.
  ASSERT_EQ(restored->state_digest(), original.state_digest());
  ASSERT_EQ(restored->timestamp_words(), original.timestamp_words());
  Prng rng(37);
  const auto order = t.delivery_order();
  for (int q = 0; q < 4000; ++q) {
    const EventId e = order[rng.index(order.size())];
    const EventId f = order[rng.index(order.size())];
    ASSERT_EQ(restored->precedes(e, f), original.precedes(e, f))
        << e << " vs " << f;
  }
}

TEST(Snapshot, RoundTripMidStreamClusterBackend) {
  round_trip_backend(TimestampBackend::kClusterDynamic);
}

TEST(Snapshot, RoundTripMidStreamFmBackend) {
  round_trip_backend(TimestampBackend::kPrecomputedFm);
}

TEST(Snapshot, FileRoundTripAndPathInErrors) {
  const Trace t = suite_entry("ctl/local-60-tight").make();
  MonitorOptions options;
  options.cluster.max_cluster_size = 6;
  options.cluster.fm_vector_width = 300;
  MonitoringEntity monitor(t.process_count(), options);
  for (const EventId id : t.delivery_order()) monitor.ingest(t.event(id));

  const std::string path = "fault_test_snapshot.cts";
  save_snapshot(path, monitor);
  auto restored = load_snapshot(path);
  EXPECT_EQ(restored->state_digest(), monitor.state_digest());
  std::remove(path.c_str());

  try {
    (void)load_snapshot("does-not-exist.cts");
    FAIL() << "expected CheckFailure";
  } catch (const CheckFailure& f) {
    EXPECT_NE(std::string(f.what()).find("does-not-exist.cts"),
              std::string::npos);
  }
}

TEST(Snapshot, CorruptSnapshotsAreRejectedNotCrashing) {
  const Trace t = suite_entry("ctl/local-60-tight").make();
  MonitorOptions options;
  options.cluster.max_cluster_size = 6;
  options.cluster.fm_vector_width = 300;
  MonitoringEntity monitor(t.process_count(), options);
  for (const EventId id : t.delivery_order()) monitor.ingest(t.event(id));

  std::ostringstream os;
  save_snapshot(os, monitor);
  const std::string good = os.str();

  // Bad magic and unsupported version.
  for (const std::size_t at : {std::size_t{0}, std::size_t{4}}) {
    std::string bad = good;
    bad[at] = static_cast<char>(bad[at] + 1);
    std::istringstream in(bad);
    EXPECT_THROW((void)load_snapshot(in), CheckFailure);
  }
  // Random mutations: restore either succeeds bit-identically (mutation in
  // a dead byte is impossible here — digest covers the state) or throws.
  Prng rng(71);
  std::size_t rejected = 0;
  for (int round = 0; round < 60; ++round) {
    std::string bad = good;
    const std::size_t at = 5 + rng.index(bad.size() - 5);
    bad[at] = static_cast<char>(rng.uniform(0, 255));
    if (bad == good) continue;
    std::istringstream in(bad);
    try {
      auto restored = load_snapshot(in);
      EXPECT_EQ(restored->state_digest(), monitor.state_digest());
    } catch (const CheckFailure&) {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 20u);
  // Truncations.
  for (const double frac : {0.1, 0.5, 0.9}) {
    std::istringstream in(good.substr(
        0, static_cast<std::size_t>(static_cast<double>(good.size()) * frac)));
    EXPECT_THROW((void)load_snapshot(in), CheckFailure);
  }
}

// Exhaustive truncation sweep: a CTS1 snapshot cut at *any* byte boundary
// must be rejected with a CheckFailure — never crash, hang, or silently
// restore a partial monitor.
TEST(Snapshot, EveryTruncationLengthIsRejected) {
  // A small computation keeps the exhaustive O(bytes²) sweep fast.
  const Trace t = generate_rpc_business({.groups = 1,
                                         .clients_per_group = 2,
                                         .servers_per_group = 1,
                                         .calls = 12,
                                         .seed = 9});
  MonitorOptions options;
  options.cluster.max_cluster_size = 2;
  options.cluster.fm_vector_width = 8;
  MonitoringEntity monitor(t.process_count(), options);
  for (const EventId id : t.delivery_order()) monitor.ingest(t.event(id));

  std::ostringstream os;
  save_snapshot(os, monitor);
  const std::string good = os.str();
  ASSERT_GT(good.size(), 16u);

  for (std::size_t len = 0; len < good.size(); ++len) {
    std::istringstream in(good.substr(0, len));
    try {
      (void)load_snapshot(in);
      FAIL() << "truncation to " << len << " of " << good.size()
             << " bytes restored successfully";
    } catch (const CheckFailure&) {
      // Expected: a clear, typed rejection.
    }
  }
  // The untruncated snapshot still restores.
  std::istringstream in(good);
  EXPECT_EQ(load_snapshot(in)->state_digest(), monitor.state_digest());
}

// Multi-byte corruption: clusters of flipped bytes (as from a torn or
// bit-rotted block) are either rejected or provably harmless — a restore
// that succeeds must be digest-identical to the original. Never a crash,
// never a silently different monitor.
TEST(Snapshot, MultiByteCorruptionNeverSilentlyAccepted) {
  const Trace t = suite_entry("dce/chain-50").make();
  MonitorOptions options;
  options.cluster.max_cluster_size = 6;
  options.cluster.fm_vector_width = 300;
  MonitoringEntity monitor(t.process_count(), options);
  for (const EventId id : t.delivery_order()) monitor.ingest(t.event(id));

  std::ostringstream os;
  save_snapshot(os, monitor);
  const std::string good = os.str();

  Prng rng(113);
  std::size_t rejected = 0;
  for (int round = 0; round < 80; ++round) {
    std::string bad = good;
    const std::size_t burst = 2 + rng.index(15);  // 2..16 corrupted bytes
    const bool contiguous = round % 2 == 0;
    std::size_t at = rng.index(bad.size());
    for (std::size_t k = 0; k < burst; ++k) {
      if (!contiguous) at = rng.index(bad.size());
      bad[at % bad.size()] =
          static_cast<char>(rng.uniform(0, 255));
      ++at;
    }
    if (bad == good) continue;
    std::istringstream in(bad);
    try {
      auto restored = load_snapshot(in);
      EXPECT_EQ(restored->state_digest(), monitor.state_digest())
          << "round " << round << " restored a different monitor";
    } catch (const CheckFailure&) {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 40u);
}

// ------------------------------------------------- accounting property test

// Property: the MonitorHealth conservation law
//   ingested == delivered + duplicates + rejected + evicted
//            + pending + quarantined
// holds under combined drop+duplicate+reorder faults on EVERY computation
// of the frozen 54-entry suite, for both unbounded and bounded buffering.
TEST(FaultTolerance, HealthInvariantHoldsAcrossEntireSuite) {
  const std::vector<Trace> traces = generate_standard_suite();
  const auto& entries = standard_suite();
  ASSERT_EQ(traces.size(), entries.size());

  for (std::size_t i = 0; i < traces.size(); ++i) {
    const Trace& t = traces[i];
    const auto arrival = interleave(t, 41 + i);

    for (const bool bounded : {false, true}) {
      MonitorOptions options;
      options.cluster.max_cluster_size = 8;
      options.cluster.fm_vector_width = 300;
      if (bounded) {
        options.delivery.max_buffered = 128;
        options.delivery.orphan_timeout = 1000;
      }
      MonitoringEntity monitor(t.process_count(), options);

      FaultPlan plan;
      plan.seed = 7000 + i;
      plan.drop_rate = 0.02;
      plan.dup_rate = 0.04;
      plan.reorder_rate = 0.06;
      FaultInjector injector(plan,
                             [&](const Event& e) { monitor.ingest(e); });
      for (const Event& e : arrival) injector.push(e);
      injector.flush();

      const MonitorHealth health = monitor.health();
      ASSERT_TRUE(health.accounted())
          << entries[i].id << (bounded ? " (bounded)" : " (unbounded)")
          << ": ingested " << health.ingested << " != delivered "
          << health.delivered << " + dup " << health.duplicates
          << " + rejected " << health.rejected << " + evicted "
          << health.evicted << " + pending " << health.pending
          << " + quarantined " << health.quarantined;
      ASSERT_EQ(health.ingested, injector.stats().forwarded)
          << entries[i].id;
      ASSERT_EQ(health.delivered, monitor.stored()) << entries[i].id;
      if (bounded) {
        ASSERT_LE(health.pending + health.quarantined, 128u)
            << entries[i].id;
      }
    }
  }
}

}  // namespace
}  // namespace ct
