// Tests for ct_monitor: delivery manager under adversarial arrival orders,
// and the end-to-end monitoring entity (Fig. 1 architecture).
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "cluster/merge_policy.hpp"
#include "core/engine.hpp"
#include "model/oracle.hpp"
#include "model/trace_builder.hpp"
#include "monitor/delivery_manager.hpp"
#include "monitor/monitor.hpp"
#include "trace/generators.hpp"
#include "util/check.hpp"
#include "util/prng.hpp"

namespace ct {
namespace {

/// Feeds a trace's events to `ingest` in a randomized arrival interleaving:
/// per-process streams stay FIFO, but the cross-process schedule is shuffled.
template <typename Ingest>
void feed_interleaved(const Trace& t, std::uint64_t seed, Ingest&& ingest) {
  std::vector<std::vector<Event>> streams(t.process_count());
  for (const EventId id : t.delivery_order()) {
    streams[id.process].push_back(t.event(id));
  }
  std::vector<std::size_t> cursor(t.process_count(), 0);
  Prng rng(seed);
  std::size_t remaining = t.event_count();
  while (remaining > 0) {
    // Pick a random process with events left; bias toward draining bursts
    // so arrival order differs markedly from delivery order.
    ProcessId p;
    do {
      p = static_cast<ProcessId>(rng.index(t.process_count()));
    } while (cursor[p] >= streams[p].size());
    const std::size_t burst = 1 + rng.index(4);
    for (std::size_t k = 0; k < burst && cursor[p] < streams[p].size(); ++k) {
      ingest(streams[p][cursor[p]++]);
      --remaining;
    }
  }
}

TEST(DeliveryManager, DeliversValidOrderUnderAdversarialArrival) {
  const Trace t = generate_rpc_business({.groups = 3,
                                         .clients_per_group = 3,
                                         .servers_per_group = 2,
                                         .calls = 80,
                                         .seed = 51});
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    std::vector<Event> delivered;
    DeliveryManager dm(t.process_count(),
                       [&](const Event& e) { delivered.push_back(e); });
    feed_interleaved(t, seed, [&](const Event& e) { dm.ingest(e); });
    ASSERT_EQ(dm.pending(), 0u);
    ASSERT_EQ(delivered.size(), t.event_count());

    // The delivered sequence is a valid delivery order: per-process
    // ascending, receives after sends, sync halves adjacent.
    std::vector<EventIndex> seen(t.process_count(), 0);
    for (std::size_t i = 0; i < delivered.size(); ++i) {
      const Event& e = delivered[i];
      ASSERT_EQ(e.id.index, seen[e.id.process] + 1);
      seen[e.id.process] = e.id.index;
      if (e.kind == EventKind::kReceive) {
        ASSERT_LE(e.partner.index, seen[e.partner.process]);
      }
      if (e.kind == EventKind::kSync) {
        const bool adjacent =
            (i > 0 && delivered[i - 1].id == e.partner) ||
            (i + 1 < delivered.size() && delivered[i + 1].id == e.partner);
        ASSERT_TRUE(adjacent);
      }
    }
  }
}

TEST(DeliveryManager, BuffersReceiveUntilSendArrives) {
  TraceBuilder b;
  b.add_processes(2);
  const EventId s = b.send(0);
  b.receive(1, s);
  const Trace t = b.build("buffer", TraceFamily::kControl);

  std::vector<EventId> delivered;
  DeliveryManager dm(2, [&](const Event& e) { delivered.push_back(e.id); });
  dm.ingest(t.event(EventId{1, 1}));  // receive arrives first
  EXPECT_EQ(dm.pending(), 1u);
  EXPECT_TRUE(delivered.empty());
  dm.ingest(t.event(EventId{0, 1}));  // send unblocks it
  EXPECT_EQ(dm.pending(), 0u);
  ASSERT_EQ(delivered.size(), 2u);
  EXPECT_EQ(delivered[0], (EventId{0, 1}));
  EXPECT_EQ(delivered[1], (EventId{1, 1}));
}

TEST(DeliveryManager, OrphanReceiveStaysPending) {
  TraceBuilder b;
  b.add_processes(2);
  const EventId s = b.send(0);
  b.receive(1, s);
  const Trace t = b.build("orphan", TraceFamily::kControl);

  DeliveryManager dm(2, [](const Event&) {});
  dm.ingest(t.event(EventId{1, 1}));  // the send never arrives
  EXPECT_EQ(dm.pending(), 1u);
  const auto pending = dm.pending_events();
  ASSERT_EQ(pending.size(), 1u);
  EXPECT_EQ(pending[0].id, (EventId{1, 1}));
}

TEST(DeliveryManager, QuarantinesNonFifoStreamAndReadmitsOnGapFill) {
  std::vector<EventId> delivered;
  DeliveryManager dm(1, [&](const Event& e) { delivered.push_back(e.id); });
  EXPECT_TRUE(dm.ingest(Event{EventId{0, 1}, EventKind::kUnary, kNoEvent})
                  .accepted());
  // Index 3 skips ahead of the admitted prefix: held in quarantine.
  const auto gap = dm.ingest(Event{EventId{0, 3}, EventKind::kUnary, kNoEvent});
  EXPECT_EQ(gap.status, IngestStatus::kQuarantined);
  EXPECT_EQ(gap.error, IngestError::kFifoGap);
  EXPECT_EQ(dm.health().quarantined, 1u);
  // The gap fills: index 2 is admitted and index 3 readmitted behind it.
  const auto fill =
      dm.ingest(Event{EventId{0, 2}, EventKind::kUnary, kNoEvent});
  EXPECT_TRUE(fill.accepted());
  EXPECT_EQ(fill.delivered_now, 2u);
  EXPECT_EQ(dm.health().readmitted, 1u);
  EXPECT_EQ(dm.health().quarantined, 0u);
  ASSERT_EQ(delivered.size(), 3u);
  EXPECT_EQ(delivered.back(), (EventId{0, 3}));
  EXPECT_TRUE(dm.health().accounted());
}

TEST(DeliveryManager, DuplicatesDropIdempotently) {
  std::vector<EventId> delivered;
  DeliveryManager dm(1, [&](const Event& e) { delivered.push_back(e.id); });
  const Event e{EventId{0, 1}, EventKind::kUnary, kNoEvent};
  EXPECT_TRUE(dm.ingest(e).accepted());
  EXPECT_EQ(dm.ingest(e).status, IngestStatus::kDuplicate);
  EXPECT_EQ(dm.ingest(e).status, IngestStatus::kDuplicate);
  EXPECT_EQ(delivered.size(), 1u);
  EXPECT_EQ(dm.health().duplicates, 2u);
  EXPECT_TRUE(dm.health().accounted());
}

TEST(DeliveryManager, RejectsStructurallyUnusableRecords) {
  DeliveryManager dm(2, [](const Event&) {});
  EXPECT_EQ(dm.ingest(Event{EventId{9, 1}, EventKind::kUnary, kNoEvent}).error,
            IngestError::kProcessOutOfRange);
  EXPECT_EQ(dm.ingest(Event{EventId{0, 0}, EventKind::kUnary, kNoEvent}).error,
            IngestError::kBadIndex);
  EXPECT_EQ(dm.ingest(Event{EventId{0, 1}, static_cast<EventKind>(7),
                            kNoEvent})
                .error,
            IngestError::kBadKind);
  // A receive naming an out-of-range partner can never be satisfied.
  EXPECT_EQ(dm.ingest(Event{EventId{0, 1}, EventKind::kReceive,
                            EventId{9, 1}})
                .error,
            IngestError::kBadPartner);
  EXPECT_EQ(dm.health().rejected, 3u);
  EXPECT_EQ(dm.health().quarantined, 1u);
  EXPECT_TRUE(dm.health().accounted());
}

TEST(DeliveryManager, BoundedBufferEvictsOldestBlockedRecord) {
  DeliveryPolicy policy;
  policy.max_buffered = 2;
  std::vector<EventId> delivered;
  DeliveryManager dm(
      3, [&](const Event& e) { delivered.push_back(e.id); }, policy);
  // Three receives whose sends never arrive — the third pushes the first
  // (oldest) out of the bounded buffer.
  dm.ingest(Event{EventId{0, 1}, EventKind::kReceive, EventId{2, 1}});
  dm.ingest(Event{EventId{1, 1}, EventKind::kReceive, EventId{2, 2}});
  dm.ingest(Event{EventId{0, 2}, EventKind::kReceive, EventId{2, 3}});
  EXPECT_EQ(dm.health().evicted, 1u);
  EXPECT_EQ(dm.pending(), 2u);
  EXPECT_TRUE(dm.health().accounted());
  // The hole left by the eviction keeps process 0's later events blocked —
  // delivered events always form a contiguous prefix.
  dm.ingest(Event{EventId{2, 1}, EventKind::kSend, EventId{0, 1}});
  EXPECT_TRUE(delivered.empty() ||
              delivered.front() != (EventId{0, 1}));
}

TEST(DeliveryManager, OrphanTimeoutEvictsStaleReceive) {
  DeliveryPolicy policy;
  policy.orphan_timeout = 3;
  DeliveryManager dm(2, [](const Event&) {}, policy);
  dm.ingest(Event{EventId{1, 1}, EventKind::kReceive, EventId{0, 99}});
  EXPECT_EQ(dm.pending(), 1u);
  // Three more ticks age the orphan past the timeout.
  for (EventIndex i = 1; i <= 4; ++i) {
    dm.ingest(Event{EventId{0, i}, EventKind::kUnary, kNoEvent});
  }
  EXPECT_EQ(dm.pending(), 0u);
  EXPECT_EQ(dm.health().evicted, 1u);
  EXPECT_TRUE(dm.health().accounted());
}

TEST(DeliveryManager, SyncHalvesWaitForEachOther) {
  TraceBuilder b;
  b.add_processes(3);
  b.unary(1);
  b.sync(0, 1);
  const Trace t = b.build("sync-wait", TraceFamily::kDce);

  std::vector<EventId> delivered;
  DeliveryManager dm(3, [&](const Event& e) { delivered.push_back(e.id); });
  dm.ingest(t.event(EventId{0, 1}));  // first half; partner not arrived
  EXPECT_EQ(delivered.size(), 0u);
  dm.ingest(t.event(EventId{1, 1}));  // partner's predecessor
  EXPECT_EQ(delivered.size(), 1u);    // only the unary released
  dm.ingest(t.event(EventId{1, 2}));  // second half arrives
  ASSERT_EQ(delivered.size(), 3u);
  // Halves adjacent.
  EXPECT_EQ(delivered[1].process + delivered[2].process, 1u);
}

// ------------------------------------------------------------ MonitoringEntity

TEST(MonitoringEntity, EndToEndAgainstOracle) {
  const Trace t = generate_web_server({.clients = 10,
                                       .servers = 3,
                                       .backends = 2,
                                       .requests = 60,
                                       .seed = 61});
  const CausalityOracle oracle(t);

  for (const auto backend : {TimestampBackend::kPrecomputedFm,
                             TimestampBackend::kClusterDynamic}) {
    MonitorOptions options;
    options.backend = backend;
    options.cluster.max_cluster_size = 5;
    options.cluster.fm_vector_width = 300;
    MonitoringEntity monitor(t.process_count(), options);
    feed_interleaved(t, 7, [&](const Event& e) { monitor.ingest(e); });
    ASSERT_EQ(monitor.pending(), 0u);
    ASSERT_EQ(monitor.stored(), t.event_count());

    for (const EventId e : t.delivery_order()) {
      for (const EventId f : t.delivery_order()) {
        ASSERT_EQ(monitor.precedes(e, f), oracle.happened_before(e, f))
            << e << " vs " << f;
      }
    }
  }
}

TEST(MonitoringEntity, ClusterBackendUsesLessTimestampStorage) {
  const Trace t = generate_locality_random({.processes = 40,
                                            .group_size = 8,
                                            .intra_rate = 0.9,
                                            .messages = 1500,
                                            .seed = 62});
  MonitorOptions fm_options;
  fm_options.backend = TimestampBackend::kPrecomputedFm;
  fm_options.cluster.fm_vector_width = 300;
  MonitorOptions cluster_options;
  cluster_options.backend = TimestampBackend::kClusterDynamic;
  cluster_options.cluster.max_cluster_size = 8;
  cluster_options.cluster.fm_vector_width = 300;

  MonitoringEntity fm(t.process_count(), fm_options);
  MonitoringEntity cluster(t.process_count(), cluster_options);
  for (const EventId id : t.delivery_order()) {
    fm.ingest(t.event(id));
    cluster.ingest(t.event(id));
  }
  EXPECT_LT(cluster.timestamp_words() * 2, fm.timestamp_words())
      << "cluster timestamps should save at least 2× here";
  const auto stats = cluster.cluster_stats();
  ASSERT_TRUE(stats.has_value());
  EXPECT_GT(stats->merges, 0u);
  EXPECT_FALSE(fm.cluster_stats().has_value());
}

TEST(MonitoringEntity, FindAndScroll) {
  const Trace t = generate_ring({.processes = 6, .iterations = 4, .seed = 63});
  MonitorOptions options;
  options.cluster.max_cluster_size = 3;
  options.cluster.fm_vector_width = 300;
  MonitoringEntity monitor(t.process_count(), options);
  for (const EventId id : t.delivery_order()) monitor.ingest(t.event(id));

  const auto found = monitor.find(EventId{2, 3});
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->id, (EventId{2, 3}));
  EXPECT_FALSE(monitor.find(EventId{2, 999}).has_value());

  std::vector<EventIndex> scrolled;
  monitor.scroll(4, 2, [&](const Event& e) {
    scrolled.push_back(e.id.index);
    return scrolled.size() < 5;
  });
  ASSERT_EQ(scrolled.size(), 5u);
  EXPECT_EQ(scrolled.front(), 2u);
  EXPECT_TRUE(std::is_sorted(scrolled.begin(), scrolled.end()));

  // Lookups outside the delivered prefix miss instead of throwing.
  const auto n = static_cast<ProcessId>(monitor.process_count());
  const EventIndex last = monitor.delivered_count(2);
  ASSERT_GT(last, 0u);
  EXPECT_TRUE(monitor.find(EventId{2, last}).has_value());
  EXPECT_FALSE(monitor.find(EventId{2, last + 1}).has_value());
  EXPECT_FALSE(monitor.find(EventId{2, 0}).has_value());
  EXPECT_FALSE(monitor.find(EventId{n, 1}).has_value());

  // Index 0 scrolls from the first event; scrolling past the last event or
  // naming an unknown process visits nothing.
  std::vector<EventIndex> all;
  monitor.scroll(2, 0, [&](const Event& e) {
    all.push_back(e.id.index);
    return true;
  });
  ASSERT_EQ(all.size(), last);
  EXPECT_EQ(all.front(), 1u);
  EXPECT_EQ(all.back(), last);
  std::size_t visited = 0;
  const auto count = [&](const Event&) { return ++visited, true; };
  monitor.scroll(2, last + 1, count);
  monitor.scroll(n, 0, count);
  monitor.scroll(n, 1, count);
  EXPECT_EQ(visited, 0u);
}

TEST(MonitoringEntity, PrecedesOnUndeliveredEventThrows) {
  MonitorOptions options;
  options.cluster.max_cluster_size = 2;
  options.cluster.fm_vector_width = 300;
  MonitoringEntity monitor(2, options);
  EXPECT_THROW(monitor.precedes(EventId{0, 1}, EventId{1, 1}), CheckFailure);
}

// The coherence vote and the integrity audit rely on this: one changed
// stored component changes its own cluster's digest and no other.
TEST(MonitoringEntity, EverySingleBitFlipChangesOnlyItsClustersDigest) {
  const Trace t = generate_rpc_business({.groups = 3,
                                         .clients_per_group = 2,
                                         .servers_per_group = 2,
                                         .calls = 40,
                                         .seed = 29});
  MonitorOptions options;
  options.cluster.max_cluster_size = 4;
  options.cluster.fm_vector_width = t.process_count();
  MonitoringEntity monitor(t.process_count(), options);
  // A twin engine over the same delivery order reads the stored values.
  ClusterTimestampEngine twin(t.process_count(), options.cluster,
                              make_merge_on_nth(options.nth_threshold));
  for (const EventId id : t.delivery_order()) {
    monitor.ingest(t.event(id));
    twin.observe(t.event(id));
  }
  const ClusterDigests clean = monitor.cluster_digests();
  ASSERT_GE(clean.size(), 3u);
  for (const auto& [c, digest] : clean) {
    ASSERT_EQ(digest, twin.cluster_digest(c));
  }

  Prng rng(31);
  const auto order = t.delivery_order();
  for (int row = 0; row < 16; ++row) {
    const EventId e = order[rng.index(order.size())];
    const std::vector<EventIndex> values = twin.timestamp(e).values;
    const std::size_t slot = rng.index(values.size());
    const EventIndex stored = values[slot];
    const ClusterId home = *monitor.cluster_of(e.process);
    for (unsigned bit = 0; bit < 32; ++bit) {
      monitor.inject_timestamp_corruption(
          e, slot, stored ^ (EventIndex{1} << bit));
      const ClusterDigests flipped = monitor.cluster_digests();
      ASSERT_EQ(flipped.size(), clean.size());
      for (std::size_t i = 0; i < clean.size(); ++i) {
        ASSERT_EQ(flipped[i].first, clean[i].first);
        if (clean[i].first == home) {
          EXPECT_NE(flipped[i].second, clean[i].second)
              << e << " slot " << slot << " bit " << bit;
        } else {
          EXPECT_EQ(flipped[i].second, clean[i].second)
              << e << " slot " << slot << " bit " << bit;
        }
      }
    }
    monitor.inject_timestamp_corruption(e, slot, stored);
    ASSERT_EQ(monitor.cluster_digests(), clean);
  }
}

}  // namespace
}  // namespace ct
