// Tests for the resilient query broker: deadlines, admission control,
// fallback chain with circuit breakers, and the online integrity audit
// with self-repair (docs/FAULT_MODEL.md §6).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "model/oracle.hpp"
#include "model/trace_builder.hpp"
#include "monitor/monitor.hpp"
#include "monitor/queries.hpp"
#include "monitor/query_broker.hpp"
#include "trace/generators.hpp"
#include "util/epoch.hpp"
#include "util/prng.hpp"
#include "util/thread_pool.hpp"

namespace ct {
namespace {

Trace small_trace() {
  return generate_rpc_business({.groups = 2,
                                .clients_per_group = 2,
                                .servers_per_group = 2,
                                .calls = 40,
                                .seed = 51});
}

MonitorOptions broker_monitor_options(const Trace& t,
                                      TimestampBackend backend =
                                          TimestampBackend::kClusterDynamic) {
  MonitorOptions options;
  options.backend = backend;
  options.cluster.max_cluster_size = 4;
  options.cluster.fm_vector_width = t.process_count();
  return options;
}

void feed(MonitoringEntity& monitor, const Trace& t) {
  for (const EventId id : t.delivery_order()) monitor.ingest(t.event(id));
}

std::vector<EventId> all_events(const Trace& t) {
  return {t.delivery_order().begin(), t.delivery_order().end()};
}

/// Expected frontiers straight from the ground-truth oracle.
CausalFrontiers oracle_frontiers(const Trace& t, const CausalityOracle& oracle,
                                 EventId e) {
  return compute_frontiers_with(
      t.process_count(), e,
      [&](EventId a, EventId b) { return oracle.happened_before(a, b); },
      [&](ProcessId q) { return t.process_size(q); });
}

TEST(QueryBroker, PrecedenceAnswersMatchOracle) {
  const Trace t = small_trace();
  MonitoringEntity monitor(t.process_count(), broker_monitor_options(t));
  feed(monitor, t);
  const CausalityOracle oracle(t);
  const auto events = all_events(t);

  ThreadPool pool(4);
  BrokerOptions options;
  options.max_queue = 0;  // the sweep outpaces the workers; never shed
  QueryBroker broker(monitor, pool, options);

  Prng rng(7);
  std::vector<std::pair<EventId, EventId>> pairs;
  std::vector<std::future<QueryResult>> futures;
  for (int i = 0; i < 200; ++i) {
    const EventId e = rng.pick(events);
    const EventId f = rng.pick(events);
    pairs.emplace_back(e, f);
    futures.push_back(broker.submit_precedence(e, f));
  }
  broker.drain();

  for (std::size_t i = 0; i < futures.size(); ++i) {
    const QueryResult r = futures[i].get();
    ASSERT_EQ(r.outcome, QueryOutcome::kAnswered);
    ASSERT_TRUE(r.answer.has_value());
    EXPECT_EQ(*r.answer,
              oracle.happened_before(pairs[i].first, pairs[i].second))
        << pairs[i].first << " vs " << pairs[i].second;
  }
  const BrokerHealth h = broker.health();
  EXPECT_TRUE(h.accounted());
  EXPECT_EQ(h.submitted, futures.size());
  EXPECT_EQ(h.in_flight, 0u);
}

TEST(QueryBroker, FrontierAndBatchMatchOracle) {
  const Trace t = small_trace();
  MonitoringEntity monitor(t.process_count(), broker_monitor_options(t));
  feed(monitor, t);
  const CausalityOracle oracle(t);
  const auto events = all_events(t);

  ThreadPool pool(2);
  QueryBroker broker(monitor, pool);

  Prng rng(13);
  const EventId probe = rng.pick(events);
  auto frontier_future = broker.submit_frontier(probe);

  std::vector<std::pair<EventId, EventId>> batch;
  for (int i = 0; i < 16; ++i) {
    batch.emplace_back(rng.pick(events), rng.pick(events));
  }
  auto batch_future = broker.submit_batch(batch);
  broker.drain();

  const QueryResult fr = frontier_future.get();
  ASSERT_EQ(fr.outcome, QueryOutcome::kAnswered);
  ASSERT_TRUE(fr.frontiers.has_value());
  const CausalFrontiers expected = oracle_frontiers(t, oracle, probe);
  EXPECT_EQ(fr.frontiers->greatest_predecessor, expected.greatest_predecessor);
  EXPECT_EQ(fr.frontiers->greatest_concurrent, expected.greatest_concurrent);

  const QueryResult br = batch_future.get();
  ASSERT_EQ(br.outcome, QueryOutcome::kAnswered);
  ASSERT_EQ(br.batch.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    ASSERT_TRUE(br.batch[i].has_value());
    EXPECT_EQ(*br.batch[i],
              oracle.happened_before(batch[i].first, batch[i].second));
  }
}

TEST(QueryBroker, DeadlineExpiryIsDeterministic) {
  const Trace t = small_trace();
  MonitoringEntity monitor(t.process_count(), broker_monitor_options(t));
  feed(monitor, t);
  ThreadPool pool(1);
  BrokerOptions options;
  options.answer_cache_capacity = 0;  // keep repeat costs identical
  QueryBroker broker(monitor, pool, options);

  // Find a pair whose exact answer needs several work ticks (pairs whose
  // target covers the source's process can resolve in one comparison).
  const auto events = all_events(t);
  EventId e = kNoEvent, f = kNoEvent;
  std::uint64_t full_cost = 0;
  Prng rng(3);
  for (int i = 0; i < 200 && full_cost < 3; ++i) {
    const EventId a = rng.pick(events);
    const EventId b = rng.pick(events);
    const QueryResult r = broker.submit_precedence(a, b, 0).get();
    ASSERT_EQ(r.outcome, QueryOutcome::kAnswered);
    if (r.cost >= 3) {
      e = a;
      f = b;
      full_cost = r.cost;
    }
  }
  ASSERT_GE(full_cost, 3u);

  // A one-tick budget cannot finish it.
  const QueryResult starved = broker.submit_precedence(e, f, 1).get();
  EXPECT_EQ(starved.outcome, QueryOutcome::kDeadlineExpired);
  EXPECT_FALSE(starved.answer.has_value());
  EXPECT_GT(starved.cost, 1u);

  // The metered cost is reproducible tick for tick.
  const QueryResult again = broker.submit_precedence(e, f, 0).get();
  ASSERT_EQ(again.outcome, QueryOutcome::kAnswered);
  EXPECT_EQ(again.backend_used, ServingBackend::kCluster);
  EXPECT_EQ(again.cost, full_cost);

  // A budget at exactly the measured cost answers; one tick less expires.
  const QueryResult exact = broker.submit_precedence(e, f, full_cost).get();
  EXPECT_EQ(exact.outcome, QueryOutcome::kAnswered);
  const QueryResult minus =
      broker.submit_precedence(e, f, full_cost - 1).get();
  EXPECT_EQ(minus.outcome, QueryOutcome::kDeadlineExpired);
  EXPECT_TRUE(broker.health().accounted());
}

TEST(QueryBroker, BatchAnswersPrefixUnderSharedBudget) {
  const Trace t = small_trace();
  MonitoringEntity monitor(t.process_count(), broker_monitor_options(t));
  feed(monitor, t);
  ThreadPool pool(1);
  BrokerOptions options;
  options.answer_cache_capacity = 0;
  QueryBroker broker(monitor, pool, options);

  std::vector<std::pair<EventId, EventId>> pairs(
      8, {EventId{0, 1}, EventId{1, 2}});
  const std::uint64_t per_pair =
      broker.submit_precedence(EventId{0, 1}, EventId{1, 2}, 0).get().cost;

  // Budget for roughly three pairs: a prefix answers, the rest do not.
  const QueryResult r =
      broker.submit_batch(pairs, per_pair * 3).get();
  EXPECT_EQ(r.outcome, QueryOutcome::kDeadlineExpired);
  ASSERT_EQ(r.batch.size(), pairs.size());
  EXPECT_TRUE(r.batch.front().has_value());
  EXPECT_FALSE(r.batch.back().has_value());
}

/// Blocks the (single-threaded) pool so admissions queue deterministically.
class PoolGate {
 public:
  explicit PoolGate(ThreadPool& pool) {
    std::shared_future<void> released = gate_.get_future().share();
    pool.submit([released] { released.wait(); });
  }
  void open() { gate_.set_value(); }

 private:
  std::promise<void> gate_;
};

TEST(QueryBroker, AdmissionShedsNewestWhenConfigured) {
  const Trace t = small_trace();
  MonitoringEntity monitor(t.process_count(), broker_monitor_options(t));
  feed(monitor, t);
  ThreadPool pool(1);
  BrokerOptions options;
  options.max_queue = 2;
  QueryBroker broker(monitor, pool, options);

  PoolGate gate(pool);
  auto f1 = broker.submit_precedence(EventId{0, 1}, EventId{1, 1});
  auto f2 = broker.submit_precedence(EventId{0, 1}, EventId{1, 2});
  auto f3 = broker.submit_precedence(EventId{0, 1}, EventId{1, 3});

  // The overflowing (newest) query is bounced synchronously.
  ASSERT_EQ(f3.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_EQ(f3.get().outcome, QueryOutcome::kShed);

  gate.open();
  broker.drain();
  EXPECT_EQ(f1.get().outcome, QueryOutcome::kAnswered);
  EXPECT_EQ(f2.get().outcome, QueryOutcome::kAnswered);

  const BrokerHealth h = broker.health();
  EXPECT_TRUE(h.accounted());
  EXPECT_EQ(h.submitted, 3u);
  EXPECT_EQ(h.shed, 1u);
  EXPECT_EQ(h.in_flight, 0u);
  EXPECT_EQ(h.max_queue_depth, 2u);
}

TEST(QueryBroker, AnswerCacheServesRepeats) {
  const Trace t = small_trace();
  MonitoringEntity monitor(t.process_count(), broker_monitor_options(t));
  feed(monitor, t);
  ThreadPool pool(1);
  QueryBroker broker(monitor, pool);

  const QueryResult first =
      broker.submit_precedence(EventId{0, 2}, EventId{1, 3}).get();
  const QueryResult repeat =
      broker.submit_precedence(EventId{0, 2}, EventId{1, 3}).get();
  ASSERT_EQ(first.outcome, QueryOutcome::kAnswered);
  ASSERT_EQ(repeat.outcome, QueryOutcome::kAnswered);
  EXPECT_EQ(first.backend_used, ServingBackend::kCluster);
  EXPECT_EQ(repeat.backend_used, ServingBackend::kCache);
  EXPECT_EQ(*first.answer, *repeat.answer);
  EXPECT_LT(repeat.cost, first.cost);
  EXPECT_GE(broker.health().cache_hits, 1u);
}

TEST(QueryBroker, FallbackChainDegradesAndStaysExact) {
  const Trace t = small_trace();
  MonitoringEntity monitor(t.process_count(), broker_monitor_options(t));
  feed(monitor, t);
  const CausalityOracle oracle(t);
  ThreadPool pool(1);
  BrokerOptions options;
  options.answer_cache_capacity = 0;  // force every query through the chain
  options.breaker_probe_stride = 0;   // no self-healing probes in this test
  QueryBroker broker(monitor, pool, options);

  const EventId e{0, 3};
  const EventId f{1, 4};
  const bool expected = oracle.happened_before(e, f);

  broker.trip_backend(ServingBackend::kCluster);
  const QueryResult via_diff = broker.submit_precedence(e, f).get();
  ASSERT_EQ(via_diff.outcome, QueryOutcome::kAnswered);
  EXPECT_EQ(via_diff.backend_used, ServingBackend::kDifferential);
  EXPECT_EQ(*via_diff.answer, expected);

  broker.trip_backend(ServingBackend::kDifferential);
  const QueryResult via_fm = broker.submit_precedence(e, f).get();
  ASSERT_EQ(via_fm.outcome, QueryOutcome::kAnswered);
  EXPECT_EQ(via_fm.backend_used, ServingBackend::kOnDemandFm);
  EXPECT_EQ(*via_fm.answer, expected);

  // Every backend open: the broker says "unknown", never guesses.
  broker.trip_backend(ServingBackend::kOnDemandFm);
  const QueryResult unknown = broker.submit_precedence(e, f).get();
  EXPECT_EQ(unknown.outcome, QueryOutcome::kUnknown);
  EXPECT_FALSE(unknown.answer.has_value());
  EXPECT_EQ(unknown.backend_used, ServingBackend::kNone);

  broker.readmit_backend(ServingBackend::kCluster);
  const QueryResult healed = broker.submit_precedence(e, f).get();
  ASSERT_EQ(healed.outcome, QueryOutcome::kAnswered);
  EXPECT_EQ(healed.backend_used, ServingBackend::kCluster);

  const BrokerHealth h = broker.health();
  EXPECT_TRUE(h.accounted());
  EXPECT_EQ(h.unknown, 1u);
  EXPECT_GE(h.fallback_answers, 2u);
  EXPECT_EQ(h.breaker_trips, 3u);
}

TEST(QueryBroker, OpenFallbackBreakerHealsViaProbe) {
  const Trace t = small_trace();
  MonitoringEntity monitor(t.process_count(), broker_monitor_options(t));
  feed(monitor, t);
  ThreadPool pool(1);
  BrokerOptions options;
  options.answer_cache_capacity = 0;
  options.breaker_probe_stride = 2;  // every 2nd bypass probes
  QueryBroker broker(monitor, pool, options);

  broker.trip_backend(ServingBackend::kCluster);
  broker.trip_backend(ServingBackend::kDifferential);

  // First query bypasses the open differential breaker (served on-demand);
  // the second probes it, succeeds, and closes the breaker.
  const QueryResult q1 =
      broker.submit_precedence(EventId{0, 1}, EventId{1, 1}).get();
  EXPECT_EQ(q1.backend_used, ServingBackend::kOnDemandFm);
  const QueryResult q2 =
      broker.submit_precedence(EventId{0, 2}, EventId{1, 2}).get();
  EXPECT_EQ(q2.backend_used, ServingBackend::kDifferential);
  EXPECT_FALSE(broker.backend_open(ServingBackend::kDifferential));
  // The audited cluster backend never self-heals via probes.
  EXPECT_TRUE(broker.backend_open(ServingBackend::kCluster));
  EXPECT_GE(broker.health().readmissions, 1u);
}

TEST(QueryBroker, UnknownEventsFailWithoutFeedingBreakers) {
  const Trace t = small_trace();
  MonitoringEntity monitor(t.process_count(), broker_monitor_options(t));
  feed(monitor, t);
  ThreadPool pool(1);
  QueryBroker broker(monitor, pool);

  const QueryResult r =
      broker.submit_precedence(EventId{0, 1}, EventId{99, 1}).get();
  EXPECT_EQ(r.outcome, QueryOutcome::kFailed);
  EXPECT_FALSE(broker.backend_open(ServingBackend::kCluster));

  const BrokerHealth h = broker.health();
  EXPECT_TRUE(h.accounted());
  EXPECT_EQ(h.failed, 1u);
  EXPECT_EQ(h.breaker_trips, 0u);
}

// The acceptance-criterion scenario: inject cluster-state corruption, let the
// audit detect and localize it, verify the broker never serves a wrong
// precedence answer while degraded, then verify full recovery.
TEST(QueryBroker, CorruptionAuditRepairReadmitEndToEnd) {
  const Trace t = small_trace();
  MonitoringEntity monitor(t.process_count(), broker_monitor_options(t));
  feed(monitor, t);
  const CausalityOracle oracle(t);
  const auto events = all_events(t);

  ThreadPool pool(2);
  BrokerOptions options;
  options.max_queue = 0;  // sweeps must not shed
  options.audit.pairs_per_step = 8;
  options.audit.clean_steps_to_readmit = 2;
  QueryBroker broker(monitor, pool, options);

  const auto sweep_matches_oracle = [&](ServingBackend forbidden) {
    std::vector<std::pair<EventId, EventId>> pairs;
    std::vector<std::future<QueryResult>> futures;
    Prng rng(23);
    for (int i = 0; i < 150; ++i) {
      const EventId e = rng.pick(events);
      const EventId f = rng.pick(events);
      pairs.emplace_back(e, f);
      futures.push_back(broker.submit_precedence(e, f));
    }
    broker.drain();
    for (std::size_t i = 0; i < futures.size(); ++i) {
      const QueryResult r = futures[i].get();
      EXPECT_EQ(r.outcome, QueryOutcome::kAnswered);
      if (!r.answer) continue;
      EXPECT_NE(r.backend_used, forbidden);
      EXPECT_EQ(*r.answer,
                oracle.happened_before(pairs[i].first, pairs[i].second))
          << pairs[i].first << " vs " << pairs[i].second << " via "
          << to_string(r.backend_used);
    }
  };

  // Healthy sweep: served by the cluster backend, matches the oracle.
  sweep_matches_oracle(ServingBackend::kNone);
  ASSERT_TRUE(broker.audit_step());

  // Corrupt a stored timestamp while the broker is quiesced. The digest
  // audit must detect it regardless of whether any sampled pair flips.
  broker.drain();
  monitor.inject_timestamp_corruption(EventId{1, 2}, 0, 0xdeadu);
  EXPECT_FALSE(broker.audit_step());  // detect + trip + rebuild, one step
  EXPECT_TRUE(broker.backend_open(ServingBackend::kCluster));

  BrokerHealth h = broker.health();
  EXPECT_GE(h.audit_mismatches, 1u);
  EXPECT_GE(h.breaker_trips, 1u);
  EXPECT_EQ(h.rebuilds, 1u);
  EXPECT_GT(h.rebuild_ticks, 0u);
  const AuditStats stats = broker.audit_stats();
  EXPECT_GE(stats.digest_mismatches, 1u);

  // Degraded sweep: the tripped cluster backend is never consulted; every
  // answer comes from an exact fallback and matches the oracle.
  sweep_matches_oracle(ServingBackend::kCluster);

  // Clean audit steps re-admit the repaired backend.
  EXPECT_TRUE(broker.audit_step());
  EXPECT_TRUE(broker.backend_open(ServingBackend::kCluster));
  EXPECT_TRUE(broker.audit_step());
  EXPECT_FALSE(broker.backend_open(ServingBackend::kCluster));
  EXPECT_GE(broker.health().readmissions, 1u);

  // Recovered sweep: cluster serving again (cache may still short-circuit),
  // all answers exact.
  const QueryResult again =
      broker.submit_precedence(EventId{2, 1}, EventId{3, 1}, 0).get();
  ASSERT_EQ(again.outcome, QueryOutcome::kAnswered);
  sweep_matches_oracle(ServingBackend::kNone);
  EXPECT_TRUE(broker.health().accounted());
}

// Concurrent mixed load with stride audits and a mid-stream corruption;
// the primary TSan target: queries hold the cluster lock shared while
// audit-triggered rebuilds take it exclusively.
TEST(QueryBroker, ConcurrentLoadWithAuditAndRepairStaysAccounted) {
  const Trace t = small_trace();
  MonitoringEntity monitor(t.process_count(), broker_monitor_options(t));
  feed(monitor, t);
  const CausalityOracle oracle(t);
  const auto events = all_events(t);

  ThreadPool pool(4);
  BrokerOptions options;
  options.audit_stride = 8;
  options.audit.pairs_per_step = 2;
  options.audit.clean_steps_to_readmit = 2;
  QueryBroker broker(monitor, pool, options);

  Prng rng(99);
  std::vector<std::future<QueryResult>> futures;
  std::vector<std::pair<EventId, EventId>> pairs;
  const auto submit_some = [&](int n) {
    for (int i = 0; i < n; ++i) {
      const EventId e = rng.pick(events);
      const EventId f = rng.pick(events);
      if (i % 17 == 0) {
        futures.push_back(broker.submit_frontier(e));
        pairs.emplace_back(kNoEvent, kNoEvent);
      } else {
        // A few starved deadlines mixed in.
        const std::uint64_t deadline = (i % 23 == 0) ? 1 : 0;
        futures.push_back(broker.submit_precedence(e, f, deadline));
        pairs.emplace_back(e, f);
      }
    }
  };

  submit_some(80);
  broker.drain();

  // Corrupt while quiesced, and immediately stop serving from the cluster
  // backend (operational kill switch); stride audits detect the digest
  // mismatch, repair, and eventually re-admit — all under load.
  monitor.inject_timestamp_corruption(EventId{0, 3}, 1, 0xbeefu);
  broker.trip_backend(ServingBackend::kCluster);
  submit_some(120);
  broker.drain();

  for (std::size_t i = 0; i < futures.size(); ++i) {
    const QueryResult r = futures[i].get();
    if (r.answer) {
      EXPECT_EQ(*r.answer,
                oracle.happened_before(pairs[i].first, pairs[i].second));
    }
    if (r.frontiers) {
      // Frontier answers must be exact whichever backends served them.
      const EventId probe = r.frontiers->greatest_predecessor.empty()
                                ? kNoEvent
                                : pairs[i].first;
      (void)probe;
    }
  }
  const BrokerHealth h = broker.health();
  EXPECT_TRUE(h.accounted());
  EXPECT_EQ(h.submitted, futures.size());
  EXPECT_EQ(h.in_flight, 0u);
  EXPECT_GE(h.audit_steps, 1u);
  EXPECT_GE(h.rebuilds, 1u);
  EXPECT_GT(h.deadline_expired, 0u);
  // Post-repair, the state digest audit is clean again.
  EXPECT_TRUE(broker.audit_step());
}

TEST(QueryBroker, ServesFmBackedMonitorWithoutAudit) {
  const Trace t = small_trace();
  MonitoringEntity monitor(
      t.process_count(),
      broker_monitor_options(t, TimestampBackend::kPrecomputedFm));
  feed(monitor, t);
  const CausalityOracle oracle(t);

  ThreadPool pool(2);
  QueryBroker broker(monitor, pool);

  const QueryResult r =
      broker.submit_precedence(EventId{0, 1}, EventId{1, 2}).get();
  ASSERT_EQ(r.outcome, QueryOutcome::kAnswered);
  EXPECT_EQ(*r.answer, oracle.happened_before(EventId{0, 1}, EventId{1, 2}));
  // No cluster state to audit: steps are trivially clean.
  EXPECT_TRUE(broker.audit_step());
  EXPECT_TRUE(broker.health().accounted());
}

// A broker serves fallback answers from its FrozenDelivery, so one frozen
// from a different delivered state must be refused, not served.
TEST(QueryBroker, FrozenDeliveryOfAnotherStateIsACheckedError) {
  const Trace t = small_trace();
  const auto order = t.delivery_order();
  MonitoringEntity leader(t.process_count(), broker_monitor_options(t));
  MonitoringEntity replica(t.process_count(), broker_monitor_options(t));
  MonitoringEntity behind(t.process_count(), broker_monitor_options(t));
  feed(leader, t);
  feed(replica, t);
  for (std::size_t i = 0; i + 1 < order.size(); ++i) {
    behind.ingest(t.event(order[i]));
  }

  ThreadPool pool(2);
  const BrokerOptions options;
  const auto frozen = FrozenDelivery::freeze(leader, leader.cluster_digests());
  {
    QueryBroker shared(replica, pool, options, frozen);
    EXPECT_EQ(&shared.delivered(), &frozen->trace());
  }
  EXPECT_THROW((QueryBroker{behind, pool, options, frozen}), CheckFailure);
  EXPECT_THROW((QueryBroker{replica, pool, options, nullptr}), CheckFailure);

  // Same event total, different per-process counts.
  TraceBuilder two_on_p0;
  two_on_p0.add_processes(2);
  two_on_p0.unary(0);
  two_on_p0.unary(0);
  TraceBuilder one_each;
  one_each.add_processes(2);
  one_each.unary(0);
  one_each.unary(1);
  const Trace skewed = two_on_p0.build("skewed", TraceFamily::kControl);
  const Trace even = one_each.build("even", TraceFamily::kControl);
  MonitoringEntity skewed_monitor(2, broker_monitor_options(skewed));
  MonitoringEntity even_monitor(2, broker_monitor_options(even));
  feed(skewed_monitor, skewed);
  feed(even_monitor, even);
  const auto skewed_frozen =
      FrozenDelivery::freeze(skewed_monitor, skewed_monitor.cluster_digests());
  EXPECT_THROW((QueryBroker{even_monitor, pool, options, skewed_frozen}),
               CheckFailure);
}

// ------------------------------------------------ shedding edge cases

TEST(QueryBroker, QueueExactlyFullIsAdmittedAcrossPoliciesAndCapacities) {
  const Trace t = small_trace();
  MonitoringEntity monitor(t.process_count(), broker_monitor_options(t));
  feed(monitor, t);

  for (const std::size_t capacity :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    SCOPED_TRACE("capacity " + std::to_string(capacity));
    ThreadPool pool(1);
    BrokerOptions options;
    options.max_queue = capacity;
    QueryBroker broker(monitor, pool, options);

    // Fill the queue to EXACTLY its capacity: no query may shed at the
    // boundary itself.
    PoolGate gate(pool);
    std::vector<std::future<QueryResult>> fill;
    for (std::size_t i = 0; i < capacity; ++i) {
      fill.push_back(broker.submit_precedence(
          EventId{0, 1}, EventId{1, static_cast<EventIndex>(i + 1)}));
    }
    EXPECT_EQ(broker.health().shed, 0u);
    EXPECT_EQ(broker.health().max_queue_depth, capacity);

    // One past capacity sheds exactly the incoming query; every admitted
    // query still resolves exactly.
    auto extra = broker.submit_precedence(EventId{0, 1}, EventId{2, 1});
    EXPECT_EQ(broker.health().shed, 1u);
    gate.open();
    broker.drain();

    std::vector<QueryOutcome> outcomes;
    for (auto& f : fill) outcomes.push_back(f.get().outcome);
    const QueryOutcome extra_outcome = extra.get().outcome;
    outcomes.push_back(extra_outcome);
    const auto count = [&](QueryOutcome o) {
      return static_cast<std::size_t>(
          std::count(outcomes.begin(), outcomes.end(), o));
    };
    EXPECT_EQ(count(QueryOutcome::kShed), 1u);
    EXPECT_EQ(count(QueryOutcome::kAnswered), capacity);
    EXPECT_EQ(extra_outcome, QueryOutcome::kShed);
    const BrokerHealth h = broker.health();
    EXPECT_TRUE(h.accounted());
    EXPECT_EQ(h.submitted, capacity + 1);
    EXPECT_EQ(h.in_flight, 0u);
  }
}

TEST(QueryBroker, DeadlineCanExpireMidFallbackDescent) {
  const Trace t = small_trace();
  MonitoringEntity monitor(t.process_count(), broker_monitor_options(t));
  feed(monitor, t);

  ThreadPool pool(1);
  BrokerOptions options;
  options.answer_cache_capacity = 0;  // no cache short-circuit
  QueryBroker broker(monitor, pool, options);
  // Force the chain past its primary: every query starts its descent at the
  // differential store.
  broker.trip_backend(ServingBackend::kCluster);

  // A one-tick budget cannot finish even a single component comparison in
  // the differential backend: the query dies mid-descent, after the breaker
  // bypass but before any fallback can answer.
  const QueryResult starved =
      broker.submit_precedence(EventId{0, 1}, EventId{1, 3}, 1).get();
  EXPECT_EQ(starved.outcome, QueryOutcome::kDeadlineExpired);
  EXPECT_FALSE(starved.answer.has_value());

  // The same query unbudgeted descends to an exact fallback answer.
  const CausalityOracle oracle(t);
  const QueryResult served =
      broker.submit_precedence(EventId{0, 1}, EventId{1, 3}).get();
  EXPECT_EQ(served.outcome, QueryOutcome::kAnswered);
  EXPECT_EQ(served.backend_used, ServingBackend::kDifferential);
  EXPECT_EQ(*served.answer,
            oracle.happened_before(EventId{0, 1}, EventId{1, 3}));

  const BrokerHealth h = broker.health();
  EXPECT_TRUE(h.accounted());
  EXPECT_EQ(h.deadline_expired, 1u);
  EXPECT_GE(h.fallback_answers, 1u);
}

TEST(QueryBroker, FallbackBreakerReclosesViaProbeStride) {
  const Trace t = small_trace();
  MonitoringEntity monitor(t.process_count(), broker_monitor_options(t));
  feed(monitor, t);

  ThreadPool pool(1);
  BrokerOptions options;
  options.answer_cache_capacity = 0;
  options.breaker_probe_stride = 4;
  QueryBroker broker(monitor, pool, options);
  // Cluster AND differential tripped: queries bypass both and answer at the
  // on-demand FM tail until the differential breaker's probe fires.
  broker.trip_backend(ServingBackend::kCluster);
  broker.trip_backend(ServingBackend::kDifferential);

  // Bypasses 1..3: no probe yet, the tail serves.
  for (int i = 1; i <= 3; ++i) {
    const QueryResult r =
        broker.submit_precedence(EventId{0, 1},
                                 EventId{1, static_cast<EventIndex>(i)})
            .get();
    ASSERT_EQ(r.outcome, QueryOutcome::kAnswered);
    EXPECT_EQ(r.backend_used, ServingBackend::kOnDemandFm) << "query " << i;
    EXPECT_TRUE(broker.backend_open(ServingBackend::kDifferential));
  }
  // Bypass 4 probes the healthy differential store: the probe answers the
  // query AND re-closes the breaker.
  const QueryResult probe =
      broker.submit_precedence(EventId{0, 1}, EventId{2, 1}).get();
  ASSERT_EQ(probe.outcome, QueryOutcome::kAnswered);
  EXPECT_EQ(probe.backend_used, ServingBackend::kDifferential);
  EXPECT_FALSE(broker.backend_open(ServingBackend::kDifferential));
  EXPECT_EQ(broker.health().readmissions, 1u);

  // The audited cluster backend never re-closes by probe — only clean audit
  // steps (or an explicit readmit) bring the primary back.
  EXPECT_TRUE(broker.backend_open(ServingBackend::kCluster));
  const QueryResult after =
      broker.submit_precedence(EventId{0, 1}, EventId{2, 2}).get();
  EXPECT_EQ(after.backend_used, ServingBackend::kDifferential);
  broker.readmit_backend(ServingBackend::kCluster);
  EXPECT_FALSE(broker.backend_open(ServingBackend::kCluster));
  const QueryResult healed =
      broker.submit_precedence(EventId{0, 1}, EventId{2, 3}).get();
  EXPECT_EQ(healed.backend_used, ServingBackend::kCluster);
  EXPECT_TRUE(broker.health().accounted());
}

// ----------------------------------------------------- epoch publication

// Rebuild-storm stress tests for the lock-free read path: queries race
// continuous snapshot publication (rebuild_cluster clones the arena, swaps
// one atomic pointer, retires the old snapshot to the global epoch domain).
// Under TSan these are the data-race check on the whole pin/publish/retire
// protocol; on any build they check that rebuilds never block, tear, or
// change answers.

TEST(EpochPublication, BrokerAnswersStayExactDuringRebuildStorm) {
  const Trace t = small_trace();
  MonitoringEntity monitor(t.process_count(), broker_monitor_options(t));
  feed(monitor, t);
  const CausalityOracle oracle(t);
  const auto events = all_events(t);

  ThreadPool pool(3);
  QueryBroker broker(monitor, pool, {});

  // Rebuild every cluster in a loop: the rows recompute to their current
  // (correct) values, so every published snapshot answers identically and
  // reader exactness is assertable throughout the storm.
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> rebuilds{0};
  std::thread storm([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      for (const ClusterId c : monitor.cluster_ids()) {
        monitor.rebuild_cluster(c);
        rebuilds.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  // Queries start once the storm has published a rebuild, so they race it
  // even when the queries alone would finish before the thread is first
  // scheduled.
  while (rebuilds.load(std::memory_order_relaxed) == 0) {
    std::this_thread::yield();
  }

  struct Submitted {
    EventId e = kNoEvent, f = kNoEvent;           // precedence
    std::vector<std::pair<EventId, EventId>> batch;  // batch
    bool frontier = false;
  };
  Prng rng(137);
  std::vector<std::future<QueryResult>> futures;
  std::vector<Submitted> submitted;
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 30; ++i) {
      Submitted s;
      if (i % 11 == 0) {
        s.e = rng.pick(events);
        s.frontier = true;
        futures.push_back(broker.submit_frontier(s.e));
      } else if (i % 7 == 0) {
        for (int k = 0; k < 12; ++k) {
          s.batch.emplace_back(rng.pick(events), rng.pick(events));
        }
        futures.push_back(broker.submit_batch(s.batch));
      } else {
        s.e = rng.pick(events);
        s.f = rng.pick(events);
        futures.push_back(broker.submit_precedence(s.e, s.f));
      }
      submitted.push_back(std::move(s));
    }
    broker.drain();
  }
  stop.store(true);
  storm.join();

  ASSERT_GT(rebuilds.load(), 0u);
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const QueryResult r = futures[i].get();
    ASSERT_EQ(r.outcome, QueryOutcome::kAnswered) << "query " << i;
    const Submitted& s = submitted[i];
    if (s.frontier) {
      ASSERT_TRUE(r.frontiers.has_value());
      const CausalFrontiers want = oracle_frontiers(t, oracle, s.e);
      EXPECT_EQ(r.frontiers->greatest_predecessor,
                want.greatest_predecessor)
          << "frontier of " << s.e;
      EXPECT_EQ(r.frontiers->greatest_concurrent, want.greatest_concurrent)
          << "frontier of " << s.e;
    } else if (!s.batch.empty()) {
      ASSERT_EQ(r.batch.size(), s.batch.size());
      for (std::size_t k = 0; k < s.batch.size(); ++k) {
        ASSERT_TRUE(r.batch[k].has_value());
        EXPECT_EQ(*r.batch[k], oracle.happened_before(s.batch[k].first,
                                                      s.batch[k].second))
            << "batch " << i << " pair " << k;
      }
    } else {
      ASSERT_TRUE(r.answer.has_value());
      EXPECT_EQ(*r.answer, oracle.happened_before(s.e, s.f))
          << s.e << " -> " << s.f;
    }
  }
  const BrokerHealth h = broker.health();
  EXPECT_TRUE(h.accounted());
  EXPECT_EQ(h.in_flight, 0u);
}

TEST(EpochPublication, CorruptionRepairStormStaysAccounted) {
  // The harder storm: corruption injections and audit-triggered repairs
  // (both clone-mutate-publish writers, serialized by the engine) race the
  // reader traffic. Answers during a corruption window are unspecified —
  // this asserts the concurrency contract (no race, no stall, accounting
  // exact) and that the system converges to clean, exact service after.
  const Trace t = small_trace();
  MonitoringEntity monitor(t.process_count(), broker_monitor_options(t));
  feed(monitor, t);
  const CausalityOracle oracle(t);
  const auto events = all_events(t);

  ThreadPool pool(3);
  BrokerOptions options;
  options.audit.pairs_per_step = 2;
  options.audit.clean_steps_to_readmit = 1;
  QueryBroker broker(monitor, pool, options);

  std::atomic<bool> stop{false};
  std::thread storm([&] {
    Prng corrupt_rng(138);
    while (!stop.load(std::memory_order_relaxed)) {
      monitor.inject_timestamp_corruption(corrupt_rng.pick(events), 0,
                                          0xdeadu);
      // audit_step detects the digest mismatch and rebuilds the corrupted
      // cluster — a second clone-and-publish racing the readers.
      broker.audit_step();
    }
  });

  Prng rng(139);
  std::vector<std::future<QueryResult>> futures;
  for (int round = 0; round < 10; ++round) {
    for (int i = 0; i < 30; ++i) {
      if (i % 9 == 0) {
        futures.push_back(broker.submit_frontier(rng.pick(events)));
      } else {
        futures.push_back(
            broker.submit_precedence(rng.pick(events), rng.pick(events)));
      }
    }
    broker.drain();
  }
  stop.store(true);
  storm.join();

  for (auto& f : futures) {
    const QueryResult r = f.get();
    EXPECT_NE(r.outcome, QueryOutcome::kFailed);
  }
  const BrokerHealth h = broker.health();
  EXPECT_TRUE(h.accounted());
  EXPECT_EQ(h.in_flight, 0u);

  // Quiesced: one final repair pass, then service is exact again.
  while (!broker.audit_step()) {
  }
  for (int i = 0; i < 20; ++i) {
    const EventId e = rng.pick(events);
    const EventId f = rng.pick(events);
    const QueryResult r = broker.submit_precedence(e, f).get();
    ASSERT_EQ(r.outcome, QueryOutcome::kAnswered);
    EXPECT_EQ(*r.answer, oracle.happened_before(e, f)) << e << " -> " << f;
  }
}

TEST(EpochPublication, PinnedEngineReadsRaceRebuilds) {
  // Engine-level storm, below the broker: readers make per-pair
  // precedes_metered calls, each under an explicit pin (the broker's read
  // discipline), while the writer republishes snapshots continuously.
  // Expected answers are computed before the storm; every snapshot must
  // serve them bit-identically.
  const Trace t = small_trace();
  ClusterEngineConfig config;
  config.max_cluster_size = 4;
  config.fm_vector_width = t.process_count();
  ClusterTimestampEngine engine(t.process_count(), config,
                                make_merge_on_nth(10.0));
  for (const EventId id : t.delivery_order()) engine.observe(t.event(id));

  const auto& order = t.delivery_order();
  std::vector<const Event*> all;
  for (const EventId id : order) all.push_back(&t.event(id));

  // Scattered pairs, then every event against one fixed anchor (the shape
  // of a frontier query).
  std::vector<std::pair<const Event*, const Event*>> pairs;
  for (std::size_t i = 0; i < all.size(); i += 5) {
    for (std::size_t j = 0; j < all.size(); j += 7) {
      pairs.emplace_back(all[i], all[j]);
    }
  }
  const Event& anchor = t.event(order[order.size() / 2]);
  for (const Event* x : all) pairs.emplace_back(&anchor, x);

  const auto answers = [&] {
    QueryCost cost;
    std::vector<std::optional<bool>> out;
    out.reserve(pairs.size());
    for (const auto& [e, f] : pairs) {
      const util::EpochDomain::Guard pin = util::EpochDomain::global().pin();
      out.push_back(engine.precedes_metered(*e, *f, cost));
    }
    return out;
  };
  const std::vector<std::optional<bool>> expected = answers();
  ASSERT_TRUE(std::all_of(expected.begin(), expected.end(),
                          [](const auto& a) { return a.has_value(); }));

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int w = 0; w < 3; ++w) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        ASSERT_EQ(answers(), expected);
      }
    });
  }

  const auto event_of = [&t](EventId id) -> const Event& {
    return t.event(id);
  };
  for (int sweep = 0; sweep < 40; ++sweep) {
    for (const ClusterId c : engine.clusters().clusters()) {
      engine.rebuild_cluster(c, order, event_of);
    }
  }
  stop.store(true);
  for (auto& th : readers) th.join();
  // With every reader gone, all retired snapshots are reclaimable.
  util::EpochDomain::global().synchronize();
  util::EpochDomain::global().collect();
  EXPECT_EQ(util::EpochDomain::global().limbo_size(), 0u);
}

TEST(EpochPublication, TimestampAndDigestReadsRaceCorruptionAndRebuild) {
  // The snapshot readers outside the broker — timestamp() and
  // cluster_digest() — pin the epoch domain themselves. Readers here hold
  // no pin of their own while the writer alternates one fixed corruption
  // with a rebuild of its cluster, each publishing a new snapshot. Every
  // read must see one published state whole: the clean or the corrupted.
  const Trace t = small_trace();
  ClusterEngineConfig config;
  config.max_cluster_size = 4;
  config.fm_vector_width = t.process_count();
  ClusterTimestampEngine engine(t.process_count(), config,
                                make_merge_on_nth(10.0));
  engine.observe_trace(t);

  const auto& order = t.delivery_order();
  const auto event_of = [&t](EventId id) -> const Event& {
    return t.event(id);
  };
  const EventId victim = order[order.size() / 2];
  const ClusterId home = engine.clusters().cluster_of(victim.process);
  const ClusterTimestamp clean = engine.timestamp(victim);
  const std::uint64_t clean_digest = engine.cluster_digest(home);
  const EventIndex bad = clean.values[0] ^ 0x40u;
  engine.inject_corruption(victim, 0, bad);
  const std::uint64_t bad_digest = engine.cluster_digest(home);
  ASSERT_NE(bad_digest, clean_digest);
  engine.rebuild_cluster(home, order, event_of);
  ASSERT_EQ(engine.cluster_digest(home), clean_digest);

  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int w = 0; w < 3; ++w) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const std::uint64_t digest = engine.cluster_digest(home);
        ASSERT_TRUE(digest == clean_digest || digest == bad_digest);
        const ClusterTimestamp ts = engine.timestamp(victim);
        ASSERT_EQ(ts.covered, clean.covered);
        ASSERT_EQ(ts.cluster_receive, clean.cluster_receive);
        ASSERT_EQ(ts.values.size(), clean.values.size());
        ASSERT_TRUE(ts.values[0] == clean.values[0] || ts.values[0] == bad);
        for (std::size_t i = 1; i < ts.values.size(); ++i) {
          ASSERT_EQ(ts.values[i], clean.values[i]);
        }
      }
    });
  }
  for (int round = 0; round < 200; ++round) {
    engine.inject_corruption(victim, 0, bad);
    engine.rebuild_cluster(home, order, event_of);
  }
  stop.store(true);
  for (auto& th : readers) th.join();

  EXPECT_EQ(engine.cluster_digest(home), clean_digest);
  EXPECT_EQ(engine.timestamp(victim).values, clean.values);
  util::EpochDomain::global().synchronize();
  util::EpochDomain::global().collect();
  EXPECT_EQ(util::EpochDomain::global().limbo_size(), 0u);
}

}  // namespace
}  // namespace ct
