// Tests for the sharded multi-tenant router: replica fan-out, per-cluster
// ownership, retry/backoff + hedged re-issue, tenant bulkheads (quota +
// breaker), shard-level fault injection, and the sharded-vs-single-shard
// answer-identity check (docs/FAULT_MODEL.md §8).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include "durability/recovery.hpp"
#include "durability/storage.hpp"
#include "model/oracle.hpp"
#include "monitor/queries.hpp"
#include "monitor/query_broker.hpp"
#include "shard/shard_check.hpp"
#include "shard/shard_fault.hpp"
#include "shard/shard_router.hpp"
#include "simcheck/generator.hpp"
#include "trace/generators.hpp"
#include "util/prng.hpp"

namespace ct {
namespace {

Trace small_trace() {
  return generate_rpc_business({.groups = 2,
                                .clients_per_group = 2,
                                .servers_per_group = 2,
                                .calls = 40,
                                .seed = 51});
}

TenantConfig small_tenant(const Trace& t, std::size_t shards = 3) {
  TenantConfig tc;
  tc.process_count = t.process_count();
  tc.monitor.backend = TimestampBackend::kClusterDynamic;
  tc.monitor.cluster.max_cluster_size = 4;
  tc.monitor.cluster.fm_vector_width = t.process_count();
  tc.shards = shards;
  return tc;
}

void feed(ShardRouter& router, TenantId t, const Trace& trace) {
  for (const EventId id : trace.delivery_order()) {
    router.ingest(t, trace.event(id));
  }
}

std::vector<EventId> all_events(const Trace& t) {
  return {t.delivery_order().begin(), t.delivery_order().end()};
}

TEST(ShardRouter, AnswersMatchOracleAndOwnershipIsPerCluster) {
  const Trace t = small_trace();
  ShardRouter router;
  const TenantId ten = router.add_tenant(small_tenant(t));
  feed(router, ten, t);
  const CausalityOracle oracle(t);
  const auto events = all_events(t);

  router.open_epoch();
  // Per-cluster ownership: two processes of the same cluster share an
  // owner shard.
  const MonitoringEntity& m = router.shard_monitor(ten, 0);
  for (ProcessId p = 0; p < t.process_count(); ++p) {
    for (ProcessId q = 0; q < t.process_count(); ++q) {
      if (m.cluster_of(p) == m.cluster_of(q)) {
        EXPECT_EQ(router.owner_shard(ten, p), router.owner_shard(ten, q));
      }
    }
  }

  Prng rng(7);
  for (int i = 0; i < 150; ++i) {
    const EventId e = rng.pick(events);
    const EventId f = rng.pick(events);
    const RouterQueryResult r = router.precedence(ten, e, f);
    ASSERT_EQ(r.outcome, RouterOutcome::kAnswered);
    ASSERT_TRUE(r.answer.has_value());
    EXPECT_EQ(*r.answer, oracle.happened_before(e, f));
    EXPECT_EQ(r.shard, router.owner_shard(ten, f.process));
    EXPECT_FALSE(r.retried);
    EXPECT_FALSE(r.hedged);
  }
  router.close_epoch();

  const TenantHealth h = router.tenant_health(ten);
  EXPECT_TRUE(h.accounted());
  EXPECT_EQ(h.answered, 150u);
  EXPECT_EQ(h.degraded + h.unknown + h.shed, 0u);
}

TEST(ShardRouter, DeadOwnerIsHedgedToSiblingExactly) {
  const Trace t = small_trace();
  ShardRouter router;
  const TenantId ten = router.add_tenant(small_tenant(t));
  feed(router, ten, t);
  const CausalityOracle oracle(t);
  const auto events = all_events(t);

  router.open_epoch();
  const EventId f = events.back();
  const ShardId owner = router.owner_shard(ten, f.process);
  router.inject_shard_fault(ten, owner, ShardFault::kDead);

  Prng rng(11);
  int hedged = 0;
  for (int i = 0; i < 60; ++i) {
    const EventId e = rng.pick(events);
    const RouterQueryResult r = router.precedence(ten, e, f);
    // The owner refuses instantly; a sibling replica answers — exact, but
    // flagged degraded.
    ASSERT_TRUE(r.answer.has_value());
    EXPECT_EQ(*r.answer, oracle.happened_before(e, f));
    EXPECT_EQ(r.outcome, RouterOutcome::kDegraded);
    EXPECT_NE(r.shard, owner);
    hedged += r.hedged ? 1 : 0;
  }
  EXPECT_EQ(hedged, 60);
  router.close_epoch();

  const TenantHealth h = router.tenant_health(ten);
  EXPECT_TRUE(h.accounted());
  EXPECT_EQ(h.degraded, 60u);
  EXPECT_GT(h.hedges, 0u);
  const RouterHealth rh = router.health();
  EXPECT_GT(rh.faults.dead_attempts, 0u);
}

TEST(ShardRouter, StalledOwnerBurnsBudgetThenSiblingAnswers) {
  const Trace t = small_trace();
  ShardRouter router;
  const TenantId ten = router.add_tenant(small_tenant(t));
  feed(router, ten, t);
  const auto events = all_events(t);

  router.open_epoch();
  const EventId f = events.back();
  const ShardId owner = router.owner_shard(ten, f.process);
  router.inject_shard_fault(ten, owner, ShardFault::kStalled);

  const std::uint64_t budget = 50'000;
  const RouterQueryResult r =
      router.precedence(ten, events.front(), f, budget);
  // The stalled owner consumed its whole budget (and the backoff-scaled
  // retry budget) producing nothing before a sibling answered.
  ASSERT_TRUE(r.answer.has_value());
  EXPECT_EQ(r.outcome, RouterOutcome::kDegraded);
  EXPECT_TRUE(r.hedged);
  EXPECT_GE(r.cost, budget * (1 + ShardRouter::kBackoffFactor));
  router.close_epoch();
  EXPECT_GT(router.health().faults.stalled_attempts, 0u);
}

TEST(ShardRouter, SlowShardStillAnswersExactlyAtInflatedCost) {
  const Trace t = small_trace();
  ShardRouter router;
  const TenantId ten = router.add_tenant(small_tenant(t));
  feed(router, ten, t);
  const CausalityOracle oracle(t);
  const auto events = all_events(t);

  router.open_epoch();
  const EventId e = events.front(), f = events.back();
  const RouterQueryResult clean = router.precedence(ten, e, f);
  ASSERT_EQ(clean.outcome, RouterOutcome::kAnswered);

  const ShardId owner = router.owner_shard(ten, f.process);
  router.inject_shard_fault(ten, owner, ShardFault::kSlow);
  const RouterQueryResult slow = router.precedence(ten, e, f);
  ASSERT_TRUE(slow.answer.has_value());
  EXPECT_EQ(*slow.answer, oracle.happened_before(e, f));
  // Unlimited budget: the slow owner still answers on the first attempt
  // (not degraded), but every tick costs slow_factor real ticks.
  EXPECT_EQ(slow.outcome, RouterOutcome::kAnswered);
  EXPECT_GE(slow.cost, clean.cost);
  router.close_epoch();
  EXPECT_GT(router.health().faults.slowed_attempts, 0u);
}

TEST(ShardRouter, CorruptClusterShardServesExactViaFallbacksFlaggedDegraded) {
  const Trace t = small_trace();
  ShardRouter router;
  const TenantId ten = router.add_tenant(small_tenant(t));
  feed(router, ten, t);
  const CausalityOracle oracle(t);
  const auto events = all_events(t);

  router.open_epoch();
  const EventId f = events.back();
  const ShardId owner = router.owner_shard(ten, f.process);
  router.inject_shard_fault(ten, owner, ShardFault::kCorruptCluster);

  Prng rng(13);
  for (int i = 0; i < 60; ++i) {
    const EventId e = rng.pick(events);
    const RouterQueryResult r = router.precedence(ten, e, f);
    // The kill-switch protocol: the corrupt shard's cluster backend is
    // tripped, its fallback chain serves — exact answers, flagged
    // degraded, never wrong.
    ASSERT_TRUE(r.answer.has_value());
    EXPECT_EQ(*r.answer, oracle.happened_before(e, f));
    EXPECT_EQ(r.outcome, RouterOutcome::kDegraded);
    EXPECT_EQ(r.shard, owner);
  }
  router.close_epoch();

  // close_epoch repaired the corruption from the delivery log: the next
  // epoch's coherence check finds nothing to quarantine and the shard is
  // exact-primary again.
  router.open_epoch();
  const RouterQueryResult clean = router.precedence(ten, events.front(), f);
  EXPECT_EQ(clean.outcome, RouterOutcome::kAnswered);
  router.close_epoch();
  EXPECT_EQ(router.tenant_health(ten).divergent_replicas, 0u);
}

TEST(ShardRouter, CorruptClusterRepairOnManyClustersLeavesReplicasCoherent) {
  // maxCS 1 keeps every process a singleton cluster: close_epoch must find
  // and repair the planted cluster among 40.
  const Trace t = generate_uniform_random(
      {.processes = 40, .messages = 300, .seed = 61});
  TenantConfig tc = small_tenant(t);
  tc.monitor.cluster.max_cluster_size = 1;
  RouterOptions ro;
  ro.faults.corrupt_rate = 1.0;  // every shard, every epoch
  ShardRouter router(ro);
  const TenantId ten = router.add_tenant(tc);
  feed(router, ten, t);
  const CausalityOracle oracle(t);
  const auto events = all_events(t);

  Prng rng(23);
  for (int epoch = 0; epoch < 3; ++epoch) {
    router.open_epoch();
    ASSERT_EQ(router.shard_monitor(ten, 0).cluster_ids().size(), 40u);
    for (ShardId s = 0; s < 3; ++s) {
      ASSERT_EQ(router.shard_fault(ten, s), ShardFault::kCorruptCluster);
    }
    for (int i = 0; i < 40; ++i) {
      const EventId e = rng.pick(events);
      const EventId f = rng.pick(events);
      const RouterQueryResult r = router.precedence(ten, e, f);
      ASSERT_TRUE(r.answer.has_value());
      EXPECT_EQ(*r.answer, oracle.happened_before(e, f));
    }
    router.close_epoch();
    EXPECT_EQ(router.tenant_health(ten).divergent_replicas, 0u);
  }
  // The repaired replicas match a monitor that never saw corruption.
  MonitoringEntity reference(t.process_count(), tc.monitor);
  for (const EventId id : t.delivery_order()) reference.ingest(t.event(id));
  for (ShardId s = 0; s < 3; ++s) {
    EXPECT_EQ(router.shard_monitor(ten, s).cluster_digests(),
              reference.cluster_digests())
        << "shard " << s;
  }
}

TEST(ShardRouter, CoherentReplicasShareOneFrozenDelivery) {
  const Trace t = small_trace();
  ShardRouter router;
  const TenantId ten = router.add_tenant(small_tenant(t));
  feed(router, ten, t);
  router.mutable_shard_monitor(ten, 2).inject_timestamp_corruption(
      all_events(t).back(), 0, 0x7777);

  router.open_epoch();
  ASSERT_EQ(router.tenant_health(ten).divergent_replicas, 1u);
  const QueryBroker* a = router.shard_broker(ten, 0);
  const QueryBroker* b = router.shard_broker(ten, 1);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  // The quarantined replica has no broker, so it holds neither.
  EXPECT_EQ(router.shard_broker(ten, 2), nullptr);
  // One frozen state: one delivered trace and one differential link.
  EXPECT_EQ(&a->frozen(), &b->frozen());
  EXPECT_EQ(&a->delivered(), &b->delivered());
  EXPECT_EQ(&a->frozen().differential(), &b->frozen().differential());
  // The cluster link reads each broker's own monitor behind its own
  // breaker (as does the on-demand FM link, a member of each broker): a
  // kill switch on one replica leaves the other's cluster link serving.
  router.inject_shard_fault(ten, 0, ShardFault::kCorruptCluster);
  EXPECT_TRUE(a->backend_open(ServingBackend::kCluster));
  EXPECT_FALSE(b->backend_open(ServingBackend::kCluster));
  EXPECT_FALSE(a->backend_open(ServingBackend::kDifferential));
  router.close_epoch();
  EXPECT_EQ(router.shard_broker(ten, 0), nullptr);
}

TEST(ShardRouter, ConcurrentReadsOfSharedFallbackLinksStayExact) {
  const Trace t = small_trace();
  ShardRouter router;
  TenantConfig tc = small_tenant(t);
  tc.broker.answer_cache_capacity = 0;  // every test reaches the chain
  const TenantId ten = router.add_tenant(tc);
  feed(router, ten, t);
  const CausalityOracle oracle(t);
  const auto events = all_events(t);

  router.open_epoch();
  // Two kill-switched replicas answer through the differential link their
  // brokers share, from several router callers at once.
  router.inject_shard_fault(ten, 0, ShardFault::kCorruptCluster);
  router.inject_shard_fault(ten, 1, ShardFault::kCorruptCluster);
  std::atomic<std::uint64_t> via_shared[2] = {0, 0};
  std::vector<std::thread> callers;
  for (int c = 0; c < 4; ++c) {
    callers.emplace_back([&, c] {
      Prng rng(static_cast<std::uint64_t>(c) + 41);
      for (int i = 0; i < 150; ++i) {
        const EventId e = rng.pick(events);
        const EventId f = rng.pick(events);
        if (i % 10 == 0) {
          const RouterQueryResult r = router.frontier(ten, f);
          ASSERT_TRUE(r.frontiers.has_value());
          const CausalFrontiers want = compute_frontiers_with(
              t.process_count(), f,
              [&](EventId a, EventId b) {
                return oracle.happened_before(a, b);
              },
              [&](ProcessId q) { return t.process_size(q); });
          EXPECT_EQ(r.frontiers->greatest_predecessor,
                    want.greatest_predecessor);
          EXPECT_EQ(r.frontiers->greatest_concurrent,
                    want.greatest_concurrent);
          continue;
        }
        const RouterQueryResult r = router.precedence(ten, e, f);
        ASSERT_TRUE(r.answer.has_value());
        EXPECT_EQ(*r.answer, oracle.happened_before(e, f));
        if (r.shard < 2 && r.backend_used == ServingBackend::kDifferential) {
          ++via_shared[r.shard];
        }
      }
    });
  }
  for (auto& th : callers) th.join();
  router.close_epoch();

  EXPECT_GT(via_shared[0].load(), 0u);
  EXPECT_GT(via_shared[1].load(), 0u);
  const TenantHealth h = router.tenant_health(ten);
  EXPECT_TRUE(h.accounted());
  EXPECT_EQ(h.submitted, 600u);
  EXPECT_EQ(h.in_flight, 0u);
}

TEST(ShardRouter, ExternallyDivergedReplicaIsQuarantinedByDigestCheck) {
  const Trace t = small_trace();
  ShardRouter router;
  const TenantId ten = router.add_tenant(small_tenant(t));
  feed(router, ten, t);
  const CausalityOracle oracle(t);
  const auto events = all_events(t);

  // Corrupt shard 1's replica OUTSIDE any epoch protocol — the coherence
  // check at open_epoch must spot the digest mismatch and bench it.
  router.mutable_shard_monitor(ten, 1).inject_timestamp_corruption(
      events.back(), 0, 0x7777);
  router.open_epoch();
  EXPECT_EQ(router.tenant_health(ten).divergent_replicas, 1u);
  Prng rng(17);
  for (int i = 0; i < 40; ++i) {
    const EventId e = rng.pick(events);
    const EventId f = rng.pick(events);
    const RouterQueryResult r = router.precedence(ten, e, f);
    ASSERT_TRUE(r.answer.has_value());
    EXPECT_EQ(*r.answer, oracle.happened_before(e, f));
    EXPECT_NE(r.shard, 1u);  // the quarantined replica never serves
  }
  router.close_epoch();
  EXPECT_TRUE(router.tenant_health(ten).accounted());
}

TEST(ShardRouter, TenantBreakerTripsOnOwnUnknownsOnlyAndProbesClosed) {
  const Trace t = small_trace();
  ShardRouter router;
  TenantConfig tc = small_tenant(t);
  tc.breaker_failure_threshold = 3;
  tc.breaker_probe_stride = 4;
  const TenantId sick = router.add_tenant(tc);
  const TenantId healthy = router.add_tenant(tc);
  feed(router, sick, t);
  feed(router, healthy, t);
  const auto events = all_events(t);

  router.open_epoch();
  // Kill every replica of the sick tenant: its queries go unknown.
  for (ShardId s = 0; s < 3; ++s) {
    router.inject_shard_fault(sick, s, ShardFault::kDead);
  }
  const EventId e = events.front(), f = events.back();
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(router.precedence(sick, e, f).outcome, RouterOutcome::kUnknown);
  }
  EXPECT_FALSE(router.tenant_open(sick));
  EXPECT_EQ(router.tenant_health(sick).breaker_trips, 1u);

  // Open breaker: fast-fail without touching a shard; every 4th submission
  // probes (and stays unknown — the shards are still dead).
  for (int i = 0; i < 8; ++i) {
    const RouterQueryResult r = router.precedence(sick, e, f);
    EXPECT_EQ(r.outcome, RouterOutcome::kUnknown);
  }
  EXPECT_GT(router.tenant_health(sick).breaker_fastfails, 0u);
  EXPECT_FALSE(router.tenant_open(sick));

  // The sibling tenant never notices: its breaker is fed by its own
  // outcomes only (the bulkhead).
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(router.precedence(healthy, e, f).outcome,
              RouterOutcome::kAnswered);
  }
  EXPECT_TRUE(router.tenant_open(healthy));
  router.close_epoch();

  // Next epoch the shards are clean again; the first probe submission
  // closes the breaker.
  router.open_epoch();
  RouterOutcome last = RouterOutcome::kUnknown;
  for (int i = 0; i < 4; ++i) {
    last = router.precedence(sick, e, f).outcome;
  }
  EXPECT_EQ(last, RouterOutcome::kAnswered);
  EXPECT_TRUE(router.tenant_open(sick));
  EXPECT_GE(router.tenant_health(sick).readmissions, 1u);
  router.close_epoch();
  EXPECT_TRUE(router.tenant_health(sick).accounted());
  EXPECT_TRUE(router.tenant_health(healthy).accounted());
}

TEST(ShardRouter, AdmissionQuotaShedsConcurrentOverload) {
  const Trace t = small_trace();
  ShardRouter router;
  TenantConfig tc = small_tenant(t);
  tc.max_in_flight = 1;
  const TenantId ten = router.add_tenant(tc);
  feed(router, ten, t);
  const auto events = all_events(t);

  router.open_epoch();
  // 8 racing callers against a 1-permit quota: overload must shed, never
  // queue unboundedly, and the accounting must absorb every submission.
  std::vector<std::thread> callers;
  for (int c = 0; c < 8; ++c) {
    callers.emplace_back([&, c] {
      Prng rng(static_cast<std::uint64_t>(c) + 1);
      for (int i = 0; i < 200; ++i) {
        const EventId e = rng.pick(events);
        const EventId f = rng.pick(events);
        const RouterQueryResult r = router.precedence(ten, e, f);
        ASSERT_TRUE(r.outcome == RouterOutcome::kAnswered ||
                    r.outcome == RouterOutcome::kShed);
      }
    });
  }
  for (auto& th : callers) th.join();
  router.close_epoch();

  const TenantHealth h = router.tenant_health(ten);
  EXPECT_TRUE(h.accounted());
  EXPECT_EQ(h.submitted, 1600u);
  EXPECT_EQ(h.in_flight, 0u);
  EXPECT_EQ(h.shed, h.quota_rejections);
  EXPECT_GT(h.quota_rejections, 0u);  // 8 threads vs 1 permit must collide
}

TEST(ShardRouter, BatchDegradesPerPairNeverSilentlyWrong) {
  const Trace t = small_trace();
  ShardRouter router;
  const TenantId ten = router.add_tenant(small_tenant(t));
  feed(router, ten, t);
  const CausalityOracle oracle(t);
  const auto events = all_events(t);

  router.open_epoch();
  const ShardId dead = router.owner_shard(ten, events.back().process);
  router.inject_shard_fault(ten, dead, ShardFault::kDead);

  Prng rng(23);
  std::vector<std::pair<EventId, EventId>> pairs;
  for (int i = 0; i < 64; ++i) {
    pairs.emplace_back(rng.pick(events), rng.pick(events));
  }
  const RouterQueryResult r = router.batch(ten, pairs);
  ASSERT_EQ(r.batch.size(), pairs.size());
  ASSERT_EQ(r.batch_outcome.size(), pairs.size());
  bool any_degraded = false;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    // Every pair is answered (siblings are full replicas) and every
    // answer is exact; pairs owned by the dead shard come back flagged.
    ASSERT_TRUE(r.batch[i].has_value()) << "pair " << i;
    EXPECT_EQ(*r.batch[i],
              oracle.happened_before(pairs[i].first, pairs[i].second));
    const ShardId owner = router.owner_shard(ten, pairs[i].second.process);
    if (owner == dead) {
      EXPECT_EQ(r.batch_outcome[i], RouterOutcome::kDegraded);
      any_degraded = true;
    } else {
      EXPECT_EQ(r.batch_outcome[i], RouterOutcome::kAnswered);
    }
  }
  EXPECT_TRUE(any_degraded);
  EXPECT_EQ(r.outcome, RouterOutcome::kDegraded);
  router.close_epoch();

  const TenantHealth h = router.tenant_health(ten);
  EXPECT_TRUE(h.accounted());
  EXPECT_EQ(h.pairs_answered + h.pairs_degraded + h.pairs_unknown, 64u);
  EXPECT_EQ(h.pairs_unknown, 0u);
}

TEST(ShardRouter, FrontiersMatchAcrossDeployments) {
  const Trace t = small_trace();
  ShardRouter sharded;
  const TenantId ten = sharded.add_tenant(small_tenant(t));
  feed(sharded, ten, t);
  ShardRouter single;
  const TenantId solo = single.add_tenant(small_tenant(t, 1));
  feed(single, solo, t);
  const auto events = all_events(t);

  sharded.open_epoch();
  single.open_epoch();
  Prng rng(29);
  for (int i = 0; i < 12; ++i) {
    const EventId e = rng.pick(events);
    const RouterQueryResult a = sharded.frontier(ten, e);
    const RouterQueryResult b = single.frontier(solo, e);
    ASSERT_TRUE(a.frontiers.has_value());
    ASSERT_TRUE(b.frontiers.has_value());
    EXPECT_EQ(a.frontiers->greatest_predecessor,
              b.frontiers->greatest_predecessor);
    EXPECT_EQ(a.frontiers->greatest_concurrent,
              b.frontiers->greatest_concurrent);
  }
  sharded.close_epoch();
  single.close_epoch();
}

TEST(ShardRouter, PerTenantWalNamespacesRecoverIndependently) {
  const Trace t = small_trace();
  SimulatedStorage storage;
  {
    ShardRouter router;
    const TenantId a = router.add_tenant(small_tenant(t, 2));
    const TenantId b = router.add_tenant(small_tenant(t, 2));
    router.attach_wal(a, storage);
    router.attach_wal(b, storage);
    feed(router, a, t);
    feed(router, b, t);
    router.checkpoint_tenant(a);
    router.wal(b)->sync();
  }
  // Both tenants share one StorageBackend; each recovers from its own
  // namespace alone.
  for (TenantId t_id = 0; t_id < 2; ++t_id) {
    MonitorOptions mo;
    mo.cluster.max_cluster_size = 4;
    mo.cluster.fm_vector_width = t.process_count();
    const RecoveredMonitor rec =
        recover_monitor(storage, t.process_count(), mo,
                        wal::tenant_namespace(t_id));
    EXPECT_EQ(rec.monitor->delivery_log().size(),
              t.delivery_order().size());
  }
}

TEST(ShardCheck, FaultFreeShardedDeploymentIsBitIdentical) {
  const SimSchedule schedule = generate_schedule(101);
  ShardCheckOptions options;
  options.shards = 3;
  options.tenants = 2;
  const ShardCheckReport report = run_shard_check(schedule, options);
  EXPECT_TRUE(report.ok()) << report.divergence->detail;
  EXPECT_GT(report.pairs_checked, 0u);
}

TEST(ShardCheck, InjectedFaultsDegradeLoudlyNeverWrong) {
  const SimSchedule schedule = generate_schedule(202);
  ShardCheckOptions options;
  options.shards = 3;
  options.tenants = 1;
  options.faults.seed = 202;
  options.faults.slow_rate = 0.25;
  options.faults.stall_rate = 0.2;
  options.faults.dead_rate = 0.2;
  options.faults.corrupt_rate = 0.15;
  const ShardCheckReport report = run_shard_check(schedule, options);
  EXPECT_TRUE(report.ok()) << report.divergence->detail;
}

TEST(ShardCheck, FaultsConfinedToOneTenantLeaveSiblingsExact) {
  const SimSchedule schedule = generate_schedule(303);
  ShardCheckOptions options;
  options.shards = 3;
  options.tenants = 3;
  options.fault_first_tenant_only = true;
  options.faults.seed = 303;
  options.faults.dead_rate = 0.4;
  options.faults.stall_rate = 0.3;
  options.faults.corrupt_rate = 0.2;
  const ShardCheckReport report = run_shard_check(schedule, options);
  EXPECT_TRUE(report.ok()) << report.divergence->detail;
  EXPECT_GT(report.faults_injected, 0u);
}

}  // namespace
}  // namespace ct
