// Property tests for the tree-clock backend (timestamp/tree_clock.hpp):
// tree-clock ↔ vector-clock equivalence on randomly seeded schedules, join
// commutativity/idempotence/pointwise-max, and the monotone-copy invariant
// re-checked after every receive. The simcheck oracle re-proves answer
// identity against on-demand FM under faults; these tests pin the algebra
// of the data structure itself, with shapes validated by check_shape().
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "model/oracle.hpp"
#include "timestamp/fm_store.hpp"
#include "timestamp/query_cost.hpp"
#include "timestamp/tree_clock.hpp"
#include "timestamp/tree_clock_store.hpp"
#include "trace/generators.hpp"
#include "util/prng.hpp"

namespace ct {
namespace {

std::vector<Trace> property_traces(std::uint64_t seed) {
  std::vector<Trace> out;
  out.push_back(generate_uniform_random(
      {.processes = 10, .messages = 120, .seed = seed}));
  out.push_back(generate_locality_random(
      {.processes = 12, .group_size = 4, .messages = 100, .seed = seed + 1}));
  out.push_back(generate_rpc_business({.groups = 2,
                                       .clients_per_group = 2,
                                       .servers_per_group = 2,
                                       .calls = 50,
                                       .seed = seed + 2}));
  out.push_back(generate_ring({.processes = 8, .iterations = 5,
                               .seed = seed + 3}));
  out.push_back(generate_master_worker(
      {.processes = 9, .tasks = 30, .pods = 2, .seed = seed + 4}));
  return out;
}

std::vector<EventIndex> flat(const TreeClock& c) {
  std::vector<EventIndex> v(c.process_count());
  c.flatten_into(v.data(), v.size());
  return v;
}

void expect_shape_ok(const TreeClock& c, const char* where) {
  std::string why;
  EXPECT_TRUE(c.check_shape(&why)) << where << ": " << why;
}

// Satellite property 1: every event's flattened tree clock equals the
// Fidge/Mattern vector FmStore computes, and the derived
// precedence/concurrency answers match the ground-truth oracle.
TEST(TreeClockStore, FlattenedClocksMatchVectorClocks) {
  for (const Trace& t : property_traces(101)) {
    const FmStore ref(t);
    const TreeClockStore store(t);
    for (const EventId e : t.delivery_order()) {
      ASSERT_EQ(store.clock(e), ref.clock(e))
          << "event P" << e.process << "." << e.index;
    }
  }
}

TEST(TreeClockStore, PrecedenceMatchesOracleOnSampledPairs) {
  Prng rng(7);
  for (const Trace& t : property_traces(202)) {
    const CausalityOracle oracle(t);
    const TreeClockStore store(t);
    const std::vector<EventId> events = {t.delivery_order().begin(),
                                         t.delivery_order().end()};
    for (int i = 0; i < 400; ++i) {
      const EventId e = rng.pick(events);
      const EventId f = rng.pick(events);
      ASSERT_EQ(store.precedes(e, f), oracle.happened_before(e, f))
          << "P" << e.process << "." << e.index << " vs P" << f.process << "."
          << f.index;
      ASSERT_EQ(store.concurrent(e, f), oracle.concurrent(e, f));
      // dominated_by is precedence-or-equality over full rows.
      const bool dom = store.dominated_by(e, f);
      const bool expected =
          e == f || oracle.happened_before(e, f) ||
          (t.event(e).kind == EventKind::kSync && t.event(e).partner == f);
      ASSERT_EQ(dom, expected);
    }
  }
}

// Satellite property 2: join is commutative and idempotent up to the
// flattened mapping, computes the pointwise max, and always leaves a valid
// tree shape.
TEST(TreeClock, JoinCommutativeIdempotentAndPointwiseMax) {
  Prng rng(11);
  for (const Trace& t : property_traces(303)) {
    const TreeClockStore store(t);
    const std::size_t n = t.process_count();
    for (int round = 0; round < 50; ++round) {
      const ProcessId p = static_cast<ProcessId>(rng.index(n));
      const ProcessId q = static_cast<ProcessId>(rng.index(n));
      const TreeClock& a = store.final_clock(p);
      const TreeClock& b = store.final_clock(q);

      TreeClock ab = a;
      ab.join(b);
      TreeClock ba = b;
      ba.join(a);
      expect_shape_ok(ab, "a.join(b)");
      expect_shape_ok(ba, "b.join(a)");

      const auto fa = flat(a), fb = flat(b);
      std::vector<EventIndex> expected(n);
      for (std::size_t i = 0; i < n; ++i) {
        expected[i] = std::max(fa[i], fb[i]);
      }
      ASSERT_EQ(flat(ab), expected) << "join is not the pointwise max";
      ASSERT_EQ(flat(ba), expected) << "join is not commutative (flattened)";

      // Idempotence: joining again (either operand) changes nothing.
      TreeClock again = ab;
      again.join(b);
      again.join(a);
      again.join(ab);
      ASSERT_EQ(flat(again), expected);
      expect_shape_ok(again, "idempotent re-join");
    }
  }
}

// Satellite property 3: the monotone-copy invariant, checked after EVERY
// receive — each process's flattened clock only ever grows pointwise, and
// the tree shape stays valid at every step of ingestion.
TEST(TreeClockStore, MonotoneCopyInvariantHoldsAfterEveryReceive) {
  for (const Trace& t : property_traces(404)) {
    std::vector<std::vector<EventIndex>> last(t.process_count());
    std::size_t hooks = 0;
    TreeClockStore::EventHook hook = [&](const Event& e, const TreeClock& c) {
      ++hooks;
      std::string why;
      ASSERT_TRUE(c.check_shape(&why))
          << "after P" << e.id.process << "." << e.id.index << ": " << why;
      const auto now = flat(c);
      auto& prev = last[e.id.process];
      if (!prev.empty()) {
        for (std::size_t i = 0; i < now.size(); ++i) {
          ASSERT_GE(now[i], prev[i])
              << "component " << i << " regressed at P" << e.id.process << "."
              << e.id.index;
        }
      }
      ASSERT_EQ(now[e.id.process], e.id.index)
          << "own component must equal the event index";
      prev = now;
    };
    const TreeClockStore store(t, hook);
    ASSERT_EQ(hooks, t.event_count());
  }
}

TEST(TreeClockStore, SyncHalvesCarryEqualClocksAndAreConcurrent) {
  for (const Trace& t : property_traces(505)) {
    const TreeClockStore store(t);
    std::size_t syncs = 0;
    for (const EventId id : t.delivery_order()) {
      const Event& e = t.event(id);
      if (e.kind != EventKind::kSync) continue;
      ++syncs;
      ASSERT_EQ(store.clock(id), store.clock(e.partner));
      ASSERT_FALSE(store.precedes(id, e.partner));
      ASSERT_FALSE(store.precedes(e.partner, id));
      ASSERT_TRUE(store.concurrent(id, e.partner));
    }
    if (t.name().find("rpc") != std::string::npos) {
      EXPECT_GT(syncs, 0u) << "expected sync events in " << t.name();
    }
  }
}

TEST(TreeClock, TickBumpAndDominationBasics) {
  TreeClock a(4, /*root=*/0);
  EXPECT_EQ(a.root_clk(), 0u);
  a.tick();
  a.tick();
  EXPECT_EQ(a.get(0), 2u);
  EXPECT_EQ(a.node_count(), 1u);

  // bump attaches an unknown process under the root...
  a.bump(2, 5);
  EXPECT_EQ(a.get(2), 5u);
  EXPECT_TRUE(a.in_tree(2));
  EXPECT_EQ(a.parent_of(2), 0);
  EXPECT_EQ(a.node_count(), 2u);
  // ...and raises a known one in place.
  a.bump(2, 7);
  EXPECT_EQ(a.get(2), 7u);
  EXPECT_EQ(a.node_count(), 2u);
  expect_shape_ok(a, "after bumps");

  TreeClock b(4, /*root=*/1);
  b.tick();
  b.join(a);
  expect_shape_ok(b, "after join");
  EXPECT_EQ(b.get(0), 2u);
  EXPECT_EQ(b.get(1), 1u);
  EXPECT_EQ(b.get(2), 7u);
  EXPECT_TRUE(a.dominated_by(b));
  EXPECT_FALSE(b.dominated_by(a));  // b knows its own tick; a does not
}

TEST(TreeClock, JoinStatsCountPrunedSubtrees) {
  const Trace t = generate_uniform_random(
      {.processes = 12, .messages = 150, .seed = 31});
  const TreeClockStore store(t);
  const TreeClock::JoinStats& s = store.costs().join;
  EXPECT_GT(s.joins, 0u);
  EXPECT_GT(s.nodes_updated, 0u);
  // The whole point of the structure: joins touch fewer entries than the
  // vector-clock Θ(N) bound would.
  EXPECT_LT(s.nodes_examined, s.joins * t.process_count());
}

TEST(TreeClockStore, MeteredPrecedenceHonorsBudgetAndMatchesUnmetered) {
  const Trace t = generate_rpc_chain(
      {.services = 6, .chain_length = 3, .requests = 20, .seed = 17});
  const TreeClockStore store(t);
  const std::vector<EventId> events = {t.delivery_order().begin(),
                                       t.delivery_order().end()};
  Prng rng(23);
  for (int i = 0; i < 100; ++i) {
    const EventId e = rng.pick(events);
    const EventId f = rng.pick(events);
    QueryCost unlimited;
    const auto answer = store.precedes_metered(e, f, unlimited);
    ASSERT_TRUE(answer.has_value());
    ASSERT_EQ(*answer, store.precedes(e, f));
  }
  // A budget that is already exhausted cannot produce an answer.
  QueryCost spent;
  spent.budget = 1;
  ASSERT_TRUE(spent.charge(1));
  ASSERT_FALSE(store.precedes_metered(events[0], events[1], spent).has_value());
}

}  // namespace
}  // namespace ct
