// Tests for the performance layer (docs/PERF.md).
//
// The layer's contract is "faster, never different": every acceleration —
// the arena store, store-time probe resolution, the precedence cursor,
// the heap-accelerated greedy clustering, the word-parallel kernels, the
// delta codecs — must be observationally identical to the code it replaces.
// These tests pin that down: fast implementations and slow references are
// run side by side on the same inputs and compared answer-for-answer (and,
// where cost metering is part of the observable surface, tick-for-tick).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "cluster/comm_matrix.hpp"
#include "cluster/static_greedy.hpp"
#include "core/compact_store.hpp"
#include "core/engine.hpp"
#include "core/precedence_kernels.hpp"
#include "model/trace_builder.hpp"
#include "timestamp/fm_store.hpp"
#include "timestamp/query_cost.hpp"
#include "timestamp/ts_arena.hpp"
#include "trace/generators.hpp"
#include "util/check.hpp"
#include "util/varint.hpp"

namespace ct {
namespace {

// Same family spread as core_test's oracle property: ring, scatter-gather,
// web server, RPC business, uniform random, locality random, pub/sub, RPC
// chain — every structural shape the generators produce.
Trace family_trace(int which) {
  switch (which) {
    case 0:
      return generate_ring({.processes = 10, .iterations = 9, .seed = 742});
    case 1:
      return generate_scatter_gather(
          {.processes = 9, .rounds = 7, .seed = 743});
    case 2:
      return generate_web_server({.clients = 12,
                                  .servers = 3,
                                  .backends = 2,
                                  .requests = 55,
                                  .seed = 744});
    case 3:
      return generate_rpc_business({.groups = 3,
                                    .clients_per_group = 3,
                                    .servers_per_group = 2,
                                    .calls = 60,
                                    .seed = 745});
    case 4:
      return generate_uniform_random(
          {.processes = 12, .messages = 110, .seed = 746});
    case 5:
      return generate_locality_random({.processes = 18,
                                       .group_size = 6,
                                       .messages = 130,
                                       .seed = 747});
    case 6:
      return generate_pubsub({.publishers = 4,
                              .brokers = 2,
                              .subscribers = 8,
                              .topics = 4,
                              .subscribers_per_topic = 3,
                              .messages = 35,
                              .seed = 748});
    case 7:
      return generate_rpc_chain(
          {.services = 9, .chain_length = 4, .requests = 22, .seed = 749});
    default:
      CT_CHECK(false);
      return {};
  }
}

ClusterEngineConfig engine_config(std::size_t max_cs) {
  ClusterEngineConfig config;
  config.max_cluster_size = max_cs;
  config.fm_vector_width = 300;
  return config;
}

/// Test-side reference for the engine's precedence test: the per-query
/// binary search a store of per-event vectors needs, written over the
/// public timestamp() values. For a process outside covered(f) it searches
/// each covered process's cluster receives for the greatest one at or below
/// f's bound — what the engine resolves once, at store time — and counts
/// one tick per component comparison, exactly what precedes_metered must
/// charge.
class ReferencePrecedence {
 public:
  ReferencePrecedence(const ClusterTimestampEngine& engine,
                      const Trace& trace)
      : ts_(trace.process_count()), receives_(trace.process_count()) {
    for (ProcessId p = 0; p < trace.process_count(); ++p) {
      for (EventIndex i = 1; i <= trace.process_size(p); ++i) {
        ts_[p].push_back(engine.timestamp(EventId{p, i}));
        if (ts_[p].back().cluster_receive) receives_[p].push_back(i);
      }
    }
  }

  /// e → f; adds the comparisons made to `ticks`.
  bool precedes(const Event& ev_e, const Event& ev_f,
                std::uint64_t& ticks) const {
    const EventId e = ev_e.id;
    const EventId f = ev_f.id;
    if (e == f) return false;
    if (ev_e.kind == EventKind::kSync && ev_e.partner == f) return false;
    const ClusterTimestamp& tf = ts_[f.process][f.index - 1];
    ++ticks;  // the direct test
    if (const auto comp = tf.component(e.process)) return e.index <= *comp;
    const auto& covered = *tf.covered;
    for (std::size_t i = 0; i < covered.size(); ++i) {
      const auto& receives = receives_[covered[i]];
      const auto it =
          std::upper_bound(receives.begin(), receives.end(), tf.values[i]);
      if (it == receives.begin()) continue;  // no cluster receive seen yet
      ++ticks;  // one probe
      const ClusterTimestamp& tr = ts_[covered[i]][*(it - 1) - 1];
      if (e.index <= tr.values[e.process]) return true;
    }
    return false;
  }

  bool precedes(const Event& ev_e, const Event& ev_f) const {
    std::uint64_t ticks = 0;
    return precedes(ev_e, ev_f, ticks);
  }

 private:
  std::vector<std::vector<ClusterTimestamp>> ts_;  ///< [process][index-1]
  std::vector<std::vector<EventIndex>> receives_;  ///< ascending, per process
};

/// All-pairs: plain answers, metered answers and metered TICKS equal the
/// reference's. The tick identity is the strongest form of "same
/// algorithm": the store-time probes must charge exactly what the
/// per-query search would. With `truth`, the answers must also be
/// Fidge/Mattern's.
void expect_engine_matches_reference(const Trace& trace,
                                     const ClusterTimestampEngine& engine,
                                     const FmStore* truth,
                                     const std::string& label) {
  const ReferencePrecedence reference(engine, trace);
  for (const EventId e : trace.delivery_order()) {
    for (const EventId f : trace.delivery_order()) {
      const Event& ev_e = trace.event(e);
      const Event& ev_f = trace.event(f);
      std::uint64_t want_ticks = 0;
      const bool want = reference.precedes(ev_e, ev_f, want_ticks);
      if (truth != nullptr) {
        ASSERT_EQ(want, truth->precedes(e, f))
            << label << ": reference disagrees with FM e=" << e << " f=" << f;
      }
      ASSERT_EQ(engine.precedes(ev_e, ev_f), want)
          << label << ": precedes mismatch e=" << e << " f=" << f;

      QueryCost cost;
      const auto got = engine.precedes_metered(ev_e, ev_f, cost);
      ASSERT_TRUE(got.has_value()) << label << " e=" << e;
      ASSERT_EQ(*got, want) << label << ": metered mismatch e=" << e
                            << " f=" << f;
      ASSERT_EQ(cost.ticks, want_ticks)
          << label << ": tick mismatch e=" << e << " f=" << f;
    }
  }
}

class ArenaEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(ArenaEquivalence, AnswersAndTicksMatchLegacyAllPairs) {
  const Trace trace = family_trace(GetParam());
  const FmStore truth(trace);

  for (const std::size_t max_cs :
       {std::size_t{2}, std::size_t{5}, std::size_t{13}}) {
    ClusterTimestampEngine engine(trace.process_count(), engine_config(max_cs),
                                  make_merge_on_nth(2.0));
    engine.observe_trace(trace);
    EXPECT_GT(engine.arena_words(), 0u);
    expect_engine_matches_reference(
        trace, engine, &truth,
        trace.name() + " maxCS=" + std::to_string(max_cs));
  }
}

TEST_P(ArenaEquivalence, CursorMatchesLegacyBothDirections) {
  const Trace trace = family_trace(GetParam());
  ClusterTimestampEngine engine(trace.process_count(), engine_config(5),
                                make_merge_on_nth(2.0));
  engine.observe_trace(trace);
  const ReferencePrecedence reference(engine, trace);

  // Every event as anchor would be quadratic twice over; a stride keeps it
  // fast while still hitting full rows, projections, and sync halves.
  const auto& order = trace.delivery_order();
  for (std::size_t i = 0; i < order.size(); i += 7) {
    const Event& anchor = trace.event(order[i]);
    const auto cur = engine.cursor(anchor);
    for (const EventId x : order) {
      const Event& ev_x = trace.event(x);
      ASSERT_EQ(cur.anchor_precedes(ev_x), reference.precedes(anchor, ev_x))
          << trace.name() << ": anchor=" << order[i] << " x=" << x;
      ASSERT_EQ(cur.precedes_anchor(ev_x), reference.precedes(ev_x, anchor))
          << trace.name() << ": x=" << x << " anchor=" << order[i];
    }
  }
}

// The batch-transpose fast path (unlimited budget) must match sequential
// precedes_metered calls answer-for-answer AND tick-for-tick; a budgeted
// batch must take the sequential oracle path and stop at exactly the pair
// where a running sequential meter would.
TEST_P(ArenaEquivalence, BatchedPrecedenceMatchesSequentialAnswersAndTicks) {
  const Trace trace = family_trace(GetParam());
  ClusterTimestampEngine arena(trace.process_count(), engine_config(5),
                               make_merge_on_nth(2.0));
  arena.observe_trace(trace);

  const auto& order = trace.delivery_order();
  std::vector<std::pair<const Event*, const Event*>> pairs;
  for (std::size_t i = 0; i < order.size(); i += 3) {
    for (std::size_t j = 0; j < order.size(); j += 5) {
      pairs.emplace_back(&trace.event(order[i]), &trace.event(order[j]));
    }
  }

  QueryCost batch_cost;
  std::vector<std::optional<bool>> got(pairs.size());
  ASSERT_EQ(arena.precedes_batch_metered(pairs, batch_cost, got.data()),
            pairs.size());

  QueryCost seq_cost;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const auto want =
        arena.precedes_metered(*pairs[i].first, *pairs[i].second, seq_cost);
    ASSERT_TRUE(want.has_value());
    ASSERT_EQ(got[i], want) << trace.name() << " pair " << i;
  }
  EXPECT_EQ(batch_cost.ticks, seq_cost.ticks) << trace.name();

  // Budget-limited run: same prefix of answers, short count at the same
  // pair, untouched slots beyond it.
  QueryCost limited{.ticks = 0, .budget = seq_cost.ticks / 2 + 1};
  std::vector<std::optional<bool>> partial(pairs.size());
  const std::size_t answered =
      arena.precedes_batch_metered(pairs, limited, partial.data());
  ASSERT_LE(answered, pairs.size());

  QueryCost replay{.ticks = 0, .budget = limited.budget};
  for (std::size_t i = 0; i < answered; ++i) {
    const auto want =
        arena.precedes_metered(*pairs[i].first, *pairs[i].second, replay);
    ASSERT_TRUE(want.has_value()) << trace.name() << " pair " << i;
    ASSERT_EQ(partial[i], want) << trace.name() << " pair " << i;
  }
  if (answered < pairs.size()) {
    EXPECT_FALSE(arena
                     .precedes_metered(*pairs[answered].first,
                                       *pairs[answered].second, replay)
                     .has_value())
        << trace.name() << ": batch stopped early at pair " << answered;
    for (std::size_t i = answered; i < pairs.size(); ++i) {
      ASSERT_FALSE(partial[i].has_value())
          << trace.name() << ": slot " << i << " past the expiry was written";
    }
  }
  EXPECT_EQ(limited.ticks, replay.ticks) << trace.name();
}

// The cursor's batched one-sided entry points must agree with its scalar
// calls for every event, both directions, across full rows, projections,
// and sync halves.
TEST_P(ArenaEquivalence, CursorBatchMatchesScalarCursorCalls) {
  const Trace trace = family_trace(GetParam());
  ClusterTimestampEngine arena(trace.process_count(), engine_config(5),
                               make_merge_on_nth(2.0));
  arena.observe_trace(trace);

  const auto& order = trace.delivery_order();
  std::vector<const Event*> xs;
  xs.reserve(order.size());
  for (const EventId x : order) xs.push_back(&trace.event(x));

  for (std::size_t i = 0; i < order.size(); i += 9) {
    const auto cur = arena.cursor(trace.event(order[i]));
    std::vector<std::uint8_t> fwd(xs.size(), 0xcc), bwd(xs.size(), 0xcc);
    cur.anchor_precedes_batch(xs, fwd.data());
    cur.precedes_anchor_batch(xs, bwd.data());
    for (std::size_t k = 0; k < xs.size(); ++k) {
      ASSERT_EQ(fwd[k] != 0, cur.anchor_precedes(*xs[k]))
          << trace.name() << " anchor=" << order[i] << " k=" << k;
      ASSERT_EQ(bwd[k] != 0, cur.precedes_anchor(*xs[k]))
          << trace.name() << " anchor=" << order[i] << " k=" << k;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Families, ArenaEquivalence, ::testing::Range(0, 8));

// The precomputed probes must track in-place mutations: corruption changes
// the projection bounds a per-query search would follow, and a rebuild
// restores them. After each hook the engine must still agree with the
// reference (re-materialized from the mutated store) on every pair — this
// is the refresh_probes() contract.
TEST(ArenaEquivalence, CorruptionAndRebuildKeepEnginesIdentical) {
  const Trace trace = generate_locality_random(
      {.processes = 12, .group_size = 4, .messages = 150, .seed = 750});
  const std::size_t n = trace.process_count();

  ClusterTimestampEngine engine(n, engine_config(4), make_merge_on_nth(1.0));
  ClusterTimestampEngine untouched(n, engine_config(4),
                                   make_merge_on_nth(1.0));
  engine.observe_trace(trace);
  untouched.observe_trace(trace);

  // Corrupt a spread of stored rows (the corruption model: the store took
  // bit flips; queries must read them exactly as stored).
  const auto& order = trace.delivery_order();
  std::mt19937 rng(751);
  for (std::size_t i = 0; i < order.size(); i += 11) {
    const std::size_t slot = rng() % 8;
    const EventIndex value = rng() % 64;
    engine.inject_corruption(order[i], slot, value);
  }
  expect_engine_matches_reference(trace, engine, nullptr, "post-corruption");

  // Repair every cluster: the engine must converge back to the digests of
  // an untouched replay and to Fidge/Mattern's answers.
  const auto event_of = [&trace](EventId id) -> const Event& {
    return trace.event(id);
  };
  for (const ClusterId c : engine.clusters().clusters()) {
    engine.rebuild_cluster(c, order, event_of);
    EXPECT_EQ(engine.cluster_digest(c), untouched.cluster_digest(c));
  }
  const FmStore truth(trace);
  expect_engine_matches_reference(trace, engine, &truth, "post-rebuild");
}

// ---------------------------------------------------------- greedy clustering

class GreedyHeapEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(GreedyHeapEquivalence, PartitionByteIdenticalToReference) {
  const Trace trace = family_trace(GetParam());
  const CommMatrix comm(trace);

  for (const std::size_t max_cs :
       {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{5},
        std::size_t{13}, std::size_t{64}}) {
    for (const bool normalize : {true, false}) {
      const StaticGreedyOptions options{.max_cluster_size = max_cs,
                                        .normalize = normalize};
      const auto heap = static_greedy_clusters(comm, options);
      const auto ref = static_greedy_clusters_reference(comm, options);
      // operator== on nested vectors is the byte-identical check: same
      // clusters, same member order, same tie-break choices.
      ASSERT_EQ(heap, ref) << trace.name() << " maxCS=" << max_cs
                           << " normalize=" << normalize;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Families, GreedyHeapEquivalence,
                         ::testing::Range(0, 8));

// ------------------------------------------------------------------- kernels

constexpr EventIndex kEdgeValues[] = {
    0u, 1u, 0x7fff'ffffu, 0x8000'0000u, 0xffff'fffeu,
    std::numeric_limits<EventIndex>::max()};

TEST(Kernels, AllLeqMatchesReferenceOnEdgeValues) {
  // Exhaustive over edge-value pairs at length 1 and 2 (both lanes of one
  // word) — the SWAR lane comparison must be exact over the FULL unsigned
  // range, including the sign-bit boundary 2^31.
  for (const EventIndex a0 : kEdgeValues) {
    for (const EventIndex b0 : kEdgeValues) {
      const bool want1 = a0 <= b0;
      EXPECT_EQ(kernels::all_leq(&a0, &b0, 1), want1) << a0 << " " << b0;
      for (const EventIndex a1 : kEdgeValues) {
        for (const EventIndex b1 : kEdgeValues) {
          const EventIndex a[2] = {a0, a1};
          const EventIndex b[2] = {b0, b1};
          const bool want = kernels::reference::all_leq(a, b, 2);
          EXPECT_EQ(kernels::all_leq(a, b, 2), want)
              << a0 << "," << a1 << " vs " << b0 << "," << b1;
          EXPECT_EQ(kernels::any_gt(a, b, 2), !want);
        }
      }
    }
  }
}

TEST(Kernels, AllLeqAndMaxIntoMatchReferenceAtWordBoundaries) {
  std::mt19937 rng(752);
  // Mix small values (the common case) with edge values at random slots.
  const auto fill = [&rng](std::vector<EventIndex>& v) {
    for (auto& x : v) {
      x = (rng() % 4 == 0) ? kEdgeValues[rng() % std::size(kEdgeValues)]
                           : static_cast<EventIndex>(rng() % 1000);
    }
  };
  // Lengths around every word boundary: 0, 1 (tail only), 2 (one word),
  // 3 (word + tail), ... up to several words.
  for (std::size_t n = 0; n <= 17; ++n) {
    for (int rep = 0; rep < 200; ++rep) {
      std::vector<EventIndex> a(n), b(n);
      fill(a);
      fill(b);
      // Bias towards near-equal vectors so all_leq exercises both outcomes.
      if (rep % 2 == 0) b = a;
      if (rep % 4 == 0 && n > 0) {
        b[rng() % n] += static_cast<EventIndex>(rng() % 3);
      }

      ASSERT_EQ(kernels::all_leq(a.data(), b.data(), n),
                kernels::reference::all_leq(a.data(), b.data(), n))
          << "n=" << n << " rep=" << rep;

      std::vector<EventIndex> got = a, want = a;
      kernels::max_into(got.data(), b.data(), n);
      kernels::reference::max_into(want.data(), b.data(), n);
      ASSERT_EQ(got, want) << "n=" << n << " rep=" << rep;
    }
  }
}

TEST(Kernels, CountLeqMatchesUpperBound) {
  std::mt19937 rng(753);
  for (std::size_t n = 0; n <= 33; ++n) {
    for (int rep = 0; rep < 50; ++rep) {
      std::vector<EventIndex> v(n);
      for (auto& x : v) x = static_cast<EventIndex>(rng() % 40);
      std::sort(v.begin(), v.end());
      for (const EventIndex bound :
           {EventIndex{0}, EventIndex{1}, EventIndex{20}, EventIndex{39},
            EventIndex{40}, std::numeric_limits<EventIndex>::max()}) {
        const auto want = static_cast<std::size_t>(
            std::upper_bound(v.begin(), v.end(), bound) - v.begin());
        ASSERT_EQ(kernels::count_leq(v.data(), n, bound), want)
            << "n=" << n << " bound=" << bound;
      }
    }
  }
}

TEST(Kernels, ComponentLeqBoundsChecks) {
  const EventIndex row[3] = {5, 0, std::numeric_limits<EventIndex>::max()};
  EXPECT_TRUE(kernels::component_leq(5, row, 3, 0));
  EXPECT_FALSE(kernels::component_leq(6, row, 3, 0));
  EXPECT_TRUE(kernels::component_leq(0, row, 3, 1));
  EXPECT_FALSE(kernels::component_leq(1, row, 3, 1));
  EXPECT_TRUE(kernels::component_leq(std::numeric_limits<EventIndex>::max(),
                                     row, 3, 2));
  // Out-of-range slot is "not covered", never a read.
  EXPECT_FALSE(kernels::component_leq(0, row, 3, 3));
  EXPECT_FALSE(kernels::component_leq(0, row, 0, 0));
}

TEST(Kernels, BatchedVariantsMatchScalarLoops) {
  std::mt19937 rng(754);
  const std::size_t width = 11;
  std::vector<std::vector<EventIndex>> storage;
  for (int i = 0; i < 37; ++i) {
    std::vector<EventIndex> row(width);
    for (auto& x : row) {
      x = (rng() % 5 == 0) ? kEdgeValues[rng() % std::size(kEdgeValues)]
                           : static_cast<EventIndex>(rng() % 100);
    }
    storage.push_back(std::move(row));
  }
  std::vector<const EventIndex*> rows;
  for (const auto& r : storage) rows.push_back(r.data());

  std::vector<EventIndex> query(width);
  for (auto& x : query) x = static_cast<EventIndex>(rng() % 100);

  for (const EventIndex bound :
       {EventIndex{0}, EventIndex{50}, EventIndex{0x8000'0000u},
        std::numeric_limits<EventIndex>::max()}) {
    for (const std::size_t slot : {std::size_t{0}, std::size_t{7}}) {
      std::vector<std::uint8_t> got(rows.size(), 0xcc);
      kernels::batch_component_leq(bound, slot, rows.data(), rows.size(),
                                   got.data());
      for (std::size_t i = 0; i < rows.size(); ++i) {
        const std::uint8_t want =
            kernels::component_leq(bound, rows[i], width, slot) ? 1 : 0;
        ASSERT_EQ(got[i], want) << "bound=" << bound << " i=" << i;
      }
    }
  }

  std::vector<std::uint8_t> got(rows.size(), 0xcc);
  kernels::batch_all_leq(query.data(), width, rows.data(), rows.size(),
                         got.data());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const std::uint8_t want =
        kernels::reference::all_leq(query.data(), rows[i], width) ? 1 : 0;
    ASSERT_EQ(got[i], want) << i;
  }
}

// ---------------------------------------------------------- dispatch tiers

constexpr kernels::KernelTier kAllTiers[] = {
    kernels::KernelTier::kScalar, kernels::KernelTier::kSwar,
    kernels::KernelTier::kAvx2, kernels::KernelTier::kAvx512};

// Every tier this CPU can run must be byte-identical to the scalar reference
// on the edge corpus, at every length straddling the 2-/8-/16-lane
// boundaries (0..40 covers tails, exact multiples, and a full unrolled
// vector of each tier), and from unaligned bases (+1-element offsets break
// the 32-/64-byte alignment the wide loads must not assume).
TEST(Kernels, EveryAvailableTierMatchesScalarReference) {
  std::mt19937 rng(755);
  const auto fill = [&rng](EventIndex* p, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      p[i] = (rng() % 3 == 0) ? kEdgeValues[rng() % std::size(kEdgeValues)]
                              : static_cast<EventIndex>(rng() % 1000);
    }
  };

  for (const kernels::KernelTier tier : kAllTiers) {
    if (!kernels::tier_supported(tier)) continue;
    const kernels::KernelOps& ops = kernels::ops_for_tier(tier);
    const char* name = kernels::to_string(tier);

    for (std::size_t n = 0; n <= 40; ++n) {
      for (const std::size_t offset : {std::size_t{0}, std::size_t{1}}) {
        for (int rep = 0; rep < 8; ++rep) {
          std::vector<EventIndex> abuf(n + 1, 0), bbuf(n + 1, 0);
          EventIndex* a = abuf.data() + offset;
          EventIndex* b = bbuf.data() + offset;
          fill(a, n);
          fill(b, n);
          // Bias towards near-dominance so both all_leq outcomes and every
          // batch_leq flag pattern appear.
          if (rep % 2 == 0) std::copy(a, a + n, b);
          if (rep % 4 == 0 && n > 0) {
            b[rng() % n] += static_cast<EventIndex>(rng() % 3);
          }

          ASSERT_EQ(ops.all_leq(a, b, n),
                    kernels::reference::all_leq(a, b, n))
              << name << " n=" << n << " off=" << offset << " rep=" << rep;

          std::vector<EventIndex> got_max(a, a + n), want_max(a, a + n);
          ops.max_into(got_max.data(), b, n);
          kernels::reference::max_into(want_max.data(), b, n);
          ASSERT_EQ(got_max, want_max)
              << name << " n=" << n << " off=" << offset << " rep=" << rep;

          std::vector<std::uint8_t> got_flags(n + 1, 0xcc);
          std::vector<std::uint8_t> want_flags(n + 1, 0xcc);
          ops.batch_leq(a, b, n, got_flags.data());
          kernels::reference::batch_leq(a, b, n, want_flags.data());
          ASSERT_EQ(got_flags, want_flags)
              << name << " n=" << n << " off=" << offset << " rep=" << rep;
        }
      }
    }

    // Row-batch entry points: unaligned row bases, counts straddling every
    // chunk/lane boundary of the gather loops (kChunk = 64 in the wide
    // tiers).
    const std::size_t width = 13;
    std::vector<std::vector<EventIndex>> storage;
    for (int i = 0; i < 70; ++i) {
      std::vector<EventIndex> buf(width + 1, 0);
      fill(buf.data() + 1, width);
      storage.push_back(std::move(buf));
    }
    std::vector<const EventIndex*> rows;
    for (const auto& r : storage) rows.push_back(r.data() + 1);
    std::vector<EventIndex> qbuf(width + 1, 0);
    fill(qbuf.data() + 1, width);
    const EventIndex* query = qbuf.data() + 1;

    for (const std::size_t count :
         {std::size_t{0}, std::size_t{1}, std::size_t{7}, std::size_t{8},
          std::size_t{9}, std::size_t{15}, std::size_t{16}, std::size_t{17},
          std::size_t{63}, std::size_t{64}, std::size_t{65},
          std::size_t{70}}) {
      ASSERT_LE(count, rows.size());
      for (const EventIndex bound :
           {EventIndex{0}, EventIndex{500}, EventIndex{0x8000'0000u},
            std::numeric_limits<EventIndex>::max()}) {
        std::vector<std::uint8_t> got(count + 1, 0xcc);
        ops.batch_component_leq(bound, 7, rows.data(), count, got.data());
        for (std::size_t i = 0; i < count; ++i) {
          const std::uint8_t want = bound <= rows[i][7] ? 1 : 0;
          ASSERT_EQ(got[i], want)
              << name << " count=" << count << " bound=" << bound
              << " i=" << i;
        }
        ASSERT_EQ(got[count], 0xcc) << name << " overwrote past count";
      }

      std::vector<std::uint8_t> got(count + 1, 0xcc);
      ops.batch_all_leq(query, width, rows.data(), count, got.data());
      for (std::size_t i = 0; i < count; ++i) {
        const std::uint8_t want =
            kernels::reference::all_leq(query, rows[i], width) ? 1 : 0;
        ASSERT_EQ(got[i], want) << name << " count=" << count << " i=" << i;
      }
      ASSERT_EQ(got[count], 0xcc) << name << " overwrote past count";
    }
  }
}

TEST(Kernels, TierNamesParseAndRoundTrip) {
  for (const kernels::KernelTier tier : kAllTiers) {
    kernels::KernelTier parsed;
    ASSERT_TRUE(kernels::parse_kernel_tier(kernels::to_string(tier), &parsed))
        << kernels::to_string(tier);
    EXPECT_EQ(parsed, tier);
  }
  kernels::KernelTier parsed;
  EXPECT_FALSE(kernels::parse_kernel_tier("", &parsed));
  EXPECT_FALSE(kernels::parse_kernel_tier("sse2", &parsed));
  EXPECT_FALSE(kernels::parse_kernel_tier("AVX2", &parsed));
}

// set_kernel_tier (the programmatic face of CT_KERNEL_TIER) must clamp to
// the widest supported tier, report the tier actually activated, and route
// the PUBLIC dispatch wrappers through that tier's table.
TEST(Kernels, TierSelectionClampsAndRedispatches) {
  const kernels::KernelTier prev = kernels::active_tier();
  const kernels::KernelTier widest = kernels::widest_supported_tier();
  EXPECT_GE(widest, kernels::KernelTier::kSwar);

  for (const kernels::KernelTier tier : kAllTiers) {
    const kernels::KernelTier got = kernels::set_kernel_tier(tier);
    EXPECT_EQ(got, std::min(tier, widest)) << kernels::to_string(tier);
    EXPECT_EQ(kernels::active_tier(), got);

    // The wrappers must now serve answers through the selected table.
    const EventIndex a[17] = {1, 2, 3, 4, 5, 6, 7, 8, 9,
                              10, 11, 12, 13, 14, 15, 16, 17};
    EventIndex b[17];
    std::copy(std::begin(a), std::end(a), std::begin(b));
    EXPECT_TRUE(kernels::all_leq(a, b, 17));
    b[13] = 0;
    EXPECT_FALSE(kernels::all_leq(a, b, 17));
    kernels::max_into(b, a, 17);
    EXPECT_TRUE(std::equal(std::begin(a), std::end(a), std::begin(b)));
  }
  EXPECT_EQ(kernels::set_kernel_tier(prev), prev);
}

// The n == 0 contract of count_leq is explicit (the descent arithmetic
// happening to yield 0 is not a contract): no reads, result 0.
TEST(Kernels, CountLeqEmptyRowIsZero) {
  EXPECT_EQ(kernels::count_leq(nullptr, 0, 0), 0u);
  EXPECT_EQ(kernels::count_leq(nullptr, 0,
                               std::numeric_limits<EventIndex>::max()),
            0u);
}

// -------------------------------------------------------------------- codecs

TEST(Varint, RoundTripsEdgeValues) {
  const std::uint64_t values[] = {
      0u,
      1u,
      0x7fu,           // 1-byte max
      0x80u,           // first 2-byte value
      0x3fffu,         // 2-byte max
      0x4000u,
      0x7fff'ffffu,    // 2^31 - 1
      0x8000'0000u,    // 2^31
      0xffff'ffffu,    // 2^32 - 1 (EventIndex max — the codec's hot range)
      0x1'0000'0000u,  // 2^32
      0x7fff'ffff'ffff'ffffu,
      0x8000'0000'0000'0000u,
      std::numeric_limits<std::uint64_t>::max()};
  std::string buf;
  for (const std::uint64_t v : values) put_varint(buf, v);
  std::size_t pos = 0;
  for (const std::uint64_t v : values) {
    ASSERT_EQ(get_varint(buf, pos), v);
  }
  EXPECT_EQ(pos, buf.size());
}

TEST(TsArena, InterningDedupsIdenticalRows) {
  TsArena arena(2, {.intern = true});
  const EventIndex row[3] = {1, 2, 3};
  const EventIndex other[3] = {1, 2, 4};
  const auto h0 = arena.append(ProcessId{0}, row, 3);
  const auto h1 = arena.append(ProcessId{1}, row, 3);  // dedup hit
  const auto h2 = arena.append(ProcessId{0}, other, 3);
  EXPECT_NE(h0, h1);  // handles stay distinct
  EXPECT_EQ(arena.offset_of(h0), arena.offset_of(h1));  // storage shared
  EXPECT_NE(arena.offset_of(h0), arena.offset_of(h2));
  EXPECT_EQ(arena.interned_hits(), 1u);
  EXPECT_EQ(arena.pool_words(), 6u);  // 2 unique rows, not 3
  EXPECT_EQ(arena.values(h1).size(), 3u);
  EXPECT_EQ(arena.component(h1, 2), 3u);
}

TEST(TsArena, ColdCodecRoundTripsWithCheckpointsAndEdgeValues) {
  // Rows of one process: componentwise monotone runs (the delta fast path),
  // a width change (forces a full record), a non-monotone step (forces a
  // full record), and edge values up to 2^32-1.
  TsArena arena(1, {.intern = false, .checkpoint_every = 4});
  std::vector<std::vector<EventIndex>> rows;
  std::vector<EventIndex> cur = {0, 0, 0};
  for (int i = 0; i < 11; ++i) {
    cur[static_cast<std::size_t>(i) % 3] += static_cast<EventIndex>(i);
    rows.push_back(cur);
  }
  rows.push_back({7, 8});                        // width change
  rows.push_back({9, 10});                       // delta again
  rows.push_back({3, 10});                       // negative step → full
  rows.push_back({3, std::numeric_limits<EventIndex>::max()});
  rows.push_back({3, std::numeric_limits<EventIndex>::max()});  // zero delta
  for (const auto& r : rows) arena.append(ProcessId{0}, r);

  const TsArena::ColdRows cold = arena.encode_cold(ProcessId{0});
  EXPECT_EQ(cold.count, rows.size());
  EXPECT_GE(cold.checkpoints.size(), rows.size() / 4);  // every 4th at least

  // Decode in a scattered order — random access must not depend on decode
  // history.
  std::vector<std::size_t> order(rows.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::shuffle(order.begin(), order.end(), std::mt19937(755));
  std::vector<EventIndex> out;
  for (const std::size_t i : order) {
    TsArena::decode_cold(cold, i, out);
    ASSERT_EQ(out, rows[i]) << "row " << i;
  }
}

TEST(CompactStore, DeltaModeDecodesIdenticalToAbsolute) {
  const Trace trace = generate_web_server({.clients = 10,
                                           .servers = 3,
                                           .backends = 2,
                                           .requests = 80,
                                           .seed = 756});
  ClusterTimestampEngine engine(trace.process_count(), engine_config(5),
                                make_merge_on_nth(1.0));
  engine.observe_trace(trace);

  CompactTimestampStore absolute(trace.process_count());
  CompactTimestampStore delta(trace.process_count(),
                              {.delta = true, .checkpoint_every = 8});
  for (const EventId id : trace.delivery_order()) {
    absolute.append(id, engine.timestamp(id));
    delta.append(id, engine.timestamp(id));
  }
  for (const EventId id : trace.delivery_order()) {
    const ClusterTimestamp a = absolute.decode(id);
    const ClusterTimestamp d = delta.decode(id);
    ASSERT_EQ(a.values, d.values) << id;
    ASSERT_EQ(a.is_full(), d.is_full()) << id;
    if (!a.is_full()) {
      ASSERT_EQ(*a.covered, *d.covered) << id;
    }
    ASSERT_EQ(a.values, engine.timestamp(id).values) << id;
  }
}

}  // namespace
}  // namespace ct
