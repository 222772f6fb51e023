// Tests for the performance layer (docs/PERF.md).
//
// The layer's contract is "faster, never different": every acceleration —
// the arena store, store-time probe resolution, the precedence cursor,
// the heap-accelerated greedy clustering, the AVX2 join — must be
// observationally identical to the code it replaces.
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

#include "cluster/cluster_set.hpp"
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
#include "util/flat_matrix.hpp"
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

/// The paper-shaped O(N^3) all-pairs rescan of Figure 3: the executable
/// specification static_greedy_clusters() must match byte for byte (same
/// clusters, same tie-break choices). Ties resolve to the lexicographically
/// smallest cluster-id pair.
std::vector<std::vector<ProcessId>> static_greedy_clusters_reference(
    const CommMatrix& comm, const StaticGreedyOptions& options) {
  const std::size_t n = comm.process_count();
  ClusterSet clusters(n);
  // Cached inter-cluster occurrence counts, indexed by cluster root; folded
  // on merge so the pairwise scan stays O(1) per pair.
  FlatMatrix<std::uint64_t> cr(n, n, 0);
  for (ProcessId p = 0; p < n; ++p) {
    for (ProcessId q = 0; q < n; ++q) {
      if (p != q) cr(p, q) = comm.occurrences(p, q);
    }
  }

  std::vector<ClusterId> active = clusters.clusters();
  for (;;) {
    // Lines 2-14: the mergeable pair with the highest (normalized) count.
    double best = 0.0;
    ClusterId best_a = 0, best_b = 0;
    bool found = false;
    for (std::size_t i = 0; i < active.size(); ++i) {
      const ClusterId ci = active[i];
      const std::size_t size_i = clusters.size(ci);
      for (std::size_t j = i + 1; j < active.size(); ++j) {
        const ClusterId cj = active[j];
        const std::size_t combined = size_i + clusters.size(cj);
        if (combined > options.max_cluster_size) continue;  // line 7
        const std::uint64_t count = cr(ci, cj);
        if (count == 0) continue;
        const double score =
            options.normalize ? static_cast<double>(count) /
                                    static_cast<double>(combined)
                              : static_cast<double>(count);
        if (score > best) {
          best = score;
          best_a = ci;
          best_b = cj;
          found = true;
        }
      }
    }
    if (!found) break;  // line 19: CRMax == 0

    // Lines 15-18: replace the pair with its union; fold the cached counts.
    const ClusterId survivor = clusters.merge(best_a, best_b);
    const ClusterId gone = survivor == best_a ? best_b : best_a;
    for (const ClusterId other : active) {
      if (other == best_a || other == best_b) continue;
      cr(survivor, other) = cr(best_a, other) + cr(best_b, other);
      cr(other, survivor) = cr(survivor, other);
    }
    std::erase(active, gone);
  }

  std::vector<std::vector<ProcessId>> out;
  out.reserve(active.size());
  std::sort(active.begin(), active.end());
  for (const ClusterId c : active) out.push_back(*clusters.members(c));
  return out;
}

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

TEST(Kernels, MaxIntoMatchesReferenceAtWordBoundaries) {
  std::mt19937 rng(752);
  // Mix small values (the common case) with edge values at random slots.
  const auto fill = [&rng](std::vector<EventIndex>& v) {
    for (auto& x : v) {
      x = (rng() % 4 == 0) ? kEdgeValues[rng() % std::size(kEdgeValues)]
                           : static_cast<EventIndex>(rng() % 1000);
    }
  };
  // Lengths around the 8-lane boundary of the AVX2 body behind max_into:
  // 0, tail only, one vector, vector + tail, up to two vectors.
  for (std::size_t n = 0; n <= 17; ++n) {
    for (int rep = 0; rep < 200; ++rep) {
      std::vector<EventIndex> a(n), b(n);
      fill(a);
      fill(b);
      // Bias towards near-equal vectors so ties and single-slot wins occur.
      if (rep % 2 == 0) b = a;
      if (rep % 4 == 0 && n > 0) {
        b[rng() % n] += static_cast<EventIndex>(rng() % 3);
      }

      std::vector<EventIndex> got = a, want = a;
      kernels::max_into(got.data(), b.data(), n);
      kernels::scalar::max_into(want.data(), b.data(), n);
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

// -------------------------------------------------------------- AVX2 body

// The AVX2 max_into must be byte-identical to its scalar loop on the edge
// corpus, at every length from 0 to 40 (tails, exact multiples of the 8
// lanes, and several full vectors), and from unaligned bases (+1-element
// offsets break the 32-byte alignment the wide loads must not assume).
// The output buffer carries a guard element past n: the body must never
// write there.
TEST(Kernels, EveryAvailableTierMatchesScalarReference) {
#if defined(CT_KERNELS_X86)
  if (kernels::active_tier() != kernels::KernelTier::kAvx2) {
    GTEST_SKIP() << "no AVX2 on this CPU";
  }
  std::mt19937 rng(755);
  const auto fill = [&rng](EventIndex* p, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      p[i] = (rng() % 3 == 0) ? kEdgeValues[rng() % std::size(kEdgeValues)]
                              : static_cast<EventIndex>(rng() % 1000);
    }
  };

  for (std::size_t n = 0; n <= 40; ++n) {
    for (const std::size_t offset : {std::size_t{0}, std::size_t{1}}) {
      for (int rep = 0; rep < 8; ++rep) {
        std::vector<EventIndex> abuf(n + 2, 0), bbuf(n + 2, 0);
        EventIndex* a = abuf.data() + offset;
        EventIndex* b = bbuf.data() + offset;
        fill(a, n + 1);
        fill(b, n + 1);
        // Bias towards near-equal vectors so both operands win lanes.
        if (rep % 2 == 0) std::copy(a, a + n, b);
        if (rep % 4 == 0 && n > 0) {
          b[rng() % n] += static_cast<EventIndex>(rng() % 3);
        }

        std::vector<EventIndex> got(abuf), want(abuf);
        kernels::avx2::max_into(got.data() + offset, b, n);
        kernels::scalar::max_into(want.data() + offset, b, n);
        ASSERT_EQ(got, want) << "n=" << n << " off=" << offset
                             << " rep=" << rep;
      }
    }
  }
#else
  GTEST_SKIP() << "no AVX2 body in a non-x86 build";
#endif
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

}  // namespace
}  // namespace ct
