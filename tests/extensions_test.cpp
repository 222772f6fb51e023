// Tests for the §5 future-work extensions: the generalized recursive
// precedence test, process migration, multi-level hierarchies, and the
// phase-shifting locality workload.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <unordered_map>

#include "cluster/comm_matrix.hpp"
#include "core/engine.hpp"
#include "core/hierarchy.hpp"
#include "core/migrating_engine.hpp"
#include "core/recursive_precedence.hpp"
#include "model/oracle.hpp"
#include "model/trace_builder.hpp"
#include "trace/generators.hpp"
#include "util/check.hpp"

namespace ct {
namespace {

Trace property_trace(int which) {
  switch (which) {
    case 0:
      return generate_ring({.processes = 10, .iterations = 9, .seed = 242});
    case 1:
      return generate_web_server({.clients = 12,
                                  .servers = 3,
                                  .backends = 2,
                                  .requests = 55,
                                  .seed = 244});
    case 2:
      return generate_rpc_business({.groups = 3,
                                    .clients_per_group = 3,
                                    .servers_per_group = 2,
                                    .calls = 60,
                                    .seed = 245});
    case 3:
      return generate_uniform_random(
          {.processes = 12, .messages = 110, .seed = 246});
    case 4:
      return generate_locality_random({.processes = 18,
                                       .group_size = 6,
                                       .messages = 130,
                                       .seed = 247});
    case 5:
      return generate_phased_locality({.processes = 16,
                                       .group_size = 4,
                                       .phases = 3,
                                       .messages_per_phase = 60,
                                       .seed = 248});
    default:
      CT_CHECK(false);
      return {};
  }
}

// ---------------------------------------------------- recursive precedence

/// The engine materializes timestamps by value while the recursive test
/// reads them by reference: materialize every stored timestamp once.
std::unordered_map<EventId, ClusterTimestamp> stored_timestamps(
    const ClusterTimestampEngine& engine, const Trace& trace) {
  std::unordered_map<EventId, ClusterTimestamp> stored;
  for (const EventId id : trace.delivery_order()) {
    stored.emplace(id, engine.timestamp(id));
  }
  return stored;
}

// The recursive test must agree with the oracle when driven by the BASE
// engine's timestamps (merge-only clusters), across strategies and sizes.
class RecursiveTestProperty : public ::testing::TestWithParam<int> {};

TEST_P(RecursiveTestProperty, AgreesWithOracleOnBaseEngine) {
  const Trace trace = property_trace(GetParam());
  const CausalityOracle oracle(trace);
  for (const std::size_t max_cs : {std::size_t{2}, std::size_t{6}}) {
    ClusterEngineConfig config{.max_cluster_size = max_cs,
                               .fm_vector_width = 300};
    ClusterTimestampEngine engine(trace.process_count(), config,
                                  make_merge_on_nth(1.0));
    engine.observe_trace(trace);
    const auto stored = stored_timestamps(engine, trace);
    const TimestampLookup lookup = [&](EventId id) -> const ClusterTimestamp& {
      return stored.at(id);
    };
    for (const EventId e : trace.delivery_order()) {
      for (const EventId f : trace.delivery_order()) {
        const bool want = oracle.happened_before(e, f);
        ASSERT_EQ(recursive_precedes(trace.event(e), trace.event(f),
                                     trace.process_count(), lookup),
                  want)
            << "recursive: " << e << " -> " << f << " maxCS " << max_cs;
        // And it agrees with the fast test.
        ASSERT_EQ(engine.precedes(trace.event(e), trace.event(f)), want);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Generators, RecursiveTestProperty,
                         ::testing::Range(0, 6));

TEST(RecursiveTest, CountsComparisons) {
  const Trace trace = property_trace(0);
  ClusterEngineConfig config{.max_cluster_size = 3, .fm_vector_width = 300};
  ClusterTimestampEngine engine(trace.process_count(), config,
                                make_merge_on_first());
  engine.observe_trace(trace);
  const auto stored = stored_timestamps(engine, trace);
  std::uint64_t comparisons = 0;
  const auto order = trace.delivery_order();
  (void)recursive_precedes(
      trace.event(order.front()), trace.event(order.back()),
      trace.process_count(),
      [&](EventId id) -> const ClusterTimestamp& { return stored.at(id); },
      &comparisons);
  EXPECT_GT(comparisons, 0u);
}

// ------------------------------------------------------------- migration

class MigrationProperty : public ::testing::TestWithParam<int> {};

TEST_P(MigrationProperty, PrecedenceMatchesOracle) {
  const Trace trace = property_trace(GetParam());
  const CausalityOracle oracle(trace);
  // Aggressive migration settings to exercise the machinery hard.
  MigratingEngineConfig config;
  config.max_cluster_size = 5;
  config.fm_vector_width = 300;
  config.nth_threshold = 0.5;
  config.window = 6;
  config.home_share_low = 0.95;  // migrate eagerly
  config.cooldown = 0;
  MigratingClusterEngine engine(trace.process_count(), config);
  engine.observe_trace(trace);
  for (const EventId e : trace.delivery_order()) {
    for (const EventId f : trace.delivery_order()) {
      ASSERT_EQ(engine.precedes(trace.event(e), trace.event(f)),
                oracle.happened_before(e, f))
          << e << " vs " << f << " in " << trace.name();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Generators, MigrationProperty,
                         ::testing::Range(0, 6));

TEST(Migration, ActuallyMigratesOnPhaseShift) {
  const Trace trace = generate_phased_locality({.processes = 24,
                                                .group_size = 6,
                                                .intra_rate = 0.95,
                                                .phases = 2,
                                                .messages_per_phase = 900,
                                                .seed = 9});
  MigratingEngineConfig config;
  config.max_cluster_size = 8;  // headroom above the natural group size
  config.fm_vector_width = 300;
  config.nth_threshold = 2.0;
  MigratingClusterEngine engine(trace.process_count(), config);
  engine.observe_trace(trace);
  EXPECT_GT(engine.migrations(), 0u)
      << "phase shift should trigger migrations";
}

TEST(Migration, BeatsFrozenClustersOnPhasedWorkload) {
  const Trace trace = generate_phased_locality({.processes = 36,
                                                .group_size = 6,
                                                .intra_rate = 0.95,
                                                .phases = 2,
                                                .messages_per_phase = 1800,
                                                .seed = 10});
  MigratingEngineConfig mig_config;
  mig_config.max_cluster_size = 8;
  mig_config.fm_vector_width = 300;
  mig_config.nth_threshold = 2.0;
  MigratingClusterEngine migrating(trace.process_count(), mig_config);
  migrating.observe_trace(trace);

  ClusterEngineConfig frozen_config{.max_cluster_size = 8,
                                    .fm_vector_width = 300};
  ClusterTimestampEngine frozen(trace.process_count(), frozen_config,
                                make_merge_on_nth(2.0));
  frozen.observe_trace(trace);

  EXPECT_LT(migrating.stats().encoded_words, frozen.stats().encoded_words)
      << "migration should shed cluster receives after the phase shift";
}

TEST(Migration, StatsAreCoherent) {
  const Trace trace = property_trace(4);
  MigratingEngineConfig config;
  config.max_cluster_size = 6;
  config.fm_vector_width = 300;
  MigratingClusterEngine engine(trace.process_count(), config);
  engine.observe_trace(trace);
  const auto stats = engine.stats();
  EXPECT_EQ(stats.events, trace.event_count());
  EXPECT_LE(stats.largest_cluster, 6u);
  EXPECT_GE(stats.final_clusters, 1u);
  EXPECT_LE(stats.exact_words, stats.encoded_words);
}

TEST(Migration, RejectsBadConfig) {
  MigratingEngineConfig config;
  config.max_cluster_size = 0;
  EXPECT_THROW(MigratingClusterEngine(4, config), CheckFailure);
  config.max_cluster_size = 4;
  config.home_share_low = 0.0;  // must be in (0, 1]
  EXPECT_THROW(MigratingClusterEngine(4, config), CheckFailure);
}

// ------------------------------------------------------------- hierarchy

TEST(Hierarchy, BuildProducesNestedPartitions) {
  const Trace trace = generate_locality_random({.processes = 48,
                                                .group_size = 6,
                                                .intra_rate = 0.9,
                                                .messages = 2000,
                                                .seed = 21});
  const CommMatrix comm(trace);
  const std::array<std::size_t, 2> sizes{6, 24};
  const Hierarchy h = build_hierarchy(comm, sizes);
  ASSERT_EQ(h.depth(), 2u);
  h.validate(trace.process_count());
  for (const auto& part : h.levels[0]) EXPECT_LE(part.size(), 6u);
  for (const auto& part : h.levels[1]) EXPECT_LE(part.size(), 24u);
  EXPECT_LT(h.levels[1].size(), h.levels[0].size());
}

TEST(Hierarchy, ValidateCatchesBrokenNesting) {
  Hierarchy h;
  h.levels.push_back({{0, 1}, {2, 3}});
  h.levels.push_back({{0, 2}, {1, 3}});  // splits both level-0 clusters
  EXPECT_THROW(h.validate(4), CheckFailure);

  Hierarchy incomplete;
  incomplete.levels.push_back({{0, 1}});  // missing process 2
  EXPECT_THROW(incomplete.validate(3), CheckFailure);
}

class HierarchyProperty : public ::testing::TestWithParam<int> {};

TEST_P(HierarchyProperty, PrecedenceMatchesOracle) {
  const Trace trace = property_trace(GetParam());
  const CausalityOracle oracle(trace);
  const CommMatrix comm(trace);
  const std::array<std::size_t, 2> sizes{3, 8};
  HierarchicalStaticEngine engine(trace.process_count(), 300,
                                  build_hierarchy(comm, sizes));
  engine.observe_trace(trace);
  for (const EventId e : trace.delivery_order()) {
    for (const EventId f : trace.delivery_order()) {
      ASSERT_EQ(engine.precedes(trace.event(e), trace.event(f)),
                oracle.happened_before(e, f))
          << e << " vs " << f << " in " << trace.name();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Generators, HierarchyProperty,
                         ::testing::Range(0, 6));

TEST(Hierarchy, IntermediateLevelsReduceFullVectors) {
  const Trace trace = generate_locality_random({.processes = 96,
                                                .group_size = 8,
                                                .intra_rate = 0.85,
                                                .messages = 4000,
                                                .seed = 22});
  const CommMatrix comm(trace);

  const std::array<std::size_t, 1> two_level{8};
  HierarchicalStaticEngine flat(trace.process_count(), 300,
                                build_hierarchy(comm, two_level));
  flat.observe_trace(trace);

  const std::array<std::size_t, 2> three_level{8, 32};
  HierarchicalStaticEngine deep(trace.process_count(), 300,
                                build_hierarchy(comm, three_level));
  deep.observe_trace(trace);

  // The extra level absorbs some would-be full vectors at width ≤ 32.
  const auto& f = flat.stats();
  const auto& d = deep.stats();
  EXPECT_EQ(f.events, d.events);
  EXPECT_LT(d.events_by_level.back(), f.events_by_level.back())
      << "fewer events should escape to full FM with an extra level";
  EXPECT_LT(d.encoded_words, f.encoded_words);
}

TEST(Hierarchy, StatsAccounting) {
  TraceBuilder b;
  b.add_processes(4);
  b.message(0, 1);  // within level-0 cluster {0,1}
  b.message(2, 0);  // crosses level 0, within level 1
  const Trace trace = b.build("hier-acct", TraceFamily::kControl);

  Hierarchy h;
  h.levels.push_back({{0, 1}, {2}, {3}});
  h.levels.push_back({{0, 1, 2}, {3}});
  HierarchicalStaticEngine engine(4, 300, std::move(h));
  engine.observe_trace(trace);
  const auto& stats = engine.stats();
  EXPECT_EQ(stats.events, 4u);
  EXPECT_EQ(stats.events_by_level[0], 3u);  // 2 sends + intra receive
  EXPECT_EQ(stats.events_by_level[1], 1u);  // the cross receive
  EXPECT_EQ(stats.events_by_level[2], 0u);  // nothing escapes level 1
  EXPECT_EQ(stats.level_widths[0], 2u);
  EXPECT_EQ(stats.level_widths[1], 3u);
  EXPECT_EQ(stats.level_widths[2], 300u);
  EXPECT_EQ(stats.encoded_words, 3u * 2 + 1u * 3);
}

// ------------------------------------------------------ phased generator

TEST(PhasedLocality, StructurallyValidAndDeterministic) {
  const PhasedLocalityOptions opt{.processes = 20,
                                  .group_size = 5,
                                  .phases = 3,
                                  .messages_per_phase = 100,
                                  .seed = 31};
  const Trace a = generate_phased_locality(opt);
  const Trace b = generate_phased_locality(opt);
  ASSERT_EQ(a.event_count(), b.event_count());
  const auto ao = a.delivery_order();
  const auto bo = b.delivery_order();
  for (std::size_t i = 0; i < ao.size(); ++i) ASSERT_EQ(ao[i], bo[i]);
  EXPECT_EQ(a.family(), TraceFamily::kControl);
  EXPECT_GT(a.count(EventKind::kReceive), 0u);
}

TEST(PhasedLocality, CommunicationStructureShiftsAcrossPhases) {
  // With one phase, the comm graph concentrates on ~group_size partners per
  // process; with several phases each process accumulates partners from
  // every phase's group.
  const Trace single = generate_phased_locality({.processes = 30,
                                                 .group_size = 6,
                                                 .intra_rate = 0.95,
                                                 .phases = 1,
                                                 .messages_per_phase = 3000,
                                                 .seed = 32});
  const Trace multi = generate_phased_locality({.processes = 30,
                                                .group_size = 6,
                                                .intra_rate = 0.95,
                                                .phases = 3,
                                                .messages_per_phase = 1000,
                                                .seed = 32});
  // Count *strong* partners (≥ 5 occurrences): spillover noise touches
  // almost everyone, but heavy traffic concentrates on the phase groups.
  const auto mean_partners = [](const Trace& t) {
    const CommMatrix comm(t);
    double total = 0;
    for (ProcessId p = 0; p < t.process_count(); ++p) {
      for (ProcessId q = 0; q < t.process_count(); ++q) {
        total += comm.occurrences(p, q) >= 5;
      }
    }
    return total / static_cast<double>(t.process_count());
  };
  EXPECT_GT(mean_partners(multi), mean_partners(single) * 1.5);
}

}  // namespace
}  // namespace ct
