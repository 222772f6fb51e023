// Perf-regression smoke (docs/PERF.md): reduced-size runs of the hot paths
// the performance layer accelerates, gated against a checked-in baseline.
//
// Every gated metric is machine-independent by construction:
//   * speedup_*  — same-binary, same-run ratios (reference path time /
//     fast path time), so the machine's absolute speed divides out. A >30%
//     drop vs. the baseline ratio fails the run.
//   * det_*      — deterministic counters (cluster counts, query answers,
//     test counts, arena footprint); any deviation from the baseline fails
//     — these only change when behaviour changes.
// Absolute ns_per_* metrics are recorded for humans but never gated.
//
// Usage:
//   perf_smoke --json                      write BENCH_perf_smoke.json
//   perf_smoke --json=PATH                 write PATH
//   perf_smoke --check=BASELINE.json       gate this run against a baseline
//
// Refreshing the baseline after an intentional perf change:
//   ./build/bench/perf_smoke --json=bench/baselines/BENCH_perf_smoke.json
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "cluster/comm_matrix.hpp"
#include "cluster/static_greedy.hpp"
#include "core/engine.hpp"
#include "core/precedence_kernels.hpp"
#include "monitor/queries.hpp"
#include "timestamp/fm_store.hpp"
#include "trace/generators.hpp"
#include "util/check.hpp"
#include "util/prng.hpp"

namespace ct {
namespace {

constexpr std::size_t kProcesses = 128;  // reduced size: CI-friendly

volatile std::size_t g_sink = 0;  // defeats dead-code elimination

using steady = std::chrono::steady_clock;

double best_of(int reps, const auto& body) {
  double best = 1e100;
  for (int r = 0; r < reps; ++r) {
    const auto start = steady::now();
    body();
    const double s =
        std::chrono::duration<double>(steady::now() - start).count();
    best = std::min(best, s);
  }
  return best;
}

Trace make_trace() {
  return generate_locality_random({.processes = kProcesses,
                                   .group_size = 10,
                                   .intra_rate = 0.85,
                                   .messages = kProcesses * 30,
                                   .seed = 1000 + kProcesses});
}

std::vector<std::pair<EventId, EventId>> query_pairs(const Trace& t,
                                                     std::size_t count) {
  Prng rng(7);
  const auto order = t.delivery_order();
  std::vector<std::pair<EventId, EventId>> pairs;
  pairs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    pairs.emplace_back(order[rng.index(order.size())],
                       order[rng.index(order.size())]);
  }
  return pairs;
}

// ------------------------------------------------ precedence and frontier

void smoke_precedence(const Trace& t) {
  const ClusterEngineConfig config{.max_cluster_size = 13,
                                   .fm_vector_width = kProcesses};
  ClusterTimestampEngine engine(t.process_count(), config,
                                make_merge_on_nth(10));
  engine.observe_trace(t);
  const FmStore truth(t);

  const auto pairs = query_pairs(t, 1 << 15);
  std::size_t trues = 0;
  for (const auto& [e, f] : pairs) {
    const bool a = engine.precedes(t.event(e), t.event(f));
    CT_CHECK_MSG(a == truth.precedes(e, f),
                 "engine and FM disagree on " << e << " -> " << f);
    trues += a ? 1 : 0;
  }

  // Pre-resolved records: the sweep times the precedence path, not the
  // trace's bounds-checked event lookups.
  std::vector<std::pair<const Event*, const Event*>> records;
  records.reserve(pairs.size());
  for (const auto& [e, f] : pairs) {
    records.emplace_back(&t.event(e), &t.event(f));
  }
  const double query_s = best_of(5, [&] {
    std::size_t hits = 0;
    for (const auto& [e, f] : records) {
      hits += engine.precedes(*e, *f) ? 1U : 0U;
    }
    g_sink = hits;
  });

  const double per = 1e9 / static_cast<double>(pairs.size());
  bench::json_metric("det_precedence_true", static_cast<double>(trues));
  bench::json_metric("det_cluster_receives",
                     static_cast<double>(engine.stats().cluster_receives));
  bench::json_metric("det_arena_words",
                     static_cast<double>(engine.arena_words()));
  bench::json_metric("ns_per_query_arena", query_s * per);
  std::printf("precedence: %zu pairs verified against FM, %.1f ns/query\n",
              pairs.size(), query_s * per);

  // ----------------------------------- frontier: cursor vs per-pair tests
  Prng rng(3);
  const auto order = t.delivery_order();
  std::vector<EventId> probes;
  for (std::size_t i = 0; i < 48; ++i) {
    probes.push_back(order[rng.index(order.size())]);
  }
  const auto size_of = [&](ProcessId q) { return t.process_size(q); };
  const auto via_precedes = [&](EventId e) {
    return compute_frontiers_with(
        t.process_count(), e,
        [&](EventId a, EventId b) {
          return engine.precedes(t.event(a), t.event(b));
        },
        size_of);
  };
  const auto via_cursor = [&](EventId e) {
    const auto cur = engine.cursor(t.event(e));
    return compute_frontiers_with(
        t.process_count(), e,
        [&](EventId a, EventId b) {
          return a == e ? cur.anchor_precedes(t.event(b))
                        : cur.precedes_anchor(t.event(a));
        },
        size_of);
  };
  std::size_t tests = 0;
  for (const EventId e : probes) {
    const auto cursor = via_cursor(e);
    const auto fm = compute_frontiers_with(
        t.process_count(), e,
        [&](EventId a, EventId b) { return truth.precedes(a, b); }, size_of);
    CT_CHECK_MSG(cursor.greatest_predecessor == fm.greatest_predecessor &&
                     cursor.greatest_concurrent == fm.greatest_concurrent,
                 "frontiers diverge at probe " << e);
    tests += cursor.precedence_tests;
  }

  const auto time_frontiers = [&](const auto& frontiers_of) {
    return best_of(5, [&] {
      std::size_t total = 0;
      for (const EventId e : probes) {
        total += frontiers_of(e).precedence_tests;
      }
      g_sink = total;
    });
  };
  const double precedes_f = time_frontiers(via_precedes);
  const double cursor_f = time_frontiers(via_cursor);

  const double perq = 1e6 / static_cast<double>(probes.size());
  bench::json_metric("speedup_frontier_cursor", precedes_f / cursor_f);
  bench::json_metric("det_frontier_tests", static_cast<double>(tests));
  bench::json_metric("us_per_frontier_precedes", precedes_f * perq);
  bench::json_metric("us_per_frontier_cursor", cursor_f * perq);
  std::printf("frontier:   %zu queries (%zu tests), cursor speedup %.2fx "
              "over per-pair precedes (%.1f -> %.1f us/query)\n",
              probes.size(), tests, precedes_f / cursor_f, precedes_f * perq,
              cursor_f * perq);
}

// ------------------------------------------------------ batched precedence

void smoke_batch() {
  // Wide rows (N=300): the batch-transpose path resolves arena rows once
  // and streams the direct-test operands contiguously through batch_leq.
  // The reference is the pre-batch serving path: one precedes_metered call
  // per pair.
  constexpr std::size_t kN = 300;
  const Trace t = generate_locality_random({.processes = kN,
                                            .group_size = 15,
                                            .intra_rate = 0.85,
                                            .messages = kN * 8,
                                            .seed = 1000 + kN});
  const ClusterEngineConfig config{.max_cluster_size = 13,
                                   .fm_vector_width = kN};
  ClusterTimestampEngine engine(t.process_count(), config,
                                make_merge_on_nth(10));
  engine.observe_trace(t);

  const auto pairs = query_pairs(t, 1 << 14);
  std::vector<std::pair<const Event*, const Event*>> records;
  records.reserve(pairs.size());
  for (const auto& [e, f] : pairs) {
    records.emplace_back(&t.event(e), &t.event(f));
  }

  // Identity first: the batch path must match the sequential loop
  // answer-for-answer and tick-for-tick.
  std::vector<std::optional<bool>> expected(records.size());
  std::uint64_t expected_ticks = 0;
  std::size_t trues = 0;
  {
    QueryCost cost;
    for (std::size_t i = 0; i < records.size(); ++i) {
      expected[i] = engine.precedes_metered(*records[i].first,
                                            *records[i].second, cost);
      CT_CHECK(expected[i].has_value());
      trues += *expected[i] ? 1U : 0U;
    }
    expected_ticks = cost.ticks;
  }
  std::vector<std::optional<bool>> out(records.size());
  {
    QueryCost cost;
    CT_CHECK_MSG(engine.precedes_batch_metered(records, cost, out.data()) ==
                     records.size(),
                 "batch run fell short");
    CT_CHECK_MSG(out == expected, "batch answers diverge");
    CT_CHECK_MSG(cost.ticks == expected_ticks,
                 "batch ticks diverge: " << cost.ticks
                                         << " != " << expected_ticks);
  }

  // End-to-end canary: the engine's transpose path against the sequential
  // loop. Random cross-cluster pairs are probe-walk-bound, so this ratio
  // hovers near 1 with high run-to-run variance — reported as an
  // informational `ratio_` key (the exact det_batch_* identity gates are
  // the stable contracts).
  const double seq_s = best_of(5, [&] {
    QueryCost cost;
    std::size_t hits = 0;
    for (const auto& [e, f] : records) {
      hits += *engine.precedes_metered(*e, *f, cost) ? 1U : 0U;
    }
    g_sink = hits;
  });
  const double batch_s = best_of(5, [&] {
    QueryCost cost;
    g_sink = engine.precedes_batch_metered(records, cost, out.data());
  });

  const double per = 1e9 / static_cast<double>(records.size());
  bench::json_metric("ratio_batch_engine", seq_s / batch_s);
  bench::json_metric("ns_per_batch_pair", batch_s * per);
  bench::json_metric("det_batch_true", static_cast<double>(trues));
  bench::json_metric("det_batch_ticks", static_cast<double>(expected_ticks));
  std::printf("batch N=%zu: %zu pairs identical to the sequential loop, "
              "engine speedup %.2fx (%.1f -> %.1f ns/pair)\n",
              kN, records.size(), seq_s / batch_s, seq_s * per,
              batch_s * per);
}

// ----------------------------------------------- the FM join: AVX2 vs scalar

void smoke_max_into() {
  // max_into is the Fidge/Mattern join that cold-start replay runs over
  // full-width vectors, and the op whose AVX2 body pays end to end
  // (docs/PERF.md §7). Its gate is a same-run ratio over the scalar loop
  // at N=1000, so a machine's absolute speed divides out.
#if defined(CT_KERNELS_X86)
  if (kernels::active_tier() != kernels::KernelTier::kAvx2) {
    std::printf("max_into:   no AVX2 on this CPU, gate skipped\n");
    return;
  }
  constexpr std::size_t kN = 1000;
  constexpr std::size_t kRows = 256;
  Prng rng(11);
  std::vector<EventIndex> rows(kRows * kN);
  for (auto& x : rows) x = static_cast<EventIndex>(rng.uniform(0, 1u << 20));
  std::vector<EventIndex> clock(kN);
  const auto fold = [&](const auto& join) {
    std::fill(clock.begin(), clock.end(), EventIndex{0});
    for (std::size_t r = 0; r < kRows; ++r) {
      join(clock.data(), rows.data() + r * kN, kN);
    }
    g_sink = clock[kN - 1];
  };
  fold(kernels::scalar::max_into);
  const std::vector<EventIndex> want = clock;
  fold(kernels::avx2::max_into);
  CT_CHECK_MSG(clock == want, "AVX2 max_into diverges from the scalar loop");

  const double scalar_s = best_of(7, [&] { fold(kernels::scalar::max_into); });
  const double avx2_s = best_of(7, [&] { fold(kernels::avx2::max_into); });
  const double per = 1e9 / static_cast<double>(kRows);
  bench::json_metric("speedup_kernel_max_into_avx2", scalar_s / avx2_s);
  bench::json_metric("ns_per_max_into_scalar", scalar_s * per);
  bench::json_metric("ns_per_max_into_avx2", avx2_s * per);
  std::printf("max_into:   N=%zu, AVX2 %.2fx over scalar (%.1f -> %.1f "
              "ns/join)\n",
              kN, scalar_s / avx2_s, scalar_s * per, avx2_s * per);
#else
  std::printf("max_into:   not an x86 build, gate skipped\n");
#endif
}

// ------------------------------------------------------- greedy clustering

void smoke_greedy(const Trace& t) {
  // The heap greedy's byte identity with the paper-shaped O(N^3) scan is
  // tests/perf_layer_test.cpp's GreedyHeapEquivalence; here only its cluster
  // count is pinned.
  const CommMatrix comm(t);
  const StaticGreedyOptions options{.max_cluster_size = 13};
  const std::size_t clusters = static_greedy_clusters(comm, options).size();
  const double heap_s = best_of(3, [&] {
    g_sink = static_greedy_clusters(comm, options).size();
  });

  bench::json_metric("det_greedy_clusters", static_cast<double>(clusters));
  bench::json_metric("ms_greedy_heap", heap_s * 1e3);
  std::printf("greedy:     C=%zu, %zu clusters at maxCS 13 in %.2f ms\n",
              comm.process_count(), clusters, heap_s * 1e3);
}

// ------------------------------------------------ baseline gate (--check)

/// Minimal parser for the flat BENCH json this binary writes: extracts
/// every `"key": number` pair inside the "metrics" object. No JSON
/// library in the container, none needed for this grammar.
std::vector<std::pair<std::string, double>> parse_baseline(
    const std::string& path) {
  std::ifstream in(path);
  CT_CHECK_MSG(in.good(), "cannot read baseline " << path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();

  std::vector<std::pair<std::string, double>> out;
  std::size_t pos = 0;
  while ((pos = text.find('"', pos)) != std::string::npos) {
    const std::size_t end = text.find('"', pos + 1);
    if (end == std::string::npos) break;
    const std::string key = text.substr(pos + 1, end - pos - 1);
    std::size_t after = end + 1;
    while (after < text.size() &&
           (text[after] == ':' || text[after] == ' ')) {
      ++after;
    }
    if (after < text.size() && text[after] != ':' && key != "bench" &&
        key != "metrics") {
      char* parsed_end = nullptr;
      const double value = std::strtod(text.c_str() + after, &parsed_end);
      if (parsed_end != text.c_str() + after) out.emplace_back(key, value);
    }
    pos = end + 1;
  }
  return out;
}

int check_against(const std::string& path) {
  const auto baseline = parse_baseline(path);
  const auto& measured = bench::json_sink().metrics;
  const auto lookup = [&](const std::string& key) -> const double* {
    for (const auto& [k, v] : measured) {
      if (k == key) return &v;
    }
    return nullptr;
  };

  // The max_into keys are measured only on CPUs with AVX2; a runner
  // without it skips them instead of failing on them.
  const bool has_avx2 = kernels::active_tier() == kernels::KernelTier::kAvx2;

  int failures = 0;
  std::printf("\n-- baseline check vs %s --\n", path.c_str());
  for (const auto& [key, expected] : baseline) {
    const double* got = lookup(key);
    if (got == nullptr) {
      if (key.rfind("verdicts_", 0) == 0) continue;  // sink bookkeeping
      if (!has_avx2 && key.find("max_into") != std::string::npos) {
        std::printf("[skip] %-28s no AVX2 on this machine\n", key.c_str());
        continue;
      }
      std::printf("[FAIL] %-28s missing from this run\n", key.c_str());
      ++failures;
      continue;
    }
    if (key.rfind("speedup_", 0) == 0) {
      // Ratio gate: tolerate noise, fail a >30% regression.
      const double floor = expected / 1.3;
      const bool ok = *got >= floor;
      std::printf("[%s] %-28s %.3f (baseline %.3f, floor %.3f)\n",
                  ok ? " ok " : "FAIL", key.c_str(), *got, expected, floor);
      failures += ok ? 0 : 1;
    } else if (key.rfind("det_", 0) == 0) {
      // Deterministic gate: exact or the behaviour changed.
      const bool ok = *got == expected;
      std::printf("[%s] %-28s %.0f (baseline %.0f)\n",
                  ok ? " ok " : "FAIL", key.c_str(), *got, expected);
      failures += ok ? 0 : 1;
    }
    // Absolute-time metrics: informational only, machine-dependent.
  }
  if (failures > 0) {
    std::printf("perf smoke FAILED: %d gated metric(s) regressed\n",
                failures);
    return 1;
  }
  std::printf("perf smoke passed: all gated metrics within tolerance\n");
  return 0;
}

}  // namespace
}  // namespace ct

int main(int argc, char** argv) {
  ct::bench::bench_init(argc, argv, "perf_smoke");
  std::string check_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--check=", 0) == 0) check_path = arg.substr(8);
  }

  ct::bench::header("perf_smoke", "perf-regression gate (docs/PERF.md)",
                    "Reduced-size runs of the engine precedence path "
                    "(checked against FM), the frontier cursor vs per-pair "
                    "precedes, the batch path, the AVX2 FM join, and the "
                    "heap greedy clustering; gated on same-run speedup "
                    "ratios and deterministic counters only.");

  const ct::Trace t = ct::make_trace();
  std::printf("trace: %zu processes, %zu events\n", t.process_count(),
              t.event_count());
  std::printf("kernel tier: %s\n\n",
              ct::kernels::to_string(ct::kernels::active_tier()));
  ct::smoke_precedence(t);
  ct::smoke_batch();
  ct::smoke_max_into();
  ct::smoke_greedy(t);

  int exit_code = ct::bench::bench_finish();
  if (!check_path.empty()) {
    exit_code = std::max(exit_code, ct::check_against(check_path));
  }
  return exit_code;
}
