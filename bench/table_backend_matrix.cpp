// Backend matrix (extends the §2.4 differential comparison, E8): full
// Fidge/Mattern vector clocks, cluster timestamps and differential encoding
// over 8 trace families × maxCS ∈ {4, 16, 64} (maxCS applies to the cluster
// backend; the other two are cluster-free and contribute one row per
// family). Three columns per cell: bytes/event (stored footprint), ingest
// cost (ns/event over the whole replay), and ns/precedence on a fixed
// sample of query pairs. Every sampled pair is also cross-checked across
// the three backends — answer identity is the paper's non-negotiable —
// before any timing is reported.
#include <chrono>
#include <memory>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "cluster/merge_policy.hpp"
#include "core/engine.hpp"
#include "timestamp/differential.hpp"
#include "timestamp/fm_store.hpp"
#include "trace/generators.hpp"
#include "util/prng.hpp"

namespace {

using namespace ct;

struct Family {
  const char* name;
  Trace trace;
};

std::vector<Family> make_families() {
  std::vector<Family> out;
  out.push_back({"ring", generate_ring({.processes = 16, .iterations = 8,
                                        .seed = 5})});
  out.push_back({"halo2d", generate_halo2d({.width = 4, .height = 4,
                                            .iterations = 6, .seed = 5})});
  out.push_back(
      {"scatter-gather",
       generate_scatter_gather({.processes = 17, .rounds = 8, .seed = 5})});
  out.push_back({"web-server",
                 generate_web_server({.clients = 12, .servers = 3,
                                      .backends = 2, .requests = 80,
                                      .seed = 5})});
  out.push_back({"pubsub",
                 generate_pubsub({.publishers = 4, .brokers = 2,
                                  .subscribers = 8, .topics = 4,
                                  .subscribers_per_topic = 3, .messages = 70,
                                  .seed = 5})});
  out.push_back({"rpc-business",
                 generate_rpc_business({.groups = 3, .clients_per_group = 2,
                                        .servers_per_group = 2, .calls = 70,
                                        .seed = 5})});
  out.push_back({"rpc-chain",
                 generate_rpc_chain({.services = 10, .chain_length = 5,
                                     .requests = 40, .seed = 5})});
  out.push_back({"uniform-random",
                 generate_uniform_random({.processes = 16, .messages = 150,
                                          .seed = 5})});
  return out;
}

constexpr std::size_t kPairs = 1500;
constexpr int kTimingReps = 3;

std::vector<std::pair<EventId, EventId>> sample_pairs(const Trace& t) {
  Prng rng(42);
  const auto order = t.delivery_order();
  std::vector<std::pair<EventId, EventId>> pairs;
  pairs.reserve(kPairs);
  for (std::size_t i = 0; i < kPairs; ++i) {
    pairs.emplace_back(order[rng.index(order.size())],
                       order[rng.index(order.size())]);
  }
  return pairs;
}

/// Best-of-reps wall time of `body`, in ns per call over `calls` calls.
template <typename F>
double time_ns_per(std::size_t calls, F&& body) {
  double best = 0.0;
  for (int rep = 0; rep < kTimingReps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    body();
    const auto t1 = std::chrono::steady_clock::now();
    const double ns =
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                .count()) /
        static_cast<double>(calls);
    best = rep == 0 ? ns : std::min(best, ns);
  }
  return best;
}

void emit_row(const char* family, const char* backend, const char* maxcs,
              double bytes_per_event, double ingest_ns, double query_ns) {
  std::printf("%s,%s,%s,%.2f,%.1f,%.1f\n", family, backend, maxcs,
              bytes_per_event, ingest_ns, query_ns);
}

}  // namespace

int main(int argc, char** argv) {
  ct::bench::bench_init(argc, argv, "table_backend_matrix");
  bench::header(
      "table_backend_matrix",
      "backend matrix — extends §2.4's differential comparison",
      "bytes/event, ingest cost and ns/precedence for vector clocks,\n"
      "cluster timestamps and differential encoding across 8 trace\n"
      "families; cluster backend swept over maxCS {4,16,64}; all answers\n"
      "cross-checked pairwise first.");

  const std::vector<std::size_t> max_cs{4, 16, 64};
  auto families = make_families();

  bench::section("csv");
  std::printf(
      "family,backend,maxCS,bytes_per_event,ingest_ns_per_event,"
      "ns_per_precedence\n");

  OnlineStats vc_bytes, cluster_bytes4, diff_bytes;
  OnlineStats vc_query, cluster_query4, diff_query;
  std::size_t mismatches = 0;

  for (const Family& fam : families) {
    const Trace& t = fam.trace;
    const std::size_t events = t.event_count();
    const std::size_t n = t.process_count();
    const auto pairs = sample_pairs(t);

    // --- vector clock (FmStore, arena/interned) ---
    const double vc_ingest =
        time_ns_per(events, [&] { FmStore probe(t); (void)probe; });
    const FmStore vc(t);
    // --- differential (interval 16, the C5 default) ---
    const double diff_ingest = time_ns_per(events, [&] {
      DifferentialStore probe(t, 16);
      (void)probe;
    });
    const DifferentialStore diff(t, 16);

    // --- cluster timestamps (merge-on-1st, dynamic) per maxCS ---
    struct ClusterCell {
      std::size_t maxcs;
      std::unique_ptr<ClusterTimestampEngine> engine;
      double ingest_ns = 0.0;
    };
    std::vector<ClusterCell> clusters;
    for (const std::size_t cs : max_cs) {
      ClusterEngineConfig cfg;
      cfg.max_cluster_size = cs;
      cfg.fm_vector_width = n;
      auto build = [&] {
        auto e = std::make_unique<ClusterTimestampEngine>(
            n, cfg, make_merge_on_first());
        e->observe_trace(t);
        return e;
      };
      ClusterCell cell;
      cell.maxcs = cs;
      cell.ingest_ns = time_ns_per(events, [&] { (void)build(); });
      cell.engine = build();
      clusters.push_back(std::move(cell));
    }

    // --- answer identity across all three, before timing ---
    for (const auto& [e, f] : pairs) {
      const bool expect = vc.precedes(e, f);
      if (diff.precedes(e, f) != expect) ++mismatches;
      for (const ClusterCell& cell : clusters) {
        if (cell.engine->precedes(t.event(e), t.event(f)) != expect) {
          ++mismatches;
        }
      }
    }

    // --- query latency over the same pairs ---
    const double vc_ns = time_ns_per(pairs.size(), [&] {
      for (const auto& [e, f] : pairs) (void)vc.precedes(e, f);
    });
    const double diff_ns = time_ns_per(pairs.size(), [&] {
      for (const auto& [e, f] : pairs) (void)diff.precedes(e, f);
    });

    // --- bytes/event (stored words × 4 / events) ---
    const double vc_b = 4.0 * static_cast<double>(vc.resident_elements()) /
                        static_cast<double>(events);
    const double diff_b = 4.0 * static_cast<double>(diff.stored_words()) /
                          static_cast<double>(events);

    emit_row(fam.name, "vector-clock", "-", vc_b, vc_ingest, vc_ns);
    emit_row(fam.name, "differential", "-", diff_b, diff_ingest, diff_ns);
    for (const ClusterCell& cell : clusters) {
      const ClusterEngineStats stats = cell.engine->stats();
      const double bytes = 4.0 * static_cast<double>(stats.encoded_words) /
                           static_cast<double>(events);
      const double cl_ns = time_ns_per(pairs.size(), [&] {
        for (const auto& [e, f] : pairs) {
          (void)cell.engine->precedes(t.event(e), t.event(f));
        }
      });
      emit_row(fam.name, "cluster", std::to_string(cell.maxcs).c_str(), bytes,
               cell.ingest_ns, cl_ns);
      if (cell.maxcs == 4) {
        cluster_bytes4.add(bytes);
        cluster_query4.add(cl_ns);
      }
    }

    vc_bytes.add(vc_b);
    diff_bytes.add(diff_b);
    vc_query.add(vc_ns);
    diff_query.add(diff_ns);

    bench::json_metric(std::string(fam.name) + ".vector_clock.bytes_per_event",
                       vc_b);
  }

  bench::section("summary");
  AsciiTable table({"backend", "bytes/event (mean)", "ns/precedence (mean)"});
  table.add_row({"vector-clock", fmt(vc_bytes.mean(), 1),
                 fmt(vc_query.mean(), 1)});
  table.add_row({"cluster (maxCS=4)", fmt(cluster_bytes4.mean(), 1),
                 fmt(cluster_query4.mean(), 1)});
  table.add_row({"differential (k=16)", fmt(diff_bytes.mean(), 1),
                 fmt(diff_query.mean(), 1)});
  table.print(std::cout);

  bench::json_metric("mismatches", static_cast<double>(mismatches));
  bench::json_metric("cluster4.bytes_per_event_mean", cluster_bytes4.mean());

  bench::section("analysis");
  bench::verdict(
      "vector clocks, cluster timestamps and differential encoding answer "
      "sampled precedence identically",
      "answer identity is the paper's non-negotiable core claim",
      std::to_string(mismatches) + " mismatches across " +
          std::to_string(families.size() * kPairs) + " pairs x backends",
      mismatches == 0);
  bench::verdict(
      "cluster timestamps are smaller than vector clocks",
      "cluster timestamps 'require up to an order-of-magnitude less space' "
      "(S1.2)",
      "cluster maxCS=4 mean " + fmt(cluster_bytes4.mean(), 1) +
          " bytes/event vs vector-clock " + fmt(vc_bytes.mean(), 1),
      cluster_bytes4.mean() < vc_bytes.mean());
  return ct::bench::bench_finish();
}
