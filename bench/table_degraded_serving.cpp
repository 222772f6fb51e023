// Degraded query serving — answer latency (work ticks) and coverage vs.
// injected cluster-state corruption and offered query load, per trace
// family (docs/FAULT_MODEL.md §6; serving-side companion to
// table_fault_degradation's ingest-side sweep).
//
// For one representative computation per trace family, a QueryBroker
// serves bursts of precedence queries from a worker pool while cluster
// timestamp state is corrupted underneath it. The operational protocol of
// §6 is followed: corruption is paired with an immediate kill switch on
// the cluster backend, and the broker's stride audits detect (digest
// mismatch), repair (rebuild from the delivery log), and re-admit. Swept:
//   * corrupted timestamp entries: 0 / 1 / 8;
//   * offered load: a burst that fits the admission queue vs. one ~4x
//     over capacity (shedding engages).
// Reported per run: answer coverage (answered / submitted), shed and
// deadline-expired fractions, mean and p95 answer cost in work ticks,
// fraction of answers served past the primary backend, repairs performed,
// and whether every answer given matched the exact Fidge/Mattern store.
#include <algorithm>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "monitor/monitor.hpp"
#include "monitor/query_broker.hpp"
#include "timestamp/fm_store.hpp"
#include "trace/generators.hpp"
#include "util/prng.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace ct;

struct Row {
  std::string trace_id;
  TraceFamily family = TraceFamily::kControl;
  std::size_t corrupt_entries = 0;
  std::size_t submitted = 0;
  double coverage = 0.0;       ///< answered / submitted
  double shed_frac = 0.0;
  double deadline_frac = 0.0;
  double mean_ticks = 0.0;     ///< over answered queries
  double p95_ticks = 0.0;
  double fallback_frac = 0.0;  ///< answers served past the cluster backend
  std::uint64_t rebuilds = 0;
  bool exact = true;
  bool accounted = true;
};

Row run_one(const std::string& id, const Trace& t, const FmStore& oracle,
            std::size_t corrupt_entries, std::size_t burst) {
  Row row;
  row.trace_id = id;
  row.family = t.family();
  row.corrupt_entries = corrupt_entries;
  row.submitted = burst;

  MonitorOptions moptions;
  moptions.cluster.max_cluster_size = 8;
  moptions.cluster.fm_vector_width = 300;
  MonitoringEntity monitor(t.process_count(), moptions);
  for (const EventId eid : t.delivery_order()) monitor.ingest(t.event(eid));

  ThreadPool pool(2);
  BrokerOptions options;
  options.max_queue = 128;
  options.default_deadline = 200000;  // generous; on-demand outliers expire
  options.audit_stride = 32;          // repair happens under load
  options.audit.pairs_per_step = 2;
  options.audit.clean_steps_to_readmit = 2;
  QueryBroker broker(monitor, pool, options);

  // Corrupt stored cluster timestamps while quiesced, and stop serving
  // from the cluster backend until the audit has repaired and re-admitted
  // it (the §6 kill-switch protocol: degraded, never wrong).
  const auto order = t.delivery_order();
  Prng corrupt_rng(501);
  for (std::size_t k = 0; k < corrupt_entries; ++k) {
    const EventId victim = order[corrupt_rng.index(order.size())];
    monitor.inject_timestamp_corruption(
        victim, k, static_cast<EventIndex>(0xC0FFEEu + k));
  }
  if (corrupt_entries > 0) broker.trip_backend(ServingBackend::kCluster);

  Prng rng(77);
  std::vector<std::pair<EventId, EventId>> pairs;
  std::vector<std::future<QueryResult>> futures;
  pairs.reserve(burst);
  futures.reserve(burst);
  for (std::size_t q = 0; q < burst; ++q) {
    const EventId e = order[rng.index(order.size())];
    const EventId f = order[rng.index(order.size())];
    pairs.emplace_back(e, f);
    futures.push_back(broker.submit_precedence(e, f));
  }
  broker.drain();

  std::vector<double> costs;
  std::size_t answered = 0, shed = 0, expired = 0, fallback = 0;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const QueryResult r = futures[i].get();
    switch (r.outcome) {
      case QueryOutcome::kAnswered:
        ++answered;
        costs.push_back(static_cast<double>(r.cost));
        if (degraded(r.backend_used)) ++fallback;
        if (*r.answer != oracle.precedes(pairs[i].first, pairs[i].second)) {
          row.exact = false;
        }
        break;
      case QueryOutcome::kShed:
        ++shed;
        break;
      case QueryOutcome::kDeadlineExpired:
        ++expired;
        break;
      default:
        break;
    }
  }
  const auto frac = [&](std::size_t n) {
    return static_cast<double>(n) / static_cast<double>(burst);
  };
  row.coverage = frac(answered);
  row.shed_frac = frac(shed);
  row.deadline_frac = frac(expired);
  row.fallback_frac =
      answered > 0
          ? static_cast<double>(fallback) / static_cast<double>(answered)
          : 0.0;
  if (!costs.empty()) {
    double sum = 0.0;
    for (const double c : costs) sum += c;
    row.mean_ticks = sum / static_cast<double>(costs.size());
    std::sort(costs.begin(), costs.end());
    row.p95_ticks = costs[std::min(costs.size() - 1,
                                   costs.size() * 95 / 100)];
  }
  const BrokerHealth h = broker.health();
  row.rebuilds = h.rebuilds;
  row.accounted = h.accounted();
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  ct::bench::bench_init(argc, argv, "table_degraded_serving");
  using namespace ct;
  bench::header(
      "table_degraded_serving",
      "robustness — answer latency/coverage vs. corruption and load",
      "One computation per trace family served by the query broker while\n"
      "cluster timestamp state is corrupted underneath it (kill switch +\n"
      "audit-driven repair). Latency is deterministic work ticks; coverage\n"
      "is the answered fraction of each offered burst; every answer given\n"
      "is verified against the exact Fidge/Mattern store.");

  struct Workload {
    std::string id;
    Trace trace;
  };
  const std::vector<Workload> workloads = {
      {"pvm/wavefront", generate_wavefront({.width = 9, .height = 9,
                                            .seed = 61})},
      {"java/web", generate_web_server({.clients = 30, .servers = 5,
                                        .backends = 3, .requests = 450,
                                        .seed = 62})},
      {"dce/rpc", generate_rpc_business({.groups = 4, .clients_per_group = 3,
                                         .servers_per_group = 2,
                                         .calls = 500, .seed = 63})},
      {"ctl/local", generate_locality_random({.processes = 48,
                                              .group_size = 8,
                                              .intra_rate = 0.9,
                                              .messages = 1200, .seed = 64})},
  };
  const std::vector<std::size_t> corruption = {0, 1, 8};
  const std::vector<std::size_t> bursts = {96, 512};  // queue cap is 128

  std::vector<Row> rows;
  for (const Workload& w : workloads) {
    const FmStore oracle(w.trace);
    for (const std::size_t c : corruption) {
      for (const std::size_t b : bursts) {
        rows.push_back(run_one(w.id, w.trace, oracle, c, b));
      }
    }
  }

  bench::section("csv");
  std::cout << "trace,family,corrupt_entries,submitted,coverage,shed_frac,"
               "deadline_frac,mean_ticks,p95_ticks,fallback_frac,rebuilds,"
               "exact,accounted\n";
  for (const Row& r : rows) {
    std::printf("%s,%s,%zu,%zu,%.4f,%.4f,%.4f,%.1f,%.1f,%.4f,%llu,%d,%d\n",
                r.trace_id.c_str(), to_string(r.family), r.corrupt_entries,
                r.submitted, r.coverage, r.shed_frac, r.deadline_frac,
                r.mean_ticks, r.p95_ticks, r.fallback_frac,
                static_cast<unsigned long long>(r.rebuilds),
                r.exact ? 1 : 0, r.accounted ? 1 : 0);
  }

  bench::section("latency/coverage vs. corruption and load");
  AsciiTable table({"trace", "corrupt", "offered", "coverage", "shed",
                    "mean ticks", "p95 ticks", "fallback", "rebuilds"});
  for (const Row& r : rows) {
    table.add_row({r.trace_id, std::to_string(r.corrupt_entries),
                   std::to_string(r.submitted), fmt(r.coverage, 3),
                   fmt(r.shed_frac, 3), fmt(r.mean_ticks, 1),
                   fmt(r.p95_ticks, 1), fmt(r.fallback_frac, 3),
                   std::to_string(r.rebuilds)});
  }
  table.print(std::cout);

  bench::section("analysis");
  bool all_exact = true, all_accounted = true, repaired_when_corrupt = true;
  bool clean_runs_stay_primary = true, overload_sheds = false;
  double clean_mean = 0.0, corrupt_mean = 0.0;
  std::size_t clean_n = 0, corrupt_n = 0;
  for (const Row& r : rows) {
    all_exact = all_exact && r.exact;
    all_accounted = all_accounted && r.accounted;
    if (r.corrupt_entries > 0 && r.rebuilds == 0) {
      repaired_when_corrupt = false;
    }
    if (r.corrupt_entries == 0 && r.fallback_frac > 0.0) {
      clean_runs_stay_primary = false;
    }
    if (r.submitted > 128 && r.shed_frac > 0.0) overload_sheds = true;
    if (r.coverage > 0.0) {
      if (r.corrupt_entries == 0) {
        clean_mean += r.mean_ticks;
        ++clean_n;
      } else {
        corrupt_mean += r.mean_ticks;
        ++corrupt_n;
      }
    }
  }
  if (clean_n > 0) clean_mean /= static_cast<double>(clean_n);
  if (corrupt_n > 0) corrupt_mean /= static_cast<double>(corrupt_n);

  bench::verdict("every answer given under corruption is exact",
                 "degraded serving falls back, never guesses (§6)",
                 all_exact ? "all answers match the FM store" : "WRONG ANSWER",
                 all_exact);
  bench::verdict("every submitted query is accounted for",
                 "submitted == completed+expired+shed+failed+in_flight",
                 all_accounted ? "holds for every run" : "VIOLATED",
                 all_accounted);
  bench::verdict("corruption triggers audit-driven repair under load",
                 "digest audit localizes and rebuilds from the delivery log",
                 repaired_when_corrupt ? "rebuilds > 0 in every corrupted run"
                                       : "a corrupted run never repaired",
                 repaired_when_corrupt);
  bench::verdict("clean runs never pay the fallback chain",
                 "primary (cluster) serving when state is healthy",
                 clean_runs_stay_primary ? "fallback_frac == 0 when clean"
                                         : "unexpected fallback serving",
                 clean_runs_stay_primary);
  bench::verdict("overload degrades coverage by shedding, not by blocking",
                 "bounded admission queue (§6)",
                 overload_sheds
                     ? "shedding engaged on over-capacity bursts"
                     : "no shedding observed on over-capacity bursts",
                 overload_sheds);
  bench::verdict(
      "degraded serving costs more ticks than primary serving",
      "fallback decode/recompute vs. one cluster comparison sequence",
      "clean mean " + fmt(clean_mean, 1) + " vs corrupted mean " +
          fmt(corrupt_mean, 1),
      corrupt_mean > clean_mean);
  return ct::bench::bench_finish();
}
