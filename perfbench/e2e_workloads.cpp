#include "e2e_workloads.hpp"

#include <fcntl.h>
#include <malloc.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>

#include "durability/storage.hpp"
#include "durability/wal.hpp"
#include "e2e_check.hpp"
#include "e2e_inputs.hpp"
#include "e2e_serve.hpp"
#include "monitor/monitor.hpp"
#include "monitor/query_broker.hpp"
#include "shard/shard_router.hpp"
#include "store/mapped_view.hpp"
#include "store/recovery_ladder.hpp"
#include "store/snapshot_store.hpp"
#include "util/cli.hpp"
#include "util/prng.hpp"
#include "util/thread_pool.hpp"

namespace e2e {

namespace fs = std::filesystem;

namespace {

// Answers checked per source (router, broker, monitor, recovered
// monitor, mapped snapshot), by kind: ground truth is computed outside
// every timed region, so the sample only bounds the check's own cost.
constexpr KindCaps kCheckCaps = {200, 20, 10};
// Queries of each kind the traced run sends straight to the broker and
// the monitor (closed loop), and how many of those also go through the
// router for its self time.
constexpr std::size_t kAttributionPerKind = 1000;
constexpr std::size_t kRouterSelfPerKind = 200;
static_assert(kCheckCaps[0] <= kRouterSelfPerKind &&
                  kCheckCaps[1] <= kRouterSelfPerKind &&
                  kCheckCaps[2] <= kRouterSelfPerKind,
              "checked router answers must come from the router sample");
// Rate-sweep probe length.
constexpr double kProbeSeconds = 1.0;
// Every this many events handed to ingest, one is tracked until answered.
constexpr std::size_t kFreshEvery = 97;
// ingest_durable runs one durable ingest per this many seconds of the
// run: about what one takes on a 4-vCPU host (6 at 20 s).
constexpr double kSecondsPerIngest = 3.3;

// The gated end-to-end metrics. Serving tail latencies and the rate sweep
// are reported with the per-layer metrics instead (see README.md: on a
// shared virtual machine their run-to-run spread exceeds any usable bound).
const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},
    {"ingest_eps", "1/s"},
    {"cold_start_s", "s"},
    {"peak_rss_mb", "MB"},
    {"ts_bytes_per_event", "B"},
    {"disk_bytes_per_event", "B"},
    {"frontier_p50_ms", "ms"},
    {"freshness_s", "s"}};

const std::vector<MetricSpec> kPerLayer = {
    {"precedence_p50_us", "us"},
    {"precedence_p99_us", "us"},
    {"batch_p50_us", "us"},
    {"batch_p99_us", "us"},
    {"frontier_p99_ms", "ms"},
    {"max_sustainable_qps", "1/s"},
    {"serve.precedence.samples", "count"},
    {"serve.batch.samples", "count"},
    {"serve.frontier.samples", "count"},
    {"monitor.ingest.self_s", "s"},
    {"monitor.ingest.self_ns_p99", "ns"},
    {"monitor.pending_max", "count"},
    {"monitor.failed", "count"},
    {"core.cluster_receive_ratio", "ratio"},
    {"core.merges", "count"},
    {"core.final_clusters", "count"},
    {"core.largest_cluster", "count"},
    {"wal.append.busy_s", "s"},
    {"wal.append.ns_p99", "ns"},
    {"wal.syncs", "count"},
    {"wal.bytes_per_event", "B"},
    {"wal.checkpoint.busy_s", "s"},
    {"store.publish.busy_s", "s"},
    {"store.publish.bytes", "B"},
    {"store.publish.rss_delta_mb", "MB"},
    {"store.recover.busy_s", "s"},
    {"store.recover.rung", "rung"},
    {"store.recover.rejected", "count"},
    {"store.recover.minflt", "count"},
    {"store.recover.majflt", "count"},
    {"store.recover.rss_mb", "MB"},
    {"store.open_s", "s"},
    {"store.verify_blocks_s", "s"},
    {"store.verify_structure_s", "s"},
    {"store.mapped_precedes_ns_p50", "ns"},
    {"shard.ingest.busy_s", "s"},
    {"shard.open_epoch_s", "s"},
    {"shard.close_epoch_s", "s"},
    {"shard.precedence.ns_p50", "ns"},
    {"shard.precedence.ns_p99", "ns"},
    {"shard.batch.ns_p50", "ns"},
    {"shard.batch.ns_p99", "ns"},
    {"shard.frontier.ns_p50", "ns"},
    {"shard.frontier.ns_p99", "ns"},
    {"shard.precedence.self_ns_p50", "ns"},
    {"shard.batch.self_ns_p50", "ns"},
    {"shard.frontier.self_ns_p50", "ns"},
    {"shard.attempts_per_query", "ratio"},
    {"shard.retries", "count"},
    {"shard.hedges", "count"},
    {"shard.shed", "count"},
    {"broker.precedence.ns_p50", "ns"},
    {"broker.precedence.ns_p99", "ns"},
    {"broker.batch.ns_p50", "ns"},
    {"broker.batch.ns_p99", "ns"},
    {"broker.frontier.ns_p50", "ns"},
    {"broker.frontier.ns_p99", "ns"},
    {"broker.precedence.self_ns_p50", "ns"},
    {"broker.batch.self_ns_p50", "ns"},
    {"broker.frontier.self_ns_p50", "ns"},
    {"broker.cache_hit_ratio", "ratio"},
    {"broker.fallback_answers", "count"},
    {"broker.max_queue_depth", "count"},
    {"broker.deadline_expired", "count"},
    {"engine.precedes_ns_p50", "ns"},
    {"engine.batch_ns_per_pair", "ns"},
    {"kernel.precedence.ticks_per_query", "ticks"},
    {"kernel.batch.ticks_per_query", "ticks"},
    {"kernel.frontier.ticks_per_query", "ticks"},
    {"kernel.precedence.bytes_per_query", "B"},
    {"kernel.batch.bytes_per_query", "B"},
    {"kernel.frontier.bytes_per_query", "B"},
    {"gen.lateness_p99_ms", "ms"},
    {"gen.backlog_max", "count"},
    {"tracing.overhead_ratio", "ratio"},
    {"op_fail_ratio", "ratio"}};

// --- child-process plumbing --------------------------------------------------

using KeyValues = std::map<std::string, double>;

void write_kv(const std::string& path, const KeyValues& kv) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  for (const auto& [k, v] : kv) std::fprintf(f, "%s %.17g\n", k.c_str(), v);
  std::fclose(f);
}

KeyValues read_kv(const std::string& path) {
  KeyValues kv;
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::string key;
  double value = 0.0;
  while (in >> key >> value) kv[key] = value;
  return kv;
}

double kv_or(const KeyValues& kv, const std::string& key, double def) {
  const auto it = kv.find(key);
  return it == kv.end() ? def : it->second;
}

/// Runs `args` (args[0] is the program) as a child with stdout sent to
/// stderr, and waits for it. Returns its exit status (-1 if it died).
int spawn_and_wait(const std::vector<std::string>& args) {
  std::vector<char*> argv;
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    dup2(STDERR_FILENO, STDOUT_FILENO);  // the parent's stdout ends in JSON
    execv(argv[0], argv.data());
    _exit(127);
  }
  int status = 0;
  while (waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) return -1;
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

// --- serving totals ------------------------------------------------------------

struct ServeTotals {
  Dist latency_ns[kKinds];
  Dist service_ns[kKinds];
  Dist lateness_ns;
  std::size_t backlog_max = 0;
  std::uint64_t attempted = 0, failed = 0, attempts = 0;

  void add(const ServeStats& s) {
    for (int k = 0; k < kKinds; ++k) {
      latency_ns[k].append(s.latency_ns[k]);
      service_ns[k].append(s.service_ns[k]);
    }
    lateness_ns.append(s.lateness_ns);
    backlog_max = std::max(backlog_max, s.backlog_max);
    attempted += s.attempted;
    failed += s.failed;
    attempts += s.attempts;
  }
};

KeyValues serve_kv(const ServeTotals& t) {
  KeyValues kv;
  for (int k = 0; k < kKinds; ++k) {
    const std::string name = kind_name(static_cast<Kind>(k));
    kv[name + ".p50_ns"] = t.latency_ns[k].median();
    kv[name + ".p99_ns"] = t.latency_ns[k].quantile(0.99);
    kv[name + ".p90_ns"] = t.latency_ns[k].quantile(0.90);
    kv[name + ".samples"] = static_cast<double>(t.latency_ns[k].size());
    kv[name + ".beyond_p99"] = static_cast<double>(t.latency_ns[k].beyond(0.99));
    kv[name + ".service_p50_ns"] = t.service_ns[k].median();
    kv[name + ".service_p99_ns"] = t.service_ns[k].quantile(0.99);
  }
  kv["lateness_p99_ns"] = t.lateness_ns.quantile(0.99);
  kv["backlog_max"] = static_cast<double>(t.backlog_max);
  kv["attempted"] = static_cast<double>(t.attempted);
  kv["failed"] = static_cast<double>(t.failed);
  kv["attempts"] = static_cast<double>(t.attempts);
  return kv;
}

/// Latency metrics and their sample counts (printed; the JSON carries the
/// values).
void set_serving_metrics(Report& r, const KeyValues& kv) {
  r.set("precedence_p50_us", kv.at("precedence.p50_ns") * 1e-3);
  r.set("precedence_p99_us", kv.at("precedence.p99_ns") * 1e-3);
  r.set("batch_p50_us", kv.at("batch.p50_ns") * 1e-3);
  r.set("batch_p99_us", kv.at("batch.p99_ns") * 1e-3);
  r.set("frontier_p50_ms", kv.at("frontier.p50_ns") * 1e-6);
  r.set("frontier_p99_ms", kv.at("frontier.p99_ns") * 1e-6);
  r.set("gen.lateness_p99_ms", kv.at("lateness_p99_ns") * 1e-6);
  r.set("gen.backlog_max", kv.at("backlog_max"));
  std::printf("generator: lateness p99 %.3f ms, backlog max %.0f\n",
              kv.at("lateness_p99_ns") * 1e-6, kv.at("backlog_max"));
  for (int k = 0; k < kKinds; ++k) {
    const std::string name = kind_name(static_cast<Kind>(k));
    const double n = kv.at(name + ".samples");
    const double beyond = kv.at(name + ".beyond_p99");
    r.set("serve." + name + ".samples", n);
    std::printf("samples %-10s n=%.0f beyond_p99=%.0f latency p50/p90/p99 "
                "%.1f/%.1f/%.1f us, service p50/p99 %.1f/%.1f us%s\n",
                name.c_str(), n, beyond, kv.at(name + ".p50_ns") * 1e-3,
                kv.at(name + ".p90_ns") * 1e-3, kv.at(name + ".p99_ns") * 1e-3,
                kv.at(name + ".service_p50_ns") * 1e-3,
                kv.at(name + ".service_p99_ns") * 1e-3,
                beyond < 10 ? "  (p99 rests on fewer than 10)" : "");
  }
}

// --- attribution (traced run) ------------------------------------------------

struct Attribution {
  Dist broker_ns[kKinds], monitor_ns[kKinds];
  Dist router_self_ns[kKinds], broker_self_ns[kKinds];
  double ticks[kKinds] = {0, 0, 0};
  double cache_lookups = 0.0;
  ct::BrokerHealth broker_health;
  AnswerSet answers;
  std::uint64_t attempted = 0, failed = 0;
};

/// Sends one fixed sample of the mix, closed loop, to the broker and the
/// monitor of a replica (and a prefix of it through the router), so each
/// layer's self time is its call minus the layer below on the same query.
Attribution attribute_layers(std::span<const Query> schedule,
                             std::size_t visible,
                      Target* router, ct::QueryBroker& broker,
                      std::span<const ct::EventId> order,
                      const ct::MonitoringEntity& replica) {
  Attribution a;
  const auto sample = first_of_each_kind(
      schedule, {kAttributionPerKind, kAttributionPerKind, kAttributionPerKind});
  BrokerTarget broker_t(broker, order);
  MonitorTarget monitor_t(replica, order);
  const OpenLoopRun via_broker = run_closed_loop(schedule, broker_t, sample);
  a.broker_health = broker.health();
  const OpenLoopRun via_monitor = run_closed_loop(schedule, monitor_t, sample);
  OpenLoopRun via_router;
  const auto router_sample = first_of_each_kind(
      schedule, {kRouterSelfPerKind, kRouterSelfPerKind, kRouterSelfPerKind});
  if (router != nullptr) {
    via_router = run_closed_loop(schedule, *router, router_sample);
  }
  std::uint64_t count[kKinds] = {0, 0, 0};
  for (const std::size_t i : sample) {
    const auto k = static_cast<int>(schedule[i].kind);
    const Outcome& b = via_broker.outcomes[i];
    const Outcome& m = via_monitor.outcomes[i];
    const double bns = static_cast<double>(b.end_ns - b.start_ns);
    const double mns = static_cast<double>(m.end_ns - m.start_ns);
    a.broker_ns[k].add(bns);
    a.monitor_ns[k].add(mns);
    a.broker_self_ns[k].add(bns - mns);
    a.ticks[k] += static_cast<double>(m.cost);
    ++count[k];
    a.attempted += 2;
    a.failed += (b.ok ? 0u : 1u) + (m.ok ? 0u : 1u);
    switch (schedule[i].kind) {
      case Kind::kPrecedence: a.cache_lookups += 1; break;
      case Kind::kBatch: a.cache_lookups += kBatchPairs; break;
      case Kind::kFrontier:
        if (via_broker.answers[i].frontier) {
          a.cache_lookups += static_cast<double>(
              via_broker.answers[i].frontier->precedence_tests);
        }
        break;
    }
  }
  for (int k = 0; k < kKinds; ++k) {
    if (count[k] > 0) a.ticks[k] /= static_cast<double>(count[k]);
  }
  if (router != nullptr) {
    for (const std::size_t i : router_sample) {
      const auto k = static_cast<int>(schedule[i].kind);
      const Outcome& r = via_router.outcomes[i];
      const Outcome& b = via_broker.outcomes[i];
      a.router_self_ns[k].add(static_cast<double>(
          (r.end_ns - r.start_ns) - (b.end_ns - b.start_ns)));
      ++a.attempted;
      a.failed += r.ok ? 0 : 1;
    }
  }
  // Check a slice of every source's answers.
  const auto checked = first_of_each_kind(schedule, kCheckCaps);
  a.answers.add_run(schedule, via_broker, checked, visible);
  a.answers.add_run(schedule, via_monitor, checked, visible);
  if (router != nullptr) a.answers.add_run(schedule, via_router, checked, visible);
  return a;
}

/// A schedule of exactly kAttributionPerKind queries of every kind; only
/// its order matters, the attribution runs it closed loop.
std::vector<Query> attribution_schedule(const WorkloadConfig& cfg,
                                        std::span<const ct::EventId> order,
                                        std::size_t visible,
                                        std::uint64_t seed) {
  const double seconds =
      static_cast<double>(kAttributionPerKind * kKinds) / cfg.mix.rate_qps;
  return make_schedule(cfg.mix, order, visible, seconds, seed ^ 0xa77ull);
}

void set_attribution_metrics(Report& r, const Attribution& a) {
  for (int k = 0; k < kKinds; ++k) {
    const std::string name = kind_name(static_cast<Kind>(k));
    r.set("broker." + name + ".ns_p50", a.broker_ns[k].median());
    r.set("broker." + name + ".ns_p99", a.broker_ns[k].quantile(0.99));
    r.set("broker." + name + ".self_ns_p50", a.broker_self_ns[k].median());
    r.set("shard." + name + ".self_ns_p50", a.router_self_ns[k].median());
    r.set("kernel." + name + ".ticks_per_query", a.ticks[k]);
    r.set("kernel." + name + ".bytes_per_query", a.ticks[k] * 4.0);
  }
  r.set("engine.precedes_ns_p50", a.monitor_ns[0].median());
  r.set("engine.batch_ns_per_pair",
        a.monitor_ns[1].median() / static_cast<double>(kBatchPairs));
  r.set("broker.cache_hit_ratio",
        a.cache_lookups > 0
            ? static_cast<double>(a.broker_health.cache_hits) / a.cache_lookups
            : 0.0);
  r.set("broker.fallback_answers",
        static_cast<double>(a.broker_health.fallback_answers));
  r.set("broker.max_queue_depth",
        static_cast<double>(a.broker_health.max_queue_depth));
  r.set("broker.deadline_expired",
        static_cast<double>(a.broker_health.deadline_expired));
}

/// Call durations of the spans of one layer and query kind.
Dist span_durations(Layer layer, Kind kind) {
  Dist d;
  for (const std::vector<Span>* spans : Tracer::buffers()) {
    for (const Span& s : *spans) {
      if (s.layer == layer && s.kind == static_cast<std::uint8_t>(kind)) {
        d.add(static_cast<double>(s.end - s.start));
      }
    }
  }
  return d;
}

void set_router_call_metrics(Report& r) {
  for (int k = 0; k < kKinds; ++k) {
    const std::string name = kind_name(static_cast<Kind>(k));
    const Dist d = span_durations(Layer::kShardQuery, static_cast<Kind>(k));
    r.set("shard." + name + ".ns_p50", d.median());
    r.set("shard." + name + ".ns_p99", d.quantile(0.99));
  }
}

/// Layer busy / self times from the recorded spans.
void set_span_metrics(Report& r) {
  const LayerTimes lt = layer_times();
  const auto idx = [](Layer l) { return static_cast<int>(l); };
  const Dist& ingest_self = lt.self_ns[idx(Layer::kMonitorIngest)];
  r.set("monitor.ingest.self_s", ingest_self.sum() * 1e-9);
  r.set("monitor.ingest.self_ns_p99", ingest_self.quantile(0.99));
  const Dist& wal = lt.total_ns[idx(Layer::kWalAppend)];
  r.set("wal.append.busy_s", wal.sum() * 1e-9);
  r.set("wal.append.ns_p99", wal.quantile(0.99));
  r.set("wal.checkpoint.busy_s",
        lt.total_ns[idx(Layer::kWalCheckpoint)].sum() * 1e-9);
  r.set("store.publish.busy_s",
        lt.total_ns[idx(Layer::kStorePublish)].sum() * 1e-9);
  r.set("shard.ingest.busy_s",
        lt.total_ns[idx(Layer::kShardIngest)].sum() * 1e-9);
  r.set("shard.open_epoch_s",
        lt.total_ns[idx(Layer::kShardOpenEpoch)].median() * 1e-9);
  r.set("shard.close_epoch_s",
        lt.total_ns[idx(Layer::kShardCloseEpoch)].median() * 1e-9);
}

void set_core_metrics(Report& r, const ct::MonitoringEntity& m) {
  const auto st = m.cluster_stats();
  const double events = st ? static_cast<double>(st->events) : 0.0;
  r.set("core.cluster_receive_ratio",
        st && events > 0 ? static_cast<double>(st->cluster_receives) / events
                         : 0.0);
  r.set("core.merges", st ? static_cast<double>(st->merges) : 0.0);
  r.set("core.final_clusters",
        st ? static_cast<double>(st->final_clusters) : 0.0);
  r.set("core.largest_cluster",
        st ? static_cast<double>(st->largest_cluster) : 0.0);
  const ct::MonitorHealth& h = m.health();
  r.set("monitor.pending_max", static_cast<double>(h.max_queue_depth));
  r.set("monitor.failed",
        static_cast<double>(h.rejected + h.evicted + h.duplicates));
  r.set("ts_bytes_per_event",
        static_cast<double>(m.timestamp_words()) * 4.0 /
            static_cast<double>(std::max<std::size_t>(1, m.stored())));
}

/// Zero-valued per-layer metrics for layers a workload does not exercise
/// (set first; the workload overwrites what it measures).
void set_idle_layers(Report& r) {
  for (const MetricSpec& m : kPerLayer) r.set(m.name, 0.0);
}

// --- cold start ----------------------------------------------------------------

struct ColdStart {
  KeyValues first;       ///< measurements of the first child
  KeyValues attributed;  ///< measurements of the child that attributed
  ServeTotals serving;   ///< every serving child's queries
  Dist seconds;
  std::size_t children = 0;
  std::uint64_t checked = 0;  ///< answers the children checked themselves
  std::uint64_t wrong = 0;    ///< of which wrong
  std::uint64_t digest = 0;
  bool digest_consistent = true;
  bool ok = true;
};

/// `x` with every digit, for a child's command line.
std::string exact(double x) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", x);
  return buf;
}

/// What a cold-start child does after its cold start, besides checking.
struct ChildWork {
  double serve_s = 0.0;    ///< serve its slice of the mix this long
  bool attribute = false;  ///< rate sweep and layer attribution (traced)
};

/// Reads the queries a serving child wrote (`kind latency service
/// lateness`, in ns, one line each) into `totals`.
void read_serving(const std::string& path, const KeyValues& kv,
                  ServeTotals& totals) {
  ServeStats s;
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  int kind = 0;
  double latency = 0, service = 0, lateness = 0;
  while (in >> kind >> latency >> service >> lateness) {
    s.latency_ns[kind].add(latency);
    s.service_ns[kind].add(service);
    s.lateness_ns.add(lateness);
  }
  s.backlog_max = static_cast<std::size_t>(kv.at("backlog_max"));
  s.attempted = static_cast<std::uint64_t>(kv.at("attempted"));
  s.failed = static_cast<std::uint64_t>(kv.at("failed"));
  s.attempts = static_cast<std::uint64_t>(kv.at("attempts"));
  totals.add(s);
}

/// Cold-starts `reps` fresh child processes over `dir`, one after another,
/// and adds their measurements to `cs`; each then does `work`. The
/// workloads call this between their repetitions, so the cold starts (and
/// ingest_durable's serving) sample the whole run. Child n serves slice n
/// of the mix (seed + n).
void cold_start(const RunOptions& o, const std::string& dir,
                const std::string& ns, std::size_t reps, ChildWork work,
                ColdStart& cs) {
  for (std::size_t i = 0; i < reps; ++i) {
    const std::size_t n = cs.children++;
    const std::string tag = o.workdir + "/child" + std::to_string(n);
    const std::vector<std::string> args = {
        o.self_exe, "--phase=coldstart", "--workload=" + o.workload,
        "--seed=" + std::to_string(o.seed),
        std::string("--trace=") + (o.trace ? "1" : "0"), "--dir=" + dir,
        "--spans=" + o.spans + ".child" + std::to_string(n),
        "--ns=" + ns, "--out=" + tag + ".kv",
        "--serve-seconds=" + exact(work.serve_s),
        "--slice=" + std::to_string(n),
        std::string("--attribute=") + (work.attribute ? "1" : "0")};
    const int rc = spawn_and_wait(args);
    if (rc != 0) {
      cs.ok = false;
      continue;
    }
    KeyValues kv = read_kv(tag + ".kv");
    std::ifstream dig(tag + ".kv.digest");
    std::uint64_t d = 0;
    dig >> d;
    if (cs.seconds.empty()) {
      cs.digest = d;
      cs.first = kv;
    } else if (d != cs.digest) {
      cs.digest_consistent = false;
    }
    if (work.serve_s > 0) read_serving(tag + ".kv.serve", kv, cs.serving);
    if (work.attribute) cs.attributed = kv;
    cs.seconds.add(kv.at("cold_start_s"));
    cs.checked += static_cast<std::uint64_t>(kv.at("checked"));
    cs.wrong += static_cast<std::uint64_t>(kv.at("wrong"));
  }
}

void set_coldstart_metrics(Report& r, const ColdStart& cs) {
  r.set("cold_start_s", cs.seconds.median());
  cs.seconds.print("cold_start_s");
  const KeyValues& kv = cs.first;
  r.set("store.recover.busy_s", kv_or(kv, "recover_s", 0));
  r.set("store.recover.rung", kv_or(kv, "rung", 0));
  r.set("store.recover.rejected", kv_or(kv, "rejected", 0));
  r.set("store.recover.minflt", kv_or(kv, "minflt", 0));
  r.set("store.recover.majflt", kv_or(kv, "majflt", 0));
  r.set("store.recover.rss_mb", kv_or(kv, "rss_mb", 0));
  r.set("store.open_s", kv_or(kv, "open_s", 0));
  r.set("store.verify_blocks_s", kv_or(kv, "verify_blocks_s", 0));
  r.set("store.verify_structure_s", kv_or(kv, "verify_structure_s", 0));
  r.set("store.mapped_precedes_ns_p50", kv_or(kv, "mapped_precedes_ns_p50", 0));
}

// --- shared epilogue -------------------------------------------------------------

struct Checks {
  AnswerSet answers;
  /// The cold-start children check their own answers against the same
  /// ground truth and report the counts.
  std::uint64_t child_checked = 0;
  std::uint64_t child_wrong = 0;
  std::vector<std::pair<std::string, bool>> invariants;

  void add_cold_start(const ColdStart& cs) {
    child_checked += cs.checked;
    child_wrong += cs.wrong;
  }
};

/// Checks every collected answer against ground truth over `trace`, plus
/// the named invariants; records failures in the report.
void finish_checks(const RunOptions& o, const ct::Trace& trace,
                   Checks& checks, Report& r) {
  if (o.corrupt_answer) checks.answers.corrupt_one();
  GroundTruth truth(trace);
  const std::uint64_t wrong =
      count_wrong(truth, trace.delivery_order(), checks.answers) +
      checks.child_wrong;
  const std::uint64_t checked = checks.answers.size() + checks.child_checked;
  r.attempt(checked);
  if (wrong > 0) r.wrong(wrong);
  for (const auto& [what, ok] : checks.invariants) {
    if (!ok) r.check_error(what);
  }
  std::printf("check: %llu sampled answers (%llu in cold-start children) vs "
              "on-demand FM ground truth, %llu wrong; %zu invariants, %zu "
              "violated\n",
              static_cast<unsigned long long>(checked),
              static_cast<unsigned long long>(checks.child_checked),
              static_cast<unsigned long long>(wrong),
              checks.invariants.size(), r.check_errors().size());
  for (const std::string& e : r.check_errors()) {
    std::printf("check FAILED: %s\n", e.c_str());
  }
}

/// The answers kept and checked from one serving run: the first queries of
/// each kind, a `parts`-th of the per-source check sample.
std::vector<std::size_t> check_sample(std::span<const Query> schedule,
                                      std::size_t parts = 1) {
  KindCaps caps;
  for (std::size_t k = 0; k < caps.size(); ++k) {
    caps[k] = (kCheckCaps[k] + parts - 1) / parts;
  }
  return first_of_each_kind(schedule, caps);
}

ct::WalOptions wal_options(const WorkloadConfig& cfg) {
  ct::WalOptions wo;
  wo.policy = cfg.sync_policy;
  wo.sync_every = cfg.sync_every;
  return wo;
}

void print_inputs(const WorkloadConfig& cfg, const ct::Trace& trace,
                  std::uint64_t digest, std::size_t queries) {
  std::printf("inputs: N=%zu events=%zu maxCS=%zu threshold=%.0f "
              "queries=%zu digest=%016llx\n",
              cfg.processes, trace.event_count(), cfg.max_cluster_size,
              cfg.nth_threshold, queries,
              static_cast<unsigned long long>(digest));
}

/// Empties `dir`: the benchmark's own bookkeeping, never timed.
void fresh_dir(const std::string& dir) {
  fs::remove_all(dir);
  fs::create_directories(dir);
}

/// A monitor with a WAL on real files, its delivery tap timed.
struct DurableMonitor {
  std::unique_ptr<ct::FileStorage> files;
  std::unique_ptr<ct::DurableLog> log;
  std::unique_ptr<ct::MonitoringEntity> monitor;  // taps `log`: freed first
};

/// Starts a durable monitor on the empty directory `dir` the way a service
/// starts: open the storage, run the recovery ladder (nothing survives, so
/// it lands on the scratch rung), open the WAL and tap it on every
/// delivery.
DurableMonitor start_durable(const WorkloadConfig& cfg,
                             const std::string& dir) {
  DurableMonitor d;
  d.files = std::make_unique<ct::FileStorage>(dir);
  d.monitor = ct::recover_with_ladder(*d.files, cfg.processes,
                                      monitor_options(cfg))
                  .monitor;
  d.log = std::make_unique<ct::DurableLog>(*d.files, wal_options(cfg));
  ct::DurableLog* log = d.log.get();
  d.monitor->set_delivery_tap([log](const ct::Event& e) {
    ScopedSpan span(Layer::kWalAppend, log->next_record_seq());
    log->append(e);
  });
  return d;
}

/// Seconds to start a durable monitor on the empty directory `dir`: one
/// more sample of ingest_durable's set-up (the monitor is dropped again).
double time_durable_start(const WorkloadConfig& cfg, const std::string& dir) {
  fresh_dir(dir);
  const std::int64_t start = now_ns();
  const DurableMonitor d = start_durable(cfg, dir);
  return seconds_between(start, now_ns());
}

/// A replica of the durable leader for the traced attribution: the same
/// events through a durable monitor of its own.
DurableMonitor make_replica(const WorkloadConfig& cfg, const std::string& dir,
                            std::span<const ct::Event> events) {
  fresh_dir(dir);
  DurableMonitor rep = start_durable(cfg, dir);
  for (std::size_t i = 0; i < events.size(); ++i) {
    ScopedSpan span(Layer::kMonitorIngest, i);
    rep.monitor->ingest(events[i]);
  }
  return rep;
}

// --- ingest_durable ----------------------------------------------------------------

struct IngestRep {
  double setup_s = 0.0;  ///< start of the durable monitor
  double seconds = 0.0;  ///< the ingest, after the start
  std::uint64_t delivered = 0;
  std::vector<double> freshness_s;
  AnswerSet fresh_answers;
  std::uint64_t digest = 0;
  std::uint64_t disk_bytes = 0;
  ct::WalStats wal;
  std::uint64_t publish_bytes = 0;
  double publish_rss_delta_mb = 0.0;
  bool accounted = false;
  std::uint64_t pending = 0;
};

/// Starts a durable monitor on an empty directory and ingests the whole
/// racing stream into it, with a CTS1 checkpoint and a CTC1 publication at
/// every cadence point. `core` receives the monitor's exact counts.
IngestRep durable_ingest(const WorkloadConfig& cfg,
                         std::span<const ct::Event> stream,
                         const std::string& dir, Report* core) {
  IngestRep rep;
  fresh_dir(dir);
  const std::int64_t start = now_ns();
  const DurableMonitor d = start_durable(cfg, dir);
  rep.setup_s = seconds_between(start, now_ns());
  ct::MonitoringEntity& monitor = *d.monitor;
  ct::DurableLog& log = *d.log;
  struct Tracked {
    ct::EventId id;
    std::int64_t handed_ns;
  };
  std::vector<Tracked> tracked;
  std::uint64_t generation = 0;
  const std::int64_t t0 = now_ns();
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const ct::Event& e = stream[i];
    if (i % kFreshEvery == 0) tracked.push_back(Tracked{e.id, now_ns()});
    ct::IngestResult res;
    {
      ScopedSpan span(Layer::kMonitorIngest, i);
      res = monitor.ingest(e);
    }
    if (res.delivered_now > 0 && !tracked.empty()) {
      // Freshness: the first answer that includes a tracked event, as
      // soon as it is delivered.
      for (std::size_t k = 0; k < tracked.size();) {
        const ct::EventId id = tracked[k].id;
        if (monitor.delivered_count(id.process) < id.index) {
          ++k;
          continue;
        }
        const auto log_view = monitor.delivery_log();
        const ct::EventId other = log_view[log_view.size() / 2];
        const bool answer = monitor.precedes(other, id);
        rep.freshness_s.push_back(seconds_between(tracked[k].handed_ns,
                                                  now_ns()));
        rep.fresh_answers.points.push_back({other, id, answer});
        tracked[k] = tracked.back();
        tracked.pop_back();
      }
    }
    if (cfg.checkpoint_every > 0 && (i + 1) % cfg.checkpoint_every == 0) {
      {
        ScopedSpan span(Layer::kWalCheckpoint, i);
        log.checkpoint(monitor);
      }
      const double rss_before = vm_rss_mb();
      if (Tracer::enabled()) {
        // Reset the peak so the publication's own transient peak shows.
        std::ofstream("/proc/self/clear_refs") << "5";
      }
      ct::ColumnarPublishResult pub;
      {
        ScopedSpan span(Layer::kStorePublish, i);
        pub = ct::publish_columnar(*d.files, monitor, ++generation);
      }
      rep.publish_bytes += pub.bytes;
      rep.publish_rss_delta_mb =
          std::max(rep.publish_rss_delta_mb, vm_hwm_mb() - rss_before);
    }
  }
  log.sync();
  rep.seconds = seconds_between(t0, now_ns());
  monitor.set_delivery_tap(nullptr);
  rep.delivered = monitor.health().delivered;
  rep.accounted = monitor.health().accounted();
  rep.pending = monitor.pending();
  rep.digest = monitor.state_digest();
  rep.wal = log.stats();
  rep.disk_bytes = directory_bytes(dir);
  if (core != nullptr) set_core_metrics(*core, monitor);
  return rep;
}

/// Returns freed heap to the system between repetitions, so the peak
/// resident set does not depend on how many repetitions fit in a run.
void release_heap() { malloc_trim(0); }

void run_ingest_durable(const RunOptions& o, const WorkloadConfig& cfg,
                        Report& r) {
  // Inputs, fixed before anything is timed: the computation, its racing
  // arrival stream, and the slices of the mix the recovered monitors
  // serve, one per durable ingest and half the run in all.
  const ct::Trace trace = make_trace(cfg, o.seed);
  const std::vector<ct::Event> stream =
      racing_stream(trace, cfg.max_lag, o.seed);
  const auto ingests = static_cast<std::size_t>(
      std::max(1l, std::lround(o.seconds / kSecondsPerIngest)));
  const double slice_s = o.seconds / 2 / static_cast<double>(ingests);
  std::uint64_t digest = digest_events(kFnvOffset, stream);
  std::size_t queries = 0;
  for (std::size_t i = 0; i < ingests; ++i) {
    const auto slice = make_schedule(cfg.mix, trace.delivery_order(),
                                     trace.event_count(), slice_s, o.seed + i);
    digest = digest_queries(digest, slice);
    queries += slice.size();
  }
  print_inputs(cfg, trace, digest, queries);

  // The measured window: whole durable ingests, back to back, untraced;
  // each starts a durable monitor on an empty directory, which is the
  // set-up. After each, a fresh child process cold-starts from its
  // directory and serves one slice of the mix from the recovered monitor,
  // and a few more set-ups are timed, so these samples span the whole
  // run. The traced run then traces exactly one more ingest, so every busy
  // time it reports describes one pass over the stream, and a last child
  // sweeps rates and attributes layers.
  const std::string dir = o.workdir + "/wal";
  Tracer::enable(false);
  Dist setup_s, freshness, rep_s;
  IngestRep last;
  ColdStart cs;
  for (std::size_t i = 0; i < ingests; ++i) {
    last = durable_ingest(cfg, stream, dir, &r);
    release_heap();
    setup_s.add(last.setup_s);
    rep_s.add(last.seconds);
    for (const double f : last.freshness_s) freshness.add(f);
    cold_start(o, dir, "", 1, ChildWork{slice_s, false}, cs);
    for (std::size_t k = 0; k < cfg.setup_reps; ++k) {
      setup_s.add(time_durable_start(cfg, o.workdir + "/setup"));
    }
  }
  r.set("setup_s", setup_s.median());
  r.set("ingest_eps", static_cast<double>(stream.size()) / rep_s.median());
  r.set("freshness_s", freshness.median());
  r.set("peak_rss_mb", vm_hwm_mb());
  setup_s.print("setup_s");
  rep_s.print("ingest_s");
  std::size_t traced = 0;
  if (o.trace) {
    Tracer::enable(true);
    last = durable_ingest(cfg, stream, dir, &r);
    traced = 1;
    r.set("tracing.overhead_ratio", last.seconds / rep_s.median());
    set_span_metrics(r);
    cold_start(o, dir, "", 1, ChildWork{0.0, true}, cs);
  }
  r.set("disk_bytes_per_event",
        static_cast<double>(last.disk_bytes) /
            static_cast<double>(last.delivered));
  r.set("wal.syncs", static_cast<double>(last.wal.syncs));
  r.set("wal.bytes_per_event",
        static_cast<double>(last.wal.bytes_appended) /
            static_cast<double>(last.delivered));
  r.set("store.publish.bytes", static_cast<double>(last.publish_bytes));
  r.set("store.publish.rss_delta_mb", last.publish_rss_delta_mb);
  std::printf("ingest: %zu durable ingests of %llu events, %zu freshness "
              "samples\n",
              ingests + traced, static_cast<unsigned long long>(last.delivered),
              freshness.size());
  r.attempt(stream.size() * (ingests + traced));

  set_coldstart_metrics(r, cs);
  set_serving_metrics(r, serve_kv(cs.serving));
  r.attempt(cs.serving.attempted);
  r.fail(cs.serving.failed);
  if (o.trace) {
    const KeyValues& kv = cs.attributed;
    r.set("max_sustainable_qps", kv_or(kv, "max_sustainable_qps", 0));
    r.attempt(static_cast<std::uint64_t>(kv_or(kv, "attribution.attempted", 0)));
    r.fail(static_cast<std::uint64_t>(kv_or(kv, "attribution.failed", 0)));
    for (const MetricSpec& m : kPerLayer) {
      if (m.name.rfind("broker.", 0) == 0 || m.name.rfind("engine.", 0) == 0 ||
          m.name.rfind("kernel.", 0) == 0) {
        r.set(m.name, kv_or(kv, m.name, 0.0));
      }
    }
  }

  Checks checks;
  checks.answers = last.fresh_answers;
  checks.add_cold_start(cs);
  checks.invariants = {
      {"every cold-start child exited cleanly", cs.ok},
      {"recovered state_digest equals the live monitor's",
       cs.digest == last.digest && cs.digest_consistent},
      {"MonitorHealth accounts for every ingested record", last.accounted},
      {"every event delivered", last.pending == 0 &&
                                    last.delivered == trace.event_count()},
  };
  finish_checks(o, trace, checks, r);
}

// --- router workloads ------------------------------------------------------------------

struct Deployment {
  std::unique_ptr<ct::FileStorage> files;   // outlives the router's WAL
  std::unique_ptr<ct::ShardRouter> router;
  ct::TenantId tenant = 0;
  std::string dir;

  /// Tears down the router before the storage its WAL writes to.
  void reset() {
    router.reset();
    files.reset();
  }
};

/// A router with one tenant of `cfg.replicas` replicas and a tenant WAL on
/// the empty directory `dir`.
Deployment deploy(const WorkloadConfig& cfg, const std::string& dir) {
  Deployment d;
  d.dir = dir;
  ct::RouterOptions ro;
  ro.pool_threads = cfg.pool_threads;
  d.router = std::make_unique<ct::ShardRouter>(ro);
  ct::TenantConfig tc;
  tc.process_count = cfg.processes;
  tc.monitor = monitor_options(cfg);
  tc.shards = cfg.replicas;
  d.tenant = d.router->add_tenant(tc);
  d.files = std::make_unique<ct::FileStorage>(dir);
  d.router->attach_wal(d.tenant, *d.files, wal_options(cfg));
  return d;
}

/// Hands `events` to the router; returns the seconds spent and the hand-off
/// time of the last event. Counts rejections.
struct ChunkIngest {
  double seconds = 0.0;
  std::int64_t last_handed_ns = 0;
  std::uint64_t rejected = 0;
};

ChunkIngest router_ingest(Deployment& d, std::span<const ct::Event> events,
                          std::uint64_t first_seq) {
  ChunkIngest out;
  const std::int64_t t0 = now_ns();
  for (std::size_t i = 0; i < events.size(); ++i) {
    out.last_handed_ns = now_ns();
    ScopedSpan span(Layer::kShardIngest, first_seq + i);
    const ct::IngestResult res = d.router->ingest(d.tenant, events[i]);
    if (!res.accepted()) ++out.rejected;
  }
  out.seconds = seconds_between(t0, now_ns());
  return out;
}

void router_checkpoint(Deployment& d, std::uint64_t seq) {
  ScopedSpan span(Layer::kWalCheckpoint, seq);
  d.router->checkpoint_tenant(d.tenant);
}

void router_open(Deployment& d) {
  ScopedSpan span(Layer::kShardOpenEpoch, d.router->epoch() + 1);
  d.router->open_epoch();
}

void router_close(Deployment& d) {
  ScopedSpan span(Layer::kShardCloseEpoch, d.router->epoch());
  d.router->close_epoch();
}

/// Writes the tenant state a deployment reaches after ingesting `stream`
/// and checkpointing into the empty directory `dir`, untimed and untraced,
/// with one replica (only the leader replica is durable, so its WAL and
/// checkpoint are the tenant's). Returns the tenant's WAL namespace. The
/// router workloads cold-start from such a reference written before the
/// run, so the cold starts do not read files their own set-up has just
/// written.
std::string write_reference(const WorkloadConfig& cfg,
                            std::span<const ct::Event> stream,
                            const std::string& dir) {
  Tracer::enable(false);
  WorkloadConfig one = cfg;
  one.replicas = 1;
  fresh_dir(dir);
  Deployment ref = deploy(one, dir);
  router_ingest(ref, stream, 0);
  router_checkpoint(ref, stream.size());
  const std::string ns = ct::wal::tenant_namespace(ref.tenant);
  ref.reset();
  release_heap();
  return ns;
}

/// The first answer that includes `e`, through the router.
AnswerSet::Point fresh_answer(Deployment& d, ct::EventId other,
                              ct::EventId e) {
  const ct::RouterQueryResult res = d.router->precedence(d.tenant, other, e);
  return AnswerSet::Point{other, e, res.answer};
}

void set_shard_health(Report& r, const ct::TenantHealth& h,
                      const ServeTotals& t) {
  r.set("shard.attempts_per_query",
        t.attempted > 0 ? static_cast<double>(t.attempts) /
                              static_cast<double>(t.attempted)
                        : 0.0);
  r.set("shard.retries", static_cast<double>(h.retries));
  r.set("shard.hedges", static_cast<double>(h.hedges));
  r.set("shard.shed", static_cast<double>(h.shed));
}

/// Serving tail shared by the router workloads: the rate sweep, the
/// traced attribution, the epoch close, the cold starts' results and the
/// durable exact counts.
void finish_router_workload(const RunOptions& o, const WorkloadConfig& cfg,
                            Deployment& d, std::span<const ct::Event> stream,
                            std::span<const ct::EventId> order,
                            const ServeTotals& totals, const ColdStart& cs,
                            Checks& checks, Report& r) {
  const std::size_t visible = stream.size();
  RouterTarget target(*d.router, d.tenant, order);
  if (o.trace) {
    // The rate sweep reports with the per-layer metrics; its own queries
    // are not traced, so the router spans stay those of the nominal rate.
    Tracer::enable(false);
    const SweepResult sweep =
        sweep_max_rate(cfg.mix, order, visible, target, cfg.mix.rate_qps,
                       kProbeSeconds, o.seed ^ 0x5eedull);
    Tracer::enable(true);
    r.set("max_sustainable_qps", sweep.max_sustainable_qps);
    std::printf("sweep: %zu probes of %.1f s, max sustainable %.1f qps\n",
                sweep.probes, kProbeSeconds, sweep.max_sustainable_qps);
  }

  const KeyValues kv = serve_kv(totals);
  set_serving_metrics(r, kv);
  r.attempt(totals.attempted);
  r.fail(totals.failed);
  set_shard_health(r, d.router->tenant_health(d.tenant), totals);

  const ct::MonitoringEntity& leader = d.router->shard_monitor(d.tenant, 0);
  set_core_metrics(r, leader);
  const std::uint64_t live_digest = leader.state_digest();
  const ct::DurableLog* wal = d.router->wal(d.tenant);
  r.set("wal.syncs", static_cast<double>(wal->stats().syncs));
  r.set("wal.bytes_per_event",
        static_cast<double>(wal->stats().bytes_appended) /
            static_cast<double>(visible));

  if (o.trace) {
    set_router_call_metrics(r);
    // Attribution on a replica built from the same input, with its own
    // WAL so the append cost is timed in a tap of the benchmark's own.
    Tracer::enable(false);
    const auto att_schedule =
        attribution_schedule(cfg, order, visible, o.seed);
    const auto ref_sample = first_of_each_kind(
        att_schedule,
        {kRouterSelfPerKind, kRouterSelfPerKind, kRouterSelfPerKind});
    // Tracing overhead: one fixed closed-loop pass through the router,
    // untraced then traced.
    const double untraced_s =
        run_closed_loop(att_schedule, target, ref_sample).wall_s;
    Tracer::enable(true);
    const double traced_s =
        run_closed_loop(att_schedule, target, ref_sample).wall_s;
    r.set("tracing.overhead_ratio", traced_s / untraced_s);

    const DurableMonitor rep =
        make_replica(cfg, o.workdir + "/replica", stream);
    ct::ThreadPool pool(cfg.pool_threads);
    {
      ct::QueryBroker broker(*rep.monitor, pool, ct::BrokerOptions{});
      Attribution a = attribute_layers(att_schedule, visible, &target, broker,
                                       order, *rep.monitor);
      set_attribution_metrics(r, a);
      r.attempt(a.attempted);
      r.fail(a.failed);
      checks.answers.append(a.answers);
    }
  }
  router_close(d);
  if (o.trace) set_span_metrics(r);

  r.set("peak_rss_mb", vm_hwm_mb());
  r.set("disk_bytes_per_event",
        static_cast<double>(directory_bytes(d.dir)) /
            static_cast<double>(visible));
  set_coldstart_metrics(r, cs);
  checks.add_cold_start(cs);
  checks.invariants.push_back({"every cold-start child exited cleanly", cs.ok});
  checks.invariants.push_back(
      {"recovered tenant state_digest equals the live leader's",
       cs.digest == live_digest && cs.digest_consistent});
  const ct::TenantHealth h = d.router->tenant_health(d.tenant);
  checks.invariants.push_back(
      {"TenantHealth accounts for every routed query", h.accounted()});
}

void run_viewport_serve(const RunOptions& o, const WorkloadConfig& cfg,
                        Report& r) {
  // Inputs, fixed before anything is timed: the stream and the mix, in
  // one slice per cold start.
  const ct::Trace trace = make_trace(cfg, o.seed);
  const std::vector<ct::Event> stream = ordered_stream(trace);
  const auto order = trace.delivery_order();
  const std::size_t segments = cfg.setup_reps;
  const std::size_t per_segment = cfg.coldstart_reps;
  const std::size_t slice_count = segments * per_segment;
  const double slice_s = o.seconds / static_cast<double>(slice_count);
  std::vector<std::vector<Query>> slices;
  std::uint64_t digest = digest_events(kFnvOffset, stream);
  std::size_t queries = 0;
  for (std::size_t i = 0; i < slice_count; ++i) {
    slices.push_back(
        make_schedule(cfg.mix, order, stream.size(), slice_s, o.seed + i));
    digest = digest_queries(digest, slices.back());
    queries += slices.back().size();
  }
  print_inputs(cfg, trace, digest, queries);
  const std::string ref_dir = o.workdir + "/reference";
  const std::string ref_ns = write_reference(cfg, stream, ref_dir);

  // The run is `segments` segments, so that every repeated measurement
  // samples the whole run. Each sets up a fresh deployment — preload into
  // one tenant of three replicas through a tenant WAL, checkpoint, open
  // the serving epoch, first answer — then, `per_segment` times, cold-
  // starts the tenant's reference state in a fresh child and serves one
  // slice of the mix open loop at the nominal rate. Only the last set-up
  // is traced, so every busy time describes one set-up; the last
  // deployment stays for the epilogue.
  const std::string dir = o.workdir + "/tenant";
  Dist setup_s, ingest_s, fresh_s;
  Deployment d;
  ColdStart cs;
  ServeTotals totals;
  Checks checks;
  for (std::size_t i = 0; i < segments; ++i) {
    d.reset();  // free the previous deployment first
    release_heap();
    fresh_dir(dir);
    Tracer::enable(o.trace && i + 1 == segments);
    const std::int64_t t0 = now_ns();
    d = deploy(cfg, dir);
    const ChunkIngest ci = router_ingest(d, stream, 0);
    router_checkpoint(d, stream.size());
    router_open(d);
    const AnswerSet::Point p =
        fresh_answer(d, order[order.size() / 2], order.back());
    const std::int64_t t1 = now_ns();
    Tracer::enable(o.trace);
    setup_s.add(seconds_between(t0, t1));
    fresh_s.add(seconds_between(ci.last_handed_ns, t1));
    ingest_s.add(ci.seconds);
    checks.answers.points.push_back(p);
    r.attempt(stream.size() + 1);
    r.fail(ci.rejected);

    RouterTarget target(*d.router, d.tenant, order);
    for (std::size_t j = 0; j < per_segment; ++j) {
      cold_start(o, ref_dir, ref_ns, 1, ChildWork{}, cs);
      const std::vector<Query>& schedule = slices[i * per_segment + j];
      const auto sampled = check_sample(schedule, slice_count);
      const OpenLoopRun run = run_open_loop(schedule, target, sampled);
      totals.add(serve_stats(schedule, run));
      checks.answers.add_run(schedule, run, sampled, stream.size());
    }
  }
  r.set("setup_s", setup_s.median());
  r.set("ingest_eps", static_cast<double>(stream.size()) / ingest_s.median());
  r.set("freshness_s", fresh_s.median());
  setup_s.print("setup_s");
  ingest_s.print("ingest_s");
  fresh_s.print("freshness_s");

  finish_router_workload(o, cfg, d, stream, order, totals, cs, checks, r);
  finish_checks(o, trace, checks, r);
}

void run_wide_churn(const RunOptions& o, const WorkloadConfig& cfg,
                    Report& r) {
  // Inputs, fixed before anything is timed: the stream, its chunk
  // boundaries, and one burst of the mix per cycle over everything
  // ingested by then.
  const ct::Trace trace = make_trace(cfg, o.seed);
  const std::vector<ct::Event> stream = ordered_stream(trace);
  const auto order = trace.delivery_order();
  const std::size_t chunk =
      (stream.size() - cfg.preload_events) / cfg.cycles;
  const double burst_s = o.seconds / static_cast<double>(cfg.cycles);
  std::vector<std::size_t> ends;
  std::vector<std::vector<Query>> bursts;
  std::uint64_t digest = digest_events(kFnvOffset, stream);
  std::size_t queries = 0;
  for (std::size_t c = 0; c < cfg.cycles; ++c) {
    ends.push_back(c + 1 == cfg.cycles ? stream.size()
                                       : cfg.preload_events + (c + 1) * chunk);
    bursts.push_back(
        make_schedule(cfg.mix, order, ends.back(), burst_s, o.seed + c));
    digest = digest_queries(digest, bursts.back());
    queries += bursts.back().size();
  }
  print_inputs(cfg, trace, digest, queries);

  // The tenant's state after the last cycle, which the cold starts
  // recover after every cycle, so they sample the whole run.
  const std::string ref_dir = o.workdir + "/reference";
  const std::string ref_ns = write_reference(cfg, stream, ref_dir);

  // Set-up: preload, checkpoint, open the first epoch. Repeated; the last
  // deployment runs the cycles, and only its set-up is traced.
  const std::string dir = o.workdir + "/tenant";
  Dist setup_s;
  Deployment d;
  Checks checks;
  for (std::size_t i = 0; i < cfg.setup_reps; ++i) {
    d.reset();
    release_heap();
    fresh_dir(dir);
    Tracer::enable(o.trace && i + 1 == cfg.setup_reps);
    const std::int64_t t0 = now_ns();
    d = deploy(cfg, dir);
    const ChunkIngest ci = router_ingest(
        d, std::span<const ct::Event>(stream).first(cfg.preload_events), 0);
    router_checkpoint(d, cfg.preload_events);
    router_open(d);
    setup_s.add(seconds_between(t0, now_ns()));
    r.attempt(cfg.preload_events);
    r.fail(ci.rejected);
  }
  r.set("setup_s", setup_s.median());
  setup_s.print("setup_s");

  // The measured window: epoch cycles. Each closes the epoch, ingests one
  // chunk through the router and its tenant WAL, checkpoints, reopens,
  // serves its burst of the mix, and cold-starts the reference state.
  std::size_t visible = cfg.preload_events;
  ServeTotals totals;
  ColdStart cs;
  Dist fresh_s;
  double ingest_s = 0.0;
  std::uint64_t ingested = 0;
  for (std::size_t c = 0; c < cfg.cycles; ++c) {
    const std::size_t end = ends[c];
    router_close(d);
    const ChunkIngest ci = router_ingest(
        d,
        std::span<const ct::Event>(stream).subspan(visible, end - visible),
        visible);
    ingest_s += ci.seconds;
    ingested += end - visible;
    r.attempt(end - visible);
    r.fail(ci.rejected);
    visible = end;
    router_checkpoint(d, visible);
    router_open(d);
    checks.answers.points.push_back(
        fresh_answer(d, order[visible / 2], order[visible - 1]));
    fresh_s.add(seconds_between(ci.last_handed_ns, now_ns()));
    r.attempt(1);

    const std::vector<Query>& schedule = bursts[c];
    const auto sampled = check_sample(schedule, cfg.cycles);
    RouterTarget target(*d.router, d.tenant, order);
    const OpenLoopRun run = run_open_loop(schedule, target, sampled);
    totals.add(serve_stats(schedule, run));
    checks.answers.add_run(schedule, run, sampled, visible);

    cold_start(o, ref_dir, ref_ns, cfg.coldstart_reps, ChildWork{}, cs);
  }
  r.set("ingest_eps", static_cast<double>(ingested) / ingest_s);
  r.set("freshness_s", fresh_s.median());

  finish_router_workload(o, cfg, d, stream, order, totals, cs, checks, r);
  finish_checks(o, trace, checks, r);
}

}  // namespace

const std::vector<MetricSpec>& end_to_end_metrics() { return kEndToEnd; }
const std::vector<MetricSpec>& per_layer_metrics() { return kPerLayer; }

void run_workload(const RunOptions& o, Report& r) {
  const WorkloadConfig cfg = workload_config(o.workload);
  set_idle_layers(r);
  Tracer::enable(o.trace);
  if (cfg.name == "ingest_durable") {
    run_ingest_durable(o, cfg, r);
  } else if (cfg.name == "viewport_serve") {
    run_viewport_serve(o, cfg, r);
  } else {
    run_wide_churn(o, cfg, r);
  }
  r.set("op_fail_ratio",
        r.attempted() > 0 ? static_cast<double>(r.failed()) /
                                static_cast<double>(r.attempted())
                          : 0.0);
}

// --- the cold-start child ----------------------------------------------------------------

int run_coldstart_child(int argc, char** argv) {
  const ct::CliArgs args(argc, argv);
  const WorkloadConfig cfg = workload_config(args.get_or("workload", ""));
  const auto seed = static_cast<std::uint64_t>(args.get_int_or("seed", 1));
  const bool trace_mode = args.get_int_or("trace", 0) != 0;
  const double serve_s = args.get_double_or("serve-seconds", 0.0);
  const auto slice = static_cast<std::uint64_t>(args.get_int_or("slice", 0));
  const bool attribute = args.get_int_or("attribute", 0) != 0;
  const std::string dir = args.get_or("dir", "");
  const std::string ns = args.get_or("ns", "");
  const std::string out = args.get_or("out", "");
  Tracer::enable(trace_mode);

  // The events a query may name are fixed by the seed alone.
  const ct::Trace trace = make_trace(cfg, seed);
  const auto order = trace.delivery_order();
  ct::Prng rng(seed ^ 0xc01dull);
  const ct::EventId first_e = order[rng.index(order.size() / 2)];
  const ct::EventId first_f =
      order[order.size() / 2 + rng.index(order.size() / 2)];

  KeyValues kv;
  AnswerSet answers;
  ct::FileStorage files(dir);
  const PageFaults faults0 = page_faults();
  const std::int64_t t0 = now_ns();
  ct::LadderRecovery rec;
  {
    ScopedSpan span(Layer::kStoreRecover, 0);
    rec = ct::recover_with_ladder(files, cfg.processes, monitor_options(cfg),
                                  ns);
  }
  const std::int64_t t1 = now_ns();
  const bool first = rec.monitor->precedes(first_e, first_f);
  const std::int64_t t2 = now_ns();
  const PageFaults faults1 = page_faults();
  answers.points.push_back({first_e, first_f, first});
  kv["cold_start_s"] = seconds_between(t0, t2);
  kv["recover_s"] = seconds_between(t0, t1);
  kv["rung"] = static_cast<double>(rec.rung);
  kv["rejected"] = static_cast<double>(rec.health.total_rejected() +
                                       rec.report.snapshots_rejected);
  kv["minflt"] = static_cast<double>(faults1.minor - faults0.minor);
  kv["majflt"] = static_cast<double>(faults1.major - faults0.major);
  kv["rss_mb"] = vm_rss_mb();
  kv["events"] = static_cast<double>(rec.monitor->delivery_log().size());

  // Direct calls into the mapped snapshot, when one was published.
  const auto gens = ct::list_columnar(files, ns);
  if (!gens.empty()) {
    const std::int64_t m0 = now_ns();
    ct::MappedSnapshot snap(ct::read_cold(files, gens.back().second));
    const std::int64_t m1 = now_ns();
    snap.verify_blocks();
    const std::int64_t m2 = now_ns();
    snap.verify_structure();
    const std::int64_t m3 = now_ns();
    kv["open_s"] = seconds_between(m0, m1);
    kv["verify_blocks_s"] = seconds_between(m1, m2);
    kv["verify_structure_s"] = seconds_between(m2, m3);
    Dist ns_per;
    ct::Prng qrng(seed ^ 0x3a9ull);
    const std::uint64_t n = snap.event_count();
    for (int q = 0; q < 2000; ++q) {
      const ct::Event e = snap.event(qrng.index(n));
      const ct::Event f = snap.event(qrng.index(n));
      const std::int64_t s0 = now_ns();
      const bool a = snap.precedes(e, f);
      ns_per.add(static_cast<double>(now_ns() - s0));
      if (q < static_cast<int>(kCheckCaps[0])) {
        answers.points.push_back({e.id, f.id, a});
      }
    }
    kv["mapped_precedes_ns_p50"] = ns_per.median();
  }

  MonitorTarget target(*rec.monitor, order);
  if (serve_s > 0) {
    // The recovered monitor serves its slice of the viewport mix directly,
    // open loop; every query goes back to the parent, which pools the
    // slices of all children.
    const auto schedule = make_schedule(cfg.mix, order, order.size(), serve_s,
                                        seed + slice);
    const auto sampled = check_sample(schedule);
    const OpenLoopRun run = run_open_loop(schedule, target, sampled);
    answers.add_run(schedule, run, sampled, order.size());
    const ServeStats st = serve_stats(schedule, run);
    kv["backlog_max"] = static_cast<double>(st.backlog_max);
    kv["attempted"] = static_cast<double>(st.attempted);
    kv["failed"] = static_cast<double>(st.failed);
    kv["attempts"] = static_cast<double>(st.attempts);
    std::ofstream queries(out + ".serve");
    for (std::size_t i = 0; i < schedule.size(); ++i) {
      const Query& q = schedule[i];
      const Outcome& oc = run.outcomes[i];
      queries << static_cast<int>(q.kind) << ' ' << oc.end_ns - q.due_ns << ' '
              << oc.end_ns - oc.start_ns << ' ' << oc.start_ns - q.due_ns
              << '\n';
    }
  }
  if (attribute) {
    Tracer::enable(false);
    kv["max_sustainable_qps"] =
        sweep_max_rate(cfg.mix, order, order.size(), target, cfg.mix.rate_qps,
                       kProbeSeconds, seed ^ 0x5eedull)
            .max_sustainable_qps;
    Tracer::enable(trace_mode);
    ct::ThreadPool pool(cfg.pool_threads);
    ct::QueryBroker broker(*rec.monitor, pool, ct::BrokerOptions{});
    const auto att_schedule =
        attribution_schedule(cfg, order, order.size(), seed);
    Attribution a = attribute_layers(att_schedule, order.size(), nullptr,
                                     broker, order, *rec.monitor);
    Report tmp;
    set_attribution_metrics(tmp, a);
    for (const MetricSpec& m : kPerLayer) {
      if (tmp.has(m.name)) kv[m.name] = tmp.get(m.name);
    }
    kv["attribution.attempted"] = static_cast<double>(a.attempted);
    kv["attribution.failed"] = static_cast<double>(a.failed);
    answers.append(a.answers);
  }

  // Every answer this child gave, against ground truth over the same
  // seeded trace, outside every timed region.
  GroundTruth truth(trace);
  kv["checked"] = static_cast<double>(answers.size());
  kv["wrong"] = static_cast<double>(count_wrong(truth, order, answers));

  write_kv(out, kv);
  std::ofstream(out + ".digest") << rec.monitor->state_digest() << "\n";
  if (trace_mode && args.has("spans")) Tracer::write(args.get_or("spans", ""));
  return 0;
}

}  // namespace e2e
