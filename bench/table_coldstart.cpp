// Out-of-core cold start — mapped CTC1 snapshot vs full WAL replay
// (robustness companion to §4; docs/FAULT_MODEL.md §10, docs/PERF.md).
//
// One large causally ordered stream (10M events by default) is ingested
// through a WAL-attached monitor on FileStorage, then published as a CTC1
// columnar generation. Three cold-start paths are measured, each in a
// freshly exec'd child process so VmHWM is that path's own peak RSS:
//
//   replay  the recovery ladder over a view of the storage with every
//           image (generations and checkpoints) hidden, so it lands on
//           the WAL-replay rung — the pure WAL-replay baseline;
//   mapped  ColdBytes(mmap) + MappedSnapshot + checksum/structural
//           verification — zero replay, queries served off the mapping;
//   parent  the live in-memory monitor, the ns/query floor.
//
// Every path answers the same seeded precedence sample; the answer
// checksums and state digests must agree bit for bit. Verdicts: mapped
// cold start >= 10x faster than WAL replay with a lower peak RSS, and
// mapped ns/query within 2x of the live monitor.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "durability/format.hpp"
#include "durability/storage.hpp"
#include "durability/wal.hpp"
#include "monitor/monitor.hpp"
#include "store/mapped_view.hpp"
#include "store/recovery_ladder.hpp"
#include "store/snapshot_store.hpp"
#include "util/cli.hpp"
#include "util/prng.hpp"

namespace {

using namespace ct;

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Peak resident set of this process in KiB (VmHWM), 0 if unavailable.
double vm_hwm_kib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr);
    }
  }
  return 0.0;
}

/// The bench stream: rounds of unary events plus a neighbor send/receive,
/// generated incrementally so 10M events never exist in memory at once.
class StreamGen {
 public:
  explicit StreamGen(std::uint32_t processes)
      : next_(processes, 1), processes_(processes) {}

  template <typename Fn>
  void run(std::uint64_t events, Fn&& emit) {
    std::uint64_t n = 0;
    for (std::uint64_t r = 0; n < events; ++r) {
      for (ProcessId p = 0; p < processes_ && n < events; ++p, ++n) {
        Event e;
        e.id = EventId{p, next_[p]++};
        e.kind = EventKind::kUnary;
        emit(e);
      }
      if (n + 2 > events) break;
      const ProcessId a = static_cast<ProcessId>(r % processes_);
      const ProcessId b = static_cast<ProcessId>((r + 1) % processes_);
      const EventIndex ai = next_[a]++;
      const EventIndex bi = next_[b]++;
      Event s;
      s.id = EventId{a, ai};
      s.kind = EventKind::kSend;
      s.partner = EventId{b, bi};
      emit(s);
      Event v;
      v.id = EventId{b, bi};
      v.kind = EventKind::kReceive;
      v.partner = EventId{a, ai};
      emit(v);
      n += 2;
    }
  }

 private:
  std::vector<EventIndex> next_;
  std::uint32_t processes_;
};

MonitorOptions monitor_options(std::uint32_t processes) {
  MonitorOptions mo;
  mo.backend = TimestampBackend::kClusterDynamic;
  mo.cluster.max_cluster_size = 8;
  mo.cluster.fm_vector_width = processes;
  mo.nth_threshold = 4.0;
  return mo;
}

constexpr std::uint64_t kQuerySeed = 0xc01d57a7ull;

/// Folds one sampled precedence pass into (answer checksum, total ns).
/// `query(i, j)` answers "delivery-log position i precedes position j".
template <typename Query>
std::pair<std::uint64_t, double> run_queries(std::uint64_t event_count,
                                             std::size_t queries,
                                             Query&& query) {
  Prng prng(kQuerySeed);
  std::uint64_t crc = 1469598103934665603ull;  // FNV offset
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t q = 0; q < queries; ++q) {
    const std::uint64_t i = prng.index(event_count);
    const std::uint64_t j = prng.index(event_count);
    crc = (crc ^ (query(i, j) ? 0x9eu : 0x31u)) * 1099511628211ull;
  }
  const double ns = ms_since(start) * 1e6;
  return {crc, ns / static_cast<double>(queries)};
}

/// Read-only view of `inner` with every image (published generations and
/// checkpoints) hidden: recovery over it is forced onto the pure WAL-replay
/// rung.
class SnapshotBlindStorage final : public StorageBackend {
 public:
  explicit SnapshotBlindStorage(const StorageBackend& inner)
      : inner_(inner) {}

  void create(const std::string&) override { CT_CHECK(false); }
  void append(const std::string&, std::string_view) override {
    CT_CHECK(false);
  }
  void sync(const std::string&) override { CT_CHECK(false); }
  void sync_dir() override { CT_CHECK(false); }
  void remove(const std::string&) override { CT_CHECK(false); }
  void rename(const std::string&, const std::string&) override {
    CT_CHECK(false);
  }
  bool exists(const std::string& name) const override {
    return !hidden(name) && inner_.exists(name);
  }
  std::vector<std::string> list() const override {
    std::vector<std::string> out;
    for (const std::string& name : inner_.list()) {
      if (!hidden(name)) out.push_back(name);
    }
    return out;
  }
  std::string read(const std::string& name) const override {
    CT_CHECK(!hidden(name));
    return inner_.read(name);
  }

 private:
  static bool hidden(const std::string& name) {
    return parse_columnar_name(name).has_value() ||
           is_columnar_tmp_name(name) ||
           wal::parse_snapshot_name(name).has_value();
  }
  const StorageBackend& inner_;
};

void write_metrics(const std::string& path,
                   const std::map<std::string, double>& metrics) {
  std::ofstream out(path);
  for (const auto& [key, value] : metrics) {
    out << key << " " << std::setprecision(17) << value << "\n";
  }
}

std::map<std::string, double> read_metrics(const std::string& path) {
  std::map<std::string, double> out;
  std::ifstream in(path);
  std::string key;
  double value = 0.0;
  while (in >> key >> value) out[key] = value;
  return out;
}

/// Child phase: pure WAL replay cold start, then the query sample.
int phase_replay(const std::string& root, std::uint32_t processes,
                 std::size_t queries, const std::string& out) {
  FileStorage files(root);
  SnapshotBlindStorage blind(files);
  const auto start = std::chrono::steady_clock::now();
  const LadderRecovery rec =
      recover_with_ladder(blind, processes, monitor_options(processes));
  const double coldstart_ms = ms_since(start);
  CT_CHECK_MSG(rec.rung == RecoveryRung::kWalReplay,
               "replay baseline landed on the " << to_string(rec.rung)
                                                << " rung");
  const auto log = rec.monitor->delivery_log();
  const auto [crc, ns] = run_queries(
      log.size(), queries, [&](std::uint64_t i, std::uint64_t j) {
        return rec.monitor->precedes(log[i], log[j]);
      });
  write_metrics(out, {{"coldstart_ms", coldstart_ms},
                      {"events", static_cast<double>(log.size())},
                      {"replayed", static_cast<double>(rec.report.replayed)},
                      {"query_ns", ns},
                      {"answers_crc", static_cast<double>(crc)},
                      {"digest",
                       static_cast<double>(rec.monitor->state_digest())},
                      {"vmhwm_kib", vm_hwm_kib()}});
  return 0;
}

/// Child phase: mapped cold start (mmap + full verification), then the same
/// query sample served straight off the mapping — no replay, no engine.
int phase_mapped(const std::string& root, std::uint32_t processes,
                 std::size_t queries, const std::string& out) {
  (void)processes;
  FileStorage files(root);
  const auto gens = list_columnar(files);
  CT_CHECK_MSG(!gens.empty(), "no published CTC1 generation under " + root);
  const auto start = std::chrono::steady_clock::now();
  MappedSnapshot snap(read_cold(files, gens.back().second));
  const double map_ms = ms_since(start);
  snap.verify_blocks();
  const double blocks_ms = ms_since(start) - map_ms;
  snap.verify_structure();
  const double coldstart_ms = ms_since(start);
  const auto [crc, ns] = run_queries(
      snap.event_count(), queries, [&](std::uint64_t i, std::uint64_t j) {
        return snap.precedes(snap.event(i), snap.event(j));
      });
  write_metrics(
      out,
      {{"coldstart_ms", coldstart_ms},
       {"map_ms", map_ms},
       {"verify_blocks_ms", blocks_ms},
       {"events", static_cast<double>(snap.event_count())},
       {"query_ns", ns},
       {"answers_crc", static_cast<double>(crc)},
       {"digest", static_cast<double>(snap.manifest().state_digest)},
       {"vmhwm_kib", vm_hwm_kib()}});
  return 0;
}

std::map<std::string, double> run_child(const std::string& self,
                                        const std::string& phase,
                                        const std::string& root,
                                        std::uint32_t processes,
                                        std::size_t queries) {
  const std::string out = root + "/phase_" + phase + ".metrics";
  std::ostringstream cmd;
  cmd << self << " --phase=" << phase << " --root=" << root
      << " --processes=" << processes << " --queries=" << queries
      << " --out=" << out;
  const int rc = std::system(cmd.str().c_str());
  CT_CHECK_MSG(rc == 0, "child phase '" + phase + "' failed");
  return read_metrics(out);
}

}  // namespace

int main(int argc, char** argv) {
  ct::bench::bench_init(argc, argv, "table_coldstart");
  using namespace ct;
  CliArgs args(argc, argv);

  const std::string phase = args.get_or("phase", "");
  const std::string root = args.get_or(
      "root",
      (std::filesystem::temp_directory_path() / "ct_bench_coldstart")
          .string());
  const auto processes =
      static_cast<std::uint32_t>(args.get_int_or("processes", 64));
  const auto queries =
      static_cast<std::size_t>(args.get_int_or("queries", 200'000));
  if (phase == "replay") {
    return phase_replay(root, processes, queries, args.get_or("out", ""));
  }
  if (phase == "mapped") {
    return phase_mapped(root, processes, queries, args.get_or("out", ""));
  }

  const auto events =
      static_cast<std::uint64_t>(args.get_int_or("events", 10'000'000));
  bench::header(
      "table_coldstart",
      "robustness — out-of-core mapped snapshot vs WAL-replay cold start",
      "One 10M-event stream ingested through a WAL on real files, published\n"
      "as a CTC1 columnar generation, then cold-started two ways in fresh\n"
      "child processes: pure WAL replay vs mmap + verify. Same seeded\n"
      "precedence sample everywhere, answers checked bit-identical.");

  std::filesystem::remove_all(root);
  FileStorage files(root);
  WalOptions wo;
  wo.policy = SyncPolicy::kNone;       // durability is not under test here
  wo.segment_bytes = 64u << 20;        // keep the segment count sane at 10M
  MonitoringEntity monitor(processes, monitor_options(processes));
  {
    DurableLog log(files, wo);
    monitor.set_delivery_tap([&log](const Event& e) { log.append(e); });
    StreamGen gen(processes);
    const auto start = std::chrono::steady_clock::now();
    gen.run(events, [&](const Event& e) { monitor.ingest(e); });
    log.sync();
    const double ingest_ms = ms_since(start);
    monitor.set_delivery_tap(nullptr);
    std::printf("\ningested %llu events in %.0f ms (%.0f events/s)\n",
                static_cast<unsigned long long>(events), ingest_ms,
                1000.0 * static_cast<double>(events) / ingest_ms);
  }
  const auto pub_start = std::chrono::steady_clock::now();
  const ColumnarPublishResult pub = publish_columnar(files, monitor, 1);
  const double publish_ms = ms_since(pub_start);
  std::printf("published %s: %llu bytes (%.2f bytes/event) in %.0f ms\n",
              pub.object.c_str(),
              static_cast<unsigned long long>(pub.bytes),
              static_cast<double>(pub.bytes) /
                  static_cast<double>(monitor.delivery_log().size()),
              publish_ms);

  // The in-memory floor, on the live monitor.
  const auto log = monitor.delivery_log();
  auto inmem = run_queries(
      log.size(), queries, [&](std::uint64_t i, std::uint64_t j) {
        return monitor.precedes(log[i], log[j]);
      });
  inmem = run_queries(  // once warm
      log.size(), queries, [&](std::uint64_t i, std::uint64_t j) {
        return monitor.precedes(log[i], log[j]);
      });
  const std::uint64_t live_digest = monitor.state_digest();
  const double parent_hwm = vm_hwm_kib();

  const auto replay =
      run_child(argv[0], "replay", root, processes, queries);
  const auto mapped =
      run_child(argv[0], "mapped", root, processes, queries);

  bench::section("csv");
  std::printf(
      "path,coldstart_ms,query_ns,peak_rss_kib,events,answers_crc_ok,"
      "digest_ok\n");
  auto row = [&](const char* name, double cold, double ns, double hwm,
                 double ev, bool crc_ok, bool digest_ok) {
    std::printf("%s,%.2f,%.1f,%.0f,%.0f,%d,%d\n", name, cold, ns, hwm, ev,
                crc_ok ? 1 : 0, digest_ok ? 1 : 0);
  };
  const auto crc_of = [&](const std::map<std::string, double>& m) {
    return m.at("answers_crc") == static_cast<double>(inmem.first);
  };
  const auto digest_of = [&](const std::map<std::string, double>& m) {
    return m.at("digest") == static_cast<double>(live_digest);
  };
  row("in-memory", 0.0, inmem.second, parent_hwm,
      static_cast<double>(log.size()), true, true);
  row("wal-replay", replay.at("coldstart_ms"), replay.at("query_ns"),
      replay.at("vmhwm_kib"), replay.at("events"), crc_of(replay),
      digest_of(replay));
  row("mapped", mapped.at("coldstart_ms"), mapped.at("query_ns"),
      mapped.at("vmhwm_kib"), mapped.at("events"), crc_of(mapped),
      digest_of(mapped));
  std::printf("mapped breakdown: mmap %.2f ms, block CRCs %.2f ms, "
              "structure %.2f ms\n",
              mapped.at("map_ms"), mapped.at("verify_blocks_ms"),
              mapped.at("coldstart_ms") - mapped.at("map_ms") -
                  mapped.at("verify_blocks_ms"));

  bench::json_metric("events", static_cast<double>(events));
  bench::json_metric("publish_ms", publish_ms);
  bench::json_metric("snapshot_bytes", static_cast<double>(pub.bytes));
  bench::json_metric("inmem_query_ns", inmem.second);
  bench::json_metric("replay_coldstart_ms", replay.at("coldstart_ms"));
  bench::json_metric("replay_query_ns", replay.at("query_ns"));
  bench::json_metric("replay_peak_rss_kib", replay.at("vmhwm_kib"));
  bench::json_metric("mapped_coldstart_ms", mapped.at("coldstart_ms"));
  bench::json_metric("mapped_query_ns", mapped.at("query_ns"));
  bench::json_metric("mapped_peak_rss_kib", mapped.at("vmhwm_kib"));

  bench::section("verdicts");
  const double speedup =
      replay.at("coldstart_ms") / mapped.at("coldstart_ms");
  const double ns_ratio = mapped.at("query_ns") / inmem.second;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.1fx faster", speedup);
  bench::verdict("mapped cold start >= 10x faster than WAL replay",
                 ">= 10x", buf, speedup >= 10.0);
  std::snprintf(buf, sizeof buf, "%.0f vs %.0f KiB",
                mapped.at("vmhwm_kib"), replay.at("vmhwm_kib"));
  bench::verdict("mapped peak RSS below the replay path's", "lower", buf,
                 mapped.at("vmhwm_kib") < replay.at("vmhwm_kib"));
  std::snprintf(buf, sizeof buf, "%.2fx of in-memory", ns_ratio);
  bench::verdict("mapped ns/query within 2x of the live monitor", "<= 2x",
                 buf, ns_ratio <= 2.0);
  const bool identical = crc_of(replay) && crc_of(mapped) &&
                         digest_of(replay) && digest_of(mapped);
  bench::verdict("all three paths answer the sample bit-identically",
                 "identical", identical ? "identical" : "DIVERGED",
                 identical);

  std::filesystem::remove_all(root);
  return ct::bench::bench_finish();
}
