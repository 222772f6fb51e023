// Durability cost — ingest throughput and recovery time per sync policy
// (robustness companion to the paper's §4 evaluation; see
// docs/FAULT_MODEL.md §7).
//
// One locality-structured computation is ingested through a monitor whose
// delivery tap feeds a write-ahead log on FileStorage (real files, real
// fsync). Per sync policy: ingest wall time and throughput, syncs issued,
// WAL bytes, then a cold recovery through the recovery ladder (checkpoint
// image + tail replay) timed and digest-checked against the live monitor.
// Two extra rows add periodic checkpoints to show checkpoint+prune bounding
// both the WAL size and the replayed tail.
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "durability/storage.hpp"
#include "durability/wal.hpp"
#include "monitor/monitor.hpp"
#include "store/recovery_ladder.hpp"
#include "trace/generators.hpp"

namespace {

using namespace ct;

MonitorOptions monitor_options(std::size_t process_count) {
  MonitorOptions mo;
  mo.backend = TimestampBackend::kClusterDynamic;
  mo.cluster.max_cluster_size = 8;
  mo.cluster.fm_vector_width = process_count;
  return mo;
}

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

struct Row {
  std::string label;
  WalOptions wal;
  std::size_t checkpoint_every = 0;

  double ingest_ms = 0.0;
  double events_per_sec = 0.0;
  WalStats stats;
  std::uint64_t wal_bytes = 0;   ///< segment + snapshot bytes left on disk
  double recovery_ms = 0.0;
  std::uint64_t replayed = 0;
  std::uint64_t recovered = 0;
  bool digest_match = false;
  bool clean = false;
};

Row run_one(const Trace& t, Row row, const std::string& root) {
  std::filesystem::remove_all(root);
  FileStorage storage(root);

  MonitoringEntity monitor(t.process_count(), monitor_options(t.process_count()));
  DurableLog log(storage, row.wal);
  monitor.set_delivery_tap([&log](const Event& e) { log.append(e); });

  const auto start = std::chrono::steady_clock::now();
  std::size_t fed = 0;
  for (const EventId id : t.delivery_order()) {
    monitor.ingest(t.event(id));
    if (row.checkpoint_every != 0 && ++fed % row.checkpoint_every == 0) {
      log.checkpoint(monitor);
    }
  }
  log.sync();
  row.ingest_ms = ms_since(start);
  row.events_per_sec =
      static_cast<double>(t.event_count()) / (row.ingest_ms / 1000.0);
  row.stats = log.stats();
  for (const std::string& name : storage.list()) {
    row.wal_bytes += storage.read(name).size();
  }

  const auto rstart = std::chrono::steady_clock::now();
  const LadderRecovery rec =
      recover_with_ladder(storage, t.process_count(),
                          monitor_options(t.process_count()));
  row.recovery_ms = ms_since(rstart);
  row.replayed = rec.report.replayed;
  row.recovered = rec.report.recovered_seq;
  row.digest_match = rec.monitor->state_digest() == monitor.state_digest();
  row.clean = !rec.report.truncated;

  std::filesystem::remove_all(root);
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  ct::bench::bench_init(argc, argv, "table_durability");
  using namespace ct;
  bench::header(
      "table_durability",
      "robustness — durability cost and recovery time per sync policy",
      "One locality computation ingested with a write-ahead delivery log on\n"
      "real files (fsync per sync point). Per policy: ingest throughput,\n"
      "syncs issued, WAL bytes, and a timed digest-checked cold recovery.\n"
      "Checkpoint rows show snapshot+prune bounding the replayed tail.");

  const Trace t = generate_locality_random({.processes = 48,
                                            .group_size = 8,
                                            .intra_rate = 0.85,
                                            .messages = 2500,
                                            .seed = 17});
  const std::string root =
      (std::filesystem::temp_directory_path() / "ct_bench_durability").string();

  auto wal_with = [](SyncPolicy policy, std::size_t sync_every) {
    WalOptions wo;
    wo.policy = policy;
    wo.sync_every = sync_every;
    return wo;
  };
  std::vector<Row> rows = {
      {"none", wal_with(SyncPolicy::kNone, 64),
       0, {}, 0, {}, 0, 0, 0, 0, 0, 0},
      {"every-n-64", wal_with(SyncPolicy::kEveryN, 64),
       0, {}, 0, {}, 0, 0, 0, 0, 0, 0},
      {"every-n-8", wal_with(SyncPolicy::kEveryN, 8),
       0, {}, 0, {}, 0, 0, 0, 0, 0, 0},
      {"every-record", wal_with(SyncPolicy::kEveryRecord, 64),
       0, {}, 0, {}, 0, 0, 0, 0, 0, 0},
      {"every-n-64+ckpt", wal_with(SyncPolicy::kEveryN, 64),
       2000, {}, 0, {}, 0, 0, 0, 0, 0, 0},
      {"on-checkpoint", wal_with(SyncPolicy::kOnCheckpoint, 64),
       2000, {}, 0, {}, 0, 0, 0, 0, 0, 0},
  };
  for (Row& row : rows) row = run_one(t, row, root);

  bench::section("csv");
  std::cout << "policy,events,ingest_ms,events_per_sec,syncs,commits,"
               "rotations,checkpoints,wal_bytes,recovery_ms,replayed,"
               "recovered,digest_match,clean\n";
  for (const Row& r : rows) {
    std::printf("%s,%zu,%.2f,%.0f,%llu,%llu,%llu,%llu,%llu,%.2f,%llu,%llu,"
                "%d,%d\n",
                r.label.c_str(), t.event_count(), r.ingest_ms,
                r.events_per_sec,
                static_cast<unsigned long long>(r.stats.syncs),
                static_cast<unsigned long long>(r.stats.commits),
                static_cast<unsigned long long>(r.stats.rotations),
                static_cast<unsigned long long>(r.stats.checkpoints),
                static_cast<unsigned long long>(r.wal_bytes), r.recovery_ms,
                static_cast<unsigned long long>(r.replayed),
                static_cast<unsigned long long>(r.recovered),
                r.digest_match ? 1 : 0, r.clean ? 1 : 0);
    bench::json_metric(r.label + "_events_per_sec", r.events_per_sec);
    bench::json_metric(r.label + "_syncs",
                       static_cast<double>(r.stats.syncs));
    bench::json_metric(r.label + "_wal_bytes",
                       static_cast<double>(r.wal_bytes));
    bench::json_metric(r.label + "_recovery_ms", r.recovery_ms);
    bench::json_metric(r.label + "_replayed",
                       static_cast<double>(r.replayed));
  }

  bench::section("policy cost and recovery");
  AsciiTable table({"policy", "events/s", "syncs", "wal KiB", "recovery ms",
                    "replayed", "exact"});
  for (const Row& r : rows) {
    table.add_row({r.label, fmt(r.events_per_sec, 0),
                   std::to_string(r.stats.syncs),
                   fmt(static_cast<double>(r.wal_bytes) / 1024.0, 1),
                   fmt(r.recovery_ms, 2), std::to_string(r.replayed),
                   r.digest_match && r.clean ? "yes" : "NO"});
  }
  table.print(std::cout);

  bench::section("analysis");
  bool all_exact = true;
  for (const Row& r : rows) all_exact = all_exact && r.digest_match && r.clean;
  bench::verdict("recovery is exact under every sync policy",
                 "snapshot + WAL tail rebuilds the pre-crash monitor",
                 all_exact ? "state digest matches, no truncation, all rows"
                           : "DIGEST MISMATCH OR TRUNCATION",
                 all_exact);

  const Row& none = rows[0];
  const Row& batched = rows[1];
  const Row& strict = rows[3];
  const bool syncs_ordered = strict.stats.syncs > batched.stats.syncs &&
                             batched.stats.syncs > none.stats.syncs;
  bench::verdict(
      "batched sync amortizes durability: syncs scale with the policy",
      "every-record ~1 sync/record; every-n ~1/N; none only at rotation",
      "syncs " + std::to_string(none.stats.syncs) + " (none) / " +
          std::to_string(batched.stats.syncs) + " (every-64) / " +
          std::to_string(strict.stats.syncs) + " (every-record)",
      syncs_ordered);
  bench::verdict(
      "per-record fsync costs throughput against the unsynced baseline",
      "each sync is a write barrier on the ingest path",
      "every-record " + fmt(strict.events_per_sec, 0) + " ev/s vs none " +
          fmt(none.events_per_sec, 0) + " ev/s",
      strict.events_per_sec <= none.events_per_sec * 1.05);

  const Row& ckpt = rows[4];
  bench::verdict(
      "checkpointing bounds the replayed tail and the WAL on disk",
      "snapshot + prune: replay only the tail since the last snapshot",
      "replayed " + std::to_string(ckpt.replayed) + " (ckpt) vs " +
          std::to_string(batched.replayed) + " (no ckpt); wal " +
          fmt(static_cast<double>(ckpt.wal_bytes) / 1024.0, 1) + " vs " +
          fmt(static_cast<double>(batched.wal_bytes) / 1024.0, 1) + " KiB",
      ckpt.replayed < batched.replayed);
  return ct::bench::bench_finish();
}
