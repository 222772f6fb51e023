// Crash-consistency sweep driver.
//
// Sweep mode (default): expands --schedules seeds into randomized schedules
// (simcheck/generator.hpp), records each through a monitor + write-ahead log
// on simulated storage, and crashes the storage at every sync boundary and
// just past every namespace op, plus sampled mid-record torn writes, short
// writes, bit flips, and stale segments (simcheck/crash_sweep.hpp),
// verifying prefix-consistent recovery, loss accounting, and answer
// identity at each point. On a failure the schedule is delta-minimized
// against the sweep (simcheck/shrink.hpp), saved as a .ctsim replay under
// --out-dir, and the repro command line is printed; exit code 1.
//
// Replay mode (--replay=file.ctsim): re-runs the sweep on one saved replay.
//
//   durability_driver --seed=1 --schedules=8 --torn-samples=30
//   durability_driver --policy=every-record --schedules=4
//   durability_driver --replay=tests/simcheck_corpus/foo.ctsim
#include <chrono>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <string>

#include "simcheck/crash_sweep.hpp"
#include "simcheck/generator.hpp"
#include "simcheck/replay_io.hpp"
#include "simcheck/schedule.hpp"
#include "simcheck/shrink.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"

namespace {

using namespace ct;

SyncPolicy parse_policy(const std::string& name) {
  if (name == "none") return SyncPolicy::kNone;
  if (name == "every-record") return SyncPolicy::kEveryRecord;
  if (name == "every-n") return SyncPolicy::kEveryN;
  if (name == "on-checkpoint") return SyncPolicy::kOnCheckpoint;
  CT_CHECK_MSG(false, "unknown sync policy '" << name << "'");
  return SyncPolicy::kEveryN;
}

void print_divergence(const SimSchedule& schedule, const SimDivergence& d) {
  std::printf(
      "CRASH-SWEEP FAILURE in %s (seed %llu) at journal cut %zu [%s]:\n"
      "  %s\n  pair e=P%u.%u f=P%u.%u\n",
      schedule.name.c_str(), static_cast<unsigned long long>(schedule.seed),
      d.op_index, d.config.c_str(), d.detail.c_str(), d.e.process, d.e.index,
      d.f.process, d.f.index);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    CliArgs args(argc, argv);
    const bool verbose = args.get_bool_or("verbose", false);

    CrashSweepParams params;
    params.policy = parse_policy(args.get_or("policy", "every-n"));
    params.sync_every =
        static_cast<std::size_t>(args.get_int_or("sync-every", 8));
    params.segment_bytes =
        static_cast<std::size_t>(args.get_int_or("segment-bytes", 4096));
    params.torn_samples =
        static_cast<std::size_t>(args.get_int_or("torn-samples", 16));
    params.short_samples =
        static_cast<std::size_t>(args.get_int_or("short-samples", 8));
    params.rot_samples =
        static_cast<std::size_t>(args.get_int_or("rot-samples", 4));
    params.stale_samples =
        static_cast<std::size_t>(args.get_int_or("stale-samples", 2));
    params.seed = static_cast<std::uint64_t>(args.get_int_or("seed", 1));

    if (const auto replay = args.get("replay")) {
      const SimSchedule schedule = load_replay(*replay);
      const CrashSweepReport report = run_crash_sweep(schedule, params);
      if (!report.ok()) {
        print_divergence(schedule, *report.divergence);
        return 1;
      }
      std::printf("replay %s: OK (%zu crash points, %llu checks)\n",
                  replay->c_str(), report.crash_points,
                  static_cast<unsigned long long>(report.checks));
      return 0;
    }

    const std::size_t schedules =
        static_cast<std::size_t>(args.get_int_or("schedules", 8));
    const double budget = args.get_double_or("budget", 0.0);
    const std::string out_dir =
        args.get_or("out-dir", "durability-replays");

    const auto start = std::chrono::steady_clock::now();
    auto elapsed = [&start] {
      return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           start)
          .count();
    };

    std::size_t ran = 0, points = 0, sync_points = 0, namespace_points = 0,
                torn_points = 0;
    std::uint64_t total_checks = 0, total_lost = 0;
    std::uint64_t migrations = 0, rollbacks = 0;
    std::size_t generations = 0, quarantined = 0;
    std::size_t rung_mapped = 0, rung_snapshot = 0, rung_wal = 0;
    for (std::size_t i = 0; i < schedules; ++i) {
      if (budget > 0.0 && elapsed() > budget) break;
      const std::uint64_t schedule_seed = params.seed + i;
      const SimSchedule schedule = generate_schedule(schedule_seed);
      const CrashSweepReport report = run_crash_sweep(schedule, params);
      ++ran;
      points += report.crash_points;
      sync_points += report.sync_boundary_points;
      namespace_points += report.namespace_points;
      torn_points += report.torn_points;
      total_checks += report.checks;
      total_lost += report.records_lost;
      migrations += report.migrations_committed;
      rollbacks += report.migrations_rolled_back;
      generations += report.generations_published;
      quarantined += report.snapshots_quarantined;
      rung_mapped += report.ladder_mapped;
      rung_snapshot += report.ladder_snapshot;
      rung_wal += report.ladder_wal;
      if (verbose) {
        std::printf(
            "schedule %llu (%s): %zu crash points (%zu sync, %zu namespace, "
            "%zu torn), "
            "%llu lost, %llu migrations (+%llu rolled back), "
            "%zu generations, rungs %zu/%zu/%zu, %zu quarantined, "
            "%llu checks\n",
            static_cast<unsigned long long>(schedule_seed),
            schedule.name.c_str(), report.crash_points,
            report.sync_boundary_points, report.namespace_points,
            report.torn_points,
            static_cast<unsigned long long>(report.records_lost),
            static_cast<unsigned long long>(report.migrations_committed),
            static_cast<unsigned long long>(report.migrations_rolled_back),
            report.generations_published, report.ladder_mapped,
            report.ladder_snapshot, report.ladder_wal,
            report.snapshots_quarantined,
            static_cast<unsigned long long>(report.checks));
      }
      if (report.ok()) continue;

      print_divergence(schedule, *report.divergence);
      std::printf("shrinking...\n");
      const ShrinkResult shrunk = shrink_schedule(
          schedule, [&params](const SimSchedule& candidate) {
            return !run_crash_sweep(candidate, params).ok();
          });
      const CrashSweepReport confirm = run_crash_sweep(shrunk.schedule, params);
      CT_CHECK_MSG(!confirm.ok(), "shrunk schedule no longer fails");
      print_divergence(shrunk.schedule, *confirm.divergence);
      std::printf("shrunk to %zu ops (%zu emits) in %zu attempts\n",
                  shrunk.schedule.ops.size(), shrunk.schedule.emit_count(),
                  shrunk.attempts);

      std::filesystem::create_directories(out_dir);
      const std::string path = out_dir + "/" + shrunk.schedule.name + ".ctsim";
      save_replay(path, shrunk.schedule);
      std::printf(
          "replay saved: %s\nreproduce with: %s --replay=%s --policy=%s "
          "--sync-every=%zu --segment-bytes=%zu --torn-samples=%zu "
          "--short-samples=%zu --rot-samples=%zu --stale-samples=%zu "
          "--seed=%llu\n",
          path.c_str(), args.program().c_str(), path.c_str(),
          to_string(params.policy), params.sync_every, params.segment_bytes,
          params.torn_samples, params.short_samples, params.rot_samples,
          params.stale_samples,
          static_cast<unsigned long long>(params.seed));
      return 1;
    }

    std::printf(
        "durability OK: %zu schedules, %zu crash points "
        "(%zu sync boundaries, %zu namespace ops, %zu mid-record), "
        "%llu records lost+accounted, "
        "%llu migrations committed (%llu rolled back), "
        "%zu generations published, ladder rungs mapped/snapshot/wal "
        "%zu/%zu/%zu, %zu snapshots quarantined, %llu checks, %.1fs "
        "[policy %s]\n",
        ran, points, sync_points, namespace_points, torn_points,
        static_cast<unsigned long long>(total_lost),
        static_cast<unsigned long long>(migrations),
        static_cast<unsigned long long>(rollbacks), generations, rung_mapped,
        rung_snapshot, rung_wal, quarantined,
        static_cast<unsigned long long>(total_checks), elapsed(),
        to_string(params.policy));
    return 0;
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "durability_driver: %s\n", ex.what());
    return 2;
  }
}
