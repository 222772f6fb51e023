// Deterministic simulation-checker driver.
//
// Sweep mode (default): expands --schedules seeds into randomized schedules
// (simcheck/generator.hpp), replays each against a rotating window of the
// full backend × strategy × maxCS × layout verification matrix
// (simcheck/oracle.hpp), and accounts coverage so every matrix cell is
// exercised across the sweep. On a divergence the schedule is
// delta-minimized (simcheck/shrink.hpp), saved as a standalone replay file
// under --out-dir, and the repro command line is printed; exit code 1.
//
// Replay mode (--replay=file.ctsim): loads one replay and checks it against
// the FULL matrix — the mode the checked-in regression corpus runs under.
//
//   simcheck_driver --seed=1 --schedules=500 --configs-per-schedule=6
//   simcheck_driver --budget=30            # stop after ~30 wall seconds
//   simcheck_driver --replay=tests/simcheck_corpus/foo.ctsim
//
// "checks" counts the comparisons every replay of a schedule repeats
// exactly; "broker checks" counts broker-probe answers, whose number
// depends on how many beat their work-tick deadline under the probe's
// thread pool.
#include <chrono>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <span>
#include <string>
#include <vector>

#include "simcheck/generator.hpp"
#include "simcheck/oracle.hpp"
#include "simcheck/replay_io.hpp"
#include "simcheck/schedule.hpp"
#include "simcheck/shrink.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"

namespace {

using namespace ct;

int replay_one(const std::string& path, bool verbose) {
  const SimSchedule schedule = load_replay(path);
  const std::vector<OracleConfig> matrix = full_matrix();
  const SimReport report = run_schedule(schedule, matrix);
  if (verbose || !report.ok()) {
    std::printf("replay %s: %zu ops, %zu probes, %llu checks, %llu broker "
                "checks\n",
                path.c_str(), report.ops_run, report.probes,
                static_cast<unsigned long long>(report.checks),
                static_cast<unsigned long long>(report.broker_checks));
  }
  if (!report.ok()) {
    const SimDivergence& d = *report.divergence;
    std::printf("DIVERGENCE at op %zu [%s]: %s (e=P%u.%u f=P%u.%u)\n",
                d.op_index, d.config.c_str(), d.detail.c_str(), d.e.process,
                d.e.index, d.f.process, d.f.index);
    return 1;
  }
  std::printf("replay %s: OK\n", path.c_str());
  return 0;
}

void print_divergence(const SimSchedule& schedule, const SimDivergence& d) {
  std::printf(
      "DIVERGENCE in %s (seed %llu, digest %016llx) at op %zu [%s]:\n  %s\n"
      "  pair e=P%u.%u f=P%u.%u\n",
      schedule.name.c_str(), static_cast<unsigned long long>(schedule.seed),
      static_cast<unsigned long long>(schedule.digest()), d.op_index,
      d.config.c_str(), d.detail.c_str(), d.e.process, d.e.index, d.f.process,
      d.f.index);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    CliArgs args(argc, argv);
    const bool verbose = args.get_bool_or("verbose", false);
    if (const auto replay = args.get("replay")) {
      return replay_one(*replay, verbose);
    }

    const std::uint64_t seed =
        static_cast<std::uint64_t>(args.get_int_or("seed", 1));
    const std::size_t schedules =
        static_cast<std::size_t>(args.get_int_or("schedules", 500));
    const std::size_t per_schedule =
        static_cast<std::size_t>(args.get_int_or("configs-per-schedule", 6));
    const double budget = args.get_double_or("budget", 0.0);
    const std::string out_dir =
        args.get_or("out-dir", "simcheck-replays");

    const std::vector<OracleConfig> matrix = full_matrix();
    std::vector<std::uint64_t> coverage(matrix.size(), 0);
    const auto start = std::chrono::steady_clock::now();
    auto elapsed = [&start] {
      return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           start)
          .count();
    };

    std::size_t ran = 0;
    std::uint64_t total_checks = 0, total_broker_checks = 0, total_probes = 0;
    for (std::size_t i = 0; i < schedules; ++i) {
      if (budget > 0.0 && elapsed() > budget) break;
      const std::uint64_t schedule_seed = seed + i;
      const SimSchedule schedule = generate_schedule(schedule_seed);

      // Rotating config window: cell (i*per_schedule + j) mod matrix size,
      // so a full sweep visits every matrix cell many times over.
      std::vector<OracleConfig> window;
      window.reserve(per_schedule);
      for (std::size_t j = 0; j < per_schedule && j < matrix.size(); ++j) {
        const std::size_t cell = (i * per_schedule + j) % matrix.size();
        window.push_back(matrix[cell]);
        ++coverage[cell];
      }

      const SimReport report = run_schedule(schedule, window);
      ++ran;
      total_checks += report.checks;
      total_broker_checks += report.broker_checks;
      total_probes += report.probes;
      if (verbose) {
        std::printf(
            "schedule %llu (%s): %zu ops, %zu probes, %llu checks, %llu "
            "broker checks\n",
            static_cast<unsigned long long>(schedule_seed),
            schedule.name.c_str(), report.ops_run, report.probes,
            static_cast<unsigned long long>(report.checks),
            static_cast<unsigned long long>(report.broker_checks));
      }
      if (report.ok()) continue;

      print_divergence(schedule, *report.divergence);
      std::printf("shrinking...\n");
      const ShrinkResult shrunk = shrink_schedule(
          schedule, [&window](const SimSchedule& candidate) {
            return !run_schedule(candidate, window).ok();
          });
      const SimReport confirm = run_schedule(shrunk.schedule, window);
      CT_CHECK_MSG(!confirm.ok(), "shrunk schedule no longer fails");
      print_divergence(shrunk.schedule, *confirm.divergence);
      std::printf("shrunk to %zu ops (%zu emits) in %zu attempts\n",
                  shrunk.schedule.ops.size(), shrunk.schedule.emit_count(),
                  shrunk.attempts);

      std::filesystem::create_directories(out_dir);
      const std::string path = out_dir + "/" + shrunk.schedule.name + ".ctsim";
      save_replay(path, shrunk.schedule);
      std::printf("replay saved: %s\nreproduce with: %s --replay=%s\n",
                  path.c_str(), args.program().c_str(), path.c_str());
      return 1;
    }

    std::uint64_t min_cov = ~0ull, max_cov = 0;
    std::size_t uncovered = 0;
    for (const std::uint64_t c : coverage) {
      min_cov = c < min_cov ? c : min_cov;
      max_cov = c > max_cov ? c : max_cov;
      uncovered += c == 0;
    }
    std::printf(
        "simcheck OK: %zu schedules, %llu probes, %llu checks, %llu broker "
        "checks, %.1fs\n"
        "matrix coverage: %zu configs, visits min=%llu max=%llu, "
        "uncovered=%zu\n",
        ran, static_cast<unsigned long long>(total_probes),
        static_cast<unsigned long long>(total_checks),
        static_cast<unsigned long long>(total_broker_checks), elapsed(),
        matrix.size(), static_cast<unsigned long long>(min_cov),
        static_cast<unsigned long long>(max_cov), uncovered);
    return 0;
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "simcheck_driver: %s\n", ex.what());
    return 2;
  }
}
