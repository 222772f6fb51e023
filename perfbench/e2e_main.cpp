// ct_e2e — the end-to-end pipeline benchmark program.
//
//   ct_e2e --workload=NAME --seed=N --seconds=S --trace=0|1
//          --workdir=DIR [--spans=FILE] [--corrupt-answer=1]
//
// Runs one workload (e2e_inputs.cpp lists them) through the real pipeline,
// checks its answers, and prints a header, human-readable detail, and — as
// the last line of stdout — one JSON object with every metric of the mode:
// the end-to-end metrics untraced, the per-layer metrics traced. Exits 1
// when an answer or invariant check failed. perfbench/run.py builds this
// binary and invokes it; see perfbench/README.md.
#include <unistd.h>

#include <cstdio>
#include <exception>
#include <filesystem>
#include <string>

#include "core/precedence_kernels.hpp"
#include "e2e_common.hpp"
#include "e2e_workloads.hpp"
#include "util/cli.hpp"

#ifndef CT_E2E_BUILD_TYPE
#define CT_E2E_BUILD_TYPE "unknown"
#endif

namespace {

std::string self_exe() {
  char buf[4096];
  const ssize_t n = readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n <= 0) return "";
  buf[n] = '\0';
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const ct::CliArgs args(argc, argv);
    if (args.get_or("phase", "") == "coldstart") {
      return e2e::run_coldstart_child(argc, argv);
    }
    e2e::RunOptions o;
    o.workload = args.get_or("workload", "");
    o.seed = static_cast<std::uint64_t>(args.get_int_or("seed", 1));
    o.seconds = args.get_double_or("seconds", 10.0);
    o.trace = args.get_int_or("trace", 0) != 0;
    o.corrupt_answer = args.get_int_or("corrupt-answer", 0) != 0;
    o.self_exe = self_exe();
    const std::string root = args.get_or("workdir", "");
    if (root.empty()) throw std::invalid_argument("--workdir is required");
    o.workdir = root + "/" + o.workload + "-" + std::to_string(getpid());
    o.spans = args.get_or("spans", o.workdir + ".spans.tsv");
    std::filesystem::remove_all(o.workdir);
    std::filesystem::create_directories(o.workdir);

    std::printf("ct_e2e workload=%s seed=%llu seconds=%g trace=%d\n",
                o.workload.c_str(), static_cast<unsigned long long>(o.seed),
                o.seconds, o.trace ? 1 : 0);
    std::printf("host: nproc=%u build=%s kernel_tier=%s\n",
                e2e::online_cpus(), CT_E2E_BUILD_TYPE,
                ct::kernels::to_string(ct::kernels::active_tier()));

    e2e::Report report;
    e2e::run_workload(o, report);
    std::filesystem::remove_all(o.workdir);
    if (o.trace) {
      e2e::Tracer::write(o.spans);
      std::printf("spans: %s\n", o.spans.c_str());
    }
    report.print_json(o.trace ? e2e::per_layer_metrics()
                              : e2e::end_to_end_metrics());
    return report.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ct_e2e: %s\n", e.what());
    return 2;
  }
}
