// Shared plumbing for the reproduction benches.
//
// Every bench binary is self-contained and runnable with no arguments; it
// prints (a) a header naming the paper artifact it regenerates, (b) a
// machine-readable CSV block, and (c) a human-readable analysis — ASCII
// tables/plots plus explicit paper-vs-measured verdict lines that
// EXPERIMENTS.md quotes.
//
// Perf harness (docs/PERF.md): every bench additionally accepts
// `--json[=PATH]`. When given, bench_finish() writes a flat
// BENCH_<name>.json with every json_metric() recorded during the run plus
// the verdict tally, so CI can diff runs against checked-in baselines
// (bench/baselines/). Without the flag the sink is inert and the bench
// output is unchanged. Either way a bench exits 1 when any verdict line
// reads [SHAPE DIFFERS].
#pragma once

#include <cstdio>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "eval/analysis.hpp"
#include "eval/experiment.hpp"
#include "model/trace.hpp"
#include "trace/suite.hpp"
#include "util/ascii.hpp"
#include "util/stats.hpp"

namespace ct::bench {

/// Process-wide metric sink behind `--json`. Flat on purpose: a BENCH json
/// is a dictionary of doubles, nothing nested, so the perf-smoke checker can
/// parse it without a JSON library.
struct JsonSink {
  std::string bench_name;
  std::string path;  // empty = disabled
  std::vector<std::pair<std::string, double>> metrics;
  std::size_t verdicts = 0;
  std::size_t verdicts_hold = 0;
};

inline JsonSink& json_sink() {
  static JsonSink sink;
  return sink;
}

/// Parses `--json[=PATH]` (default PATH: BENCH_<name>.json in the working
/// directory). Call first thing in main(); unrelated arguments are ignored.
inline void bench_init(int argc, char** argv, const std::string& name) {
  JsonSink& sink = json_sink();
  sink.bench_name = name;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      sink.path = "BENCH_" + name + ".json";
    } else if (arg.rfind("--json=", 0) == 0) {
      sink.path = arg.substr(7);
    }
  }
}

/// Records one metric for the JSON report (no-op unless --json was given —
/// recording is cheap enough to do unconditionally).
inline void json_metric(const std::string& key, double value) {
  json_sink().metrics.emplace_back(key, value);
}

/// Writes the JSON report if --json was requested. Returns main()'s exit
/// code: 1 when any verdict differed or the report cannot be written, so
/// every paper claim a bench checks is a gate.
inline int bench_finish() {
  JsonSink& sink = json_sink();
  const std::size_t differ = sink.verdicts - sink.verdicts_hold;
  if (differ > 0) {
    std::cout << "\n[FAIL] " << differ << " of " << sink.verdicts
              << " verdicts differ\n";
  }
  const int verdicts_code = differ > 0 ? 1 : 0;
  if (sink.path.empty()) return verdicts_code;
  std::FILE* f = std::fopen(sink.path.c_str(), "w");
  if (f == nullptr) {
    std::cerr << "cannot write " << sink.path << "\n";
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"metrics\": {\n",
               sink.bench_name.c_str());
  std::fprintf(f, "    \"verdicts_total\": %zu,\n", sink.verdicts);
  std::fprintf(f, "    \"verdicts_hold\": %zu", sink.verdicts_hold);
  for (const auto& [key, value] : sink.metrics) {
    std::fprintf(f, ",\n    \"%s\": %.9g", key.c_str(), value);
  }
  std::fprintf(f, "\n  }\n}\n");
  std::fclose(f);
  std::cout << "\n[json] wrote " << sink.path << "\n";
  return verdicts_code;
}

/// Rewritten argv for a google-benchmark binary: `--json[=PATH]` becomes
/// the library's own JSON reporter flags, everything else passes through.
struct GbenchArgs {
  std::vector<std::string> storage;
  std::vector<char*> argv;
  int argc = 0;
};

inline GbenchArgs gbench_args(int argc, char** argv,
                              const std::string& name) {
  GbenchArgs out;
  out.storage.reserve(2 * static_cast<std::size_t>(argc) + 2);
  out.storage.emplace_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string path;
    if (arg == "--json") {
      path = "BENCH_" + name + ".json";
    } else if (arg.rfind("--json=", 0) == 0) {
      path = arg.substr(7);
    } else {
      out.storage.push_back(arg);
      continue;
    }
    out.storage.push_back("--benchmark_out=" + path);
    out.storage.emplace_back("--benchmark_out_format=json");
  }
  for (std::string& s : out.storage) out.argv.push_back(s.data());
  out.argc = static_cast<int>(out.argv.size());
  return out;
}

inline void header(const std::string& name, const std::string& artifact,
                   const std::string& description) {
  std::cout << "=====================================================\n"
            << "bench: " << name << "\n"
            << "reproduces: " << artifact << "\n"
            << description << "\n"
            << "=====================================================\n";
}

inline void section(const std::string& title) {
  std::cout << "\n-- " << title << " --\n";
}

/// One paper-vs-measured verdict line (quoted by EXPERIMENTS.md).
inline void verdict(const std::string& claim, const std::string& paper,
                    const std::string& measured, bool holds) {
  json_sink().verdicts += 1;
  json_sink().verdicts_hold += holds ? 1 : 0;
  std::cout << (holds ? "[SHAPE HOLDS] " : "[SHAPE DIFFERS] ") << claim
            << "\n    paper:    " << paper << "\n    measured: " << measured
            << "\n";
}

struct LoadedSuite {
  std::vector<Trace> traces;
  std::vector<std::string> ids;
  std::vector<TraceFamily> families;
};

/// Generates the frozen 54-computation suite with its ids.
inline LoadedSuite load_suite() {
  LoadedSuite s;
  s.traces = generate_standard_suite(/*parallel=*/true);
  for (const auto& entry : standard_suite()) {
    s.ids.push_back(entry.id);
    s.families.push_back(entry.family);
  }
  return s;
}

/// Prints a set of sweep rows as CSV: trace,family,strategy,maxCS,ratio.
inline void print_sweep_csv(const std::vector<SweepRow>& rows) {
  std::cout << "trace,family,strategy,maxCS,ratio\n";
  for (const auto& row : rows) {
    for (std::size_t i = 0; i < row.sizes.size(); ++i) {
      std::printf("%s,%s,%s,%zu,%.6f\n", row.trace_id.c_str(),
                  to_string(row.family), row.strategy.c_str(), row.sizes[i],
                  row.ratios[i]);
    }
  }
}

/// Renders sweep rows of ONE computation as a Figure-4/5-style ASCII plot.
inline void plot_rows(const std::string& title,
                      const std::vector<const SweepRow*>& rows) {
  if (rows.empty()) return;
  std::vector<double> x;
  for (const std::size_t s : rows.front()->sizes) {
    x.push_back(static_cast<double>(s));
  }
  AsciiPlot plot(title, "Maximum Cluster Size", "Average Timestamp Ratio", x);
  double peak = 0.0;
  for (const SweepRow* row : rows) {
    for (const double r : row->ratios) peak = std::max(peak, r);
  }
  plot.set_y_range(0.0, std::max(0.6, peak * 1.05));  // paper's y scale
  for (const SweepRow* row : rows) {
    plot.add_series({row->strategy, row->ratios});
  }
  plot.print(std::cout);
}

inline std::string range_to_string(const SizeRange& r) {
  if (r.empty()) return "(none)";
  // Built up with += to sidestep GCC 12's -Wrestrict false positive on
  // string operator+ chains under -O2 (PR105651).
  std::string out = "[";
  out += std::to_string(r.lo);
  out += ',';
  out += std::to_string(r.hi);
  out += ']';
  return out;
}

}  // namespace ct::bench
