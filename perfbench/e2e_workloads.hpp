// The three workloads of the end-to-end benchmark and the cold-start child.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "e2e_common.hpp"

namespace e2e {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;   ///< working directory for WALs and snapshots
  std::string self_exe;  ///< this binary, for the cold-start children
  std::string spans;     ///< where the traced run writes its spans
  /// Test hook: flip one sampled answer before checking, so a run can be
  /// shown to fail on a single wrong answer.
  bool corrupt_answer = false;
};

/// Metrics in output order, with their units.
const std::vector<MetricSpec>& end_to_end_metrics();
const std::vector<MetricSpec>& per_layer_metrics();

/// Runs one workload, filling `report` with every metric of the selected
/// mode (and a few companions the log prints).
void run_workload(const RunOptions& options, Report& report);

/// The cold-start child (`--phase=coldstart`): recovers from a storage
/// directory, answers, optionally serves, checks its own answers against
/// ground truth, and writes its measurements and check counts to a file
/// for the parent to read.
int run_coldstart_child(int argc, char** argv);

}  // namespace e2e
