// The paper's static clustering algorithm (Figure 3).
//
// Agglomerative greedy merging: starting from singleton clusters, repeatedly
// merge the pair with the highest *normalized* communication count
// CR_ij / (|c_i| + |c_j|), skipping pairs whose merged size would exceed
// maxCS, until no mergeable pair communicates. Normalization matters: raw
// counts would favour big clusters "purely by virtue of their size" (§3.1) —
// bench/table_normalization_ablation quantifies that (E11).
//
// Complexity: the production implementation keeps the candidate pairs in a
// lazy-deletion max-heap keyed by per-cluster merge epochs — O(C^2) initial
// candidates, O(C) fresh candidates per merge, every pop O(log C) — i.e.
// O(C^2 log C) overall instead of the O(N^3) all-pairs rescan the paper
// quotes ("when implemented, we observed that the performance was more than
// sufficient" — true at N=300, not at the scales the ROADMAP targets).
// tests/perf_layer_test.cpp keeps the paper-shaped O(N^3) scan as the
// oracle and asserts the two byte-identical (including tie-breaks) across
// all trace families.
#pragma once

#include <vector>

#include "cluster/comm_matrix.hpp"
#include "model/ids.hpp"

namespace ct {

struct StaticGreedyOptions {
  std::size_t max_cluster_size = 13;
  /// E11 ablation switch: pick the pair with the highest RAW count instead
  /// of the normalized count. The paper argues this is "probably a poor
  /// choice"; keep it on `true` for the paper's algorithm.
  bool normalize = true;
};

/// Runs the Figure-3 algorithm (heap-accelerated, O(C^2 log C)). Returns the
/// final partition as sorted member lists, ordered by their smallest member
/// (deterministic).
std::vector<std::vector<ProcessId>> static_greedy_clusters(
    const CommMatrix& comm, const StaticGreedyOptions& options);

}  // namespace ct
