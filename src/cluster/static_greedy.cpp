#include "cluster/static_greedy.hpp"

#include <algorithm>
#include <queue>

#include "cluster/cluster_set.hpp"
#include "util/check.hpp"
#include "util/flat_matrix.hpp"

namespace ct {
namespace {

/// Pair-score candidate for the lazy-deletion heap. `epoch_*` snapshot the
/// merge epochs of both clusters at push time; any later merge involving
/// either cluster bumps its epoch, which invalidates the entry without
/// touching the heap (classic lazy deletion).
struct Candidate {
  double score;
  ClusterId a, b;  // a < b
  std::uint32_t epoch_a, epoch_b;
};

/// Heap order: highest score first; ties resolve to the lexicographically
/// smallest (a, b) pair — EXACTLY the pair the reference implementation's
/// ascending scan with a strict `score > best` picks first. (std::
/// priority_queue pops the LARGEST under `<`, so "better" means "greater".)
struct CandidateLess {
  bool operator()(const Candidate& x, const Candidate& y) const {
    if (x.score != y.score) return x.score < y.score;
    if (x.a != y.a) return x.a > y.a;
    return x.b > y.b;
  }
};

double pair_score(std::uint64_t count, std::size_t combined_size,
                  bool normalize) {
  // The test-side reference scan computes this same expression, so both
  // produce bit-identical doubles (the identical-output test relies on it).
  return normalize
             ? static_cast<double>(count) / static_cast<double>(combined_size)
             : static_cast<double>(count);
}

}  // namespace

std::vector<std::vector<ProcessId>> static_greedy_clusters(
    const CommMatrix& comm, const StaticGreedyOptions& options) {
  const std::size_t n = comm.process_count();
  CT_CHECK(n > 0);
  CT_CHECK_MSG(options.max_cluster_size >= 1, "maxCS must be >= 1");

  ClusterSet clusters(n);
  FlatMatrix<std::uint64_t> cr(n, n, 0);
  for (ProcessId p = 0; p < n; ++p) {
    for (ProcessId q = 0; q < n; ++q) {
      if (p != q) cr(p, q) = comm.occurrences(p, q);
    }
  }

  // Merge epoch per cluster root; bumped whenever the cluster participates
  // in a merge (as survivor or as the merged-away side).
  std::vector<std::uint32_t> epoch(n, 0);
  std::vector<std::size_t> size(n, 1);
  std::vector<bool> alive(n, true);

  std::priority_queue<Candidate, std::vector<Candidate>, CandidateLess> heap;
  const auto push_pair = [&](ClusterId a, ClusterId b) {
    if (a > b) std::swap(a, b);
    const std::size_t combined = size[a] + size[b];
    // Cluster sizes only grow: a pair over the bound can never merge later,
    // so it is never enqueued (the reference scan's line-7 skip).
    if (combined > options.max_cluster_size) return;
    const std::uint64_t count = cr(a, b);
    if (count == 0) return;
    heap.push(Candidate{pair_score(count, combined, options.normalize), a, b,
                        epoch[a], epoch[b]});
  };

  for (ClusterId a = 0; a < n; ++a) {
    for (ClusterId b = a + 1; b < n; ++b) push_pair(a, b);
  }

  while (!heap.empty()) {
    const Candidate top = heap.top();
    heap.pop();
    // Lazy deletion: an entry is current only if neither side merged since
    // it was pushed. Epochs pin sizes AND counts: both change only at
    // merges, so a current entry's score equals the freshly computed one.
    if (top.epoch_a != epoch[top.a] || top.epoch_b != epoch[top.b]) continue;
    CT_DCHECK(alive[top.a] && alive[top.b]);

    const ClusterId survivor = clusters.merge(top.a, top.b);
    const ClusterId gone = survivor == top.a ? top.b : top.a;
    alive[gone] = false;
    size[survivor] += size[gone];
    ++epoch[top.a];
    ++epoch[top.b];
    for (ClusterId other = 0; other < n; ++other) {
      if (!alive[other] || other == survivor) continue;
      cr(survivor, other) = cr(top.a, other) + cr(top.b, other);
      cr(other, survivor) = cr(survivor, other);
      push_pair(survivor, other);
    }
  }

  std::vector<ClusterId> active;
  for (ClusterId c = 0; c < n; ++c) {
    if (alive[c]) active.push_back(c);
  }
  std::vector<std::vector<ProcessId>> out;
  out.reserve(active.size());
  for (const ClusterId c : active) out.push_back(*clusters.members(c));
  return out;
}

}  // namespace ct
