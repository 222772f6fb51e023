#include "monitor/integrity_auditor.hpp"

#include <algorithm>
#include <span>
#include <utility>

namespace ct {

namespace {
constexpr std::size_t kTruthCacheCapacity = 512;
}  // namespace

IntegrityAuditor::IntegrityAuditor(const MonitoringEntity& monitor,
                                   const Trace& delivered,
                                   ClusterDigests baseline,
                                   AuditOptions options)
    : monitor_(monitor),
      delivered_(delivered),
      options_(options),
      rng_(options.seed),
      truth_(delivered, kTruthCacheCapacity),
      baseline_(std::move(baseline)) {}

AuditFinding IntegrityAuditor::step() {
  ++stats_.steps;
  AuditFinding finding;
  const std::span<const EventId> order = delivered_.delivery_order();
  if (baseline_.empty() || order.size() < 2) return finding;

  const auto blame = [&](ClusterId c) {
    if (std::find(finding.corrupted.begin(), finding.corrupted.end(), c) ==
        finding.corrupted.end()) {
      finding.corrupted.push_back(c);
    }
  };

  // Semantic sampling: the cluster answer for (e, f) depends only on state
  // stored for f's cluster (f's timestamp plus the cluster receives of its
  // covered processes), so a mismatch localizes there.
  for (std::size_t i = 0; i < options_.pairs_per_step; ++i) {
    const EventId e = order[rng_.index(order.size())];
    const EventId f = order[rng_.index(order.size())];
    ++stats_.sampled_pairs;
    QueryCost unlimited;
    const auto answer = monitor_.precedes_metered(e, f, unlimited);
    if (*answer != truth_.precedes(e, f)) {
      ++stats_.answer_mismatches;
      blame(*monitor_.cluster_of(f.process));
    }
  }

  for (const auto& [c, digest] : baseline_) {
    if (monitor_.cluster_digest(c) != digest) {
      ++stats_.digest_mismatches;
      blame(c);
    }
  }
  return finding;
}

void IntegrityAuditor::rebaseline(ClusterId c) {
  const std::uint64_t digest = monitor_.cluster_digest(c);
  const auto it = std::lower_bound(
      baseline_.begin(), baseline_.end(), c,
      [](const auto& entry, ClusterId id) { return entry.first < id; });
  if (it != baseline_.end() && it->first == c) {
    it->second = digest;
  } else {
    baseline_.emplace(it, c, digest);
  }
}

}  // namespace ct
