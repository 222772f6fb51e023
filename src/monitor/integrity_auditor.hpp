// Online integrity audit of the cluster-timestamp backend.
//
// The cluster backend is the only serving backend whose answers depend on
// long-lived in-memory state (the timestamp store); a flipped bit there
// poisons every query it touches, silently. The auditor spot-checks that
// state between queries, two ways:
//
//  * semantic sampling — seeded random event pairs are answered by the
//    cluster backend and cross-checked against an exact on-demand
//    Fidge/Mattern recomputation (the ground truth the paper's §1.1 tools
//    used; slow, but the audit runs off the query path);
//  * per-cluster state digests — each cluster's stored timestamps are
//    hashed and compared against a baseline of known-good digests (handed
//    in at construction, re-captured after every repair).
//
// The auditor only *detects* and *localizes* (to a cluster) — the broker
// (query_broker.hpp) owns the consequences: tripping the backend's circuit
// breaker, excluding readers while MonitoringEntity::rebuild_cluster
// replays the delivery log, and re-admitting the backend after a
// configurable number of clean audit steps.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "model/trace.hpp"
#include "monitor/monitor.hpp"
#include "timestamp/ondemand_fm.hpp"
#include "util/prng.hpp"

namespace ct {

struct AuditOptions {
  std::uint64_t seed = 17;
  /// Event pairs cross-checked per audit step.
  std::size_t pairs_per_step = 4;
  /// Consecutive clean steps before a tripped cluster backend is re-admitted
  /// (enforced by the broker; carried here so options travel together).
  std::size_t clean_steps_to_readmit = 3;
};

struct AuditStats {
  std::uint64_t steps = 0;
  std::uint64_t sampled_pairs = 0;
  std::uint64_t answer_mismatches = 0;
  std::uint64_t digest_mismatches = 0;
};

/// One audit step's outcome: which clusters are provably corrupted.
struct AuditFinding {
  std::vector<ClusterId> corrupted;  ///< deduplicated, possibly empty
  bool clean() const { return corrupted.empty(); }
};

class IntegrityAuditor {
 public:
  /// `delivered` must be the monitor's delivered_trace() and both must
  /// outlive the auditor. `baseline` is the monitor's cluster_digests()
  /// taken while its state was known good (the auditor keeps its own copy;
  /// rebaseline() changes it). No-op (always clean) with an empty baseline,
  /// as for monitors without a cluster backend.
  IntegrityAuditor(const MonitoringEntity& monitor, const Trace& delivered,
                   ClusterDigests baseline, AuditOptions options);

  /// Runs one audit step. Detection only — never mutates monitor state.
  /// NOT thread-safe (seeded sampler, ground-truth cache); the broker
  /// serializes steps and excludes concurrent repairs.
  AuditFinding step();

  /// Re-captures cluster `c`'s baseline digest after a repair.
  void rebaseline(ClusterId c);

  const AuditStats& stats() const { return stats_; }

 private:
  const MonitoringEntity& monitor_;
  const Trace& delivered_;
  AuditOptions options_;
  Prng rng_;
  OnDemandFmEngine truth_;  ///< exact, recomputes from event records
  ClusterDigests baseline_;  ///< ascending cluster id
  AuditStats stats_;
};

}  // namespace ct
