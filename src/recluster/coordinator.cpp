#include "recluster/coordinator.hpp"

#include <utility>

#include "monitor/queries.hpp"
#include "timestamp/query_cost.hpp"
#include "util/check.hpp"

namespace ct {

std::unique_ptr<ClusterTimestampEngine> build_shadow_engine(
    const MonitoringEntity& monitor,
    const std::vector<std::vector<ProcessId>>& partition) {
  const MonitorOptions& options = monitor.options();
  CT_CHECK_MSG(options.backend == TimestampBackend::kClusterDynamic,
               "migration requires the cluster backend");
  auto policy = options.nth_threshold < 0.0
                    ? make_merge_on_first()
                    : make_merge_on_nth(options.nth_threshold);
  auto shadow = std::make_unique<ClusterTimestampEngine>(
      monitor.process_count(), options.cluster, partition, std::move(policy));
  for (const EventId id : monitor.delivery_log()) {
    shadow->observe(monitor.event(id));
  }
  return shadow;
}

MigrationCoordinator::MigrationCoordinator(MonitoringEntity& monitor,
                                           MigrationConfig config)
    : monitor_(monitor),
      config_(config),
      matrix_(monitor.process_count(), config.planner.decay,
              config.planner.decay_window),
      last_moved_epoch_(monitor.process_count(), 0),
      prng_(config.seed) {
  CT_CHECK_MSG(monitor.options().backend == TimestampBackend::kClusterDynamic,
               "migration requires the cluster backend");
}

void MigrationCoordinator::feed_matrix() {
  const auto log = monitor_.delivery_log();
  for (; fed_ < log.size(); ++fed_) {
    matrix_.record(monitor_.event(log[fed_]));
  }
}

std::optional<EventId> MigrationCoordinator::corrupt_shadow(
    ClusterTimestampEngine& shadow) {
  // Zero the victim's own-process timestamp component: for any event with
  // index >= 2 that provably flips `(p, 1) -> victim` from true to false,
  // so the focused frontier dual-read below detects the corruption
  // DETERMINISTICALLY. Events with index 1 have nothing to flip — a trace
  // with none is uncorruptible and the fault degenerates to a no-op.
  const auto log = monitor_.delivery_log();
  for (auto it = log.rbegin(); it != log.rend(); ++it) {
    if (it->index < 2) continue;
    const EventId victim = *it;
    const ClusterTimestamp ts = shadow.timestamp(victim);
    std::size_t slot = victim.process;  // full vector: indexed by process
    if (!ts.is_full()) {
      const auto& procs = *ts.covered;
      for (std::size_t i = 0; i < procs.size(); ++i) {
        if (procs[i] == victim.process) {
          slot = i;
          break;
        }
      }
    }
    shadow.inject_corruption(victim, slot, 0);
    ++stats_.faults_injected;
    return victim;
  }
  return std::nullopt;
}

bool MigrationCoordinator::verify(const ClusterTimestampEngine& shadow,
                                  MigrationFault fault,
                                  std::optional<EventId> focus,
                                  bool* deadline) {
  *deadline = false;
  if (fault == MigrationFault::kStalledVerify) {
    // The stall IS a deadline overrun: the whole tick budget burns before
    // the first useful comparison.
    stats_.verify_ticks += config_.verify_deadline_ticks;
    *deadline = true;
    return false;
  }
  const auto log = monitor_.delivery_log();
  if (log.empty()) return true;

  QueryCost cost;
  cost.budget = config_.verify_deadline_ticks;
  bool exhausted = false;
  bool diverged = false;

  // One sampled precedence pair, answered by both engines.
  auto dual_pair = [&](EventId a, EventId b) {
    if (exhausted || diverged) return;
    const Event& ea = monitor_.event(a);
    const Event& eb = monitor_.event(b);
    const auto live = monitor_.precedes_metered(a, b, cost);
    if (!live.has_value()) {
      exhausted = true;
      return;
    }
    const auto next = shadow.precedes_metered(ea, eb, cost);
    if (!next.has_value()) {
      exhausted = true;
      return;
    }
    ++stats_.verify_checks;
    if (*live != *next) diverged = true;
  };

  // Both causal frontiers of one event, computed through each engine and
  // compared bit-identically.
  auto size_of = [this](ProcessId q) { return monitor_.delivered_count(q); };
  auto dual_frontier = [&](EventId e) {
    if (exhausted || diverged) return;
    auto live_pre = [&](EventId a, EventId b) {
      const auto r = monitor_.precedes_metered(a, b, cost);
      if (!r.has_value()) {
        exhausted = true;
        return false;
      }
      return *r;
    };
    auto shadow_pre = [&](EventId a, EventId b) {
      const auto r =
          shadow.precedes_metered(monitor_.event(a), monitor_.event(b), cost);
      if (!r.has_value()) {
        exhausted = true;
        return false;
      }
      return *r;
    };
    const CausalFrontiers live = compute_frontiers_with(
        monitor_.process_count(), e, live_pre, size_of);
    if (exhausted) return;
    const CausalFrontiers next = compute_frontiers_with(
        monitor_.process_count(), e, shadow_pre, size_of);
    if (exhausted) return;
    stats_.verify_checks += live.precedence_tests + next.precedence_tests;
    if (live.greatest_predecessor != next.greatest_predecessor ||
        live.greatest_concurrent != next.greatest_concurrent) {
      diverged = true;
    }
  };

  auto sample_event = [&] { return log[prng_.index(log.size())]; };
  for (std::size_t i = 0; i < config_.verify_pairs; ++i) {
    const EventId a = sample_event();
    const EventId b = sample_event();
    dual_pair(a, b);
    dual_pair(b, a);
  }
  for (std::size_t i = 0; i < config_.verify_frontiers; ++i) {
    dual_frontier(sample_event());
  }
  if (focus.has_value()) {
    // The focused event's frontier reads its timestamp from every process's
    // timeline — the densest possible dual-read around a planted fault.
    dual_frontier(*focus);
    for (ProcessId q = 0; q < monitor_.process_count(); ++q) {
      const EventIndex count = monitor_.delivered_count(q);
      if (count == 0) continue;
      dual_pair(EventId{q, count}, *focus);
      dual_pair(*focus, EventId{q, count});
    }
  }

  stats_.verify_ticks += cost.ticks;
  if (exhausted) {
    *deadline = true;
    return false;
  }
  return !diverged;
}

MigrationOutcome MigrationCoordinator::run_cycle(MigrationFault fault) {
  ++stats_.cycles;
  feed_matrix();
  const std::uint64_t epoch = next_epoch();
  MigrationPlan plan = build_migration_plan(
      monitor_, matrix_, config_.planner, last_moved_epoch_, epoch);
  if (plan.empty()) return MigrationOutcome::kNoPlan;
  ++stats_.planned;

  // --- prepare: durable intent, shadow build, dual-read verify ---
  WalMigration record;
  record.epoch = epoch;
  record.plan_digest = plan.digest();
  record.moves = plan.moves;
  record.partition = plan.partition;
  std::uint64_t position = monitor_.delivery_log().size();
  if (log_ != nullptr) {
    position = log_->append_migration_intent(record);
    CT_CHECK_MSG(position == monitor_.delivery_log().size(),
                 "migration planned against a log this WAL does not record");
  }

  auto shadow = build_shadow_engine(monitor_, plan.partition);
  std::optional<EventId> focus;
  if (fault == MigrationFault::kCorruptShadow) {
    focus = corrupt_shadow(*shadow);
  }
  bool deadline = false;
  if (!verify(*shadow, fault, focus, &deadline)) {
    // --- rollback: the live engine was never touched; the synced intent
    // without a commit frame is discarded by recovery. Loud, never silent.
    ++stats_.rolled_back;
    if (deadline) {
      ++stats_.rollback_deadline;
    } else {
      ++stats_.rollback_divergence;
    }
    if (fault != MigrationFault::kNone) ++stats_.rollback_fault;
    return MigrationOutcome::kRolledBack;
  }

  // --- commit: durable commit marker, then the atomic in-memory swap ---
  if (log_ != nullptr) {
    log_->append_migration_commit(position, epoch, record.plan_digest);
  }
  stats_.moves_applied += plan.moves.size();
  stats_.splits_applied += plan.splits;
  for (const MigrationMove& mv : plan.moves) {
    last_moved_epoch_[mv.process] = epoch;
  }
  monitor_.adopt_engine(std::move(shadow), std::move(plan.partition), epoch);
  ++stats_.committed;
  return MigrationOutcome::kCommitted;
}

}  // namespace ct
