#include "shard/shard_check.hpp"

#include <sstream>
#include <utility>
#include <vector>

#include "util/check.hpp"
#include "util/prng.hpp"

namespace ct {

namespace {

MonitorOptions monitor_options(const SimSchedule& schedule) {
  MonitorOptions mo;
  mo.backend = TimestampBackend::kClusterDynamic;
  mo.cluster.max_cluster_size = schedule.max_cluster_size;
  mo.cluster.fm_vector_width = schedule.process_count;
  mo.nth_threshold = schedule.nth_threshold;
  return mo;
}

std::string frontier_mismatch(const CausalFrontiers& got,
                              const CausalFrontiers& want) {
  for (std::size_t q = 0; q < want.greatest_predecessor.size(); ++q) {
    if (got.greatest_predecessor[q] != want.greatest_predecessor[q]) {
      std::ostringstream os;
      os << "greatest_predecessor[" << q << "]: sharded "
         << got.greatest_predecessor[q] << " vs single "
         << want.greatest_predecessor[q];
      return os.str();
    }
    if (got.greatest_concurrent[q] != want.greatest_concurrent[q]) {
      std::ostringstream os;
      os << "greatest_concurrent[" << q << "]: sharded "
         << got.greatest_concurrent[q] << " vs single "
         << want.greatest_concurrent[q];
      return os.str();
    }
  }
  return "";
}

}  // namespace

ShardCheckReport run_shard_check(const SimSchedule& schedule,
                                 const ShardCheckOptions& options) {
  ShardCheckReport report;
  CT_CHECK_MSG(schedule.process_count > 0, "schedule has no processes");
  CT_CHECK_MSG(options.shards > 0 && options.tenants > 0,
               "deployment needs shards and tenants");

  const MonitorOptions mo = monitor_options(schedule);
  // In isolation mode the router itself is built fault-free; faults are
  // injected by hand into tenant 0 at every epoch, so sibling tenants see
  // a deployment indistinguishable from a clean one.
  RouterOptions ro;
  ro.retry_limit = options.retry_limit;
  ro.hedge_limit = options.hedge_limit;
  ro.pool_threads = options.pool_threads;
  if (!options.fault_first_tenant_only) ro.faults = options.faults;
  ShardRouter sharded(ro);
  for (std::size_t t = 0; t < options.tenants; ++t) {
    TenantConfig tc;
    tc.process_count = schedule.process_count;
    tc.monitor = mo;
    tc.shards = options.shards;
    sharded.add_tenant(tc);
  }

  RouterOptions single_ro;
  single_ro.pool_threads = options.pool_threads;
  ShardRouter single(single_ro);
  {
    TenantConfig tc;
    tc.process_count = schedule.process_count;
    tc.monitor = mo;
    tc.shards = 1;
    single.add_tenant(tc);
  }

  auto diverge = [&](std::size_t op_index, TenantId tenant,
                     std::string detail, EventId e = kNoEvent,
                     EventId f = kNoEvent) {
    if (!report.divergence) {
      report.divergence =
          ShardDivergence{op_index, tenant, std::move(detail), e, f};
    }
  };

  // The single-shard deployment is the reference: every answer the sharded
  // deployment produces must match it. When the probe deadline starved the
  // reference, re-ask it with an unlimited budget — a degraded sharded
  // answer (hedge budgets grow past the base) must still be verifiable.
  auto reference_answer = [&](EventId a, EventId b,
                              std::uint64_t deadline) -> std::optional<bool> {
    RouterQueryResult r = single.precedence(0, a, b, deadline);
    if (r.answer.has_value()) return r.answer;
    if (deadline != 0) {
      r = single.precedence(0, a, b, std::uint64_t{0});
    }
    return r.answer;
  };

  for (std::size_t i = 0; i < schedule.ops.size() && report.ok(); ++i) {
    const SimOp& op = schedule.ops[i];
    ++report.ops_run;
    switch (op.kind) {
      case SimOp::Kind::kEmit: {
        for (TenantId t = 0; t < options.tenants; ++t) {
          sharded.ingest(t, op.event);
        }
        single.ingest(0, op.event);
        break;
      }
      case SimOp::Kind::kCheckpointRestore:
      case SimOp::Kind::kRebuild:
      case SimOp::Kind::kCorruptRepair:
        // Single-monitor lifecycle ops; the simcheck oracle owns them.
        break;
      case SimOp::Kind::kMigrate: {
        // Migrations ride the epoch boundary and must never change an
        // answer: every sharded tenant re-clusters here while the
        // single-shard reference never does — the next probe still demands
        // bit-identical answers from both deployments.
        MigrationConfig mc;
        mc.planner.hysteresis = 0.1;
        mc.planner.max_moves = 4;
        mc.planner.min_weight = 1.0;
        mc.planner.decay_window = 64;
        mc.planner.cooldown_epochs = 0;
        mc.verify_pairs = 1 + op.a % 16;
        mc.verify_deadline_ticks = 0;
        mc.seed = op.d | 1;
        const auto fault = static_cast<MigrationFault>(op.b % 3);
        for (TenantId t = 0; t < options.tenants; ++t) {
          const auto r = sharded.migrate_tenant(t, mc, fault);
          if (r.outcome == MigrationOutcome::kCommitted) {
            ++report.migrations_committed;
          } else if (r.outcome == MigrationOutcome::kRolledBack) {
            ++report.migrations_rolled_back;
          }
        }
        break;
      }
      case SimOp::Kind::kProbe: {
        const auto order = single.shard_monitor(0, 0).delivery_log();
        if (order.empty()) break;
        ++report.probes;
        sharded.open_epoch();
        single.open_epoch();

        if (options.fault_first_tenant_only && options.faults.any()) {
          for (ShardId s = 0; s < options.shards; ++s) {
            ShardFault f = draw_shard_fault(options.faults, 0, s,
                                            sharded.epoch());
            if (f == ShardFault::kCorruptCluster &&
                sharded.shard_monitor(0, s).delivery_log().empty()) {
              f = ShardFault::kNone;
            }
            if (f == ShardFault::kNone) continue;
            sharded.inject_shard_fault(0, s, f);
            ++report.faults_injected;
          }
        }

        const std::uint64_t deadline = op.c;
        Prng prng(op.b);
        for (std::uint64_t p = 0; p < op.a && report.ok(); ++p) {
          const EventId a = order[prng.index(order.size())];
          const EventId b = order[prng.index(order.size())];
          for (TenantId t = 0; t < options.tenants && report.ok(); ++t) {
            RouterQueryResult got = sharded.precedence(t, a, b, deadline);
            ++report.pairs_checked;
            const bool tenant_faulted =
                options.faults.any() &&
                (!options.fault_first_tenant_only || t == 0);
            if (got.outcome == RouterOutcome::kDegraded) {
              ++report.degraded_answers;
              if (!tenant_faulted && deadline == 0) {
                diverge(i, t,
                        "degraded answer on a fault-free unlimited-budget "
                        "probe",
                        a, b);
                continue;
              }
            }
            if (got.outcome == RouterOutcome::kUnknown) {
              ++report.unknown_answers;
              if (!tenant_faulted && deadline == 0) {
                diverge(i, t,
                        "unknown on a fault-free unlimited-budget probe", a,
                        b);
              }
              continue;
            }
            if (!got.answer.has_value()) continue;  // shed (not expected)
            const std::optional<bool> want = reference_answer(a, b, deadline);
            if (!want.has_value()) {
              diverge(i, t,
                      "single-shard reference could not answer a pair the "
                      "sharded deployment answered",
                      a, b);
            } else if (*got.answer != *want) {
              std::ostringstream os;
              os << "precedence mismatch: sharded says "
                 << (*got.answer ? "true" : "false") << " ("
                 << to_string(got.outcome) << " via shard " << got.shard
                 << "), single-shard says " << (*want ? "true" : "false");
              diverge(i, t, os.str(), a, b);
            }
          }
        }

        if ((op.d & SimOp::kProbeFrontier) != 0 && report.ok()) {
          const EventId e = order[prng.index(order.size())];
          RouterQueryResult want = single.frontier(0, e, deadline);
          if (!want.frontiers.has_value() && deadline != 0) {
            want = single.frontier(0, e, std::uint64_t{0});
          }
          for (TenantId t = 0; t < options.tenants && report.ok(); ++t) {
            RouterQueryResult got = sharded.frontier(t, e, deadline);
            ++report.frontiers_checked;
            if (got.outcome == RouterOutcome::kDegraded) {
              ++report.degraded_answers;
            }
            if (!got.frontiers.has_value()) {
              ++report.unknown_answers;
              const bool tenant_faulted =
                  options.faults.any() &&
                  (!options.fault_first_tenant_only || t == 0);
              if (!tenant_faulted && deadline == 0) {
                diverge(i, t, "unknown frontier on a fault-free probe", e);
              }
              continue;
            }
            if (!want.frontiers.has_value()) {
              diverge(i, t,
                      "single-shard reference could not compute a frontier "
                      "the sharded deployment computed",
                      e);
              continue;
            }
            const std::string mismatch =
                frontier_mismatch(*got.frontiers, *want.frontiers);
            if (!mismatch.empty()) diverge(i, t, mismatch, e);
          }
        }

        for (TenantId t = 0; t < options.tenants && report.ok(); ++t) {
          if (!sharded.tenant_health(t).accounted()) {
            diverge(i, t, "TenantHealth accounting invariant violated");
          }
        }
        sharded.close_epoch();
        single.close_epoch();
        break;
      }
    }
  }
  if (sharded.serving()) sharded.close_epoch();
  if (single.serving()) single.close_epoch();
  if (report.ok() && !single.tenant_health(0).accounted()) {
    diverge(schedule.ops.size(), 0,
            "single-shard TenantHealth accounting invariant violated");
  }
  return report;
}

}  // namespace ct
