#include "simcheck/oracle.hpp"

#include <algorithm>
#include <future>
#include <memory>
#include <sstream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cluster/comm_matrix.hpp"
#include "cluster/fixed_contiguous.hpp"
#include "cluster/merge_policy.hpp"
#include "cluster/static_greedy.hpp"
#include "core/batch_hybrid.hpp"
#include "core/compact_store.hpp"
#include "core/engine.hpp"
#include "core/recursive_precedence.hpp"
#include "model/trace.hpp"
#include "monitor/monitor.hpp"
#include "monitor/queries.hpp"
#include "monitor/query_broker.hpp"
#include "recluster/coordinator.hpp"
#include "timestamp/ondemand_fm.hpp"
#include "trace/snapshot.hpp"
#include "util/check.hpp"
#include "util/prng.hpp"
#include "util/thread_pool.hpp"

namespace ct {

namespace {

/// Merge-on-Nth threshold used for the oracle's backend rebuilds. Low enough
/// that merging actually happens at simulation scale (8–20 processes).
constexpr double kNthThreshold = 2.0;

std::uint64_t pack(EventId id) {
  return (static_cast<std::uint64_t>(id.process) << 32) | id.index;
}

/// Builds a cluster-timestamp engine over `t` per the config's strategy.
std::unique_ptr<ClusterTimestampEngine> build_engine(const Trace& t,
                                                     const OracleConfig& cfg) {
  ClusterEngineConfig ec;
  ec.max_cluster_size = cfg.max_cluster_size;
  ec.fm_vector_width = std::max<std::size_t>(1, t.process_count());

  std::unique_ptr<ClusterTimestampEngine> engine;
  switch (cfg.strategy) {
    case SimStrategy::kStaticGreedy: {
      const CommMatrix comm(t);
      StaticGreedyOptions opts;
      opts.max_cluster_size = cfg.max_cluster_size;
      engine = std::make_unique<ClusterTimestampEngine>(
          t.process_count(), ec, static_greedy_clusters(comm, opts));
      break;
    }
    case SimStrategy::kFixedContiguous:
      engine = std::make_unique<ClusterTimestampEngine>(
          t.process_count(), ec,
          fixed_contiguous_clusters(t.process_count(), cfg.max_cluster_size));
      break;
    case SimStrategy::kMergeFirst:
      engine = std::make_unique<ClusterTimestampEngine>(
          t.process_count(), ec, make_merge_on_first());
      break;
    case SimStrategy::kMergeNth:
      engine = std::make_unique<ClusterTimestampEngine>(
          t.process_count(), ec, make_merge_on_nth(kNthThreshold));
      break;
  }
  engine->observe_trace(t);
  return engine;
}

/// One rebuilt backend with a uniform precedence interface.
class BackendInstance {
 public:
  BackendInstance(const Trace& t, const OracleConfig& cfg) : trace_(t) {
    switch (cfg.backend) {
      case SimBackend::kEngine:
      case SimBackend::kRecursive:
        engine_ = build_engine(t, cfg);
        recursive_ = cfg.backend == SimBackend::kRecursive;
        break;
      case SimBackend::kCompact: {
        engine_ = build_engine(t, cfg);
        store_ = std::make_unique<CompactTimestampStore>(t.process_count());
        for (ProcessId p = 0; p < t.process_count(); ++p) {
          const EventIndex n = t.process_size(p);
          for (EventIndex i = 1; i <= n; ++i) {
            store_->append(EventId{p, i}, engine_->timestamp(EventId{p, i}));
          }
        }
        engine_.reset();  // answers must come from the decoded records alone
        break;
      }
      case SimBackend::kBatchHybrid: {
        BatchHybridConfig hc;
        hc.batch_size = std::max<std::size_t>(1, t.event_count() / 2);
        hc.engine.max_cluster_size = cfg.max_cluster_size;
        hc.engine.fm_vector_width = std::max<std::size_t>(1, t.process_count());
        switch (cfg.strategy) {
          case SimStrategy::kMergeFirst:
            hc.nth_threshold = 0.0;  // degenerates to merge-on-1st
            break;
          case SimStrategy::kMergeNth:
            hc.nth_threshold = kNthThreshold;
            break;
          default:
            hc.nth_threshold = -1.0;  // freeze the batch clustering
            break;
        }
        hybrid_ = std::make_unique<BatchHybridEngine>(t.process_count(), hc);
        hybrid_->observe_trace(t);
        break;
      }
      case SimBackend::kBroker:
        CT_CHECK_MSG(false, "broker configs are probed separately");
    }
  }

  bool precedes(EventId e, EventId f) {
    const Event& ev_e = trace_.event(e);
    const Event& ev_f = trace_.event(f);
    if (hybrid_) return hybrid_->precedes(ev_e, ev_f);
    if (store_ || recursive_) {
      return recursive_precedes(ev_e, ev_f, trace_.process_count(),
                                [this](EventId id) -> const ClusterTimestamp& {
                                  return materialize(id);
                                });
    }
    return engine_->precedes(ev_e, ev_f);
  }

 private:
  /// The compact store decodes and the engine materializes timestamps by
  /// value, while the recursive test reads them by reference: each is
  /// cached on first use.
  const ClusterTimestamp& materialize(EventId id) {
    const auto [it, inserted] = decoded_.try_emplace(pack(id));
    if (inserted) {
      it->second = store_ ? store_->decode(id) : engine_->timestamp(id);
    }
    return it->second;
  }

  const Trace& trace_;
  std::unique_ptr<ClusterTimestampEngine> engine_;
  std::unique_ptr<BatchHybridEngine> hybrid_;
  std::unique_ptr<CompactTimestampStore> store_;
  std::unordered_map<std::uint64_t, ClusterTimestamp> decoded_;
  bool recursive_ = false;
};

}  // namespace

const char* to_string(SimBackend b) {
  switch (b) {
    case SimBackend::kEngine: return "engine";
    case SimBackend::kCompact: return "compact";
    case SimBackend::kRecursive: return "recursive";
    case SimBackend::kBatchHybrid: return "batch-hybrid";
    case SimBackend::kBroker: return "broker";
  }
  return "?";
}

const char* to_string(SimStrategy s) {
  switch (s) {
    case SimStrategy::kStaticGreedy: return "static-greedy";
    case SimStrategy::kMergeFirst: return "merge-1st";
    case SimStrategy::kMergeNth: return "merge-nth";
    case SimStrategy::kFixedContiguous: return "fixed-contiguous";
  }
  return "?";
}

std::string OracleConfig::label() const {
  return std::string(to_string(backend)) + "/" + to_string(strategy) + "/cs" +
         std::to_string(max_cluster_size);
}

std::vector<OracleConfig> full_matrix() {
  std::vector<OracleConfig> out;
  const SimBackend backends[] = {SimBackend::kEngine, SimBackend::kCompact,
                                 SimBackend::kRecursive,
                                 SimBackend::kBatchHybrid};
  const SimStrategy strategies[] = {
      SimStrategy::kStaticGreedy, SimStrategy::kMergeFirst,
      SimStrategy::kMergeNth, SimStrategy::kFixedContiguous};
  const std::uint32_t sizes[] = {4, 16, 64};
  for (const SimBackend b : backends) {
    for (const SimStrategy s : strategies) {
      for (const std::uint32_t cs : sizes) {
        out.push_back(OracleConfig{b, s, cs});
      }
    }
  }
  // Broker rows: dynamic strategies only (its monitor self-organizes).
  for (const SimStrategy s :
       {SimStrategy::kMergeFirst, SimStrategy::kMergeNth}) {
    for (const std::uint32_t cs : sizes) {
      out.push_back(OracleConfig{SimBackend::kBroker, s, cs});
    }
  }
  return out;
}

SimReport run_schedule(const SimSchedule& schedule,
                       std::span<const OracleConfig> configs,
                       const SimHooks* hooks) {
  SimReport report;
  CT_CHECK_MSG(schedule.process_count > 0, "schedule has no processes");

  MonitorOptions mo;
  mo.backend = TimestampBackend::kClusterDynamic;
  mo.cluster.max_cluster_size = schedule.max_cluster_size;
  mo.cluster.fm_vector_width = schedule.process_count;
  mo.nth_threshold = schedule.nth_threshold;
  auto monitor =
      std::make_unique<MonitoringEntity>(schedule.process_count, mo);

  auto diverge = [&](std::size_t op_index, std::string config,
                     std::string detail, EventId e = kNoEvent,
                     EventId f = kNoEvent) {
    if (!report.divergence) {
      report.divergence =
          SimDivergence{op_index, std::move(config), std::move(detail), e, f};
    }
  };

  auto apply_hook = [&](const OracleConfig& cfg, EventId e, EventId f,
                        bool answer) {
    return (hooks && hooks->mutate) ? hooks->mutate(cfg, e, f, answer)
                                    : answer;
  };

  // ---- one probe point: rebuild every config over the delivered state ----
  auto run_probe = [&](std::size_t op_index, const SimOp& op) {
    ++report.probes;
    const Trace t = monitor->delivered_trace();
    const std::size_t n = t.event_count();
    if (n == 0) return;
    const std::size_t process_count = t.process_count();

    OnDemandFmEngine truth(t, 512);
    Prng prng(op.b);

    // Sampled query pairs (shared across every config of this probe).
    std::vector<std::pair<EventId, EventId>> pairs;
    pairs.reserve(op.a);
    const auto order = t.delivery_order();
    for (std::uint64_t k = 0; k < op.a; ++k) {
      pairs.emplace_back(order[prng.index(n)], order[prng.index(n)]);
    }
    const EventId anchor = order[prng.index(n)];

    std::vector<bool> expected(pairs.size());
    for (std::size_t k = 0; k < pairs.size(); ++k) {
      expected[k] = truth.precedes(pairs[k].first, pairs[k].second);
    }

    // The live monitor (snapshot-restored, corrupted-and-repaired, rebuilt —
    // whatever the schedule did to it) must still answer exactly.
    for (std::size_t k = 0; k < pairs.size(); ++k) {
      ++report.checks;
      const bool got = monitor->precedes(pairs[k].first, pairs[k].second);
      if (got != expected[k]) {
        diverge(op_index, "monitor",
                "live monitor disagrees with on-demand FM: got " +
                    std::to_string(got) + " want " +
                    std::to_string(expected[k]),
                pairs[k].first, pairs[k].second);
        return;
      }
    }

    const bool want_frontier = (op.d & SimOp::kProbeFrontier) != 0;
    CausalFrontiers truth_frontier;
    if (want_frontier) {
      truth_frontier = compute_frontiers_with(
          process_count, anchor,
          [&truth](EventId a, EventId b) { return truth.precedes(a, b); },
          [&t](ProcessId q) { return t.process_size(q); });
    }

    for (const OracleConfig& cfg : configs) {
      if (report.divergence) return;
      if (cfg.backend == SimBackend::kBroker) {
        if ((op.d & SimOp::kProbeBroker) == 0) continue;
        ++report.configs_checked;

        // A fresh monitor mirroring the config serves the delivered state
        // through the full broker chain.
        MonitorOptions bmo;
        bmo.backend = TimestampBackend::kClusterDynamic;
        bmo.cluster.max_cluster_size = cfg.max_cluster_size;
        bmo.cluster.fm_vector_width = std::max<std::size_t>(1, process_count);
        bmo.nth_threshold =
            cfg.strategy == SimStrategy::kMergeFirst ? -1.0 : kNthThreshold;
        MonitoringEntity fresh(process_count, bmo);
        for (const EventId id : order) fresh.ingest(t.event(id));
        if (!fresh.health().accounted() ||
            fresh.stored() != t.event_count()) {
          diverge(op_index, cfg.label(),
                  "replaying the delivered trace did not deliver cleanly");
          return;
        }

        ThreadPool pool(2);
        BrokerOptions bo;
        bo.audit_stride = 16;
        QueryBroker broker(fresh, pool, bo);
        // Seeded degradation: force the chain past its primary sometimes.
        if (prng.chance(0.5)) broker.trip_backend(ServingBackend::kCluster);
        if (prng.chance(0.25)) {
          broker.trip_backend(ServingBackend::kDifferential);
        }
        const std::optional<std::uint64_t> deadline =
            op.c == 0 ? std::optional<std::uint64_t>{}
                      : std::optional<std::uint64_t>{op.c};

        std::vector<std::future<QueryResult>> futures;
        futures.reserve(pairs.size());
        for (const auto& [e, f] : pairs) {
          futures.push_back(broker.submit_precedence(e, f, deadline));
        }
        auto batch_future = broker.submit_batch(pairs);
        auto frontier_future = broker.submit_frontier(anchor);
        broker.drain();

        for (std::size_t k = 0; k < futures.size(); ++k) {
          QueryResult r = futures[k].get();
          if (r.outcome == QueryOutcome::kFailed) {
            diverge(op_index, cfg.label(), "broker query failed on healthy state",
                    pairs[k].first, pairs[k].second);
            return;
          }
          if (r.outcome != QueryOutcome::kAnswered) continue;  // degraded, not wrong
          ++report.broker_checks;
          const bool got =
              apply_hook(cfg, pairs[k].first, pairs[k].second, *r.answer);
          if (got != expected[k]) {
            diverge(op_index, cfg.label(),
                    "broker answer mismatch: got " + std::to_string(got) +
                        " want " + std::to_string(expected[k]) + " via " +
                        to_string(r.backend_used),
                    pairs[k].first, pairs[k].second);
            return;
          }
        }
        QueryResult batch = batch_future.get();
        if (batch.outcome == QueryOutcome::kAnswered) {
          for (std::size_t k = 0; k < pairs.size(); ++k) {
            if (!batch.batch[k].has_value()) continue;
            ++report.broker_checks;
            const bool got =
                apply_hook(cfg, pairs[k].first, pairs[k].second,
                           *batch.batch[k]);
            if (got != expected[k]) {
              diverge(op_index, cfg.label(), "broker batch answer mismatch",
                      pairs[k].first, pairs[k].second);
              return;
            }
          }
        }
        QueryResult fr = frontier_future.get();
        if (want_frontier && fr.outcome == QueryOutcome::kAnswered) {
          ++report.broker_checks;
          if (fr.frontiers->greatest_predecessor !=
                  truth_frontier.greatest_predecessor ||
              fr.frontiers->greatest_concurrent !=
                  truth_frontier.greatest_concurrent) {
            diverge(op_index, cfg.label(), "broker frontier mismatch", anchor);
            return;
          }
        }
        if (!broker.health().accounted()) {
          diverge(op_index, cfg.label(),
                  "BrokerHealth accounting identity violated");
          return;
        }
        continue;
      }

      // Direct backend rebuild.
      ++report.configs_checked;
      BackendInstance backend(t, cfg);
      for (std::size_t k = 0; k < pairs.size(); ++k) {
        ++report.checks;
        const bool got = apply_hook(cfg, pairs[k].first, pairs[k].second,
                                    backend.precedes(pairs[k].first,
                                                     pairs[k].second));
        if (got != expected[k]) {
          diverge(op_index, cfg.label(),
                  "precedence mismatch: got " + std::to_string(got) +
                      " want " + std::to_string(expected[k]),
                  pairs[k].first, pairs[k].second);
          return;
        }
      }
      if (want_frontier) {
        ++report.checks;
        const CausalFrontiers got = compute_frontiers_with(
            process_count, anchor,
            [&](EventId a, EventId b) {
              return apply_hook(cfg, a, b, backend.precedes(a, b));
            },
            [&t](ProcessId q) { return t.process_size(q); });
        if (got.greatest_predecessor != truth_frontier.greatest_predecessor ||
            got.greatest_concurrent != truth_frontier.greatest_concurrent) {
          diverge(op_index, cfg.label(), "frontier mismatch", anchor);
          return;
        }
      }
    }
  };

  // ---- the op loop -------------------------------------------------------
  for (std::size_t i = 0; i < schedule.ops.size(); ++i) {
    if (report.divergence) break;
    const SimOp& op = schedule.ops[i];
    try {
      switch (op.kind) {
        case SimOp::Kind::kEmit: {
          (void)monitor->ingest(op.event);
          if (!monitor->health().accounted()) {
            diverge(i, "monitor-health",
                    "MonitorHealth accounting identity violated after ingest",
                    op.event.id);
          }
          break;
        }
        case SimOp::Kind::kCheckpointRestore: {
          const std::uint64_t before = monitor->state_digest();
          std::stringstream buffer;
          save_snapshot(buffer, *monitor);
          auto restored = load_snapshot(buffer);
          if (restored->state_digest() != before) {
            diverge(i, "snapshot",
                    "state digest moved across save/load round-trip");
            break;
          }
          if (!restored->health().accounted()) {
            diverge(i, "snapshot",
                    "restored MonitorHealth accounting identity violated");
            break;
          }
          monitor = std::move(restored);
          break;
        }
        case SimOp::Kind::kRebuild: {
          const auto ids = monitor->cluster_ids();
          if (ids.empty()) break;
          const ClusterId c = ids[op.a % ids.size()];
          const std::uint64_t state_before = monitor->state_digest();
          const std::uint64_t cluster_before = monitor->cluster_digest(c);
          monitor->rebuild_cluster(c);
          if (monitor->cluster_digest(c) != cluster_before ||
              monitor->state_digest() != state_before) {
            diverge(i, "rebuild",
                    "rebuilding a healthy cluster changed its digest");
          }
          break;
        }
        case SimOp::Kind::kCorruptRepair: {
          const std::uint32_t p_count = schedule.process_count;
          // Resolve a process with delivered events, scanning from the
          // selector so the op stays meaningful as the shrinker deletes
          // emits. No delivered events anywhere: the op is a no-op.
          ProcessId p = p_count;
          for (std::uint32_t tries = 0; tries < p_count; ++tries) {
            const ProcessId cand =
                static_cast<ProcessId>((op.a + tries) % p_count);
            if (monitor->delivered_count(cand) > 0) {
              p = cand;
              break;
            }
          }
          if (p == p_count) break;
          const EventIndex count = monitor->delivered_count(p);
          const EventIndex idx =
              static_cast<EventIndex>(1 + op.b % count);
          const auto cluster = monitor->cluster_of(p);
          if (!cluster) break;
          const std::uint64_t before = monitor->cluster_digest(*cluster);
          monitor->inject_timestamp_corruption(
              EventId{p, idx}, static_cast<std::size_t>(op.c),
              static_cast<EventIndex>(op.d % 0xffffffu));
          monitor->rebuild_cluster(*cluster);
          if (monitor->cluster_digest(*cluster) != before) {
            diverge(i, "corrupt-repair",
                    "cluster digest not restored by rebuild after corruption",
                    EventId{p, idx});
          }
          break;
        }
        case SimOp::Kind::kProbe:
          run_probe(i, op);
          break;
        case SimOp::Kind::kMigrate: {
          // One two-phase re-clustering cycle against the live monitor. The
          // protocol's promise is that the cycle NEVER changes an answer —
          // the very next probe re-asserts answer identity against the
          // on-demand FM ground truth over the migrated engine. Here we
          // check the loudness half of the contract.
          MigrationConfig mc;
          mc.planner.hysteresis = 0.1;
          mc.planner.max_moves = 4;
          mc.planner.min_weight = 1.0;
          mc.planner.decay_window = 64;
          mc.planner.cooldown_epochs = 0;
          mc.verify_pairs = 1 + op.a % 64;
          mc.verify_deadline_ticks = op.c;
          mc.seed = op.d != 0 ? op.d : 1;
          const auto fault = static_cast<MigrationFault>(op.b % 3);
          MigrationCoordinator coordinator(*monitor, mc);
          const MigrationOutcome outcome = coordinator.run_cycle(fault);
          const MigrationStats& ms = coordinator.stats();
          if (ms.rollback_divergence > 0 &&
              fault != MigrationFault::kCorruptShadow) {
            diverge(i, "migrate",
                    "dual-read divergence in an uncorrupted migration: old "
                    "and new clustering answered differently");
            break;
          }
          if (fault == MigrationFault::kStalledVerify &&
              outcome == MigrationOutcome::kCommitted) {
            diverge(i, "migrate", "stalled verify still committed");
            break;
          }
          if (fault == MigrationFault::kCorruptShadow &&
              ms.faults_injected > 0 &&
              outcome == MigrationOutcome::kCommitted) {
            diverge(i, "migrate",
                    "corrupt shadow slipped through dual-read verify");
            break;
          }
          if (fault == MigrationFault::kNone && op.c == 0 &&
              outcome == MigrationOutcome::kRolledBack) {
            diverge(i, "migrate",
                    "fault-free unlimited-deadline migration rolled back");
            break;
          }
          break;
        }
      }
    } catch (const CheckFailure& ex) {
      diverge(i, "check-failure", ex.what());
    }
    ++report.ops_run;
  }
  return report;
}

}  // namespace ct
