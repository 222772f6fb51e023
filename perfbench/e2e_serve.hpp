// Open-loop serving of the viewport mix, and the rate sweep that finds the
// highest sustainable offered rate.
//
// One generator thread issues the schedule: it waits for a query's due
// time, issues it, and blocks until it resolves. When it falls behind, later
// queries start late, and that lateness is part of their latency: every
// query is timed from its due time, never from when the generator got round
// to it. The router's pool threads plus this one stay within the machine's
// CPUs, so the numbers measure the program rather than the scheduler.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "e2e_common.hpp"
#include "e2e_inputs.hpp"
#include "monitor/monitor.hpp"
#include "monitor/queries.hpp"
#include "monitor/query_broker.hpp"
#include "shard/shard_router.hpp"

namespace e2e {

/// How one query resolved.
struct Outcome {
  std::int64_t start_ns = 0;  ///< issue time, relative to the schedule start
  std::int64_t end_ns = 0;    ///< resolution time, same origin
  bool ok = false;            ///< an exact answer to every part
  std::uint32_t attempts = 0;
  std::uint64_t cost = 0;     ///< work ticks (component comparisons)
};

/// A query's answer, kept for the sampled queries that are checked.
struct AnswerRecord {
  bool filled = false;
  std::optional<bool> point;
  std::vector<std::optional<bool>> batch;
  std::optional<ct::CausalFrontiers> frontier;
};

/// Something that answers the mix: the router, one broker, or a monitor.
class Target {
 public:
  virtual ~Target() = default;
  /// Answers `q`; `rec` (may be null) receives the answer.
  virtual void run(std::size_t index, const Query& q, Outcome& out,
                   AnswerRecord* rec) = 0;
};

/// Serves through ShardRouter (spans: Layer::kShardQuery).
class RouterTarget final : public Target {
 public:
  RouterTarget(ct::ShardRouter& router, ct::TenantId tenant,
               std::span<const ct::EventId> order)
      : router_(router), tenant_(tenant), order_(order) {}
  void run(std::size_t index, const Query& q, Outcome& out,
           AnswerRecord* rec) override;

 private:
  ct::ShardRouter& router_;
  ct::TenantId tenant_;
  std::span<const ct::EventId> order_;
};

/// Serves through one QueryBroker (spans: Layer::kBrokerQuery).
class BrokerTarget final : public Target {
 public:
  BrokerTarget(ct::QueryBroker& broker, std::span<const ct::EventId> order)
      : broker_(broker), order_(order) {}
  void run(std::size_t index, const Query& q, Outcome& out,
           AnswerRecord* rec) override;

 private:
  ct::QueryBroker& broker_;
  std::span<const ct::EventId> order_;
};

/// Serves straight from a monitor's metered entry points (spans:
/// Layer::kMonitorQuery); `cost` is the engine's tick count.
class MonitorTarget final : public Target {
 public:
  MonitorTarget(const ct::MonitoringEntity& monitor,
                std::span<const ct::EventId> order)
      : monitor_(monitor), order_(order) {}
  void run(std::size_t index, const Query& q, Outcome& out,
           AnswerRecord* rec) override;

 private:
  const ct::MonitoringEntity& monitor_;
  std::span<const ct::EventId> order_;
};

/// Per-kind counts, indexed by Kind.
using KindCaps = std::array<std::size_t, kKinds>;

/// The indices, in schedule order, of the first `caps[k]` queries of each
/// kind k: the deterministic sample that is checked and attributed.
std::vector<std::size_t> first_of_each_kind(std::span<const Query> schedule,
                                            const KindCaps& caps);

struct OpenLoopRun {
  std::vector<Outcome> outcomes;
  std::vector<AnswerRecord> answers;  ///< same indexing; filled if sampled
  double wall_s = 0.0;
};

/// Runs `schedule` open-loop against `target`; `sampled` queries keep
/// their answers.
OpenLoopRun run_open_loop(std::span<const Query> schedule, Target& target,
                          std::span<const std::size_t> sampled);

/// Runs the `sampled` queries one after another (closed loop), keeping
/// their answers and costs.
OpenLoopRun run_closed_loop(std::span<const Query> schedule, Target& target,
                            std::span<const std::size_t> sampled);

/// Latency / lateness / failure statistics of one open-loop run.
struct ServeStats {
  Dist latency_ns[kKinds];  ///< due time to resolution
  Dist service_ns[kKinds];  ///< issue to resolution
  Dist lateness_ns;         ///< due time to issue, all kinds
  std::size_t backlog_max = 0;  ///< most queries due but not yet issued
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t attempts = 0;
  /// Lateness growth: mean lateness of the last quarter of the schedule
  /// minus that of the first quarter.
  double lateness_growth_ns = 0.0;
  /// Completed queries per second of schedule time.
  double achieved_qps = 0.0;
};
ServeStats serve_stats(std::span<const Query> schedule,
                       const OpenLoopRun& run);

/// No query failed and generator lateness did not grow.
bool keeps_up(const ServeStats& s);
/// Every kind's p99 meets its interactive limit.
bool within_limits(const ServeStats& s);
/// Both: the offered rate is sustainable.
bool sustainable(const ServeStats& s);

/// The rate sweep: probes offered rates from `start_qps` (doubling, then
/// bisecting) with fresh schedules of `probe_s` seconds each, and returns
/// the achieved rate of the highest sustainable probe.
struct SweepResult {
  double max_sustainable_qps = 0.0;
  std::size_t probes = 0;
};
SweepResult sweep_max_rate(const MixSpec& mix,
                           std::span<const ct::EventId> order,
                           std::size_t visible, Target& target,
                           double start_qps, double probe_s,
                           std::uint64_t seed);

}  // namespace e2e
