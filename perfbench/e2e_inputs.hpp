// Seeded inputs of the end-to-end benchmark: the workloads' sizing, the
// generated computation, its racing per-process arrival stream, and the
// open-loop query schedules. Everything here is a pure function of the
// workload and the seed; the program under test sees only the events and
// queries produced, and input_digest() fingerprints them so two commits can
// be shown to have run identical inputs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "durability/wal.hpp"
#include "model/event.hpp"
#include "model/trace.hpp"
#include "monitor/monitor.hpp"

namespace e2e {

enum class Kind : std::uint8_t { kPrecedence = 0, kBatch = 1, kFrontier = 2 };
inline constexpr int kKinds = 3;
const char* kind_name(Kind k);

/// The interactive-viewport query mix, offered open-loop at a fixed rate.
/// The three kinds come in equal thirds: each consecutive block of three
/// arrivals holds one of each, in a seeded order. Equal shares give the
/// rarest kind the most samples a run can hold, and a run of `seconds` at
/// `rate_qps` then holds exactly rate × seconds / 3 of every kind.
struct MixSpec {
  double rate_qps = 0.0;  ///< offered queries per second, all kinds
  /// Mean distance, in viewport pages, of a query's page from the newest
  /// events (exponential): small = the viewport sits on recent events and
  /// the answer cache sees reuse; large = wide scrolling, little reuse.
  double mean_page_offset = 4.0;
};

/// Events per viewport page in delivery order. A batch redraw asks every
/// (left-half, right-half) pair of one page: 16 × 16 = 256 pairs.
inline constexpr std::size_t kPageEvents = 32;
inline constexpr std::size_t kBatchPairs = 256;

/// Interactive latency limits a query kind must meet at a sustainable rate
/// (see README.md for their reasons).
inline constexpr double kLimitPrecedenceNs = 16.7e6;  // one 60 Hz frame
inline constexpr double kLimitBatchNs = 16.7e6;      // one 60 Hz frame
inline constexpr double kLimitFrontierNs = 100e6;    // a click's response

struct WorkloadConfig {
  std::string name;
  // The computation.
  std::size_t processes = 300;
  std::size_t group_size = 20;  ///< planted locality groups
  double intra_rate = 0.97;     ///< messages that stay in their group
  std::size_t messages = 0;     ///< events ≈ 3 × messages
  // The monitor: merge-on-Nth clustering.
  std::size_t max_cluster_size = 23;
  double nth_threshold = 10.0;
  // Arrival: racing per-process streams displaced up to this many events
  // from a delivery order (0 = in order).
  std::size_t max_lag = 0;
  // Durability.
  ct::SyncPolicy sync_policy = ct::SyncPolicy::kNone;
  std::size_t sync_every = 256;  ///< kEveryN batch
  std::size_t checkpoint_every = 0;  ///< events between checkpoints
  // Serving.
  std::size_t replicas = 3;
  std::size_t pool_threads = 3;  ///< router pool; the generator adds 1
  MixSpec mix;
  // Epoch churn (wide_churn).
  std::size_t preload_events = 0;  ///< ingested before the first epoch
  std::size_t cycles = 0;          ///< close / ingest / checkpoint / open
  // Repetitions. ingest_durable sets up once per durable ingest and this
  // many times more after it; viewport_serve sets up once per segment.
  std::size_t setup_reps = 5;
  /// Cold starts after each segment or epoch cycle (ingest_durable
  /// cold-starts once after each durable ingest).
  std::size_t coldstart_reps = 1;
};

/// The named workloads; throws on an unknown name.
WorkloadConfig workload_config(const std::string& name);

ct::MonitorOptions monitor_options(const WorkloadConfig& cfg);

/// The computation of a workload: planted-locality random communication.
ct::Trace make_trace(const WorkloadConfig& cfg, std::uint64_t seed);

/// Racing per-process streams: every process's events in order, with the
/// cross-process interleaving displaced randomly by up to `max_lag`
/// positions from the trace's delivery order, so receives can arrive
/// before their sends and the delivery manager must buffer them.
std::vector<ct::Event> racing_stream(const ct::Trace& trace,
                                     std::size_t max_lag, std::uint64_t seed);

/// The trace's events in its canonical delivery order.
std::vector<ct::Event> ordered_stream(const ct::Trace& trace);

/// One scheduled query. `due_ns` is relative to the schedule's start.
struct Query {
  std::int64_t due_ns = 0;
  Kind kind = Kind::kPrecedence;
  ct::EventId e;       ///< point: first event; frontier: the clicked event
  ct::EventId f;       ///< point: second event
  std::uint32_t page = 0;  ///< batch: first delivery-order position
};

/// Open-loop schedule of the mix over the first `visible` events of
/// `order`: evenly spaced arrivals at mix.rate_qps for `duration_s` seconds.
/// The schedule is fixed before the run and never adapts to the system.
std::vector<Query> make_schedule(const MixSpec& mix,
                                 std::span<const ct::EventId> order,
                                 std::size_t visible, double duration_s,
                                 std::uint64_t seed);

/// The 256 pairs a batch redraw of the page at `page` asks.
std::vector<std::pair<ct::EventId, ct::EventId>> batch_pairs(
    std::span<const ct::EventId> order, std::uint32_t page);

/// FNV-1a over events and queries.
std::uint64_t digest_events(std::uint64_t h, std::span<const ct::Event> evs);
std::uint64_t digest_queries(std::uint64_t h, std::span<const Query> qs);

}  // namespace e2e
