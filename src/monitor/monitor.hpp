// The monitoring entity of Figure 1.
//
// Composes the substrates: a DeliveryManager that linearizes racing process
// streams and keeps the delivered events in per-process arrays indexed by
// event number (§1's (process, event number) lookup), and a pluggable
// timestamp backend — pre-computed Fidge/Mattern vectors (the
// "store everything" strategy of §1.1) or self-organizing cluster timestamps
// (the paper's contribution). Visualization engines and control entities
// query it for events and precedence.
//
// Ingestion is fault tolerant (docs/FAULT_MODEL.md): ingest() reports a
// structured IngestResult, health() accounts for every record that did not
// make it into the store, and CTC1 checkpoint images (durability/wal.hpp,
// durability/format.hpp) persist the delivered state so a restarted monitor
// replays only the tail of a stream.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "model/event.hpp"
#include "model/ids.hpp"
#include "model/trace.hpp"
#include "monitor/delivery_manager.hpp"
#include "monitor/ingest_result.hpp"
#include "timestamp/fm_clock.hpp"
#include "timestamp/fm_engine.hpp"
#include "timestamp/query_cost.hpp"
#include "util/check.hpp"

namespace ct {

/// Every current cluster's cluster_digest, in ascending cluster-id order.
using ClusterDigests = std::vector<std::pair<ClusterId, std::uint64_t>>;

struct RecoveryReport;  // durability/recovery.hpp
class MappedSnapshot;   // store/mapped_view.hpp
namespace wal {
struct WalScan;  // durability/wal.hpp
}

enum class TimestampBackend : std::uint8_t {
  kPrecomputedFm,   ///< full FM vector stored per event (§1.1 baseline)
  kClusterDynamic,  ///< cluster timestamps, self-organizing (merge policy)
};

struct MonitorOptions {
  TimestampBackend backend = TimestampBackend::kClusterDynamic;
  ClusterEngineConfig cluster;
  /// Dynamic strategy when backend == kClusterDynamic:
  /// < 0 → merge-on-1st; otherwise merge-on-Nth with this threshold.
  double nth_threshold = 10.0;
  /// Buffering limits of the ingest path (defaults: unbounded, no timeout).
  DeliveryPolicy delivery;
  /// Committed re-clustering baseline (cluster backend only). When
  /// non-empty the engine starts in hybrid mode (§5 variant 1) from this
  /// partition and keeps self-organizing through the merge policy;
  /// `migration_epoch` is the epoch of the two-phase commit that produced
  /// it (src/recluster/). Snapshots persist both so restore and WAL
  /// recovery rebuild the same clustering the live monitor served.
  std::vector<std::vector<ProcessId>> preset_partition;
  std::uint64_t migration_epoch = 0;
};

class MonitoringEntity {
 public:
  MonitoringEntity(std::size_t process_count, MonitorOptions options);

  /// Feeds one record from its process stream (any cross-process
  /// interleaving). Malformed, duplicate, or out-of-order records are
  /// absorbed and accounted, never thrown on — see IngestResult and
  /// health().
  IngestResult ingest(const Event& e);

  /// Events buffered awaiting causal prerequisites.
  std::size_t pending() const { return delivery_.pending(); }
  std::size_t stored() const { return delivery_log().size(); }
  std::size_t process_count() const { return process_count_; }
  const MonitorOptions& options() const { return options_; }

  /// Ingest-path accounting: every ingested record lands in exactly one of
  /// delivered / duplicates / rejected / evicted / pending / quarantined.
  const MonitorHealth& health() const { return delivery_.health(); }

  /// Durability hook: called with every delivered event, in delivery order,
  /// after it is stored and timestamped. The write-ahead log
  /// (src/durability/wal.hpp) installs itself here; anything else observing
  /// the delivered stream may too. Install AFTER restore/recovery — replayed
  /// deliveries would otherwise be re-logged.
  using DeliveryTap = std::function<void(const Event&)>;
  void set_delivery_tap(DeliveryTap tap) { tap_ = std::move(tap); }

  /// Durability accounting: declares `records` delivered-then-lost (their
  /// WAL frames did not survive the crash). Shows up as health().wal_lost.
  void note_wal_loss(std::uint64_t records) {
    delivery_.note_wal_loss(records);
  }

  /// Delivered events of one process.
  EventIndex delivered_count(ProcessId p) const {
    CT_CHECK_MSG(p < process_count_, "process " << p << " out of range");
    return static_cast<EventIndex>(delivery_.delivered_events(p).size());
  }

  /// Delivered events in delivery order (the replay log an image saves).
  std::span<const EventId> delivery_log() const {
    return delivery_.delivery_log();
  }

  /// Point lookup; nullopt for an event that has not been delivered.
  std::optional<Event> find(EventId id) const;

  /// Record of a delivered event; checks that it was delivered.
  const Event& event(EventId id) const { return stored_event(id); }

  /// In-process range scan (partial-order scrolling): visits stored events
  /// of `p` starting at index `from` (0 reads as 1) until the visitor
  /// returns false.
  void scroll(ProcessId p, EventIndex from,
              const std::function<bool(const Event&)>& visit) const;

  /// Precedence query; both events must have been delivered and stored.
  bool precedes(EventId e, EventId f) const;

  /// Cost-instrumented precedence for the query broker: charges work ticks
  /// to `cost`, returns nullopt on budget exhaustion, and mutates no
  /// monitor state — safe to call concurrently on a quiescent monitor.
  std::optional<bool> precedes_metered(EventId e, EventId f,
                                       QueryCost& cost) const;

  /// Batched metered precedence (the broker's bulk path): answers pairs in
  /// order with tick accounting identical to sequential precedes_metered
  /// calls, resolving records once and — on the cluster backend — running
  /// the engine's kernel-backed batch entry. Returns the number of answered
  /// pairs; a short count means the budget ran out at that pair (its slot
  /// and all later slots are untouched).
  std::size_t precedes_batch_metered(
      std::span<const std::pair<EventId, EventId>> pairs, QueryCost& cost,
      std::optional<bool>* out) const;

  /// Timestamp storage in 32-bit words under §4's encoding conventions.
  std::uint64_t timestamp_words() const;

  /// Cluster statistics (cluster backend only).
  std::optional<ClusterEngineStats> cluster_stats() const;

  /// Order-insensitive digest of the delivered state (events, frontier,
  /// timestamp backend). Snapshots embed it so a divergent restore-replay is
  /// detected instead of silently answering differently.
  std::uint64_t state_digest() const;

  // --- integrity-audit hooks (cluster backend; see query_broker.hpp) ---

  /// Current cluster ids (cluster backend only; empty for FM).
  std::vector<ClusterId> cluster_ids() const;

  /// Cluster of process `p` (cluster backend only).
  std::optional<ClusterId> cluster_of(ProcessId p) const;

  /// Auditable digest of one cluster's stored timestamps. Safe against
  /// concurrent repairs: the engine pins the epoch domain itself.
  std::uint64_t cluster_digest(ClusterId c) const;

  /// cluster_digest of every current cluster, one pass (empty for FM).
  ClusterDigests cluster_digests() const;

  /// Recomputes the stored timestamp values of cluster `c`'s processes by
  /// replaying the delivery log (self-repair after detected corruption).
  /// Returns vector elements rewritten (the repair's work ticks).
  std::uint64_t rebuild_cluster(ClusterId c);

  /// Fault-injection hook for tests/benches: overwrites one stored
  /// timestamp component of the cluster backend (models a bit flip in the
  /// timestamp store — docs/FAULT_MODEL.md §6).
  void inject_timestamp_corruption(EventId e, std::size_t slot,
                                   EventIndex value);

  // --- two-phase re-clustering hooks (src/recluster/; cluster backend) ---

  /// Epoch of the newest committed migration baked into the engine
  /// (0 = the monitor has never migrated).
  std::uint64_t migration_epoch() const { return options_.migration_epoch; }

  /// Partition of the newest committed migration (empty before the first).
  const std::vector<std::vector<ProcessId>>& preset_partition() const {
    return options_.preset_partition;
  }

  /// Applies a committed migration: rebuilds the cluster backend in hybrid
  /// mode from `partition` by replaying the delivery log. Because cluster
  /// engines are deterministic functions of (partition, delivered prefix),
  /// the resulting state is identical to a monitor constructed with this
  /// partition that observed the same log — which is exactly what snapshot
  /// restore and WAL recovery reconstruct. `epoch` must exceed
  /// migration_epoch(); cluster backend only.
  void apply_migration(const std::vector<std::vector<ProcessId>>& partition,
                       std::uint64_t epoch);

  /// Commit step of the two-phase protocol: swaps in an already-built,
  /// dual-read-verified shadow engine for `partition`. The shadow must have
  /// observed exactly this monitor's delivery log (checked via its event
  /// count). Equivalent to apply_migration without the rebuild cost.
  void adopt_engine(std::unique_ptr<ClusterTimestampEngine> shadow,
                    std::vector<std::vector<ProcessId>> partition,
                    std::uint64_t epoch);

  // --- columnar snapshot hooks (src/store/) ----------------------------

  /// True when the active backend can export its arena for the CTC1
  /// columnar snapshot store (the cluster backend).
  bool can_export_arena() const { return cluster_ != nullptr; }

  /// Visits the cluster engine's published arena snapshot (see
  /// core/engine.hpp). Requires can_export_arena(); single-writer phase.
  void export_arena(ClusterTimestampEngine::ArenaExportSink& sink) const;

  /// Reconstructs the delivered prefix as an immutable Trace (the broker's
  /// fallback backends — differential, on-demand FM — are built over it).
  /// Valid because delivered events always form a causally closed prefix
  /// and the delivery log is a valid linear extension with sync halves
  /// adjacent. Sends whose receives were never delivered become in-flight
  /// sends, which carry identical causality.
  Trace delivered_trace() const;

 private:
  // WAL-tail replay (durability/recovery.cpp) and CTC1 image restore
  // (store/recovery_ladder.cpp) re-apply recorded deliveries through the
  // delivered-order restore path — an ingest()-based replay could re-pair
  // a sync's halves in the opposite order from the recording.
  friend void replay_wal_tail(const wal::WalScan& scan,
                              MonitoringEntity& monitor,
                              RecoveryReport& report);
  friend std::unique_ptr<MonitoringEntity> restore_columnar(
      const MappedSnapshot& snap);

  void deliver(const Event& e);
  bool is_delivered(EventId id) const;
  const Event& stored_event(EventId id) const;
  /// Builds a cluster engine for the configured policy, in hybrid mode when
  /// `partition` is non-empty (the migration/restore path) and dynamic
  /// otherwise.
  std::unique_ptr<ClusterTimestampEngine> make_cluster_engine(
      const std::vector<std::vector<ProcessId>>& partition) const;
  /// Snapshot restore: re-applies one delivered event to the store and
  /// backends, bypassing the delivery manager's buffering.
  void replay_delivered(const Event& e) { delivery_.replay(e); }
  /// Snapshot restore: synchronizes the delivery manager with the replayed
  /// state and adopts the saved counters.
  void finish_restore(const MonitorHealth& saved) { delivery_.restore(saved); }

  MonitorOptions options_;
  std::size_t process_count_;

  // Backends (exactly one active).
  std::unique_ptr<FmEngine> fm_;
  std::vector<std::vector<FmClock>> fm_clocks_;
  std::unique_ptr<ClusterTimestampEngine> cluster_;

  DeliveryManager delivery_;  // record store; its sink is deliver()
  DeliveryTap tap_;           // durability hook; empty unless installed
};

}  // namespace ct
