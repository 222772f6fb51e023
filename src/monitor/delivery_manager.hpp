// Delivery manager: turns per-process event streams arriving in arbitrary
// interleaving into a valid delivery order — and survives faulty streams.
//
// §1: "event data is forwarded from each process to a central monitoring
// entity". Streams from different processes race; the timestamp algorithms
// require that an event is processed only after its causal prerequisites.
// The manager buffers events until they are releasable:
//   * events of one process release in index order;
//   * a receive releases only after its matching send;
//   * the two halves of a synchronous pair release back-to-back (the
//     FmEngine's joint-vector computation relies on their adjacency).
//
// Fault tolerance (docs/FAULT_MODEL.md): ingest() reports a structured
// IngestResult instead of throwing. Duplicate (process, index) records are
// idempotently dropped; records that skip ahead of their process's admitted
// prefix or carry an unsatisfiable partner go to a per-process quarantine
// (gap records are readmitted once the gap fills); a DeliveryPolicy bounds
// the buffer via a cap and a tick-based orphan timeout, evicting the oldest
// blocked record. Delivered events of each process always form a contiguous,
// causally closed prefix, so every timestamp backend stays sound under loss.
//
// The manager keeps every event it releases, per process and in delivery
// order. The monitoring entity reads its record store through it, and the
// release rules above (is the named partner a delivered send?) read the
// same records.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <span>
#include <unordered_set>
#include <vector>

#include "model/event.hpp"
#include "monitor/ingest_result.hpp"
#include "util/check.hpp"

namespace ct {

class DeliveryManager {
 public:
  using Sink = std::function<void(const Event&)>;

  DeliveryManager(std::size_t process_count, Sink sink,
                  DeliveryPolicy policy = {});

  /// Feeds one record from its process stream; any cross-process
  /// interleaving is accepted. Triggers zero or more sink deliveries and
  /// never throws on malformed input — see IngestResult.
  IngestResult ingest(const Event& e);

  /// Events buffered but not yet deliverable (excluding quarantine).
  std::size_t pending() const { return health_.pending; }

  /// Number of events delivered to the sink so far.
  std::size_t delivered() const { return health_.delivered; }

  /// Ingest-path accounting; `pending`/`quarantined` are live values.
  const MonitorHealth& health() const { return health_; }

  /// Snapshot of buffered events (diagnosis of orphaned receives):
  /// queued events followed by quarantined ones.
  std::vector<Event> pending_events() const;

  /// Snapshot of the quarantine only.
  std::vector<Event> quarantined_events() const;

  /// Delivered events of process `p`: event (p, i) sits at [i - 1]. This is
  /// the monitor's one record store, and the (process, event number) index
  /// of §1 — event numbers are dense within a process.
  std::span<const Event> delivered_events(ProcessId p) const {
    CT_DCHECK(p < events_.size());
    return events_[p];
  }

  /// Delivered events in delivery order.
  std::span<const EventId> delivery_log() const { return log_; }

  /// Checkpoint-restore support: records `e` as delivered outside this
  /// manager (replayed from a snapshot or WAL tail, in delivery order) and
  /// hands it to the sink. Follow the replay with restore().
  void replay(const Event& e);

  /// Checkpoint-restore support: admits the replayed prefix as this
  /// manager's own and adopts the saved counters.
  void restore(const MonitorHealth& saved);

  /// Durability accounting: records whose WAL frames were lost to a crash
  /// (recovery replayed a shorter prefix than was delivered pre-crash).
  void note_wal_loss(std::uint64_t records) { health_.wal_lost += records; }

 private:
  struct Buffered {
    Event event;
    std::uint64_t tick = 0;  ///< arrival position (ingest count)
  };
  struct Quarantined {
    Event event;
    std::uint64_t tick = 0;
    IngestError error = IngestError::kNone;
  };

  /// Events of process `p` delivered so far (the delivery frontier).
  EventIndex delivered_count(ProcessId p) const {
    return static_cast<EventIndex>(events_[p].size());
  }
  IngestError validate(const Event& e) const;
  bool partner_unsatisfiable(const Event& e) const;
  bool releasable_head(ProcessId p) const;
  bool head_poisoned(ProcessId p) const;
  void admit(const Event& e, std::uint64_t tick);
  void quarantine_head(ProcessId p);
  void record(const Event& e);
  void release(ProcessId p);
  void drain();
  void enforce_policy();
  bool evict_oldest();
  void note_depth();

  Sink sink_;
  DeliveryPolicy policy_;
  std::vector<std::deque<Buffered>> queues_;  // admitted, undelivered
  std::vector<std::map<EventIndex, Quarantined>> quarantine_;
  std::vector<EventIndex> arrived_;  // highest contiguously admitted index
  std::vector<std::vector<Event>> events_;  // delivered, per process
  std::vector<EventId> log_;                // delivered, in delivery order
  /// Sends whose matching receive has been delivered (each send's clock is
  /// consumed exactly once by the FM engines downstream).
  std::unordered_set<EventId> consumed_sends_;
  std::uint64_t tick_ = 0;
  MonitorHealth health_;
};

}  // namespace ct
