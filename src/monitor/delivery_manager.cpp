#include "monitor/delivery_manager.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace ct {

const char* to_string(IngestStatus s) {
  switch (s) {
    case IngestStatus::kAccepted:
      return "accepted";
    case IngestStatus::kDuplicate:
      return "duplicate";
    case IngestStatus::kQuarantined:
      return "quarantined";
    case IngestStatus::kRejected:
      return "rejected";
  }
  return "?";
}

const char* to_string(IngestError e) {
  switch (e) {
    case IngestError::kNone:
      return "none";
    case IngestError::kProcessOutOfRange:
      return "process-out-of-range";
    case IngestError::kBadIndex:
      return "bad-index";
    case IngestError::kBadKind:
      return "bad-kind";
    case IngestError::kBadPartner:
      return "bad-partner";
    case IngestError::kFifoGap:
      return "fifo-gap";
  }
  return "?";
}

DeliveryManager::DeliveryManager(std::size_t process_count, Sink sink,
                                 DeliveryPolicy policy)
    : sink_(std::move(sink)),
      policy_(policy),
      queues_(process_count),
      quarantine_(process_count),
      arrived_(process_count, 0),
      events_(process_count) {
  CT_CHECK(process_count > 0);
  CT_CHECK(sink_ != nullptr);
}

IngestError DeliveryManager::validate(const Event& e) const {
  if (e.id.process >= queues_.size()) return IngestError::kProcessOutOfRange;
  if (e.id.index == 0) return IngestError::kBadIndex;
  if (static_cast<std::uint8_t>(e.kind) >
      static_cast<std::uint8_t>(EventKind::kSync)) {
    return IngestError::kBadKind;
  }
  if (e.is_receive_like()) {
    if (e.partner.process >= queues_.size() || e.partner.index == 0) {
      return IngestError::kBadPartner;
    }
    if (e.kind == EventKind::kSync && e.partner.process == e.id.process) {
      return IngestError::kBadPartner;
    }
    if (partner_unsatisfiable(e)) return IngestError::kBadPartner;
  }
  return IngestError::kNone;
}

/// True when the named partner can no longer satisfy this record: for a
/// receive, the partner slot was delivered but is not an unconsumed send;
/// for a sync, the partner slot was delivered without pairing with us.
bool DeliveryManager::partner_unsatisfiable(const Event& e) const {
  const ProcessId q = e.partner.process;
  if (delivered_count(q) < e.partner.index) return false;  // not yet decided
  if (e.kind == EventKind::kReceive) {
    return events_[q][e.partner.index - 1].kind != EventKind::kSend ||
           consumed_sends_.count(e.partner) != 0;
  }
  // kSync: the partner half was delivered already, so it cannot release
  // back-to-back with us any more.
  return true;
}

IngestResult DeliveryManager::ingest(const Event& e) {
  ++tick_;
  ++health_.ingested;
  IngestResult result;

  const IngestError err = validate(e);
  if (err == IngestError::kProcessOutOfRange || err == IngestError::kBadIndex ||
      err == IngestError::kBadKind) {
    ++health_.rejected;
    result.status = IngestStatus::kRejected;
    result.error = err;
    enforce_policy();
    return result;
  }

  const ProcessId p = e.id.process;
  // Duplicate (process, index): already admitted, or already quarantined.
  if (e.id.index <= arrived_[p] || quarantine_[p].count(e.id.index) != 0) {
    ++health_.duplicates;
    result.status = IngestStatus::kDuplicate;
    enforce_policy();
    return result;
  }

  if (err == IngestError::kBadPartner || e.id.index > arrived_[p] + 1) {
    const IngestError why =
        err != IngestError::kNone ? err : IngestError::kFifoGap;
    quarantine_[p].emplace(e.id.index, Quarantined{e, tick_, why});
    ++health_.quarantined;
    result.status = IngestStatus::kQuarantined;
    result.error = why;
    note_depth();
    enforce_policy();
    return result;
  }

  admit(e, tick_);
  // The gap ahead of any quarantined successors may have closed: readmit the
  // contiguous run. A bad-partner record at the next index stays put — it is
  // permanently undeliverable and marks the process's hole.
  auto& quarantined = quarantine_[p];
  for (auto it = quarantined.find(arrived_[p] + 1);
       it != quarantined.end() && it->second.error == IngestError::kFifoGap;
       it = quarantined.find(arrived_[p] + 1)) {
    admit(it->second.event, it->second.tick);
    quarantined.erase(it);
    --health_.quarantined;
    ++health_.readmitted;
  }

  const std::uint64_t before = health_.delivered;
  drain();
  result.delivered_now = static_cast<std::size_t>(health_.delivered - before);
  note_depth();
  enforce_policy();
  return result;
}

void DeliveryManager::admit(const Event& e, std::uint64_t tick) {
  arrived_[e.id.process] = e.id.index;
  queues_[e.id.process].push_back(Buffered{e, tick});
  ++health_.pending;
}

bool DeliveryManager::releasable_head(ProcessId p) const {
  if (queues_[p].empty()) return false;
  const Event& e = queues_[p].front().event;
  // A hole left by an eviction or a quarantined head blocks the queue: the
  // delivered events of a process must stay a contiguous prefix.
  if (e.id.index != delivered_count(p) + 1) return false;
  switch (e.kind) {
    case EventKind::kUnary:
    case EventKind::kSend:
      return true;
    case EventKind::kReceive: {
      // The matching send must be part of the delivered order, really be a
      // send, and not have been consumed by another (corrupt) receive.
      const ProcessId q = e.partner.process;
      return delivered_count(q) >= e.partner.index &&
             events_[q][e.partner.index - 1].kind == EventKind::kSend &&
             consumed_sends_.count(e.partner) == 0;
    }
    case EventKind::kSync: {
      // Both halves must be at the heads of their queues, next in their
      // delivery orders, and mutually paired, so they can release
      // back-to-back.
      const ProcessId q = e.partner.process;
      if (queues_[q].empty()) return false;
      const Event& h = queues_[q].front().event;
      return h.id == e.partner && h.id.index == delivered_count(q) + 1 &&
             h.kind == EventKind::kSync && h.partner == e.id;
    }
  }
  return false;
}

/// True when the queue head can never be released: its partner slot has been
/// resolved against it. Transient blockage (partner not yet arrived) is not
/// poisoning — that is what the orphan timeout is for.
bool DeliveryManager::head_poisoned(ProcessId p) const {
  if (queues_[p].empty()) return false;
  const Event& e = queues_[p].front().event;
  if (e.id.index != delivered_count(p) + 1) return false;
  if (!e.is_receive_like()) return false;
  if (partner_unsatisfiable(e)) return true;
  if (e.kind == EventKind::kSync) {
    // The partner slot arrived as something that is not our mutual half.
    const ProcessId q = e.partner.process;
    if (!queues_[q].empty()) {
      const Event& h = queues_[q].front().event;
      if (h.id == e.partner &&
          (h.kind != EventKind::kSync || h.partner != e.id)) {
        return true;
      }
    }
  }
  return false;
}

void DeliveryManager::quarantine_head(ProcessId p) {
  Buffered b = std::move(queues_[p].front());
  queues_[p].pop_front();
  --health_.pending;
  quarantine_[p].emplace(
      b.event.id.index,
      Quarantined{b.event, b.tick, IngestError::kBadPartner});
  ++health_.quarantined;
}

void DeliveryManager::record(const Event& e) {
  const ProcessId p = e.id.process;
  CT_CHECK_MSG(p < events_.size() && delivered_count(p) + 1 == e.id.index,
               "delivery out of order at " << e.id << " (arrival #"
                                           << health_.ingested << ")");
  events_[p].push_back(e);
  log_.push_back(e.id);
  if (e.kind == EventKind::kReceive) consumed_sends_.insert(e.partner);
}

void DeliveryManager::release(ProcessId p) {
  const Event e = queues_[p].front().event;
  queues_[p].pop_front();
  --health_.pending;
  record(e);
  ++health_.delivered;
  sink_(e);
}

void DeliveryManager::replay(const Event& e) {
  record(e);
  sink_(e);
}

void DeliveryManager::drain() {
  bool progress = true;
  while (progress) {
    progress = false;
    for (ProcessId p = 0; p < queues_.size(); ++p) {
      while (releasable_head(p)) {
        const Event head = queues_[p].front().event;
        release(p);
        if (head.kind == EventKind::kSync) {
          // Release the partner half immediately after (adjacency).
          const ProcessId q = head.partner.process;
          CT_CHECK_MSG(!queues_[q].empty() &&
                           queues_[q].front().event.id == head.partner,
                       "sync partner of " << head.id << " (process " << q
                                          << ", index " << head.partner.index
                                          << ") not at queue head at tick "
                                          << tick_);
          release(q);
        }
        progress = true;
      }
      if (head_poisoned(p)) {
        quarantine_head(p);
        progress = true;
      }
    }
  }
}

void DeliveryManager::enforce_policy() {
  if (policy_.orphan_timeout > 0 && tick_ > policy_.orphan_timeout) {
    const std::uint64_t horizon = tick_ - policy_.orphan_timeout;
    for (ProcessId p = 0; p < queues_.size(); ++p) {
      // Only the queue front can be evicted (deeper records would leave the
      // queue non-contiguous); stale successors surface as fronts later.
      while (!queues_[p].empty() && queues_[p].front().tick < horizon) {
        queues_[p].pop_front();
        --health_.pending;
        ++health_.evicted;
      }
      auto& quarantined = quarantine_[p];
      for (auto it = quarantined.begin(); it != quarantined.end();) {
        if (it->second.tick < horizon) {
          it = quarantined.erase(it);
          --health_.quarantined;
          ++health_.evicted;
        } else {
          ++it;
        }
      }
    }
  }
  if (policy_.max_buffered > 0) {
    while (health_.pending + health_.quarantined > policy_.max_buffered) {
      if (!evict_oldest()) break;
    }
  }
}

/// Evicts the oldest buffered record (queue fronts and quarantine entries
/// compete by arrival tick). Returns false if nothing is buffered.
bool DeliveryManager::evict_oldest() {
  ProcessId victim_p = 0;
  std::uint64_t victim_tick = ~std::uint64_t{0};
  bool from_quarantine = false;
  EventIndex victim_index = 0;
  bool found = false;
  for (ProcessId p = 0; p < queues_.size(); ++p) {
    if (!queues_[p].empty() && queues_[p].front().tick < victim_tick) {
      victim_tick = queues_[p].front().tick;
      victim_p = p;
      from_quarantine = false;
      found = true;
    }
    for (const auto& [index, q] : quarantine_[p]) {
      if (q.tick < victim_tick) {
        victim_tick = q.tick;
        victim_p = p;
        victim_index = index;
        from_quarantine = true;
        found = true;
      }
    }
  }
  if (!found) return false;
  if (from_quarantine) {
    quarantine_[victim_p].erase(victim_index);
    --health_.quarantined;
  } else {
    queues_[victim_p].pop_front();
    --health_.pending;
  }
  ++health_.evicted;
  return true;
}

void DeliveryManager::note_depth() {
  health_.max_queue_depth = std::max(health_.max_queue_depth,
                                     health_.pending + health_.quarantined);
}

std::vector<Event> DeliveryManager::pending_events() const {
  std::vector<Event> out;
  out.reserve(health_.pending + health_.quarantined);
  for (const auto& q : queues_) {
    for (const Buffered& b : q) out.push_back(b.event);
  }
  for (const auto& q : quarantine_) {
    for (const auto& [index, entry] : q) out.push_back(entry.event);
  }
  return out;
}

std::vector<Event> DeliveryManager::quarantined_events() const {
  std::vector<Event> out;
  out.reserve(health_.quarantined);
  for (const auto& q : quarantine_) {
    for (const auto& [index, entry] : q) out.push_back(entry.event);
  }
  return out;
}

void DeliveryManager::restore(const MonitorHealth& saved) {
  // A snapshot restores into a fresh manager; WAL recovery restores a
  // second time after replaying the log tail. Both are sound because
  // nothing is buffered — restoring over in-flight records would drop them.
  CT_CHECK_MSG(health_.pending == 0 && health_.quarantined == 0,
               "restore into a manager holding in-flight records");
  for (ProcessId p = 0; p < arrived_.size(); ++p) {
    arrived_[p] = delivered_count(p);
  }
  health_ = saved;
  health_.pending = 0;
  health_.quarantined = 0;
  tick_ = saved.ingested;
}

}  // namespace ct
