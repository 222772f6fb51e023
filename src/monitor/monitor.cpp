#include "monitor/monitor.hpp"

#include <algorithm>
#include <unordered_map>

#include "model/trace_builder.hpp"
#include "util/check.hpp"

namespace ct {
namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

inline void fnv_mix(std::uint64_t& h, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    h ^= (value >> (i * 8)) & 0xff;
    h *= kFnvPrime;
  }
}

}  // namespace

MonitoringEntity::MonitoringEntity(std::size_t process_count,
                                   MonitorOptions options)
    : options_(options),
      process_count_(process_count),
      delivery_(process_count, [this](const Event& e) { deliver(e); },
                options.delivery) {
  switch (options_.backend) {
    case TimestampBackend::kPrecomputedFm:
      fm_ = std::make_unique<FmEngine>(process_count);
      fm_clocks_.resize(process_count);
      break;
    case TimestampBackend::kClusterDynamic:
      cluster_ = make_cluster_engine(options_.preset_partition);
      break;
  }
  CT_CHECK_MSG(options_.preset_partition.empty() ||
                   options_.backend == TimestampBackend::kClusterDynamic,
               "preset_partition requires the cluster backend");
}

std::unique_ptr<ClusterTimestampEngine> MonitoringEntity::make_cluster_engine(
    const std::vector<std::vector<ProcessId>>& partition) const {
  auto policy = options_.nth_threshold < 0.0
                    ? make_merge_on_first()
                    : make_merge_on_nth(options_.nth_threshold);
  if (partition.empty()) {
    return std::make_unique<ClusterTimestampEngine>(
        process_count_, options_.cluster, std::move(policy));
  }
  return std::make_unique<ClusterTimestampEngine>(
      process_count_, options_.cluster, partition, std::move(policy));
}

void MonitoringEntity::apply_migration(
    const std::vector<std::vector<ProcessId>>& partition, std::uint64_t epoch) {
  CT_CHECK_MSG(cluster_, "migration requires the cluster backend");
  CT_CHECK_MSG(epoch > options_.migration_epoch,
               "migration epoch " << epoch << " not newer than "
                                  << options_.migration_epoch);
  options_.preset_partition = partition;
  auto rebuilt = make_cluster_engine(partition);
  for (const EventId id : delivery_log()) rebuilt->observe(stored_event(id));
  options_.migration_epoch = epoch;
  cluster_ = std::move(rebuilt);
}

void MonitoringEntity::adopt_engine(
    std::unique_ptr<ClusterTimestampEngine> shadow,
    std::vector<std::vector<ProcessId>> partition, std::uint64_t epoch) {
  CT_CHECK_MSG(cluster_, "migration requires the cluster backend");
  CT_CHECK_MSG(epoch > options_.migration_epoch,
               "migration epoch " << epoch << " not newer than "
                                  << options_.migration_epoch);
  CT_CHECK_MSG(shadow != nullptr, "adopt_engine needs a shadow engine");
  CT_CHECK_MSG(shadow->stats().events == stored(),
               "shadow engine observed " << shadow->stats().events
                                         << " events, monitor delivered "
                                         << stored());
  options_.preset_partition = std::move(partition);
  options_.migration_epoch = epoch;
  cluster_ = std::move(shadow);
}

IngestResult MonitoringEntity::ingest(const Event& e) {
  return delivery_.ingest(e);
}

void MonitoringEntity::deliver(const Event& e) {
  if (fm_) {
    fm_clocks_[e.id.process].push_back(fm_->observe(e));
  } else {
    cluster_->observe(e);
  }
  if (tap_) tap_(e);
}

bool MonitoringEntity::is_delivered(EventId id) const {
  return id.process < process_count_ && id.index >= 1 &&
         id.index <= delivery_.delivered_events(id.process).size();
}

const Event& MonitoringEntity::stored_event(EventId id) const {
  CT_CHECK_MSG(is_delivered(id), "event " << id << " has not been delivered");
  return delivery_.delivered_events(id.process)[id.index - 1];
}

std::optional<Event> MonitoringEntity::find(EventId id) const {
  if (!is_delivered(id)) return std::nullopt;
  return stored_event(id);
}

void MonitoringEntity::scroll(
    ProcessId p, EventIndex from,
    const std::function<bool(const Event&)>& visit) const {
  if (p >= process_count_) return;
  const std::span<const Event> events = delivery_.delivered_events(p);
  for (std::size_t i = std::max<EventIndex>(from, 1) - 1; i < events.size();
       ++i) {
    if (!visit(events[i])) return;
  }
}

bool MonitoringEntity::precedes(EventId e, EventId f) const {
  const Event& ev_e = stored_event(e);
  const Event& ev_f = stored_event(f);
  if (fm_) {
    return fm_precedes(ev_e, fm_clocks_[e.process][e.index - 1], ev_f,
                       fm_clocks_[f.process][f.index - 1]);
  }
  return cluster_->precedes(ev_e, ev_f);
}

std::optional<bool> MonitoringEntity::precedes_metered(EventId e, EventId f,
                                                       QueryCost& cost) const {
  const Event& ev_e = stored_event(e);
  const Event& ev_f = stored_event(f);
  if (fm_) {
    if (!cost.charge(1)) return std::nullopt;
    return fm_precedes(ev_e, fm_clocks_[e.process][e.index - 1], ev_f,
                       fm_clocks_[f.process][f.index - 1]);
  }
  return cluster_->precedes_metered(ev_e, ev_f, cost);
}

std::size_t MonitoringEntity::precedes_batch_metered(
    std::span<const std::pair<EventId, EventId>> pairs, QueryCost& cost,
    std::optional<bool>* out) const {
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const auto answer = precedes_metered(pairs[i].first, pairs[i].second, cost);
    if (!answer.has_value()) return i;
    out[i] = answer;
  }
  return pairs.size();
}

std::vector<ClusterId> MonitoringEntity::cluster_ids() const {
  if (!cluster_) return {};
  return cluster_->clusters().clusters();
}

std::optional<ClusterId> MonitoringEntity::cluster_of(ProcessId p) const {
  if (!cluster_) return std::nullopt;
  return cluster_->clusters().cluster_of(p);
}

std::uint64_t MonitoringEntity::cluster_digest(ClusterId c) const {
  CT_CHECK_MSG(cluster_, "cluster digests require the cluster backend");
  return cluster_->cluster_digest(c);
}

ClusterDigests MonitoringEntity::cluster_digests() const {
  ClusterDigests out;
  for (const ClusterId c : cluster_ids()) {  // ascending
    out.emplace_back(c, cluster_->cluster_digest(c));
  }
  return out;
}

std::uint64_t MonitoringEntity::rebuild_cluster(ClusterId c) {
  CT_CHECK_MSG(cluster_, "rebuild requires the cluster backend");
  return cluster_->rebuild_cluster(
      c, delivery_log(),
      [this](EventId id) -> const Event& { return stored_event(id); });
}

void MonitoringEntity::inject_timestamp_corruption(EventId e,
                                                   std::size_t slot,
                                                   EventIndex value) {
  CT_CHECK_MSG(cluster_, "corruption hook targets the cluster backend");
  cluster_->inject_corruption(e, slot, value);
}

Trace MonitoringEntity::delivered_trace() const {
  TraceBuilder builder;
  builder.add_processes(process_count_);
  // Sends are re-partnered by the builder when their receive is appended;
  // a delivered receive always follows its send in the log (prefix
  // integrity), and sync halves are adjacent, so one forward pass suffices.
  const std::span<const EventId> log = delivery_log();
  std::unordered_map<EventId, EventId> send_ids;  // original -> rebuilt
  for (std::size_t i = 0; i < log.size(); ++i) {
    const Event& e = stored_event(log[i]);
    switch (e.kind) {
      case EventKind::kUnary:
        builder.unary(e.id.process);
        break;
      case EventKind::kSend:
        send_ids.emplace(e.id, builder.send(e.id.process));
        break;
      case EventKind::kReceive: {
        const auto it = send_ids.find(e.partner);
        CT_CHECK_MSG(it != send_ids.end(),
                     "delivered receive " << e.id
                                          << " without its send in the log");
        builder.receive(e.id.process, it->second);
        break;
      }
      case EventKind::kSync:
        // The pair is adjacent in the log; emit it once, at its first half.
        if (i + 1 < log.size() && log[i + 1] == e.partner) {
          builder.sync(e.id.process, e.partner.process);
        }
        break;
    }
  }
  return builder.build("delivered", TraceFamily::kControl);
}

std::uint64_t MonitoringEntity::timestamp_words() const {
  if (fm_) {
    return static_cast<std::uint64_t>(stored()) *
           options_.cluster.fm_vector_width;
  }
  return cluster_->stats().encoded_words;
}

std::optional<ClusterEngineStats> MonitoringEntity::cluster_stats() const {
  if (!cluster_) return std::nullopt;
  return cluster_->stats();
}

void MonitoringEntity::export_arena(
    ClusterTimestampEngine::ArenaExportSink& sink) const {
  CT_CHECK_MSG(can_export_arena(),
               "columnar export requires the cluster backend");
  cluster_->export_arena(sink);
}

std::uint64_t MonitoringEntity::state_digest() const {
  std::uint64_t h = kFnvOffset;
  fnv_mix(h, process_count_);
  fnv_mix(h, stored());
  for (ProcessId p = 0; p < process_count_; ++p) {
    const std::span<const Event> events = delivery_.delivered_events(p);
    fnv_mix(h, events.size());
    for (const Event& e : events) {
      fnv_mix(h, (static_cast<std::uint64_t>(e.id.process) << 32) |
                     e.id.index);
      fnv_mix(h, static_cast<std::uint64_t>(e.kind));
      fnv_mix(h, (static_cast<std::uint64_t>(e.partner.process) << 32) |
                     e.partner.index);
    }
  }
  fnv_mix(h, timestamp_words());
  if (cluster_) {
    fnv_mix(h, cluster_->state_digest());
  } else {
    // The FM frontier (latest clock per process) summarizes backend state.
    for (ProcessId p = 0; p < process_count_; ++p) {
      for (const EventIndex c : fm_->current(p)) fnv_mix(h, c);
    }
  }
  return h;
}

}  // namespace ct
