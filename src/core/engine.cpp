#include "core/engine.hpp"

#include <algorithm>

#include "core/precedence_kernels.hpp"
#include "util/check.hpp"
#include "util/epoch.hpp"

namespace ct {

namespace {

std::size_t encoded_projection_width(const ClusterEngineConfig& config) {
  return config.encoded_cluster_width != 0 ? config.encoded_cluster_width
                                           : config.max_cluster_size;
}

}  // namespace

ClusterTimestampEngine::ClusterTimestampEngine(
    std::size_t process_count, ClusterEngineConfig config,
    std::unique_ptr<MergePolicy> policy)
    : config_(config),
      fm_(process_count),
      clusters_(process_count),
      policy_(std::move(policy)),
      cluster_receives_(process_count) {
  CT_CHECK_MSG(policy_ != nullptr, "merge policy required");
  CT_CHECK_MSG(config_.max_cluster_size >= 1, "maxCS must be >= 1");
  CT_CHECK_MSG(process_count <= config_.fm_vector_width,
               "fm_vector_width " << config_.fm_vector_width
                                  << " cannot encode " << process_count
                                  << " processes");
  // Interning stays OFF: repair clones overwrite rows in place, and sync
  // halves (identical vectors) would otherwise alias.
  snap_.store(new ArenaSnapshot(process_count,
                                TsArena::Options{.intern = false}),
              std::memory_order_release);
}

ClusterTimestampEngine::~ClusterTimestampEngine() {
  // No readers may hold the engine at destruction (ownership contract);
  // only snapshots already retired to the epoch domain can outlive us, and
  // those own their own storage.
  delete snap_.load(std::memory_order_acquire);
}

ClusterTimestampEngine::ClusterTimestampEngine(
    std::size_t process_count, ClusterEngineConfig config,
    const std::vector<std::vector<ProcessId>>& partition)
    : ClusterTimestampEngine(process_count, config, partition,
                             make_never_merge()) {}

ClusterTimestampEngine::ClusterTimestampEngine(
    std::size_t process_count, ClusterEngineConfig config,
    const std::vector<std::vector<ProcessId>>& partition,
    std::unique_ptr<MergePolicy> policy)
    : config_(config),
      fm_(process_count),
      clusters_(process_count, partition),
      policy_(std::move(policy)),
      cluster_receives_(process_count) {
  CT_CHECK_MSG(policy_ != nullptr, "merge policy required");
  CT_CHECK_MSG(config_.max_cluster_size >= 1, "maxCS must be >= 1");
  CT_CHECK_MSG(process_count <= config_.fm_vector_width,
               "fm_vector_width " << config_.fm_vector_width
                                  << " cannot encode " << process_count
                                  << " processes");
  const std::size_t width = encoded_projection_width(config_);
  CT_CHECK_MSG(clusters_.max_cluster_size() <= width,
               "partition has a cluster of "
                   << clusters_.max_cluster_size()
                   << " processes, larger than the encoding width " << width);
  snap_.store(new ArenaSnapshot(process_count,
                                TsArena::Options{.intern = false}),
              std::memory_order_release);
}

inline void ClusterTimestampEngine::check_operands(const ArenaSnapshot& snap,
                                                   EventId e, EventId f) {
  // f.index - 1 wraps for index 0, so one unsigned compare covers both ends.
  const std::size_t processes = snap.row_refs.size();
  if (f.process >= processes ||
      std::size_t{f.index} - 1 >= snap.row_refs[f.process].size())
      [[unlikely]] {
    unobserved(f);
  }
  if (e.process >= processes) [[unlikely]] unobserved(e);
}

void ClusterTimestampEngine::unobserved(EventId id) {
  CT_CHECK_MSG(false, "event " << id << " has not been observed");
}

bool ClusterTimestampEngine::classify_cluster_receive(
    const Event& e, ProcessId q, std::uint64_t occurrences) {
  const ClusterId a = clusters_.cluster_of(e.id.process);
  const ClusterId b = clusters_.cluster_of(q);
  if (a == b) return false;  // intra-cluster communication
  const std::size_t size_a = clusters_.size(a);
  const std::size_t size_b = clusters_.size(b);
  if (size_a + size_b > config_.max_cluster_size) {
    // Non-mergeable by the size bound (Fig. 3 line 7's analogue); the
    // strategy is not consulted — the pair can never merge later, since
    // cluster sizes only grow.
    return true;
  }
  if (!policy_->should_merge(a, size_a, b, size_b, occurrences)) return true;
  const ClusterId into = clusters_.merge(a, b);
  policy_->on_merge(into, into == a ? b : a);
  ++merges_;
  return false;  // merged: the event is no longer a cluster receive
}

std::uint32_t ClusterTimestampEngine::covered_set_id(
    ArenaSnapshot& snap,
    const std::shared_ptr<const std::vector<ProcessId>>& covered) {
  // Keyed by members-pointer identity: ClusterSet hands out one immutable
  // snapshot per (cluster, merge-epoch), so identity captures content.
  const auto [it, inserted] = covered_ids_.try_emplace(
      covered.get(), static_cast<std::uint32_t>(snap.covered_sets.size()));
  if (inserted) {
    CoveredSet cs;
    cs.procs = covered;
    cs.pos.assign(snap.row_refs.size(), -1);
    const auto& procs = *covered;
    for (std::size_t i = 0; i < procs.size(); ++i) {
      cs.pos[procs[i]] = static_cast<std::int32_t>(i);
    }
    snap.covered_sets.push_back(std::move(cs));
  }
  return it->second;
}

std::uint32_t ClusterTimestampEngine::resolve_probe(
    const ArenaSnapshot& snap, ProcessId q, EventIndex bound) const {
  const auto& receives = cluster_receives_[q];
  const std::size_t k =
      kernels::count_leq(receives.data(), receives.size(), bound);
  return k == 0 ? kNoProbe : snap.row_refs[q][receives[k - 1] - 1].offset;
}

void ClusterTimestampEngine::refresh_probes(ArenaSnapshot& snap, EventId id) {
  const RowRef& ref = snap.row_refs[id.process][id.index - 1];
  if (ref.aux == kFullRow) return;  // full rows carry no probes
  const auto& procs = *snap.covered_sets[ref.aux].procs;
  const EventIndex* row = snap.arena.pool_data() + ref.offset;
  std::uint32_t* probes = snap.probe_pool[id.process].data() + ref.probe_off;
  for (std::size_t i = 0; i < procs.size(); ++i) {
    probes[i] = resolve_probe(snap, procs[i], row[i]);
  }
}

void ClusterTimestampEngine::publish_snapshot(
    std::unique_ptr<ArenaSnapshot> next) {
  // seq_cst swap: the store-buffer argument in util/epoch.hpp needs the
  // pointer swap ordered before the grace bump that retire() performs.
  ArenaSnapshot* old = snap_.exchange(next.release());
  util::EpochDomain::global().retire([old] { delete old; });
}

void ClusterTimestampEngine::observe(const Event& e) {
  const FmClock& fm = fm_.observe(e);
  const ProcessId p = e.id.process;

  bool is_cluster_receive = false;
  switch (e.kind) {
    case EventKind::kUnary:
    case EventKind::kSend:
      break;
    case EventKind::kReceive:
      is_cluster_receive = classify_cluster_receive(e, e.partner.process, 1);
      break;
    case EventKind::kSync:
      if (sync_decided_.erase(e.id) == 1) {
        // The pair's merge decision was taken when the partner half was
        // observed; just classify against the (possibly merged) clusters.
        is_cluster_receive = clusters_.cluster_of(p) !=
                             clusters_.cluster_of(e.partner.process);
      } else {
        // A synchronous pair counts as TWO communication occurrences
        // (§3.1): merging would eliminate two cluster-receive events.
        is_cluster_receive =
            classify_cluster_receive(e, e.partner.process, 2);
        sync_decided_.insert(e.partner);
      }
      break;
  }

  // Ingestion is the single-writer phase: the row goes straight into the
  // published snapshot (no readers may run concurrently with observe(),
  // per the TsArena invalidation contract).
  ArenaSnapshot& snap = *snap_.load(std::memory_order_relaxed);
  CT_CHECK_MSG(snap.row_refs[p].size() + 1 == e.id.index,
               "event " << e.id << " stored out of order");
  ++events_;
  RowRef ref{0, kFullRow,
             static_cast<std::uint32_t>(snap.probe_pool[p].size())};
  if (is_cluster_receive) {
    // Full Fidge/Mattern vector; this event becomes the greatest cluster
    // receive of its process so far.
    ++cluster_receive_count_;
    cluster_receives_[p].push_back(e.id.index);
    encoded_words_ += config_.fm_vector_width;
    exact_words_ += fm.size();
    ref.offset =
        snap.arena.offset_of(snap.arena.append(p, fm.data(), fm.size()));
  } else {
    const auto covered = clusters_.members(clusters_.cluster_of(p));
    const auto& procs = *covered;
    const std::size_t width = encoded_projection_width(config_);
    CT_CHECK_MSG(procs.size() <= width,
                 "projection wider than the encoding width");
    encoded_words_ += width;
    exact_words_ += procs.size();
    row_buf_.clear();
    for (const ProcessId q : procs) row_buf_.push_back(fm[q]);
    ref.offset = snap.arena.offset_of(
        snap.arena.append(p, row_buf_.data(), row_buf_.size()));
    ref.aux = covered_set_id(snap, covered);
    // Resolve the greatest-cluster-receive probe per covered slot NOW,
    // once (the resolved set is final — see resolve_probe).
    for (std::size_t i = 0; i < procs.size(); ++i) {
      snap.probe_pool[p].push_back(resolve_probe(snap, procs[i], row_buf_[i]));
    }
  }
  snap.row_refs[p].push_back(ref);
}

void ClusterTimestampEngine::observe_trace(const Trace& trace) {
  const std::size_t n_procs = fm_.process_count();
  CT_CHECK_MSG(trace.process_count() == n_procs,
               "trace has " << trace.process_count()
                            << " processes, engine built for " << n_procs);
  // Allocation-churn satellite: the trace knows its totals, so the pool is
  // sized once. Projections are bounded by maxCS, full vectors by the
  // process count; the sum overshoots but caps at one allocation.
  const std::size_t n = trace.delivery_order().size();
  snap_.load(std::memory_order_relaxed)
      ->arena.reserve(n, n * std::min(n_procs, config_.max_cluster_size) +
                             n_procs);
  for (const EventId id : trace.delivery_order()) observe(trace.event(id));
}

ClusterTimestamp ClusterTimestampEngine::timestamp(EventId e) const {
  const util::EpochDomain::Guard pin = util::EpochDomain::global().pin();
  const ArenaSnapshot& snap = *snapshot();
  check_operands(snap, e, e);
  const RowRef& ref = snap.row_refs[e.process][e.index - 1];
  ClusterTimestamp ts;
  ts.cluster_receive = ref.aux == kFullRow;
  if (!ts.cluster_receive) ts.covered = snap.covered_sets[ref.aux].procs;
  const auto row =
      snap.arena.values(snap.arena.handle_of(e.process, e.index - 1));
  ts.values.assign(row.begin(), row.end());
  return ts;
}

bool ClusterTimestampEngine::precedes(const Event& ev_e,
                                      const Event& ev_f) const {
  QueryCost unlimited;
  const auto answer = precedes_metered(ev_e, ev_f, unlimited);
  comparisons_.fetch_add(unlimited.ticks, std::memory_order_relaxed);
  return *answer;
}

std::optional<bool> ClusterTimestampEngine::precedes_metered(
    const Event& ev_e, const Event& ev_f, QueryCost& cost) const {
  const EventId f = ev_f.id;
  // One snapshot load per query: every pointer below derives from it, so a
  // concurrent repair publishing a newer snapshot cannot mix states.
  const ArenaSnapshot& snap = *snapshot();
  check_operands(snap, ev_e.id, f);
  const RowRef& ref = snap.row_refs[f.process][f.index - 1];
  const EventIndex* pool = snap.arena.pool_data();
  ResolvedRow row{.id = f, .pool = pool, .values = pool + ref.offset};
  if (ref.aux != kFullRow) {
    const CoveredSet& cs = snap.covered_sets[ref.aux];
    row.slot_of = cs.pos.data();
    row.probes = snap.probe_pool[f.process].data() + ref.probe_off;
    row.width = cs.procs->size();
  }
  return cluster_precedes(ev_e, row, cost);
}

ClusterEngineStats ClusterTimestampEngine::stats() const {
  ClusterEngineStats s;
  s.process_count = fm_.process_count();
  s.events = events_;
  s.cluster_receives = cluster_receive_count_;
  s.merges = merges_;
  s.final_clusters = clusters_.cluster_count();
  s.largest_cluster = clusters_.max_cluster_size();
  s.encoded_words = encoded_words_;
  s.exact_words = exact_words_;
  return s;
}

std::uint64_t ClusterTimestampEngine::cluster_digest(ClusterId c) const {
  constexpr std::uint64_t kPrime = 0x100000001b3ull;
  std::uint64_t h = 0xcbf29ce484222325ull;
  // One FNV-1a step per 64-bit value: the digest never leaves memory, and
  // each step (h ^ v) * kPrime is a bijection of h (kPrime is odd), so a
  // changed stored value always changes the result.
  const auto mix = [&h](std::uint64_t v) { h = (h ^ v) * kPrime; };
  const util::EpochDomain::Guard pin = util::EpochDomain::global().pin();
  const ArenaSnapshot& snap = *snapshot();
  for (const ProcessId p : *clusters_.members(c)) {
    const auto& refs = snap.row_refs[p];
    mix(p);
    mix(refs.size());
    for (std::size_t i = 0; i < refs.size(); ++i) {
      const auto row = snap.arena.values(snap.arena.handle_of(p, i));
      mix(refs[i].aux == kFullRow ? 1 : 0);  // the cluster-receive flag
      mix(row.size());
      for (const EventIndex v : row) mix(v);
    }
  }
  return h;
}

void ClusterTimestampEngine::inject_corruption(EventId e, std::size_t slot,
                                               EventIndex value) {
  // A mutated projection component also shifts its greatest-cluster-receive
  // bound, so the row's probes follow it. The mutation happens on a
  // writer-private clone published with one atomic swap, so in-flight
  // readers keep a coherent (pre-corruption) snapshot.
  std::lock_guard<std::mutex> writer(snap_writer_mu_);
  const ArenaSnapshot& current = *snap_.load(std::memory_order_acquire);
  check_operands(current, e, e);
  auto next = std::make_unique<ArenaSnapshot>(current);
  const TsArena::RowHandle h = next->arena.handle_of(e.process, e.index - 1);
  const std::uint32_t width = next->arena.width(h);
  CT_CHECK_MSG(width != 0, "timestamp of " << e << " has no components");
  next->arena.overwrite_component(h, slot % width, value);
  refresh_probes(*next, e);
  publish_snapshot(std::move(next));
}

std::uint64_t ClusterTimestampEngine::rebuild_cluster(
    ClusterId c, std::span<const EventId> log,
    const std::function<const Event&(EventId)>& event_of) {
  const auto members = clusters_.members(c);
  std::vector<bool> in_cluster(fm_.process_count(), false);
  for (const ProcessId p : *members) in_cluster[p] = true;

  // One clone for the whole repair: every row rewrite and probe refresh
  // lands on the writer-private snapshot, then ONE atomic swap publishes
  // the repaired state. Readers never see a half-rebuilt cluster and are
  // never blocked — the old snapshot stays valid until its grace period
  // ends (util/epoch.hpp).
  std::lock_guard<std::mutex> writer(snap_writer_mu_);
  auto next = std::make_unique<ArenaSnapshot>(
      *snap_.load(std::memory_order_acquire));

  FmEngine scratch(fm_.process_count());
  std::vector<EventIndex> values;
  std::uint64_t elements_written = 0;
  for (const EventId id : log) {
    const Event& e = event_of(id);
    const FmClock& fm = scratch.observe(e);
    if (!in_cluster[e.id.process]) continue;
    const RowRef& ref = next->row_refs[id.process][id.index - 1];
    if (ref.aux == kFullRow) {
      values.assign(fm.begin(), fm.end());
    } else {
      // Historical covered set: projection shape is part of the retained
      // structure, only the component values are restored.
      const auto& procs = *next->covered_sets[ref.aux].procs;
      values.resize(procs.size());
      for (std::size_t i = 0; i < procs.size(); ++i) {
        values[i] = fm[procs[i]];
      }
    }
    next->arena.overwrite_row(next->arena.handle_of(id.process, id.index - 1),
                              values.data(), values.size());
    refresh_probes(*next, id);
    elements_written += values.size();
  }
  publish_snapshot(std::move(next));
  return elements_written;
}

std::size_t ClusterTimestampEngine::arena_words() const {
  return snapshot()->arena.pool_words();
}

void ClusterTimestampEngine::export_arena(ArenaExportSink& sink) const {
  const ArenaSnapshot& snap = *snapshot();
  sink.pool(snap.arena.pool_data(), snap.arena.pool_words());
  for (std::size_t id = 0; id < snap.covered_sets.size(); ++id) {
    sink.covered_set(static_cast<std::uint32_t>(id),
                     std::span<const ProcessId>(*snap.covered_sets[id].procs));
  }
  for (ProcessId p = 0; p < snap.row_refs.size(); ++p) {
    for (std::size_t i = 0; i < snap.row_refs[p].size(); ++i) {
      const RowRef& ref = snap.row_refs[p][i];
      sink.row(p, ref.offset, ref.aux, ref.probe_off,
               snap.arena.width(snap.arena.handle_of(p, i)));
    }
    sink.probes(p, snap.probe_pool[p].data(), snap.probe_pool[p].size());
  }
}

std::uint64_t ClusterTimestampEngine::state_digest() const {
  constexpr std::uint64_t kPrime = 0x100000001b3ull;
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h = (h ^ ((v >> (i * 8)) & 0xff)) * kPrime;
    }
  };
  mix(events_);
  mix(cluster_receive_count_);
  mix(merges_);
  mix(encoded_words_);
  mix(exact_words_);
  for (const ClusterId c : clusters_.clusters()) {
    for (const ProcessId p : *clusters_.members(c)) mix(p);
    mix(~std::uint64_t{0});  // cluster boundary marker
  }
  for (const auto& receives : cluster_receives_) {
    mix(receives.size());
    for (const EventIndex i : receives) mix(i);
  }
  return h;
}

}  // namespace ct
