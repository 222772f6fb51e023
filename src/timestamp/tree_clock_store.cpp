#include "timestamp/tree_clock_store.hpp"

#include <unordered_map>
#include <unordered_set>

#include "core/precedence_kernels.hpp"
#include "util/check.hpp"

namespace ct {

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

inline void fnv(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xff;
    h *= kFnvPrime;
  }
}

struct EventIdHash {
  std::size_t operator()(EventId id) const noexcept {
    return (static_cast<std::uint64_t>(id.process) << 32) | id.index;
  }
};

}  // namespace

TreeClockStore::TreeClockStore(const Trace& trace, const EventHook& hook)
    : trace_(trace),
      arena_(trace.process_count(), TsArena::Options{.intern = true}) {
  const std::size_t width = trace.process_count();
  CT_CHECK(width > 0);
  const std::size_t events = trace.delivery_order().size();
  arena_.reserve(events, events * width);

  cur_.reserve(width);
  for (ProcessId p = 0; p < width; ++p) cur_.emplace_back(width, p);

  // The observation loop mirrors FmEngine::observe case for case, with
  // clock_max replaced by the monotone-copy join — same delivery-order
  // contract (sync halves adjacent, receives after their sends).
  std::unordered_map<EventId, TreeClock, EventIdHash> in_flight;
  std::unordered_set<EventId, EventIdHash> pre_observed;
  FmClock flat(width);
  const auto store_row = [&](EventId id) {
    cur_[id.process].flatten_into(flat.data(), width);
    arena_.append(id.process, flat.data(), flat.size());
  };

  for (const EventId id : trace.delivery_order()) {
    const Event& e = trace.event(id);
    const ProcessId p = id.process;
    TreeClock& clock = cur_[p];

    if (e.kind == EventKind::kSync && pre_observed.erase(id) == 1) {
      // Partner half already computed the joint clock into cur_[p].
      CT_CHECK_MSG(clock.root_clk() == id.index,
                   "sync half " << id << " inconsistent with partner");
      store_row(id);
      if (hook) hook(e, clock);
      continue;
    }

    CT_CHECK_MSG(clock.root_clk() + 1 == id.index,
                 "event " << id << " observed out of order (expected index "
                          << clock.root_clk() + 1 << ")");

    switch (e.kind) {
      case EventKind::kUnary:
        clock.tick();
        break;

      case EventKind::kSend: {
        clock.tick();
        // Retain a deep snapshot until the matching receive consumes it;
        // never-received sends simply stay until construction finishes.
        in_flight.emplace(id, clock);
        ++costs_.snapshots;
        costs_.snapshot_nodes += clock.node_count();
        break;
      }

      case EventKind::kReceive: {
        const auto it = in_flight.find(e.partner);
        CT_CHECK_MSG(it != in_flight.end(),
                     "receive " << id << " before its send " << e.partner);
        clock.tick();
        clock.join(it->second, &costs_.join);
        in_flight.erase(it);
        break;
      }

      case EventKind::kSync: {
        const ProcessId q = e.partner.process;
        CT_CHECK_MSG(q < width && q != p, "bad sync partner for " << id);
        CT_CHECK_MSG(cur_[q].root_clk() + 1 == e.partner.index,
                     "sync half " << e.partner << " out of order in process "
                                  << q);
        // Joint clock: union of both histories with both own components
        // advanced. The partner entry is bumped directly (it is learned
        // from the rendezvous itself, not through a subtree), then the
        // partner's clock absorbs the joint state — its own root entry
        // already matches, so the second join copies only what p brought.
        clock.tick();
        clock.join(cur_[q], &costs_.join);
        clock.bump(q, e.partner.index);
        TreeClock& partner = cur_[q];
        partner.tick();
        partner.join(clock, &costs_.join);
        pre_observed.insert(e.partner);
        break;
      }
    }
    store_row(id);
    if (hook) hook(e, clock);
  }
}

std::span<const EventIndex> TreeClockStore::row(EventId e) const {
  CT_CHECK_MSG(e.process < trace_.process_count() && e.index >= 1 &&
                   e.index <= trace_.process_size(e.process),
               "unknown event " << e);
  return arena_.values(arena_.handle_of(e.process, e.index - 1));
}

FmClock TreeClockStore::clock(EventId e) const {
  const auto r = row(e);
  return FmClock(r.begin(), r.end());
}

bool TreeClockStore::precedes(EventId e, EventId f) const {
  const Event& ev_e = trace_.event(e);
  // Same test as fm_precedes: FM(e)[p_e] is e's own index, so only f's row
  // is loaded and only one component of it is read.
  if (e == f) return false;
  if (ev_e.kind == EventKind::kSync && ev_e.partner == f) return false;
  return e.index <= row(f)[e.process];
}

std::optional<bool> TreeClockStore::precedes_metered(EventId e, EventId f,
                                                     QueryCost& cost) const {
  if (!cost.charge(1)) return std::nullopt;
  return precedes(e, f);
}

bool TreeClockStore::dominated_by(EventId e, EventId f) const {
  const auto a = row(e);
  const auto b = row(f);
  return kernels::all_leq(a.data(), b.data(), a.size());
}

std::size_t TreeClockStore::stored_elements() const {
  std::size_t n = 0;
  for (ProcessId p = 0; p < trace_.process_count(); ++p) {
    n += trace_.process_size(p) * trace_.process_count();
  }
  return n;
}

std::size_t TreeClockStore::resident_elements() const {
  return arena_.pool_words();
}

std::uint64_t TreeClockStore::state_digest() const {
  std::uint64_t h = kFnvOffset;
  const std::size_t width = trace_.process_count();
  fnv(h, width);
  for (ProcessId p = 0; p < width; ++p) {
    const EventIndex n = trace_.process_size(p);
    fnv(h, n);
    for (EventIndex i = 1; i <= n; ++i) {
      for (const EventIndex c : row(EventId{p, i})) fnv(h, c);
    }
    // Final tree shape: the part a flattened row cannot see.
    const TreeClock& tc = cur_[p];
    for (ProcessId t = 0; t < width; ++t) {
      if (!tc.in_tree(t)) continue;
      fnv(h, t);
      fnv(h, tc.get(t));
      fnv(h, tc.aclk_of(t));
      fnv(h, static_cast<std::uint64_t>(
                 static_cast<std::int64_t>(tc.parent_of(t))));
    }
  }
  return h;
}

}  // namespace ct
