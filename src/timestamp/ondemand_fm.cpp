#include "timestamp/ondemand_fm.hpp"

#include "core/precedence_kernels.hpp"
#include "util/check.hpp"

namespace ct {

OnDemandFmEngine::OnDemandFmEngine(const Trace& trace,
                                   std::size_t cache_capacity)
    : trace_(trace), cache_(cache_capacity) {}

std::vector<EventId> OnDemandFmEngine::dependencies(EventId id) const {
  std::vector<EventId> deps;
  if (id.index > 1) deps.push_back(EventId{id.process, id.index - 1});
  const Event& e = trace_.event(id);
  if (e.kind == EventKind::kReceive) {
    deps.push_back(e.partner);
  } else if (e.kind == EventKind::kSync && e.partner.index > 1) {
    deps.push_back(EventId{e.partner.process, e.partner.index - 1});
  }
  return deps;
}

const FmClock* OnDemandFmEngine::lookup(
    const std::unordered_map<EventId, FmClock>& local, EventId id) {
  if (const auto it = local.find(id); it != local.end()) return &it->second;
  return cache_.get(id);
}

FmClock OnDemandFmEngine::combine(
    EventId id, const std::unordered_map<EventId, FmClock>& local) {
  const std::size_t n = trace_.process_count();
  FmClock clock(n, 0);
  auto absorb = [&](EventId dep) {
    const auto it = local.find(dep);
    const FmClock* c = it != local.end() ? &it->second : cache_.get(dep);
    CT_CHECK_MSG(c != nullptr, "dependency " << dep << " not computed");
    kernels::max_into(clock.data(), c->data(), n);
  };
  for (const EventId dep : dependencies(id)) absorb(dep);
  const Event& e = trace_.event(id);
  clock[id.process] = id.index;
  if (e.kind == EventKind::kSync) clock[e.partner.process] = e.partner.index;
  counters_.elements_touched += n;
  ++counters_.computed_events;
  return clock;
}

FmClock OnDemandFmEngine::clock(EventId e) {
  QueryCost unlimited;
  return *clock_metered(e, unlimited);
}

std::optional<FmClock> OnDemandFmEngine::clock_metered(EventId e,
                                                       QueryCost& cost) {
  ++counters_.queries;
  if (const FmClock* hit = cache_.get(e)) {
    ++counters_.cache_hits;
    if (!cost.charge(1)) return std::nullopt;
    return *hit;
  }
  ++counters_.cache_misses;

  // Iterative dependency-chasing: resolve every uncached ancestor needed for
  // FM(e) into a query-local map (immune to cache eviction mid-computation),
  // then publish results to the LRU cache. On budget exhaustion the local
  // map is discarded — an aborted query leaves the cache untouched.
  std::unordered_map<EventId, FmClock> local;
  std::vector<EventId> stack{e};
  while (!stack.empty()) {
    const EventId id = stack.back();
    if (!cost.charge(1)) return std::nullopt;
    if (lookup(local, id) != nullptr) {
      stack.pop_back();
      continue;
    }
    bool ready = true;
    for (const EventId dep : dependencies(id)) {
      if (lookup(local, dep) == nullptr) {
        stack.push_back(dep);
        ready = false;
      }
    }
    if (!ready) continue;
    if (!cost.charge(trace_.process_count())) return std::nullopt;
    FmClock clock = combine(id, local);
    const Event& ev = trace_.event(id);
    if (ev.kind == EventKind::kSync) {
      local.emplace(ev.partner, clock);  // partner carries the same vector
    }
    local.emplace(id, std::move(clock));
    stack.pop_back();
  }

  FmClock result = local.at(e);
  for (auto& [id, c] : local) cache_.put(id, std::move(c));
  return result;
}

bool OnDemandFmEngine::precedes(EventId e, EventId f) {
  const FmClock fm_e = clock(e);
  const FmClock fm_f = clock(f);
  return fm_precedes(trace_.event(e), fm_e, trace_.event(f), fm_f);
}

std::optional<bool> OnDemandFmEngine::precedes_metered(EventId e, EventId f,
                                                       QueryCost& cost) {
  const auto fm_e = clock_metered(e, cost);
  if (!fm_e) return std::nullopt;
  const auto fm_f = clock_metered(f, cost);
  if (!fm_f) return std::nullopt;
  if (!cost.charge(1)) return std::nullopt;
  return fm_precedes(trace_.event(e), *fm_e, trace_.event(f), *fm_f);
}

}  // namespace ct
