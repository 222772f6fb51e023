#include "timestamp/fm_store.hpp"

#include "timestamp/fm_engine.hpp"
#include "util/check.hpp"

namespace ct {

FmStore::FmStore(const Trace& trace)
    : trace_(trace),
      arena_(trace.process_count(), TsArena::Options{.intern = true}) {
  // The totals are known from the trace metadata: size the pool once.
  const std::size_t events = trace.delivery_order().size();
  arena_.reserve(events, events * trace.process_count());
  FmEngine engine(trace.process_count());
  for (const EventId id : trace.delivery_order()) {
    const FmClock& fm = engine.observe(trace.event(id));
    arena_.append(id.process, fm.data(), fm.size());
  }
}

FmClock FmStore::clock(EventId e) const {
  CT_CHECK_MSG(e.process < trace_.process_count() && e.index >= 1 &&
                   e.index <= trace_.process_size(e.process),
               "unknown event " << e);
  const auto row = arena_.values(arena_.handle_of(e.process, e.index - 1));
  return FmClock(row.begin(), row.end());
}

bool FmStore::precedes(EventId e, EventId f) const {
  const Event& ev_e = trace_.event(e);
  (void)trace_.event(f);  // checks f before the pooled read below
  // Same test as fm_precedes, reading the single decisive component from
  // the pool (FM(e)[p_e] is e's own index — no e-side row load needed).
  if (e == f) return false;
  if (ev_e.kind == EventKind::kSync && ev_e.partner == f) return false;
  return e.index <=
         arena_.component(arena_.handle_of(f.process, f.index - 1),
                          e.process);
}

std::size_t FmStore::stored_elements() const {
  std::size_t n = 0;
  for (ProcessId p = 0; p < trace_.process_count(); ++p) {
    n += trace_.process_size(p) * trace_.process_count();
  }
  return n;
}

std::size_t FmStore::resident_elements() const {
  return arena_.pool_words();
}

}  // namespace ct
