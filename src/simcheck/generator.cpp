#include "simcheck/generator.hpp"

#include <algorithm>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "model/trace.hpp"
#include "model/trace_builder.hpp"
#include "monitor/fault_injector.hpp"
#include "trace/generators.hpp"
#include "util/check.hpp"
#include "util/prng.hpp"

namespace ct {

namespace {

/// One motif trace scaled to a process budget of `procs` (>= 3) and roughly
/// `target` events. The pick list spans all four families plus the
/// simulation checker's adversarial motif.
Trace segment_motif(std::size_t procs, std::size_t target, Prng& rng) {
  CT_DCHECK(procs >= 3);
  const std::size_t per_proc = std::max<std::size_t>(2, target / (3 * procs));
  switch (rng.index(7)) {
    case 0: {
      RingOptions o;
      o.processes = procs;
      o.iterations = per_proc;
      o.compute_events = 1;
      o.allreduce_every = rng.chance(0.5) ? 4 : 0;
      o.seed = rng();
      return generate_ring(o);
    }
    case 1: {
      GossipOptions o;
      o.processes = procs;
      o.rounds = per_proc;
      o.seed = rng();
      return generate_gossip(o);
    }
    case 2: {
      PipelineOptions o;
      o.stages = procs;
      o.items = std::max<std::size_t>(2, target / (3 * procs));
      o.seed = rng();
      return generate_pipeline(o);
    }
    case 3: {
      RpcChainOptions o;
      o.services = procs;
      o.chain_length = std::min<std::size_t>(4, procs);
      o.requests = std::max<std::size_t>(3, target / (4 * o.chain_length));
      o.seed = rng();
      return generate_rpc_chain(o);
    }
    case 4: {
      WebServerOptions o;
      o.servers = std::max<std::size_t>(1, procs / 4);
      o.backends = std::max<std::size_t>(1, procs / 5);
      o.clients = procs - o.servers - o.backends;
      o.requests = std::max<std::size_t>(8, target / 4);
      o.seed = rng();
      return generate_web_server(o);
    }
    case 5: {
      TokenRingOptions o;
      o.processes = procs;
      o.laps = std::max<std::size_t>(1, target / (4 * procs));
      o.critical_events = 1;
      o.seed = rng();
      return generate_token_ring(o);
    }
    default: {
      AdversarialOptions o;
      o.processes = procs;
      o.groups = std::max<std::size_t>(1, procs / 4);
      o.messages = std::max<std::size_t>(10, target / 3);
      o.straggler_window = 16;
      o.unreceived = rng.index(4);
      o.seed = rng();
      return generate_adversarial(o);
    }
  }
}

/// Replay cursor over one motif's delivery order, re-issuing its events into
/// the composed builder at a process offset. Send ids are remapped; sync
/// halves (adjacent in any builder-produced delivery order) are consumed as
/// a pair.
struct SegmentCursor {
  const Trace* trace = nullptr;
  ProcessId offset = 0;
  std::size_t pos = 0;  // into trace->delivery_order()
  /// Original send id -> rebuilt send id. Per segment: motif event ids
  /// overlap across segments (every motif numbers processes from 0).
  std::unordered_map<std::uint64_t, EventId> send_map;

  std::size_t remaining() const {
    return trace->delivery_order().size() - pos;
  }

  /// Replays up to `run` delivery-order entries into `b`.
  void advance(TraceBuilder& b, std::size_t run) {
    const auto order = trace->delivery_order();
    while (run > 0 && pos < order.size()) {
      const Event& e = trace->event(order[pos]);
      const ProcessId p = static_cast<ProcessId>(e.id.process + offset);
      switch (e.kind) {
        case EventKind::kUnary:
          b.unary(p);
          ++pos;
          --run;
          break;
        case EventKind::kSend:
          send_map.emplace(key(e.id), b.send(p));
          ++pos;
          --run;
          break;
        case EventKind::kReceive: {
          const auto it = send_map.find(key(e.partner));
          CT_CHECK_MSG(it != send_map.end(), "segment receive before send");
          b.receive(p, it->second);
          ++pos;
          --run;
          break;
        }
        case EventKind::kSync: {
          // Builder delivery orders keep sync halves adjacent; consume both.
          const ProcessId q =
              static_cast<ProcessId>(e.partner.process + offset);
          b.sync(p, q);
          pos += 2;
          run = run > 2 ? run - 2 : 0;
          break;
        }
      }
    }
  }

 private:
  std::uint64_t key(EventId id) const {
    return (static_cast<std::uint64_t>(id.process) << 32) | id.index;
  }
};

}  // namespace

SimSchedule generate_schedule(std::uint64_t seed,
                              const ScheduleParams& params) {
  Prng rng(seed ^ 0x5afec0de5afec0deull);

  SimSchedule s;
  s.seed = seed;
  s.name = "sim-s" + std::to_string(seed);
  s.process_count = static_cast<std::uint32_t>(
      rng.uniform(params.min_processes, params.max_processes));
  s.max_cluster_size = static_cast<std::uint32_t>(rng.pick<std::uint64_t>(
      std::vector<std::uint64_t>{4, 8, 16}));
  s.nth_threshold = rng.pick(std::vector<double>{-1.0, 2.0, 6.0});
  // The engine's removed storage-layout switch was drawn here. Drawing and
  // discarding the bit keeps every later draw — and so every seeded
  // schedule, op for op — identical to the schedules earlier sweeps ran.
  (void)rng.chance(0.5);

  // ---- compose the base computation from 1..max_segments motifs ----------
  const std::size_t max_segs = std::min<std::size_t>(
      params.max_segments, static_cast<std::size_t>(s.process_count) / 3);
  const std::size_t segments = 1 + rng.index(std::max<std::size_t>(1, max_segs));
  std::vector<std::size_t> widths(segments, 3);
  for (std::size_t extra = s.process_count - 3 * segments; extra > 0;
       --extra) {
    ++widths[rng.index(segments)];
  }

  std::vector<Trace> motifs;
  motifs.reserve(segments);
  for (std::size_t i = 0; i < segments; ++i) {
    motifs.push_back(
        segment_motif(widths[i], params.target_events / segments, rng));
  }

  TraceBuilder builder;
  builder.add_processes(s.process_count);
  std::vector<SegmentCursor> cursors(segments);
  {
    ProcessId offset = 0;
    for (std::size_t i = 0; i < segments; ++i) {
      cursors[i].trace = &motifs[i];
      cursors[i].offset = offset;
      offset = static_cast<ProcessId>(offset + widths[i]);
    }
  }
  for (;;) {
    std::size_t total = 0;
    for (const SegmentCursor& c : cursors) total += c.remaining();
    if (total == 0) break;
    // Weighted segment pick by remaining events keeps the interleave fair.
    std::size_t ticket = rng.index(total);
    std::size_t seg = 0;
    while (ticket >= cursors[seg].remaining()) {
      ticket -= cursors[seg].remaining();
      ++seg;
    }
    cursors[seg].advance(builder, 1 + rng.index(8));
    if (segments > 1 && rng.chance(params.cross_chatter_rate)) {
      const std::size_t a = rng.index(segments);
      std::size_t b = rng.index(segments - 1);
      if (b >= a) ++b;
      const ProcessId from = static_cast<ProcessId>(
          cursors[a].offset + rng.index(widths[a]));
      const ProcessId to = static_cast<ProcessId>(
          cursors[b].offset + rng.index(widths[b]));
      builder.message(from, to);
    }
  }
  const Trace composed = builder.build(s.name, TraceFamily::kControl);

  // ---- mangle the delivery stream through the fault injector -------------
  FaultPlan plan;
  plan.seed = rng();
  plan.drop_rate = rng.real() * params.max_drop_rate;
  plan.dup_rate = rng.real() * params.max_dup_rate;
  plan.reorder_rate = rng.real() * params.max_reorder_rate;
  plan.corrupt_rate = rng.real() * params.max_corrupt_rate;
  plan.reorder_window = params.reorder_window;

  FaultInjector injector(plan, [&s](const Event& e) {
    SimOp op;
    op.kind = SimOp::Kind::kEmit;
    op.event = e;
    s.ops.push_back(op);
  });
  for (const EventId id : composed.delivery_order()) {
    injector.push(composed.event(id));
  }
  injector.flush();

  // ---- sprinkle auxiliary ops and probe points ---------------------------
  const std::size_t n = s.ops.size();
  auto make_probe = [&](std::uint64_t deadline, std::uint64_t flags) {
    SimOp op;
    op.kind = SimOp::Kind::kProbe;
    op.a = params.pairs_per_probe;
    op.b = rng();
    op.c = deadline;
    op.d = flags;
    return op;
  };
  auto random_deadline = [&]() -> std::uint64_t {
    return rng.chance(params.deadline_chance) ? rng.uniform(32, 512) : 0;
  };

  // Collected as (position, op), inserted back-to-front so positions stay
  // valid. Positions index the emit stream before any insertion.
  std::vector<std::pair<std::size_t, SimOp>> inserts;
  inserts.emplace_back(
      n, make_probe(0, SimOp::kProbeBroker | SimOp::kProbeFrontier));
  inserts.emplace_back((3 * n) / 4,
                       make_probe(random_deadline(),
                                  rng.chance(0.8) ? SimOp::kProbeBroker |
                                                        SimOp::kProbeFrontier
                                                  : SimOp::kProbeFrontier));
  inserts.emplace_back((2 * n) / 5,
                       make_probe(random_deadline(),
                                  rng.chance(0.5) ? SimOp::kProbeBroker
                                                  : SimOp::kProbeFrontier));

  const std::size_t checkpoints = rng.index(params.max_checkpoints + 1);
  for (std::size_t i = 0; i < checkpoints; ++i) {
    SimOp op;
    op.kind = SimOp::Kind::kCheckpointRestore;
    inserts.emplace_back(rng.index(n + 1), op);
  }
  const std::size_t rebuilds = rng.index(params.max_rebuilds + 1);
  for (std::size_t i = 0; i < rebuilds; ++i) {
    SimOp op;
    op.kind = SimOp::Kind::kRebuild;
    op.a = rng();
    inserts.emplace_back(rng.index(n + 1), op);
  }
  const std::size_t migrations = rng.index(params.max_migrations + 1);
  for (std::size_t i = 0; i < migrations; ++i) {
    SimOp op;
    op.kind = SimOp::Kind::kMigrate;
    op.a = rng();                      // verify-pair sample count (mod 64)
    op.b = rng.chance(params.migration_fault_chance)
               ? 1 + rng.index(2)      // kCorruptShadow / kStalledVerify
               : 0;                    // clean cycle, answer-identity checked
    op.c = 0;                          // unlimited verify deadline
    op.d = rng();                      // coordinator seed
    inserts.emplace_back(rng.index(n + 1), op);
  }
  const std::size_t corruptions = rng.index(params.max_corruptions + 1);
  for (std::size_t i = 0; i < corruptions; ++i) {
    SimOp op;
    op.kind = SimOp::Kind::kCorruptRepair;
    op.a = rng();
    op.b = rng();
    op.c = rng();
    op.d = rng();
    inserts.emplace_back(rng.index(n + 1), op);
  }

  std::stable_sort(inserts.begin(), inserts.end(),
                   [](const auto& lhs, const auto& rhs) {
                     return lhs.first > rhs.first;
                   });
  for (const auto& [pos, op] : inserts) {
    s.ops.insert(s.ops.begin() + static_cast<std::ptrdiff_t>(pos), op);
  }
  return s;
}

}  // namespace ct
