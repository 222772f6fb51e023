#include "e2e_inputs.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "e2e_common.hpp"
#include "trace/generators.hpp"
#include "util/prng.hpp"

namespace e2e {

const char* kind_name(Kind k) {
  switch (k) {
    case Kind::kPrecedence: return "precedence";
    case Kind::kBatch: return "batch";
    case Kind::kFrontier: return "frontier";
  }
  return "?";
}

WorkloadConfig workload_config(const std::string& name) {
  WorkloadConfig c;
  c.name = name;
  if (name == "ingest_durable") {
    // N=300 locality-rich, merge-on-Nth T=10, maxCS 23 (the paper's C4
    // sweet spot), racing arrival, WAL synced every 256 records, a CTS1
    // checkpoint and a CTC1 publication every 40k events (the last 30k
    // events reach recovery through the WAL tail).
    c.processes = 300;
    c.group_size = 20;
    c.intra_rate = 0.97;
    c.messages = 50'000;
    c.max_cluster_size = 23;
    c.max_lag = 1024;
    c.sync_policy = ct::SyncPolicy::kEveryN;
    c.sync_every = 256;
    c.checkpoint_every = 40'000;
    c.setup_reps = 15;  // more set-ups after each durable ingest
    // The recovered monitor serves the viewport mix directly (no router)
    // for half the run, so at twice the router workloads' rate: the same
    // 1000 queries of each kind.
    c.mix = MixSpec{300.0, 4.0};
  } else if (name == "viewport_serve") {
    // N=300 locality-rich trace preloaded into one tenant of three
    // replicas; the viewport mix arrives through the router. Threshold 3
    // clusters the short preload the way T=10 clusters a long run (about
    // 13 % cluster receives), so most queries run on narrow projections.
    c.processes = 300;
    c.group_size = 10;
    c.intra_rate = 0.99;
    c.messages = 13'000;
    c.max_cluster_size = 23;
    c.nth_threshold = 3.0;
    c.setup_reps = 6;
    c.coldstart_reps = 3;
    c.sync_policy = ct::SyncPolicy::kOnCheckpoint;
    // 150 queries/s is the lowest rate at which a 20 s run holds 1000
    // queries of each kind, so each p99 rests on 10 samples beyond it.
    // Pages sit a mean 4 back from the newest: 98 % of queries fall in the
    // newest 16 pages, whose 256-pair redraws fit the broker's default
    // 4096-entry answer cache, so repeated pages can hit.
    c.mix = MixSpec{150.0, 4.0};
  } else if (name == "wide_churn") {
    // N=1000 low-locality, maxCS 13: most receives are cluster receives
    // holding full 1000-wide vectors. Epoch cycles write beside reads.
    c.processes = 1000;
    c.group_size = 10;
    c.intra_rate = 0.3;
    c.messages = 10'000;
    c.max_cluster_size = 13;
    c.sync_policy = ct::SyncPolicy::kOnCheckpoint;
    c.preload_events = 6'000;
    c.cycles = 10;
    // The rate of viewport_serve; pages a mean 40 back, so most queries
    // land beyond what the answer cache holds and it sees little reuse.
    c.mix = MixSpec{150.0, 40.0};
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return c;
}

ct::MonitorOptions monitor_options(const WorkloadConfig& cfg) {
  ct::MonitorOptions mo;
  mo.backend = ct::TimestampBackend::kClusterDynamic;
  mo.cluster.max_cluster_size = cfg.max_cluster_size;
  mo.cluster.fm_vector_width = cfg.processes;
  mo.nth_threshold = cfg.nth_threshold;
  return mo;
}

ct::Trace make_trace(const WorkloadConfig& cfg, std::uint64_t seed) {
  ct::LocalityRandomOptions o;
  o.processes = cfg.processes;
  o.group_size = cfg.group_size;
  o.intra_rate = cfg.intra_rate;
  o.messages = cfg.messages;
  o.compute_events = 1;
  o.seed = seed;
  return ct::generate_locality_random(o);
}

std::vector<ct::Event> ordered_stream(const ct::Trace& trace) {
  std::vector<ct::Event> out;
  out.reserve(trace.event_count());
  for (const ct::EventId id : trace.delivery_order()) {
    out.push_back(trace.event(id));
  }
  return out;
}

std::vector<ct::Event> racing_stream(const ct::Trace& trace,
                                     std::size_t max_lag,
                                     std::uint64_t seed) {
  const auto order = trace.delivery_order();
  if (max_lag == 0) return ordered_stream(trace);
  ct::Prng rng(seed ^ 0x7ac1e5ull);
  // Arrival key: delivery position plus a random lag, made monotone along
  // each process so its stream stays FIFO.
  std::vector<std::uint64_t> key(order.size());
  std::vector<std::uint64_t> last(trace.process_count(), 0);
  for (std::size_t i = 0; i < order.size(); ++i) {
    std::uint64_t k = i + rng.index(max_lag);
    std::uint64_t& prev = last[order[i].process];
    k = std::max(k, prev);
    prev = k;
    key[i] = k;
  }
  std::vector<std::size_t> idx(order.size());
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  std::stable_sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
    return key[a] < key[b];
  });
  std::vector<ct::Event> out;
  out.reserve(order.size());
  for (const std::size_t i : idx) out.push_back(trace.event(order[i]));
  return out;
}

std::vector<Query> make_schedule(const MixSpec& mix,
                                 std::span<const ct::EventId> order,
                                 std::size_t visible, double duration_s,
                                 std::uint64_t seed) {
  std::vector<Query> out;
  if (mix.rate_qps <= 0.0 || visible < kPageEvents) return out;
  ct::Prng rng(seed ^ 0x5c4ed01eull);
  const std::size_t pages = visible / kPageEvents;
  // Evenly spaced arrivals: the offered rate is exactly the nominal one, so
  // queueing comes from the service times alone, not from arrival bursts.
  const double gap_ns = 1e9 / mix.rate_qps;
  const auto count = static_cast<std::size_t>(
      std::llround(mix.rate_qps * duration_s));
  out.reserve(count);
  constexpr std::size_t kinds = kKinds;
  Kind block[kinds] = {Kind::kPrecedence, Kind::kBatch, Kind::kFrontier};
  for (std::size_t i = 0; i < count; ++i) {
    Query q;
    q.due_ns = static_cast<std::int64_t>(static_cast<double>(i) * gap_ns);
    // Equal thirds: a fresh seeded order of the three kinds every block.
    if (i % kinds == 0) {
      for (std::size_t k = kinds - 1; k > 0; --k) {
        std::swap(block[k], block[rng.index(k + 1)]);
      }
    }
    q.kind = block[i % kinds];
    // The viewport page, biased toward the newest events.
    const auto back = static_cast<std::size_t>(
        -std::log(1.0 - rng.real()) * mix.mean_page_offset);
    const std::size_t page = pages - 1 - std::min(back, pages - 1);
    const std::size_t start = visible - (page + 1) * kPageEvents;
    q.page = static_cast<std::uint32_t>(start);
    const std::size_t half = kPageEvents / 2;
    switch (q.kind) {
      case Kind::kPrecedence:
        q.e = order[start + rng.index(half)];
        q.f = order[start + half + rng.index(half)];
        break;
      case Kind::kFrontier:
        q.e = order[start + rng.index(kPageEvents)];
        break;
      case Kind::kBatch:
        break;
    }
    out.push_back(q);
  }
  return out;
}

std::vector<std::pair<ct::EventId, ct::EventId>> batch_pairs(
    std::span<const ct::EventId> order, std::uint32_t page) {
  std::vector<std::pair<ct::EventId, ct::EventId>> pairs;
  pairs.reserve(kBatchPairs);
  const std::size_t half = kPageEvents / 2;
  for (std::size_t i = 0; i < half; ++i) {
    for (std::size_t j = 0; j < half; ++j) {
      pairs.emplace_back(order[page + i], order[page + half + j]);
    }
  }
  return pairs;
}

std::uint64_t digest_events(std::uint64_t h, std::span<const ct::Event> evs) {
  for (const ct::Event& e : evs) {
    h = fnv_mix(h, (std::uint64_t{e.id.process} << 32) | e.id.index);
    h = fnv_mix(h, static_cast<std::uint64_t>(e.kind));
    h = fnv_mix(h, (std::uint64_t{e.partner.process} << 32) |
                       e.partner.index);
  }
  return h;
}

std::uint64_t digest_queries(std::uint64_t h, std::span<const Query> qs) {
  for (const Query& q : qs) {
    h = fnv_mix(h, static_cast<std::uint64_t>(q.due_ns));
    h = fnv_mix(h, static_cast<std::uint64_t>(q.kind));
    h = fnv_mix(h, (std::uint64_t{q.e.process} << 32) | q.e.index);
    h = fnv_mix(h, (std::uint64_t{q.f.process} << 32) | q.f.index);
    h = fnv_mix(h, q.page);
  }
  return h;
}

}  // namespace e2e
