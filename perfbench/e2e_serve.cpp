#include "e2e_serve.hpp"

#include <algorithm>
#include <cmath>
#include <thread>

namespace e2e {

namespace {

bool all_answered(const std::vector<std::optional<bool>>& v,
                  std::size_t expected) {
  return v.size() == expected &&
         std::all_of(v.begin(), v.end(),
                     [](const std::optional<bool>& a) { return a.has_value(); });
}

/// Sleeps to shortly before `deadline_ns`, then spins, so queries issue on
/// time to within a microsecond or so rather than a scheduler tick.
void wait_until(std::int64_t deadline_ns) {
  constexpr std::int64_t kSpinNs = 200'000;
  const std::int64_t now = now_ns();
  if (deadline_ns - now > kSpinNs) {
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(deadline_ns - now - kSpinNs));
  }
  while (now_ns() < deadline_ns) {
  }
}

}  // namespace

void RouterTarget::run(std::size_t index, const Query& q, Outcome& out,
                       AnswerRecord* rec) {
  ct::RouterQueryResult r;
  switch (q.kind) {
    case Kind::kPrecedence: {
      ScopedSpan span(Layer::kShardQuery, index, 0);
      r = router_.precedence(tenant_, q.e, q.f);
      break;
    }
    case Kind::kBatch: {
      auto pairs = batch_pairs(order_, q.page);
      ScopedSpan span(Layer::kShardQuery, index, 1);
      r = router_.batch(tenant_, std::move(pairs));
      break;
    }
    case Kind::kFrontier: {
      ScopedSpan span(Layer::kShardQuery, index, 2);
      r = router_.frontier(tenant_, q.e);
      break;
    }
  }
  out.attempts = r.attempts;
  out.cost = r.cost;
  const bool resolved = r.outcome == ct::RouterOutcome::kAnswered ||
                        r.outcome == ct::RouterOutcome::kDegraded;
  switch (q.kind) {
    case Kind::kPrecedence: out.ok = resolved && r.answer.has_value(); break;
    case Kind::kBatch: out.ok = resolved && all_answered(r.batch, kBatchPairs);
      break;
    case Kind::kFrontier: out.ok = resolved && r.frontiers.has_value(); break;
  }
  if (rec != nullptr) {
    rec->filled = true;
    rec->point = r.answer;
    rec->batch = std::move(r.batch);
    rec->frontier = std::move(r.frontiers);
  }
}

void BrokerTarget::run(std::size_t index, const Query& q, Outcome& out,
                       AnswerRecord* rec) {
  ct::QueryResult r;
  switch (q.kind) {
    case Kind::kPrecedence: {
      ScopedSpan span(Layer::kBrokerQuery, index, 0);
      r = broker_.submit_precedence(q.e, q.f).get();
      break;
    }
    case Kind::kBatch: {
      auto pairs = batch_pairs(order_, q.page);
      ScopedSpan span(Layer::kBrokerQuery, index, 1);
      r = broker_.submit_batch(std::move(pairs)).get();
      break;
    }
    case Kind::kFrontier: {
      ScopedSpan span(Layer::kBrokerQuery, index, 2);
      r = broker_.submit_frontier(q.e).get();
      break;
    }
  }
  out.attempts = 1;
  out.cost = r.cost;
  const bool answered = r.outcome == ct::QueryOutcome::kAnswered;
  switch (q.kind) {
    case Kind::kPrecedence: out.ok = answered && r.answer.has_value(); break;
    case Kind::kBatch: out.ok = answered && all_answered(r.batch, kBatchPairs);
      break;
    case Kind::kFrontier: out.ok = answered && r.frontiers.has_value(); break;
  }
  if (rec != nullptr) {
    rec->filled = true;
    rec->point = r.answer;
    rec->batch = std::move(r.batch);
    rec->frontier = std::move(r.frontiers);
  }
}

void MonitorTarget::run(std::size_t index, const Query& q, Outcome& out,
                        AnswerRecord* rec) {
  ct::QueryCost cost;
  out.attempts = 1;
  switch (q.kind) {
    case Kind::kPrecedence: {
      std::optional<bool> a;
      {
        ScopedSpan span(Layer::kMonitorQuery, index, 0);
        a = monitor_.precedes_metered(q.e, q.f, cost);
      }
      out.ok = a.has_value();
      if (rec != nullptr) rec->point = a;
      break;
    }
    case Kind::kBatch: {
      const auto pairs = batch_pairs(order_, q.page);
      std::vector<std::optional<bool>> a(pairs.size());
      std::size_t answered = 0;
      {
        ScopedSpan span(Layer::kMonitorQuery, index, 1);
        answered = monitor_.precedes_batch_metered(pairs, cost, a.data());
      }
      out.ok = answered == pairs.size();
      if (rec != nullptr) rec->batch = std::move(a);
      break;
    }
    case Kind::kFrontier: {
      bool ok = true;
      ct::CausalFrontiers fr;
      {
        ScopedSpan span(Layer::kMonitorQuery, index, 2);
        fr = ct::compute_frontiers_with(
            monitor_.process_count(), q.e,
            [&](ct::EventId a, ct::EventId b) {
              const auto r = monitor_.precedes_metered(a, b, cost);
              ok = ok && r.has_value();
              return r.value_or(false);
            },
            [&](ct::ProcessId p) { return monitor_.delivered_count(p); });
      }
      out.ok = ok;
      if (rec != nullptr) rec->frontier = std::move(fr);
      break;
    }
  }
  out.cost = cost.ticks;
  if (rec != nullptr) rec->filled = true;
}

std::vector<std::size_t> first_of_each_kind(std::span<const Query> schedule,
                                            const KindCaps& caps) {
  std::vector<std::size_t> out;
  KindCaps taken{};
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const auto k = static_cast<std::size_t>(schedule[i].kind);
    if (taken[k] < caps[k]) {
      ++taken[k];
      out.push_back(i);
    }
  }
  return out;
}

OpenLoopRun run_open_loop(std::span<const Query> schedule, Target& target,
                          std::span<const std::size_t> sampled) {
  OpenLoopRun run;
  run.outcomes.resize(schedule.size());
  run.answers.resize(schedule.size());
  std::vector<char> keep(schedule.size(), 0);
  for (const std::size_t i : sampled) keep[i] = 1;

  // A short lead so the first query is not already late.
  const std::int64_t t0 = now_ns() + 1'000'000;
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    wait_until(t0 + schedule[i].due_ns);
    Outcome& out = run.outcomes[i];
    out.start_ns = now_ns() - t0;
    target.run(i, schedule[i], out, keep[i] ? &run.answers[i] : nullptr);
    out.end_ns = now_ns() - t0;
  }
  run.wall_s = seconds_between(t0, now_ns());
  return run;
}

OpenLoopRun run_closed_loop(std::span<const Query> schedule, Target& target,
                            std::span<const std::size_t> sampled) {
  OpenLoopRun run;
  run.outcomes.resize(schedule.size());
  run.answers.resize(schedule.size());
  const std::int64_t t0 = now_ns();
  for (const std::size_t i : sampled) {
    Outcome& out = run.outcomes[i];
    out.start_ns = now_ns() - t0;
    target.run(i, schedule[i], out, &run.answers[i]);
    out.end_ns = now_ns() - t0;
  }
  run.wall_s = seconds_between(t0, now_ns());
  return run;
}

ServeStats serve_stats(std::span<const Query> schedule,
                       const OpenLoopRun& run) {
  ServeStats s;
  const std::size_t n = schedule.size();
  std::vector<std::int64_t> starts;
  starts.reserve(n);
  std::int64_t last_end = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Query& q = schedule[i];
    const Outcome& o = run.outcomes[i];
    s.latency_ns[static_cast<int>(q.kind)].add(
        static_cast<double>(o.end_ns - q.due_ns));
    s.service_ns[static_cast<int>(q.kind)].add(
        static_cast<double>(o.end_ns - o.start_ns));
    s.lateness_ns.add(static_cast<double>(o.start_ns - q.due_ns));
    ++s.attempted;
    if (!o.ok) ++s.failed;
    s.attempts += o.attempts;
    starts.push_back(o.start_ns);
    last_end = std::max(last_end, o.end_ns);
  }
  // Backlog: queries due but not yet issued, at every issue instant.
  // `schedule` is in due order; issue times are sorted separately.
  std::sort(starts.begin(), starts.end());
  std::size_t due = 0;
  for (std::size_t k = 0; k < starts.size(); ++k) {
    while (due < n && schedule[due].due_ns <= starts[k]) ++due;
    const std::size_t issued = k + 1;
    if (due > issued) s.backlog_max = std::max(s.backlog_max, due - issued);
  }
  if (n >= 8) {
    const std::size_t quarter = n / 4;
    double first = 0.0, last = 0.0;
    for (std::size_t i = 0; i < quarter; ++i) {
      first += static_cast<double>(run.outcomes[i].start_ns -
                                   schedule[i].due_ns);
      last += static_cast<double>(run.outcomes[n - 1 - i].start_ns -
                                  schedule[n - 1 - i].due_ns);
    }
    s.lateness_growth_ns = (last - first) / static_cast<double>(quarter);
  }
  if (n > 0 && last_end > schedule.front().due_ns) {
    s.achieved_qps = static_cast<double>(n - s.failed) /
                     (static_cast<double>(last_end - schedule.front().due_ns) *
                      1e-9);
  }
  return s;
}

bool keeps_up(const ServeStats& s) {
  // Lateness "grows" when the schedule's last quarter starts later than
  // its first by more than a frame: the generator is falling behind.
  return s.failed == 0 && s.lateness_growth_ns <= kLimitBatchNs;
}

bool within_limits(const ServeStats& s) {
  constexpr double kLimits[kKinds] = {kLimitPrecedenceNs, kLimitBatchNs,
                                      kLimitFrontierNs};
  for (int k = 0; k < kKinds; ++k) {
    if (s.latency_ns[k].quantile(0.99) > kLimits[k]) return false;
  }
  return true;
}

bool sustainable(const ServeStats& s) {
  return keeps_up(s) && within_limits(s);
}

SweepResult sweep_max_rate(const MixSpec& mix,
                           std::span<const ct::EventId> order,
                           std::size_t visible, Target& target,
                           double start_qps, double probe_s,
                           std::uint64_t seed) {
  SweepResult out;
  auto run_probe = [&](double rate) {
    MixSpec m = mix;
    m.rate_qps = rate;
    const auto schedule =
        make_schedule(m, order, visible, probe_s, seed + out.probes * 7919);
    ++out.probes;
    const OpenLoopRun run = run_open_loop(schedule, target, {});
    return serve_stats(schedule, run);
  };
  // A probe that keeps up but misses a latency limit is repeated once with
  // a fresh schedule: one stall of the host can push a short probe's p99
  // over its limit, while a rate that is really too high misses it again.
  auto probe = [&](double rate, double* achieved) {
    ServeStats st = run_probe(rate);
    if (keeps_up(st) && !within_limits(st)) st = run_probe(rate);
    *achieved = st.achieved_qps;
    return sustainable(st);
  };
  // Doubling from the start rate brackets the limit, bisection (on a log
  // scale) narrows it; the result is the achieved rate of the highest
  // sustainable probe.
  double lo = 0.0, hi = 0.0, best = 0.0, achieved = 0.0;
  double rate = start_qps;
  for (int i = 0; i < 8; ++i, rate *= 2.0) {
    if (probe(rate, &achieved)) {
      lo = rate;
      best = achieved;
    } else {
      hi = rate;
      break;
    }
  }
  if (lo == 0.0) {
    // Even the start rate is too much: halve down to a sustainable one.
    for (rate = start_qps / 2.0; rate >= 1.0 && lo == 0.0; rate /= 2.0) {
      if (probe(rate, &achieved)) {
        lo = rate;
        best = achieved;
      } else {
        hi = rate;
      }
    }
  }
  for (int i = 0; i < 3 && lo > 0.0 && hi > 0.0; ++i) {
    const double mid = std::sqrt(lo * hi);
    if (probe(mid, &achieved)) {
      lo = mid;
      best = achieved;
    } else {
      hi = mid;
    }
  }
  out.max_sustainable_qps = best;
  return out;
}

}  // namespace e2e
