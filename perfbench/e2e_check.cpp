#include "e2e_check.hpp"

namespace e2e {

GroundTruth::GroundTruth(const ct::Trace& trace)
    : trace_(trace), fm_(trace, trace.event_count() + 1) {
  // Fill the cache in delivery order so every later clock is one lookup
  // (each event's dependencies are cached before it is computed).
  for (const ct::EventId id : trace.delivery_order()) fm_.clock(id);
}

bool GroundTruth::precedes(ct::EventId e, ct::EventId f) {
  return fm_.precedes(e, f);
}

ct::CausalFrontiers GroundTruth::frontiers(ct::EventId e,
                                           std::size_t visible) {
  if (visible != counted_visible_ || visible_count_.empty()) {
    visible_count_.assign(trace_.process_count(), 0);
    const auto order = trace_.delivery_order();
    for (std::size_t i = 0; i < visible; ++i) {
      ++visible_count_[order[i].process];
    }
    counted_visible_ = visible;
  }
  return ct::compute_frontiers_with(
      trace_.process_count(), e,
      [&](ct::EventId a, ct::EventId b) { return fm_.precedes(a, b); },
      [&](ct::ProcessId p) { return visible_count_[p]; });
}

void AnswerSet::add_run(std::span<const Query> schedule,
                        const OpenLoopRun& run,
                        std::span<const std::size_t> sampled,
                        std::size_t visible) {
  for (const std::size_t i : sampled) {
    const Query& q = schedule[i];
    const AnswerRecord& rec = run.answers[i];
    switch (q.kind) {
      case Kind::kPrecedence:
        points.push_back(Point{q.e, q.f, rec.filled ? rec.point : std::nullopt});
        break;
      case Kind::kBatch:
        batches.push_back(Batch{q.page, rec.batch});
        break;
      case Kind::kFrontier:
        frontiers.push_back(Frontier{q.e, visible, rec.frontier});
        break;
    }
  }
}

void AnswerSet::append(const AnswerSet& other) {
  points.insert(points.end(), other.points.begin(), other.points.end());
  batches.insert(batches.end(), other.batches.begin(), other.batches.end());
  frontiers.insert(frontiers.end(), other.frontiers.begin(),
                   other.frontiers.end());
}

void AnswerSet::corrupt_one() {
  for (Point& p : points) {
    if (p.answer) {
      p.answer = !*p.answer;
      return;
    }
  }
  for (Batch& b : batches) {
    for (auto& a : b.answers) {
      if (a) {
        a = !*a;
        return;
      }
    }
  }
  for (Frontier& f : frontiers) {
    if (f.answer && !f.answer->greatest_predecessor.empty()) {
      ++f.answer->greatest_predecessor[0];
      return;
    }
  }
}

std::uint64_t count_wrong(GroundTruth& truth,
                          std::span<const ct::EventId> order,
                          const AnswerSet& answers) {
  std::uint64_t wrong = 0;
  for (const auto& p : answers.points) {
    if (!p.answer || *p.answer != truth.precedes(p.e, p.f)) ++wrong;
  }
  for (const auto& b : answers.batches) {
    const auto pairs = batch_pairs(order, b.page);
    if (b.answers.size() != pairs.size()) {
      wrong += pairs.size();
      continue;
    }
    for (std::size_t k = 0; k < pairs.size(); ++k) {
      if (!b.answers[k] ||
          *b.answers[k] != truth.precedes(pairs[k].first, pairs[k].second)) {
        ++wrong;
      }
    }
  }
  for (const auto& f : answers.frontiers) {
    if (!f.answer) {
      ++wrong;
      continue;
    }
    const ct::CausalFrontiers want = truth.frontiers(f.e, f.visible);
    if (f.answer->greatest_predecessor != want.greatest_predecessor ||
        f.answer->greatest_concurrent != want.greatest_concurrent) {
      ++wrong;
    }
  }
  return wrong;
}

}  // namespace e2e
