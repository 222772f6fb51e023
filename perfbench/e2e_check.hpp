// Answer checking against on-demand Fidge/Mattern ground truth.
//
// Every run checks a seeded sample of each query kind's answers — from the
// router, the broker, the recovered monitor and the mapped snapshot alike —
// against OnDemandFmEngine over the generated trace, outside every timed
// region. Each mismatch is a wrong answer: it counts as a failed operation
// and fails the run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "e2e_inputs.hpp"
#include "e2e_serve.hpp"
#include "model/trace.hpp"
#include "monitor/queries.hpp"
#include "timestamp/ondemand_fm.hpp"

namespace e2e {

class GroundTruth {
 public:
  explicit GroundTruth(const ct::Trace& trace);

  bool precedes(ct::EventId e, ct::EventId f);
  /// Both frontiers of `e` over the first `visible` events of the trace's
  /// delivery order (the state the query saw).
  ct::CausalFrontiers frontiers(ct::EventId e, std::size_t visible);

 private:
  const ct::Trace& trace_;
  ct::OnDemandFmEngine fm_;
  std::size_t counted_visible_ = 0;
  std::vector<ct::EventIndex> visible_count_;  ///< per process
};

/// Answers collected for checking, from any source.
struct AnswerSet {
  struct Point {
    ct::EventId e, f;
    std::optional<bool> answer;
  };
  struct Batch {
    std::uint32_t page = 0;
    std::vector<std::optional<bool>> answers;
  };
  struct Frontier {
    ct::EventId e;
    std::size_t visible = 0;
    std::optional<ct::CausalFrontiers> answer;
  };
  std::vector<Point> points;
  std::vector<Batch> batches;
  std::vector<Frontier> frontiers;

  /// Adds the sampled answers of one run over the first `visible` events.
  void add_run(std::span<const Query> schedule, const OpenLoopRun& run,
               std::span<const std::size_t> sampled, std::size_t visible);
  void append(const AnswerSet& other);
  std::size_t size() const {
    return points.size() + batches.size() + frontiers.size();
  }

  /// Test hook: flips one answer (the first point answer, else a batch
  /// pair, else a frontier entry).
  void corrupt_one();
};

/// Checks every answer against ground truth; returns the wrong ones (a
/// batch counts each wrong pair, a missing answer counts as wrong).
std::uint64_t count_wrong(GroundTruth& truth,
                          std::span<const ct::EventId> order,
                          const AnswerSet& answers);

}  // namespace e2e
