// Test-only id-based roster reconciliation.
//
// The engines hand predictors the roster change they applied (RosterDelta,
// crf/core/predictor.h); nothing in src/ matches task ids. Tests that feed a
// predictor hand-written rosters, and the naive reference simulator, derive
// the delta here instead, from two id lists, so they stay independent of the
// engines' own bookkeeping.

#ifndef CRF_TESTS_REFERENCE_ROSTER_H_
#define CRF_TESTS_REFERENCE_ROSTER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "crf/core/predictor.h"

namespace crf {

// The RosterDelta that turns roster `before` into roster `after`, both given
// as task ids in roster order. A task of `before` survives when its id is the
// next unmatched id of `after` (survivors keep their order); every other task
// of `before` departed, and the unmatched tail of `after` arrived. The
// returned delta views `departed`, which receives the departed positions.
inline RosterDelta ReferenceRosterDelta(std::span<const TaskId> before,
                                        std::span<const TaskId> after,
                                        std::vector<int32_t>& departed) {
  departed.clear();
  size_t next = 0;
  for (size_t i = 0; i < before.size(); ++i) {
    if (next < after.size() && before[i] == after[next]) {
      ++next;
    } else {
      departed.push_back(static_cast<int32_t>(i));
    }
  }
  return {departed, static_cast<int32_t>(after.size() - next)};
}

// Feeds `predictor` id-keyed rosters, deriving each tick's RosterDelta from
// the previous tick's ids with ReferenceRosterDelta. The first Observe sees
// every task arrive.
class IdKeyedFeed {
 public:
  explicit IdKeyedFeed(PeakPredictor& predictor) : predictor_(predictor) {}

  void Observe(Interval now, std::span<const TaskSample> tasks) {
    after_.clear();
    for (const TaskSample& task : tasks) {
      after_.push_back(task.task_id);
    }
    predictor_.Observe(now, tasks, ReferenceRosterDelta(before_, after_, departed_));
    before_.swap(after_);
  }

 private:
  PeakPredictor& predictor_;
  std::vector<TaskId> before_;
  std::vector<TaskId> after_;
  std::vector<int32_t> departed_;
};

}  // namespace crf

#endif  // CRF_TESTS_REFERENCE_ROSTER_H_
