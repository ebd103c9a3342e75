// The peak predictor interface (paper Section 4).
//
// A peak predictor runs inside the machine-level agent (Borglet): once per
// 5-minute polling interval it observes the usage of every task resident on
// its machine and publishes one number — the predicted peak of the machine's
// aggregate usage over the future horizon. The scheduler subtracts that
// number from the machine's capacity to get advertised free capacity.
//
// Production constraints encoded in this interface (Section 4):
//  * per-machine and self-contained: no cross-machine or remote state;
//  * lightweight: O(resident tasks) time per poll, bounded memory — at most
//    max_num_samples history per task;
//  * warm-up: tasks with fewer than min_num_samples observed samples are
//    represented by their limit, not their (unstable) usage;
//  * a task's usage is capped at its limit by the node isolation layer, so a
//    sane prediction never exceeds the sum of limits: implementations clamp
//    to [current usage, sum of limits].

#ifndef CRF_CORE_PREDICTOR_H_
#define CRF_CORE_PREDICTOR_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "crf/trace/trace.h"
#include "crf/util/time_grid.h"

namespace crf {

class ByteReader;
class ByteWriter;

// One task's state at the current polling interval.
struct TaskSample {
  TaskId task_id = 0;
  double usage = 0.0;
  double limit = 0.0;
};

// Knobs shared by all usage-driven predictors (Section 4 / Figs 8-9).
struct PredictorConfig {
  // Warm-up: tasks with fewer samples than this contribute their limit.
  // Paper default: 2 hours.
  Interval min_num_samples = 2 * kIntervalsPerHour;
  // History window: per-task (and per-machine aggregate) samples retained.
  // Paper default: 10 hours.
  Interval max_num_samples = 10 * kIntervalsPerHour;

  bool operator==(const PredictorConfig&) const = default;
};

// How the resident roster changed since the previous Observe. A task's
// identity is its position in the roster, not its task id: `departed` lists
// the positions, in the previous roster, of the tasks that left (strictly
// ascending), the survivors keep their relative order, and the last
// `arrived` entries of the new roster are the tasks that joined. A task that
// departs and re-arrives in one tick is a departure plus an arrival, so its
// warm-up restarts. Every producer (MachineRoster, OvercommitService,
// ClusterMachine) already knows this change; predictors never reconcile ids.
struct RosterDelta {
  std::span<const int32_t> departed;
  int32_t arrived = 0;
};

class PeakPredictor {
 public:
  virtual ~PeakPredictor() = default;

  // Feeds the complete resident task set for interval `now`, in roster
  // order, with the roster change since the previous Observe (the first
  // Observe after construction or Reset sees every task as an arrival).
  // Departed tasks' state must be released. Intervals are fed in increasing
  // order.
  virtual void Observe(Interval now, std::span<const TaskSample> tasks,
                       const RosterDelta& delta) = 0;

  // The predicted future peak of the observed machine's aggregate usage,
  // based only on data seen so far. Must be callable any number of times
  // between Observe calls.
  virtual double PredictPeak() const = 0;

  // Discards all observed state, returning the predictor to its
  // fresh-from-construction behaviour (configuration is kept). Lets the
  // simulator reuse one instance across machines instead of re-allocating.
  virtual void Reset() = 0;

  virtual std::string name() const = 0;

  // Checkpoint support (crf/serve). SaveState serializes the COMPLETE
  // observed state — per-task state in roster order, history windows,
  // running moments, the last published prediction — such that LoadState
  // into a predictor constructed from the same spec resumes bit-identically
  // to an uninterrupted run. Configuration is NOT serialized; it is
  // re-derived from the spec, and LoadState validates structural fits
  // (window capacities) against it. `roster_size` is the restored roster's
  // task count: a state that tracks per-task slots must track exactly that
  // many. LoadState returns false and latches the reader's failure flag on
  // any malformed or mismatched payload, leaving the predictor unspecified
  // (the caller discards it). The default implementations return false: a
  // predictor without an override simply cannot be checkpointed.
  virtual bool SaveState(ByteWriter& out) const;
  virtual bool LoadState(ByteReader& in, size_t roster_size);
};

// Clamps a raw prediction to the sane range [usage_now, limit_sum]: the
// machine is already using usage_now, and enforced limits cap future usage
// at limit_sum.
double ClampPrediction(double raw, double usage_now, double limit_sum);

}  // namespace crf

#endif  // CRF_CORE_PREDICTOR_H_
