// OvercommitService: incremental per-machine predictor state (DESIGN.md §7).
//
// The online half of the serve layer. Each machine owns a predictor instance
// (built from one PredictorSpec via CreatePredictor), a resident-task roster
// mirroring the batch engine's MachineRoster, and the incrementally
// maintained limit sum. IngestTick applies one machine's events for one
// interval — departures, arrivals, then usage samples in roster order — and
// runs one Observe/PredictPeak round with the roster change it applied, in
// exactly the arithmetic order of the batch engine's tick loop, so the
// published prediction stream is bit-identical to the batch engine's.
//
// IngestTick is the one validator of ingested batches: every producer —
// the in-process replayer and the network tier alike — hands it raw
// batches, and it checks the whole batch before mutating anything, so a
// malformed batch is rejected with a status and leaves the machine as it
// was. Per-machine updates cost O(roster + events · log events + log w)
// (the predictor's window insert is the log w factor) and allocate nothing
// in steady state: the roster and scratch vectors reuse their high-water
// capacity.
//
// Thread-safety: calls for DISTINCT machines may run concurrently (state is
// strictly per-machine); calls for the same machine must be serialized by
// the caller — the replayer does so by owning each machine in exactly one
// shard.

#ifndef CRF_SERVE_SERVICE_H_
#define CRF_SERVE_SERVICE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "crf/core/predictor_factory.h"
#include "crf/serve/event.h"

namespace crf {

class ByteReader;
class ByteWriter;

class OvercommitService {
 public:
  OvercommitService(const PredictorSpec& spec, int num_machines);

  // Applies machine `machine`'s canonical event batch for interval `tau`
  // (see event.h) and runs one predictor round; Predict() then returns the
  // published prediction. `machine` must be in range. Returns false with a
  // diagnostic in `error` (when non-null), changing nothing, unless:
  //   * the events are in canonical phase order (departures, arrivals,
  //     then usage samples);
  //   * `tau` is after the machine's last ingested tick;
  //   * every departure is resident and listed once;
  //   * no arrival is resident after the departures (or listed twice);
  //   * the samples are exactly the surviving roster, then the arrivals, in
  //     order.
  bool IngestTick(int machine, Interval tau, std::span<const StreamEvent> events,
                  std::string* error);

  // The last published prediction / the machine's resident limit sum.
  double Predict(int machine) const { return machines_[machine].last_prediction; }
  double LimitSum(int machine) const { return machines_[machine].limit_sum; }
  Interval LastTick(int machine) const { return machines_[machine].last_tick; }
  // Resident roster (trace task indices, roster order) for validation.
  std::span<const int32_t> Roster(int machine) const { return machines_[machine].roster_index; }

  int num_machines() const { return static_cast<int>(machines_.size()); }
  const PredictorSpec& spec() const { return spec_; }

  // Checkpoint support: serializes / restores one machine's complete state
  // (roster, limit sum, predictor internals, last prediction). LoadMachine
  // validates structural consistency and returns false on malformed input,
  // leaving the machine unspecified (the caller discards the service).
  void SaveMachine(int machine, ByteWriter& out) const;
  bool LoadMachine(int machine, ByteReader& in);

 private:
  struct MachineState {
    std::unique_ptr<PeakPredictor> predictor;
    // Parallel roster arrays: trace task index (stable identity) and the
    // sample handed to the predictor. Roster order mirrors the batch
    // engine's `active` list.
    std::vector<int32_t> roster_index;
    std::vector<TaskSample> roster;
    double limit_sum = 0.0;
    double last_prediction = 0.0;
    Interval last_tick = -1;
    // Validation scratch: the batch's departure then arrival task indices,
    // each run sorted (reused, zero steady-state allocations).
    std::vector<int32_t> sorted_events;
    // The last tick's departed roster positions (the RosterDelta).
    std::vector<int32_t> departed_positions;
  };

  PredictorSpec spec_;
  std::vector<MachineState> machines_;
};

}  // namespace crf

#endif  // CRF_SERVE_SERVICE_H_
