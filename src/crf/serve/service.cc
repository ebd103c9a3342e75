#include "crf/serve/service.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "crf/util/byte_io.h"
#include "crf/util/check.h"

namespace crf {

namespace {
// Upper bound on a restored roster; rejects corrupted lengths early.
constexpr uint64_t kMaxRosterTasks = 1 << 20;
}  // namespace

OvercommitService::OvercommitService(const PredictorSpec& spec, int num_machines)
    : spec_(spec) {
  CRF_CHECK_GT(num_machines, 0);
  machines_.resize(num_machines);
  for (MachineState& machine : machines_) {
    machine.predictor = CreatePredictor(spec_);
  }
}

bool OvercommitService::IngestTick(int machine, Interval tau,
                                   std::span<const StreamEvent> events, std::string* error) {
  MachineState& state = machines_[machine];
  const auto reject = [&](const std::string& what) {
    if (error != nullptr) {
      *error =
          "machine " + std::to_string(machine) + " tick " + std::to_string(tau) + ": " + what;
    }
    return false;
  };

  // Phase split: events [0, d) depart, [d, a) arrive, [a, n) are samples.
  const size_t n = events.size();
  size_t d = 0;
  while (d < n && events[d].kind == StreamEventKind::kTaskDeparture) {
    ++d;
  }
  size_t a = d;
  while (a < n && events[a].kind == StreamEventKind::kTaskArrival) {
    ++a;
  }
  for (size_t k = a; k < n; ++k) {
    if (events[k].kind != StreamEventKind::kUsageSample) {
      return reject(
          "events out of canonical order (expected departures, arrivals, then samples)");
    }
  }
  if (tau <= state.last_tick) {
    return reject("at or before the last ingested tick " + std::to_string(state.last_tick));
  }

  // Sorted departure and arrival indices: duplicates become adjacent and
  // membership is a binary search.
  std::vector<int32_t>& sorted = state.sorted_events;
  sorted.clear();
  for (size_t k = 0; k < a; ++k) {
    sorted.push_back(events[k].task_index);
  }
  const std::span<int32_t> departed = std::span(sorted).first(d);
  const std::span<int32_t> arrived = std::span(sorted).subspan(d);
  std::sort(departed.begin(), departed.end());
  std::sort(arrived.begin(), arrived.end());
  if (const auto dup = std::adjacent_find(departed.begin(), departed.end());
      dup != departed.end()) {
    return reject("departure of task " + std::to_string(*dup) + " listed twice");
  }
  if (const auto dup = std::adjacent_find(arrived.begin(), arrived.end());
      dup != arrived.end()) {
    // The second copy would arrive with the first already resident.
    return reject("arrival of task " + std::to_string(*dup) + " already resident");
  }

  // One roster walk: count the resident departures, refuse resident
  // arrivals, and match the survivors against the leading samples.
  size_t resident_departures = 0;
  size_t sample = a;
  bool samples_match = true;
  for (const int32_t index : state.roster_index) {
    if (std::binary_search(departed.begin(), departed.end(), index)) {
      ++resident_departures;
    } else if (std::binary_search(arrived.begin(), arrived.end(), index)) {
      return reject("arrival of task " + std::to_string(index) + " already resident");
    } else {
      samples_match = samples_match && sample < n && events[sample].task_index == index;
      ++sample;
    }
  }
  if (resident_departures != d) {
    // Error path only: name a departure the roster does not hold.
    std::vector<int32_t> resident(state.roster_index.begin(), state.roster_index.end());
    std::sort(resident.begin(), resident.end());
    for (const int32_t index : departed) {
      if (!std::binary_search(resident.begin(), resident.end(), index)) {
        return reject("departure of task " + std::to_string(index) + " not resident");
      }
    }
    return reject("departures do not match the roster");
  }
  for (size_t k = d; k < a; ++k, ++sample) {
    samples_match =
        samples_match && sample < n && events[sample].task_index == events[k].task_index;
  }
  if (!samples_match || sample != n) {
    return reject("usage samples do not match the roster (" + std::to_string(n - a) +
                  " samples, " + std::to_string(sample - a) + " resident tasks)");
  }

  // Apply. 1. Departures: subtract limits in event order (the batch engine's
  // departure-time order), then compact the roster preserving order,
  // recording the departed positions. The survivors are exactly the leading
  // samples, in roster order, and roster entries are unique, so one pass
  // keeps an entry iff it is the next unmatched survivor.
  for (size_t k = 0; k < d; ++k) {
    state.limit_sum -= events[k].limit;
  }
  state.departed_positions.clear();
  if (d > 0) {
    const size_t survivors_end = a + state.roster_index.size() - d;
    size_t out = 0;
    sample = a;
    for (size_t r = 0; r < state.roster_index.size(); ++r) {
      if (sample < survivors_end && state.roster_index[r] == events[sample].task_index) {
        state.roster_index[out] = state.roster_index[r];
        state.roster[out] = state.roster[r];
        ++out;
        ++sample;
      } else {
        state.departed_positions.push_back(static_cast<int32_t>(r));
      }
    }
    state.roster_index.resize(out);
    state.roster.resize(out);
  }

  // 2. Arrivals: append to the roster, add limits.
  for (size_t k = d; k < a; ++k) {
    const StreamEvent& event = events[k];
    state.roster_index.push_back(event.task_index);
    state.roster.push_back({event.task_id, 0.0, event.limit});
    state.limit_sum += event.limit;
  }
  if (state.roster.empty()) {
    state.limit_sum = 0.0;  // Kill incremental drift; the true sum is exactly 0.
  }

  // 3. Usage samples: one per resident task, in roster order.
  for (size_t k = a; k < n; ++k) {
    state.roster[k - a].usage = events[k].usage;
  }

  state.predictor->Observe(tau, state.roster,
                           RosterDelta{state.departed_positions, static_cast<int32_t>(a - d)});
  state.last_prediction = state.predictor->PredictPeak();
  state.last_tick = tau;
  return true;
}

void OvercommitService::SaveMachine(int machine, ByteWriter& out) const {
  const MachineState& state = machines_[machine];
  out.Write<int32_t>(state.last_tick);
  out.Write<double>(state.limit_sum);
  out.Write<double>(state.last_prediction);
  out.WriteVec(state.roster_index);
  out.WriteVec(state.roster);
  state.predictor->SaveState(out);
}

bool OvercommitService::LoadMachine(int machine, ByteReader& in) {
  MachineState& state = machines_[machine];
  const Interval last_tick = in.Read<int32_t>();
  const double limit_sum = in.Read<double>();
  const double last_prediction = in.Read<double>();
  std::vector<int32_t> roster_index;
  std::vector<TaskSample> roster;
  if (!in.ReadVec(roster_index, kMaxRosterTasks) || !in.ReadVec(roster, kMaxRosterTasks)) {
    return false;
  }
  if (!in.ok() || last_tick < -1 || !std::isfinite(limit_sum) || limit_sum < 0.0 ||
      !std::isfinite(last_prediction) || last_prediction < 0.0 ||
      roster.size() != roster_index.size()) {
    in.Fail();
    return false;
  }
  for (const TaskSample& sample : roster) {
    if (!std::isfinite(sample.usage) || !std::isfinite(sample.limit) || sample.limit < 0.0) {
      in.Fail();
      return false;
    }
  }
  if (!state.predictor->LoadState(in, roster.size())) {
    return false;
  }
  state.last_tick = last_tick;
  state.limit_sum = limit_sum;
  state.last_prediction = last_prediction;
  state.roster_index = std::move(roster_index);
  state.roster = std::move(roster);
  return true;
}

}  // namespace crf
