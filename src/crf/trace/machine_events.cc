#include "crf/trace/machine_events.h"

#include <algorithm>
#include <limits>

namespace crf {

void MachineRoster::Reset(const MachineTaskColumns& cols,
                          std::span<const int32_t> task_indices) {
  cols_ = &cols;
  arrivals_.assign(task_indices.begin(), task_indices.end());
  std::sort(arrivals_.begin(), arrivals_.end(), [&cols](int32_t a, int32_t b) {
    return cols.start[a] < cols.start[b];
  });
  departures_.assign(task_indices.begin(), task_indices.end());
  std::sort(departures_.begin(), departures_.end(), [&cols](int32_t a, int32_t b) {
    return cols.DepartureTime(a) < cols.DepartureTime(b);
  });
  Seek(0);
}

void MachineRoster::Advance(Interval tau) {
  const MachineTaskColumns& cols = *cols_;
  first_departed_ = next_departure_;
  while (next_departure_ < departures_.size() &&
         cols.DepartureTime(departures_[next_departure_]) <= tau) {
    limit_sum_ -= cols.limit[departures_[next_departure_++]];
  }
  // Event-driven: the compaction scan runs only on ticks with a departure.
  departed_positions_.clear();
  if (next_departure_ != first_departed_) {
    size_t out = 0;
    for (size_t i = 0; i < active_.size(); ++i) {
      if (cols.DepartureTime(active_[i]) <= tau) {
        departed_positions_.push_back(static_cast<int32_t>(i));
      } else {
        active_[out++] = active_[i];
      }
    }
    active_.resize(out);
  }
  first_arrived_ = next_arrival_;
  while (next_arrival_ < arrivals_.size() && cols.start[arrivals_[next_arrival_]] <= tau) {
    const int32_t index = arrivals_[next_arrival_++];
    active_.push_back(index);
    limit_sum_ += cols.limit[index];
  }
  if (active_.empty()) {
    limit_sum_ = 0.0;  // Kill incremental drift; the true sum is exactly 0.
  }
}

void MachineRoster::Seek(Interval tick) {
  next_arrival_ = 0;
  next_departure_ = 0;
  active_.clear();
  limit_sum_ = 0.0;
  // An event-free tick changes nothing (the empty-roster reset already ran
  // on the event tick that emptied it), so stepping from event tick to event
  // tick reproduces the tick-by-tick state exactly.
  for (;;) {
    Interval next = std::numeric_limits<Interval>::max();
    if (next_departure_ < departures_.size()) {
      next = cols_->DepartureTime(departures_[next_departure_]);
    }
    if (next_arrival_ < arrivals_.size()) {
      next = std::min(next, cols_->start[arrivals_[next_arrival_]]);
    }
    next = std::max<Interval>(next, 0);  // The walk starts at tick 0.
    if (next >= tick) {
      break;
    }
    Advance(next);
  }
  first_departed_ = next_departure_;
  first_arrived_ = next_arrival_;
  departed_positions_.clear();
}

}  // namespace crf
