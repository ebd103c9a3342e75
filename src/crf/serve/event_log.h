// EventLog: replays a sealed CellTrace as a per-machine event stream.
//
// The streaming differential twin of the batch engine's trace walk: a
// MachineCursor steps one machine's MachineRoster (crf/trace/machine_events.h)
// — the exact roster walk the batch simulator runs — and EmitTick appends
// that tick's departed and arrived slices, then one usage sample per
// resident task, in the canonical order of event.h. A consumer that
// accumulates limits and usage in event order therefore reproduces the batch
// arithmetic bit for bit.
//
// Cursors are value types; one lives per served machine. Seek() repositions
// a cursor to any interval boundary (used by checkpoint restore and by
// clients resuming a stream) by stepping only the ticks that carry an event.

#ifndef CRF_SERVE_EVENT_LOG_H_
#define CRF_SERVE_EVENT_LOG_H_

#include <cstdint>
#include <vector>

#include "crf/serve/event.h"
#include "crf/trace/machine_events.h"
#include "crf/trace/trace.h"

namespace crf {

class EventLog {
 public:
  class MachineCursor {
   public:
    // Appends machine events for interval `tau` to `out` (which is NOT
    // cleared) in canonical order: departures, arrivals, then one usage
    // sample per resident task in roster order. Ticks must be consumed in
    // increasing order starting at the cursor's position; `tau` must equal
    // next_tick(). Reuses `out`'s capacity — zero allocations once warm.
    void EmitTick(Interval tau, std::vector<StreamEvent>& out);

    // Repositions the cursor as if ticks [0, resume_tick) had been consumed.
    void Seek(Interval resume_tick);

    Interval next_tick() const { return next_tick_; }
    // Resident task indices (into the trace columns) in roster order.
    const std::vector<int32_t>& active() const { return roster_.active(); }

   private:
    friend class EventLog;
    MachineCursor(const EventLog* log, int machine_index);

    const EventLog* log_ = nullptr;
    int machine_ = -1;
    MachineRoster roster_;
    Interval next_tick_ = 0;
  };

  // `cell` must outlive the log and every cursor created from it.
  explicit EventLog(const CellTrace& cell);

  MachineCursor CreateCursor(int machine_index) const;

  const CellTrace& cell() const { return *cell_; }
  const MachineTaskColumns& columns() const { return columns_; }
  Interval num_intervals() const { return cell_->num_intervals; }
  int num_machines() const { return cell_->num_machines(); }

 private:
  const CellTrace* cell_;
  MachineTaskColumns columns_;
};

}  // namespace crf

#endif  // CRF_SERVE_EVENT_LOG_H_
