#include "crf/serve/event_log.h"

#include "crf/util/check.h"

namespace crf {

EventLog::EventLog(const CellTrace& cell) : cell_(&cell), columns_(cell) {}

EventLog::MachineCursor EventLog::CreateCursor(int machine_index) const {
  CRF_CHECK_GE(machine_index, 0);
  CRF_CHECK_LT(machine_index, num_machines());
  return MachineCursor(this, machine_index);
}

EventLog::MachineCursor::MachineCursor(const EventLog* log, int machine_index)
    : log_(log), machine_(machine_index) {
  roster_.Reset(log->columns(), log->cell().machine_tasks(machine_index));
}

void EventLog::MachineCursor::EmitTick(Interval tau, std::vector<StreamEvent>& out) {
  CRF_CHECK_EQ(tau, next_tick_);
  const MachineTaskColumns& cols = log_->columns();
  roster_.Advance(tau);
  for (const int32_t index : roster_.departed()) {
    out.push_back({StreamEventKind::kTaskDeparture, machine_, index, tau, cols.id[index], 0.0,
                   cols.limit[index]});
  }
  for (const int32_t index : roster_.arrived()) {
    out.push_back({StreamEventKind::kTaskArrival, machine_, index, tau, cols.id[index], 0.0,
                   cols.limit[index]});
  }
  for (const int32_t index : roster_.active()) {
    out.push_back({StreamEventKind::kUsageSample, machine_, index, tau, cols.id[index],
                   cols.UsageAt(index, tau), cols.limit[index]});
  }
  ++next_tick_;
}

void EventLog::MachineCursor::Seek(Interval resume_tick) {
  CRF_CHECK_GE(resume_tick, 0);
  CRF_CHECK_LE(resume_tick, log_->num_intervals());
  roster_.Seek(resume_tick);
  next_tick_ = resume_tick;
}

}  // namespace crf
