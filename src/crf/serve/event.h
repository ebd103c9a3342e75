// The streaming event model (DESIGN.md §7).
//
// The serve layer consumes a time-ordered stream of per-machine events. For
// each machine and each polling interval `tick`, the canonical order is:
//
//   1. kTaskDeparture  for every task whose residency ended at or before
//                      `tick`, in departure-time order;
//   2. kTaskArrival    for every task whose residency starts at or before
//                      `tick`, in start-time order;
//   3. kUsageSample    exactly one per resident task, in roster order (the
//                      arrival order with departed tasks compacted out).
//
// The order within 1 and 2 — including the permutation of ties — is the
// departed/arrived slices of MachineRoster (crf/trace/machine_events.h), the
// same walk the batch simulator steps, so the floating-point accumulation a
// consumer performs over the events is bit-identical to the batch engine's.
// OvercommitService::IngestTick validates this order and rejects any batch
// that breaks it.

#ifndef CRF_SERVE_EVENT_H_
#define CRF_SERVE_EVENT_H_

#include <cstdint>

#include "crf/trace/trace.h"
#include "crf/util/time_grid.h"

namespace crf {

enum class StreamEventKind : uint8_t {
  kTaskDeparture = 0,
  kTaskArrival = 1,
  kUsageSample = 2,
};

struct StreamEvent {
  StreamEventKind kind = StreamEventKind::kUsageSample;
  int32_t machine = -1;
  // Stable identity of the task instance: its index in the backing trace's
  // task columns. TaskId is the trace-reported id and is NOT guaranteed
  // unique; consumers key roster membership on task_index.
  int32_t task_index = -1;
  Interval tick = 0;
  TaskId task_id = 0;
  double usage = 0.0;  // kUsageSample only; 0 otherwise.
  double limit = 0.0;  // the task's configured limit (all kinds).
};

}  // namespace crf

#endif  // CRF_SERVE_EVENT_H_
