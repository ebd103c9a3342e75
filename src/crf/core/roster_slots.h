// Per-task predictor state kept parallel to the resident roster.
//
// Every usage-driven predictor (and the sweep engine's SweepBank) keeps one
// slot per resident task, in roster order. ApplyRosterDelta moves those
// slots through one RosterDelta: the departed positions are compacted out
// in place, survivors keep their order, and one fresh slot is appended per
// arrival. Nothing is hashed and, once the vectors reach their high-water
// size, nothing is allocated.

#ifndef CRF_CORE_ROSTER_SLOTS_H_
#define CRF_CORE_ROSTER_SLOTS_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "crf/core/predictor.h"
#include "crf/util/byte_io.h"
#include "crf/util/check.h"

namespace crf {

// Applies `delta` to `slots` (one entry per task of the previous roster):
// each departed entry is handed to `release` before its slot is reused,
// survivors are compacted down in order, and `arrive()` supplies one entry
// per arrival. CHECKs that the departed positions are ascending and in range
// and that the result holds exactly `roster_size` entries.
template <typename T, typename Release, typename Arrive>
void ApplyRosterDelta(std::vector<T>& slots, const RosterDelta& delta, size_t roster_size,
                      Release&& release, Arrive&& arrive) {
  CRF_CHECK_GE(delta.arrived, 0);
  CRF_CHECK_EQ(slots.size() + static_cast<size_t>(delta.arrived),
               roster_size + delta.departed.size());
  if (!delta.departed.empty()) {
    size_t next = 0;
    size_t out = static_cast<size_t>(delta.departed.front());
    for (size_t i = out; i < slots.size(); ++i) {
      if (next < delta.departed.size() && static_cast<size_t>(delta.departed[next]) == i) {
        release(slots[i]);
        ++next;
      } else {
        slots[out++] = std::move(slots[i]);
      }
    }
    CRF_CHECK_EQ(next, delta.departed.size());
    slots.erase(slots.begin() + static_cast<std::ptrdiff_t>(out), slots.end());
  }
  for (int32_t k = 0; k < delta.arrived; ++k) {
    slots.push_back(arrive());
  }
}

// ApplyRosterDelta for plain per-task values (warm-up counters): departed
// values are dropped and every arrival starts at `fresh`.
template <typename T>
void ApplyRosterDelta(std::vector<T>& slots, const RosterDelta& delta, size_t roster_size,
                      const T& fresh) {
  ApplyRosterDelta(slots, delta, roster_size, [](T&) {}, [&fresh] { return fresh; });
}

// ApplyRosterDelta for per-task usage windows (TaskHistory,
// IndexableWindow): departed windows are cleared onto the `spare` free list
// and arrivals reuse them before constructing new `capacity`-sample windows,
// so churn reuses storage.
template <typename Window>
void ApplyRosterDelta(std::vector<Window>& windows, std::vector<Window>& spare,
                      const RosterDelta& delta, size_t roster_size, int capacity) {
  ApplyRosterDelta(
      windows, delta, roster_size,
      [&spare](Window& departed) {
        departed.Clear();
        spare.push_back(std::move(departed));
      },
      [&spare, capacity] {
        if (spare.empty()) {
          return Window(capacity);
        }
        Window window = std::move(spare.back());
        spare.pop_back();
        return window;
      });
}

// Returns every window to `spare` (the Reset / new-machine path).
template <typename Window>
void ReleaseAllWindows(std::vector<Window>& windows, std::vector<Window>& spare) {
  for (Window& window : windows) {
    window.Clear();
    spare.push_back(std::move(window));
  }
  windows.clear();
}

// Checkpoint support for per-task windows in roster order: the count, then
// each window's state.
template <typename Window>
void SaveWindows(const std::vector<Window>& windows, ByteWriter& out) {
  out.Write<uint64_t>(windows.size());
  for (const Window& window : windows) {
    window.SaveState(out);
  }
}

// Reads what SaveWindows wrote into fresh `capacity`-sample windows. Returns
// false, with the reader failed, unless the state tracks exactly
// `roster_size` windows and each one loads.
template <typename Window>
bool LoadWindows(ByteReader& in, size_t roster_size, int capacity,
                 std::vector<Window>& windows) {
  const uint64_t count = in.Read<uint64_t>();
  if (!in.ok() || count != roster_size) {
    in.Fail();
    return false;
  }
  windows.clear();
  windows.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    if (!windows.emplace_back(capacity).LoadState(in)) {
      return false;
    }
  }
  return true;
}

}  // namespace crf

#endif  // CRF_CORE_ROSTER_SLOTS_H_
