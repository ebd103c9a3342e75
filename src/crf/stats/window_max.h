// Sliding-window maximum via a monotonic deque.
//
// The peak oracle is a windowed maximum of an aggregate usage series; this
// gives the O(1) amortized primitive. The deque is a vector plus a head
// index, so a reused instance allocates nothing once it has grown to its
// high-water size. Header-only for inlining on the oracle hot path.

#ifndef CRF_STATS_WINDOW_MAX_H_
#define CRF_STATS_WINDOW_MAX_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "crf/util/check.h"

namespace crf {

// Maintains max over a set of (index, value) pairs where indices are pushed
// in nondecreasing order and expired from the front.
class MonotonicMaxDeque {
 public:
  // Pushes (index, value); indices must be nondecreasing across pushes.
  void Push(int64_t index, double value) {
    while (entries_.size() > head_ && entries_.back().value <= value) {
      entries_.pop_back();
    }
    entries_.push_back({index, value});
  }

  // Drops entries with index < min_index.
  void ExpireBelow(int64_t min_index) {
    while (head_ < entries_.size() && entries_[head_].index < min_index) {
      ++head_;
    }
    // Once the dead prefix outgrows the live entries, slide the live ones to
    // the front, so a caller that never calls Clear() holds O(live) entries.
    // A compaction moves fewer entries than it drops: amortized O(1) a push.
    if (2 * head_ > entries_.size()) {
      entries_.erase(entries_.begin(), entries_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
  }

  bool empty() const { return head_ == entries_.size(); }

  double Max() const {
    CRF_CHECK(!empty());
    return entries_[head_].value;
  }

  void Clear() {
    entries_.clear();
    head_ = 0;
  }

 private:
  struct Entry {
    int64_t index;
    double value;
  };
  // Live entries are entries_[head_ ..], in increasing index and strictly
  // decreasing value order.
  std::vector<Entry> entries_;
  size_t head_ = 0;
};

// Computes out[i] = max(values[i .. min(i+window-1, n-1)]) for each i — the
// forward-looking windowed maximum used by the peak oracle — reusing the
// caller's deque and output buffer (no allocations once both have grown to
// the high-water size). window >= 1.
inline void ForwardWindowMaxInto(std::span<const double> values, int64_t window,
                                 MonotonicMaxDeque& deque, std::vector<double>& out) {
  CRF_CHECK_GE(window, 1);
  const int64_t n = static_cast<int64_t>(values.size());
  out.resize(values.size());
  deque.Clear();
  // Sweep i from the back; the window [i, i+window-1] gains values[i] and
  // loses indices beyond i+window-1.
  for (int64_t i = n - 1; i >= 0; --i) {
    // Indices are pushed in decreasing order here, so flip the sign to keep
    // the deque's nondecreasing-index contract, expiring the largest ones.
    deque.Push(-i, values[i]);
    deque.ExpireBelow(-(i + window - 1));
    out[i] = deque.Max();
  }
}

// Allocating convenience wrapper around ForwardWindowMaxInto.
inline std::vector<double> ForwardWindowMax(std::span<const double> values, int64_t window) {
  std::vector<double> out;
  MonotonicMaxDeque deque;
  ForwardWindowMaxInto(values, window, deque, out);
  return out;
}

}  // namespace crf

#endif  // CRF_STATS_WINDOW_MAX_H_
