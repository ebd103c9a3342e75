// A bounded moving window of float samples with constant-time order
// statistics: the storage layer under TaskHistory and the sweep engine's
// shared per-task percentile windows.
//
// The window keeps two views of the same samples:
//  * a ring buffer in arrival order (eviction, Latest);
//  * a flat ascending mirror, so rank selection is one array read.
//
// A full-window push finds the evicted value and the new value's slot with
// branch-free binary searches, then shifts only the values ranked between
// the two with one memmove: O(log w + rank distance), a few cache lines for
// the predictors' windows of tens to about a hundred samples. A running sum
// makes Mean() O(1); pushes periodically recompute it exactly so incremental
// drift stays below any tolerance the simulator works at.

#ifndef CRF_CORE_INDEXABLE_WINDOW_H_
#define CRF_CORE_INDEXABLE_WINDOW_H_

#include <cstdint>
#include <vector>

namespace crf {

class ByteReader;
class ByteWriter;

class IndexableWindow {
 public:
  explicit IndexableWindow(int capacity);

  // Appends a sample, evicting the oldest if the window is full. Rejects
  // non-finite samples: a NaN would poison the value-ordered mirror (NaN
  // compares false against everything) and surface only much later as a
  // failed eviction lookup.
  void Push(float sample);

  // Discards all samples but keeps the capacity and allocated storage, so a
  // pooled window can be reused without reallocating.
  void Clear();

  int size() const { return static_cast<int>(ring_.size()); }
  int capacity() const { return capacity_; }
  bool empty() const { return ring_.empty(); }

  // Percentile p in [0, 100] over the window, linear interpolation between
  // the straddling order statistics. Requires a non-empty window.
  double Percentile(double p) const;

  // Mean over the window (running sum); 0 when empty.
  double Mean() const;

  // Newest sample; requires non-empty.
  float Latest() const;

  // Checkpoint support (crf/serve): serializes the ring, the running sum and
  // the refresh countdown — the sum's drift depends on more than the sample
  // multiset, so a restored window continues bit-identically to the
  // uninterrupted one. The sorted mirror is derived and rebuilt on load.
  // LoadState validates every field and returns false (leaving the reader
  // failed) on any mismatch, including a stored capacity different from
  // this window's.
  void SaveState(ByteWriter& out) const;
  bool LoadState(ByteReader& in);

 private:
  // Pushes between exact recomputations of the running sum.
  static constexpr int kSumRefreshPeriod = 1 << 15;

  int capacity_;
  int head_ = 0;  // Index of the oldest sample once the ring is full.
  std::vector<float> ring_;
  std::vector<float> sorted_;  // ring_'s samples in ascending order.

  double sum_ = 0.0;
  int pushes_until_sum_refresh_ = kSumRefreshPeriod;
};

}  // namespace crf

#endif  // CRF_CORE_INDEXABLE_WINDOW_H_
