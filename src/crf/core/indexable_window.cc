#include "crf/core/indexable_window.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstring>

#include "crf/util/byte_io.h"
#include "crf/util/check.h"

namespace crf {
namespace {

// Index of the first of the n ascending values that is greater than or
// equal to `value` (kUpper: strictly greater), or n. The probe sequence
// depends only on n and each step's comparison selects the next base, so
// the loop compiles to conditional moves instead of data-dependent branches.
template <bool kUpper>
size_t Bound(const float* first, size_t n, float value) {
  const auto before = [value](float v) { return kUpper ? v <= value : v < value; };
  const float* base = first;
  while (n > 1) {
    const size_t half = n / 2;
    base = before(base[half]) ? base + half : base;
    n -= half;
  }
  return static_cast<size_t>(base - first) + (n == 1 && before(*base));
}

}  // namespace

IndexableWindow::IndexableWindow(int capacity) : capacity_(capacity) {
  CRF_CHECK_GT(capacity, 0);
  ring_.reserve(capacity);
  sorted_.reserve(capacity);
}

void IndexableWindow::Push(float sample) {
  CRF_CHECK(std::isfinite(sample)) << "non-finite usage sample " << sample;
  if (static_cast<int>(ring_.size()) < capacity_) {
    ring_.push_back(sample);
    sorted_.insert(sorted_.begin() + Bound<true>(sorted_.data(), sorted_.size(), sample),
                   sample);
  } else {
    const float evicted = ring_[head_];
    ring_[head_] = sample;
    head_ = head_ + 1 == capacity_ ? 0 : head_ + 1;
    // Replace the evicted value by the new one, shifting only the values
    // ranked between them one slot toward the evicted position.
    float* const sorted = sorted_.data();
    const size_t n = sorted_.size();
    const size_t at = Bound<false>(sorted, n, evicted);
    CRF_CHECK(at < n && sorted[at] == evicted);
    if (sample > evicted) {
      const size_t slot = at + Bound<true>(sorted + at + 1, n - at - 1, sample);
      std::memmove(sorted + at, sorted + at + 1, (slot - at) * sizeof(float));
      sorted[slot] = sample;
    } else if (sample < evicted) {
      const size_t slot = Bound<true>(sorted, at, sample);
      std::memmove(sorted + slot + 1, sorted + slot, (at - slot) * sizeof(float));
      sorted[slot] = sample;
    } else {
      sorted[at] = sample;
    }
    sum_ -= evicted;
  }
  sum_ += sample;
  if (--pushes_until_sum_refresh_ == 0) {
    pushes_until_sum_refresh_ = kSumRefreshPeriod;
    double exact = 0.0;
    for (const float v : ring_) {
      exact += v;
    }
    sum_ = exact;
  }
}

void IndexableWindow::Clear() {
  ring_.clear();
  sorted_.clear();
  head_ = 0;
  sum_ = 0.0;
  pushes_until_sum_refresh_ = kSumRefreshPeriod;
}

double IndexableWindow::Percentile(double p) const {
  CRF_CHECK(!ring_.empty());
  CRF_CHECK_GE(p, 0.0);
  CRF_CHECK_LE(p, 100.0);
  const int count = static_cast<int>(sorted_.size());
  if (count == 1) {
    return sorted_[0];
  }
  const double rank = p / 100.0 * static_cast<double>(count - 1);
  const int lo = static_cast<int>(rank);
  const int hi = std::min(lo + 1, count - 1);
  const double frac = rank - static_cast<double>(lo);
  const float lo_value = sorted_[lo];
  const float hi_value = sorted_[hi];
  return lo_value + frac * (hi_value - lo_value);
}

double IndexableWindow::Mean() const {
  if (ring_.empty()) {
    return 0.0;
  }
  return sum_ / static_cast<double>(ring_.size());
}

void IndexableWindow::SaveState(ByteWriter& out) const {
  out.Write<int32_t>(capacity_);
  out.Write<int32_t>(head_);
  out.WriteVec(ring_);
  out.Write<double>(sum_);
  out.Write<int32_t>(pushes_until_sum_refresh_);
}

bool IndexableWindow::LoadState(ByteReader& in) {
  const int32_t capacity = in.Read<int32_t>();
  const int32_t head = in.Read<int32_t>();
  std::vector<float> ring;
  if (!in.ReadVec(ring, static_cast<uint64_t>(capacity_))) {
    return false;
  }
  const double sum = in.Read<double>();
  const int32_t refresh = in.Read<int32_t>();
  const bool full = ring.size() == static_cast<size_t>(capacity_);
  // Every sample must be finite like a pushed one, or the sorted mirror
  // would lose its order and a later eviction would fail an internal
  // invariant check instead of this load being cleanly rejected.
  if (!in.ok() || capacity != capacity_ || head < 0 || (full ? head >= capacity_ : head != 0) ||
      !std::all_of(ring.begin(), ring.end(), [](float v) { return std::isfinite(v); }) ||
      !std::isfinite(sum) || refresh <= 0 || refresh > kSumRefreshPeriod) {
    in.Fail();
    return false;
  }
  ring_.assign(ring.begin(), ring.end());
  sorted_.assign(ring.begin(), ring.end());
  std::sort(sorted_.begin(), sorted_.end());
  head_ = head;
  sum_ = sum;
  pushes_until_sum_refresh_ = refresh;
  return true;
}

float IndexableWindow::Latest() const {
  CRF_CHECK(!ring_.empty());
  if (static_cast<int>(ring_.size()) < capacity_) {
    return ring_.back();
  }
  // head_ points at the oldest; the newest sits just before it.
  return ring_[(head_ + capacity_ - 1) % capacity_];
}

}  // namespace crf
