// Randomized churn stress for IndexableWindow (and TaskHistory, its thin
// wrapper): long insert/evict sequences with heavy duplicates are checked
// differentially against a naive sorted-vector reference, and a mid-churn
// SaveState/LoadState round trip must continue bit-identically to the
// original window.

#include "crf/core/indexable_window.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <vector>

#include "crf/core/task_history.h"
#include "crf/util/byte_io.h"
#include "crf/util/rng.h"

namespace crf {
namespace {

// Naive reference: arrival-order deque, full sort per query. Mirrors the
// window's documented percentile interpolation exactly.
class NaiveWindow {
 public:
  explicit NaiveWindow(int capacity) : capacity_(capacity) {}

  void Push(float sample) {
    if (static_cast<int>(ring_.size()) == capacity_) {
      ring_.pop_front();
    }
    ring_.push_back(sample);
  }

  int size() const { return static_cast<int>(ring_.size()); }

  double Percentile(double p) const {
    std::vector<float> sorted(ring_.begin(), ring_.end());
    std::sort(sorted.begin(), sorted.end());
    const int count = static_cast<int>(sorted.size());
    if (count == 1) {
      return sorted[0];
    }
    const double rank = p / 100.0 * static_cast<double>(count - 1);
    const int lo = static_cast<int>(rank);
    const int hi = std::min(lo + 1, count - 1);
    const double frac = rank - static_cast<double>(lo);
    const float lo_value = sorted[lo];
    const float hi_value = hi == lo ? lo_value : sorted[hi];
    return lo_value + frac * (hi_value - lo_value);
  }

  double Mean() const {
    if (ring_.empty()) {
      return 0.0;
    }
    double sum = 0.0;
    for (const float v : ring_) {
      sum += v;
    }
    return sum / static_cast<double>(ring_.size());
  }

  float Latest() const { return ring_.back(); }

 private:
  int capacity_;
  std::deque<float> ring_;
};

// Sample streams with heavy duplicates and plateaus: runs of equal values are
// exactly where the sorted mirror's evict-and-shift tie-handling can go
// wrong (the evicted copy and the new slot must land inside or at the edge
// of a run).
float NextSample(Rng& rng) {
  const double shape = rng.UniformDouble();
  if (shape < 0.4) {
    // Coarse grid: many exact duplicates.
    return static_cast<float>(rng.UniformInt(8)) * 0.125f;
  }
  if (shape < 0.5) {
    return 0.5f;  // Plateau value.
  }
  if (shape < 0.55) {
    return -static_cast<float>(rng.UniformDouble());
  }
  return static_cast<float>(rng.UniformDouble() * 4.0);
}

class IndexableWindowStressTest : public ::testing::TestWithParam<int> {};

TEST_P(IndexableWindowStressTest, ChurnMatchesNaiveReference) {
  const int capacity = GetParam();
  Rng rng(4242 + static_cast<uint64_t>(capacity));
  IndexableWindow window(capacity);
  NaiveWindow naive(capacity);

  const int pushes = 4000 + 4 * capacity;
  const double percentiles[] = {0.0, 1.0, 37.5, 50.0, 90.0, 99.0, 100.0};
  for (int i = 0; i < pushes; ++i) {
    const float sample = NextSample(rng);
    window.Push(sample);
    naive.Push(sample);
    ASSERT_EQ(window.size(), naive.size());
    EXPECT_EQ(window.Latest(), naive.Latest());
    // Querying every push is quadratic in the reference; sample the tail
    // densely (evictions active) and the warm-up sparsely.
    const bool check = i < 2 * capacity ? (i % 7 == 0) : (i % 23 == 0);
    if (check) {
      for (const double p : percentiles) {
        EXPECT_EQ(window.Percentile(p), naive.Percentile(p))
            << "capacity=" << capacity << " i=" << i << " p=" << p;
      }
      EXPECT_NEAR(window.Mean(), naive.Mean(), 1e-9)
          << "capacity=" << capacity << " i=" << i;
    }
  }
}

TEST_P(IndexableWindowStressTest, SaveLoadMidChurnContinuesBitIdentically) {
  const int capacity = GetParam();
  Rng rng(9090 + static_cast<uint64_t>(capacity));
  IndexableWindow window(capacity);

  // Churn past several wrap-arounds so the ring head is mid-buffer.
  for (int i = 0; i < 3 * capacity + 17; ++i) {
    window.Push(NextSample(rng));
  }

  ByteWriter writer;
  window.SaveState(writer);
  IndexableWindow restored(capacity);
  ByteReader reader(writer.bytes());
  ASSERT_TRUE(restored.LoadState(reader));
  EXPECT_TRUE(reader.AtEnd());

  // Same future stream into both: every observable must stay bit-identical,
  // including the running (drifting) sum behind Mean().
  Rng future(777);
  for (int i = 0; i < 2 * capacity + 31; ++i) {
    const float sample = NextSample(future);
    window.Push(sample);
    restored.Push(sample);
    ASSERT_EQ(restored.size(), window.size());
    EXPECT_EQ(restored.Latest(), window.Latest());
    EXPECT_EQ(restored.Mean(), window.Mean()) << "i=" << i;
    if (i % 11 == 0) {
      for (const double p : {0.0, 25.0, 50.0, 95.0, 100.0}) {
        EXPECT_EQ(restored.Percentile(p), window.Percentile(p)) << "i=" << i << " p=" << p;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Capacities, IndexableWindowStressTest,
                         ::testing::Values(1, 2, 7, 24, 63, 64, 65, 120, 200, 1024, 8640));

// Hand-built window state in the checkpoint encoding: capacity, head, ring,
// running sum, refresh countdown.
std::vector<uint8_t> WindowState(int32_t capacity, int32_t head, const std::vector<float>& ring,
                                 double sum, int32_t refresh) {
  ByteWriter writer;
  writer.Write<int32_t>(capacity);
  writer.Write<int32_t>(head);
  writer.WriteVec(ring);
  writer.Write<double>(sum);
  writer.Write<int32_t>(refresh);
  return writer.bytes();
}

void ExpectLoadRejected(int capacity, const std::vector<uint8_t>& bytes) {
  IndexableWindow window(capacity);
  ByteReader reader(bytes);
  EXPECT_FALSE(window.LoadState(reader));
  EXPECT_FALSE(reader.ok());
}

TEST(IndexableWindowStateTest, HandBuiltStateLoadsAndRebuildsOrder) {
  // A full ring whose oldest sample sits at index 1: arrival order 1, 4, 3.
  IndexableWindow window(3);
  const std::vector<uint8_t> bytes = WindowState(3, 1, {3.0f, 1.0f, 4.0f}, 8.0, 1 << 15);
  ByteReader reader(bytes);
  ASSERT_TRUE(window.LoadState(reader));
  EXPECT_TRUE(reader.AtEnd());
  EXPECT_EQ(window.Latest(), 3.0f);
  EXPECT_EQ(window.Percentile(0.0), 1.0);
  EXPECT_EQ(window.Percentile(50.0), 3.0);
  EXPECT_EQ(window.Percentile(100.0), 4.0);
  // The next push evicts the oldest sample (1) from the rebuilt order.
  window.Push(2.0f);
  EXPECT_EQ(window.Percentile(0.0), 2.0);
  EXPECT_EQ(window.Mean(), 3.0);
}

TEST(IndexableWindowStateTest, LoadRejectsStoredCapacityMismatch) {
  ExpectLoadRejected(4, WindowState(5, 0, {1.0f, 2.0f}, 3.0, 7));
}

TEST(IndexableWindowStateTest, LoadRejectsRingLongerThanCapacity) {
  ExpectLoadRejected(2, WindowState(2, 0, {1.0f, 2.0f, 3.0f}, 6.0, 7));
}

TEST(IndexableWindowStateTest, LoadRejectsHeadOutOfRange) {
  // A partial ring must start at 0; a full ring's head must index it.
  ExpectLoadRejected(4, WindowState(4, 1, {1.0f, 2.0f}, 3.0, 7));
  ExpectLoadRejected(2, WindowState(2, 2, {1.0f, 2.0f}, 3.0, 7));
  ExpectLoadRejected(2, WindowState(2, -1, {1.0f, 2.0f}, 3.0, 7));
}

TEST(IndexableWindowStateTest, LoadRejectsNonFiniteRingValue) {
  ExpectLoadRejected(3, WindowState(3, 0, {1.0f, std::nanf("")}, 1.0, 7));
  ExpectLoadRejected(3, WindowState(3, 0, {INFINITY, 1.0f}, 1.0, 7));
}

TEST(IndexableWindowStateTest, LoadRejectsNonFiniteSum) {
  ExpectLoadRejected(3, WindowState(3, 0, {1.0f, 2.0f}, std::nan(""), 7));
  ExpectLoadRejected(3, WindowState(3, 0, {1.0f, 2.0f}, -INFINITY, 7));
}

TEST(IndexableWindowStateTest, LoadRejectsRefreshCountdownOutOfRange) {
  ExpectLoadRejected(3, WindowState(3, 0, {1.0f, 2.0f}, 3.0, 0));
  ExpectLoadRejected(3, WindowState(3, 0, {1.0f, 2.0f}, 3.0, -5));
  ExpectLoadRejected(3, WindowState(3, 0, {1.0f, 2.0f}, 3.0, (1 << 15) + 1));
}

TEST(IndexableWindowStateTest, LoadRejectsCapacityMismatch) {
  IndexableWindow window(16);
  for (int i = 0; i < 10; ++i) {
    window.Push(static_cast<float>(i));
  }
  ByteWriter writer;
  window.SaveState(writer);

  IndexableWindow wrong(32);
  ByteReader reader(writer.bytes());
  EXPECT_FALSE(wrong.LoadState(reader));
  EXPECT_FALSE(reader.ok());
}

TEST(IndexableWindowStateTest, LoadRejectsTruncatedAndFlippedState) {
  IndexableWindow window(32);
  Rng rng(11);
  for (int i = 0; i < 100; ++i) {
    window.Push(NextSample(rng));
  }
  ByteWriter writer;
  window.SaveState(writer);
  const std::vector<uint8_t>& bytes = writer.bytes();

  for (const size_t length : {size_t{0}, size_t{3}, bytes.size() / 2, bytes.size() - 1}) {
    IndexableWindow target(32);
    std::vector<uint8_t> truncated(bytes.begin(), bytes.begin() + static_cast<long>(length));
    ByteReader reader(truncated);
    EXPECT_FALSE(target.LoadState(reader) && reader.AtEnd()) << "length=" << length;
  }
}

TEST(TaskHistoryStressTest, WrapperMatchesReferenceAndRoundTrips) {
  TaskHistory history(48);
  NaiveWindow naive(48);
  Rng rng(31337);
  for (int i = 0; i < 600; ++i) {
    const float sample = NextSample(rng);
    history.Push(sample);
    naive.Push(sample);
    if (i % 13 == 0) {
      EXPECT_EQ(history.Percentile(95.0), naive.Percentile(95.0)) << "i=" << i;
      EXPECT_NEAR(history.Mean(), naive.Mean(), 1e-9) << "i=" << i;
    }
  }

  ByteWriter writer;
  history.SaveState(writer);
  TaskHistory restored(48);
  ByteReader reader(writer.bytes());
  ASSERT_TRUE(restored.LoadState(reader));
  EXPECT_TRUE(reader.AtEnd());
  EXPECT_EQ(restored.size(), history.size());
  EXPECT_EQ(restored.Percentile(99.0), history.Percentile(99.0));
  EXPECT_EQ(restored.Mean(), history.Mean());
}

}  // namespace
}  // namespace crf
