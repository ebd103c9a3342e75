#include "crf/stats/window_max.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "crf/util/rng.h"

namespace crf {
namespace {

std::vector<double> BruteForceForwardMax(const std::vector<double>& v, int64_t window) {
  std::vector<double> out(v.size());
  for (size_t i = 0; i < v.size(); ++i) {
    const size_t end = std::min(v.size(), i + static_cast<size_t>(window));
    out[i] = *std::max_element(v.begin() + i, v.begin() + end);
  }
  return out;
}

TEST(MonotonicMaxDequeTest, BasicPushAndMax) {
  MonotonicMaxDeque deque;
  deque.Push(0, 3.0);
  deque.Push(1, 1.0);
  deque.Push(2, 2.0);
  EXPECT_DOUBLE_EQ(deque.Max(), 3.0);
  deque.ExpireBelow(1);
  EXPECT_DOUBLE_EQ(deque.Max(), 2.0);
}

TEST(MonotonicMaxDequeTest, EqualValuesKeepLatest) {
  MonotonicMaxDeque deque;
  deque.Push(0, 5.0);
  deque.Push(1, 5.0);
  deque.ExpireBelow(1);
  EXPECT_FALSE(deque.empty());
  EXPECT_DOUBLE_EQ(deque.Max(), 5.0);
}

TEST(ForwardWindowMaxTest, WindowOneIsIdentity) {
  const std::vector<double> v{3.0, 1.0, 2.0};
  EXPECT_EQ(ForwardWindowMax(v, 1), v);
}

TEST(ForwardWindowMaxTest, WindowLargerThanInput) {
  const std::vector<double> v{1.0, 5.0, 2.0};
  const std::vector<double> expected{5.0, 5.0, 2.0};
  EXPECT_EQ(ForwardWindowMax(v, 100), expected);
}

TEST(ForwardWindowMaxTest, KnownSmallCase) {
  const std::vector<double> v{1.0, 3.0, 2.0, 5.0, 4.0};
  const std::vector<double> expected{3.0, 3.0, 5.0, 5.0, 4.0};
  EXPECT_EQ(ForwardWindowMax(v, 2), expected);
}

TEST(ForwardWindowMaxTest, EmptyInput) {
  EXPECT_TRUE(ForwardWindowMax(std::vector<double>{}, 3).empty());
}

// Property: matches brute force for random arrays and window sizes.
class ForwardWindowMaxPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(ForwardWindowMaxPropertyTest, MatchesBruteForce) {
  Rng rng(40 + GetParam());
  const int n = 1 + static_cast<int>(rng.UniformInt(300));
  const int64_t window = 1 + static_cast<int64_t>(rng.UniformInt(40));
  std::vector<double> v;
  for (int i = 0; i < n; ++i) {
    v.push_back(rng.Uniform(-10.0, 10.0));
  }
  EXPECT_EQ(ForwardWindowMax(v, window), BruteForceForwardMax(v, window));
}

INSTANTIATE_TEST_SUITE_P(RandomArrays, ForwardWindowMaxPropertyTest, ::testing::Range(0, 16));

// One deque and output buffer reused across calls of varying length and
// window, as the oracle scratch does: no state may leak between calls.
TEST(ForwardWindowMaxTest, ReusedScratchMatchesBruteForce) {
  Rng rng(7);
  MonotonicMaxDeque deque;
  std::vector<double> out;
  for (int call = 0; call < 200; ++call) {
    const int n = static_cast<int>(rng.UniformInt(call % 10 == 0 ? 2000 : 120));
    const int64_t window = 1 + static_cast<int64_t>(rng.UniformInt(call % 3 == 0 ? 300 : 12));
    std::vector<double> v;
    for (int i = 0; i < n; ++i) {
      // Coarse values so equal neighbours are common.
      v.push_back(static_cast<double>(rng.UniformInt(6)));
    }
    ForwardWindowMaxInto(v, window, deque, out);
    ASSERT_EQ(out, BruteForceForwardMax(v, window)) << "call=" << call;
  }
}

// A long push/expire stream with no Clear(): the expired prefix is compacted
// away many times over, through rising runs (every push empties the live
// entries), falling runs (the live entries span the window) and a window
// width that grows and shrinks.
TEST(MonotonicMaxDequeTest, LongStreamWithoutClearMatchesBruteForce) {
  Rng rng(2024);
  MonotonicMaxDeque deque;
  std::vector<double> values;
  int64_t low = 0;
  for (int64_t i = 0; i < 50000; ++i) {
    const int64_t phase = (i / 1000) % 3;
    const double value = phase == 0   ? static_cast<double>(i % 1000)
                         : phase == 1 ? -static_cast<double>(i % 1000)
                                      : rng.Uniform(-5.0, 5.0);
    values.push_back(value);
    deque.Push(i, value);
    const int64_t width = 1 + (i / 700) % 80;
    low = std::max(low, i + 1 - width);
    deque.ExpireBelow(low);
    ASSERT_FALSE(deque.empty());
    ASSERT_EQ(deque.Max(), *std::max_element(values.begin() + low, values.end())) << "i=" << i;
  }
}

}  // namespace
}  // namespace crf
