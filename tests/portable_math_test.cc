#include "crf/util/portable_math.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numbers>
#include <vector>

#include "crf/util/rng.h"

namespace crf {
namespace {

// Distance in units in the last place between two finite doubles, counting
// across zero (+0 and -0 are the same point).
int64_t UlpDistance(double a, double b) {
  auto ordered = [](double v) {
    const int64_t bits = std::bit_cast<int64_t>(v);
    return bits < 0 ? std::numeric_limits<int64_t>::min() - bits : bits;
  };
  const int64_t d = ordered(a) - ordered(b);
  return d < 0 ? -d : d;
}

TEST(PortableExpTest, WithinOneUlpOfLibm) {
  Rng rng(101);
  int64_t worst = 0;
  // The synthesizer's range: jitter exponents near 0 and the ziggurat's
  // exp(-x^2 / 2) on [0, 3.45], i.e. [-5.93, 0] ...
  for (int i = 0; i < 1000000; ++i) {
    const double x = rng.Uniform(-8.0, 2.0);
    worst = std::max(worst, UlpDistance(PortableExp(x), std::exp(x)));
  }
  // ... and the whole normal range of the result.
  for (int i = 0; i < 200000; ++i) {
    const double x = rng.Uniform(-707.9, 709.0);
    worst = std::max(worst, UlpDistance(PortableExp(x), std::exp(x)));
  }
  EXPECT_LE(worst, 1);
  EXPECT_EQ(PortableExp(0.0), 1.0);
  EXPECT_EQ(PortableExp(-708.0), 0.0);
  EXPECT_EQ(PortableExp(-1e300), 0.0);
  EXPECT_TRUE(std::isinf(PortableExp(710.0)));
  EXPECT_TRUE(std::isnan(PortableExp(std::nan(""))));
}

TEST(PortableLogTest, WithinOneUlpOfLibm) {
  Rng rng(103);
  int64_t worst = 0;
  // The ziggurat's tail and table build take logs of (0, 1].
  for (int i = 0; i < 1000000; ++i) {
    const double x = 1.0 - rng.UniformDouble();
    worst = std::max(worst, UlpDistance(PortableLog(x), std::log(x)));
  }
  // Every binade of the positive normals, and values either side of 1.
  for (int i = 0; i < 200000; ++i) {
    const uint64_t exponent = 1 + rng.UniformInt(2046);
    const uint64_t mantissa = rng.NextUint64() >> 12;
    const double x = std::bit_cast<double>((exponent << 52) | mantissa);
    worst = std::max(worst, UlpDistance(PortableLog(x), std::log(x)));
    const double near_one = 1.0 + rng.Uniform(-0.01, 0.01);
    worst = std::max(worst, UlpDistance(PortableLog(near_one), std::log(near_one)));
  }
  EXPECT_LE(worst, 1);
  EXPECT_EQ(PortableLog(1.0), 0.0);
}

TEST(SinTurnsTest, WithinTwoUlpOfLongDoubleSine) {
  // The reference reduces exactly in turns too, to [-1/4, 1/4] by
  // sin(pi - t) = sin(t), then evaluates the sine in long double, so it is
  // accurate to well under half a double ulp even next to a half turn.
  const long double two_pi = 2.0L * std::numbers::pi_v<long double>;
  auto reference = [two_pi](double turns) {
    const double r = turns - std::nearbyint(turns);
    const double a = std::fabs(r) > 0.25 ? std::copysign(0.5 - std::fabs(r), r) : r;
    return static_cast<double>(std::sin(two_pi * static_cast<long double>(a)));
  };
  Rng rng(107);
  int64_t worst = 0;
  // Diurnal positions: interval / 288 minus a phase, over tens of days.
  for (int i = 0; i < 1000000; ++i) {
    const double turns = rng.Uniform(-2.0, 64.0);
    const double ref = reference(turns);
    if (ref == 0.0) {
      ASSERT_EQ(SinTurns(turns), 0.0) << turns;
    } else {
      worst = std::max(worst, UlpDistance(SinTurns(turns), ref));
    }
  }
  for (int t = 0; t < 8 * 288; ++t) {
    const double turns = static_cast<double>(t) / 288.0;
    const double ref = reference(turns);
    if (ref != 0.0) {
      worst = std::max(worst, UlpDistance(SinTurns(turns), ref));
    }
  }
  EXPECT_LE(worst, 2);
  EXPECT_EQ(SinTurns(0.0), 0.0);
  EXPECT_EQ(SinTurns(0.25), 1.0);
  EXPECT_EQ(SinTurns(-0.25), -1.0);
  EXPECT_EQ(SinTurns(0.5), 0.0);
  EXPECT_EQ(SinTurns(17.75), -1.0);
}

double StandardNormalCdf(double x) { return 0.5 * std::erfc(-x / std::numbers::sqrt2); }

TEST(ZigguratNormalTest, MatchesStandardNormal) {
  constexpr int kDraws = 1000000;
  Rng rng(109);
  std::vector<double> draws(kDraws);
  double sum = 0.0;
  double sum_sq = 0.0;
  constexpr double kTailStart = 3.442619855899;
  int beyond_tail_start = 0;
  for (double& z : draws) {
    z = ZigguratNormal(rng);
    sum += z;
    sum_sq += z * z;
    beyond_tail_start += std::fabs(z) > kTailStart ? 1 : 0;
  }
  const double mean = sum / kDraws;
  const double variance = sum_sq / kDraws - mean * mean;
  // Standard errors: 1e-3 for the mean, sqrt(2 / n) = 1.4e-3 for the
  // variance; the bounds sit at about five of them.
  EXPECT_NEAR(mean, 0.0, 0.005);
  EXPECT_NEAR(variance, 1.0, 0.007);

  // Kolmogorov-Smirnov: sqrt(n) D_n stays under 1.95 with probability
  // 0.999 for a sample from the hypothesised distribution.
  std::sort(draws.begin(), draws.end());
  double d = 0.0;
  for (int i = 0; i < kDraws; ++i) {
    const double cdf = StandardNormalCdf(draws[i]);
    d = std::max({d, cdf - static_cast<double>(i) / kDraws,
                  static_cast<double>(i + 1) / kDraws - cdf});
  }
  EXPECT_LT(std::sqrt(static_cast<double>(kDraws)) * d, 1.95);

  // The tail beyond R comes from a separate sampler; its mass must match
  // 2 (1 - Phi(R)) ~ 5.76e-4, about 576 draws with a stddev of 24.
  const double expected = kDraws * 2.0 * (1.0 - StandardNormalCdf(kTailStart));
  EXPECT_NEAR(beyond_tail_start, expected, 5.0 * std::sqrt(expected));
  EXPECT_GT(draws.back(), 4.0);
  EXPECT_LT(draws.front(), -4.0);
}

TEST(ZigguratNormalTest, DeterministicGivenSameRng) {
  Rng a(113);
  Rng b(113);
  for (int i = 0; i < 10000; ++i) {
    ASSERT_EQ(std::bit_cast<uint64_t>(ZigguratNormal(a)), std::bit_cast<uint64_t>(ZigguratNormal(b)));
  }
}

}  // namespace
}  // namespace crf
