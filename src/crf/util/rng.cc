#include "crf/util/rng.h"

#include <cmath>
#include <numbers>

#include "crf/util/check.h"

namespace crf {
namespace {

std::array<uint64_t, 4> SeedState(uint64_t seed) {
  std::array<uint64_t, 4> state;
  uint64_t sm = seed;
  for (auto& word : state) {
    word = SplitMix64(sm);
  }
  return state;
}

}  // namespace

uint64_t SplitMix64(uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Rng::Rng(uint64_t seed) : Rng(seed, SeedState(seed)) {}

Rng::Rng(uint64_t seed, std::array<uint64_t, 4> state) : seed_(seed), state_(state) {}

Rng Rng::Fork(uint64_t tag) const {
  // Mix the parent seed with the tag through two SplitMix64 rounds so that
  // consecutive tags do not produce correlated child seeds.
  uint64_t mix = seed_ ^ (tag * 0xd1342543de82ef95ULL + 0x2545f4914f6cdd1dULL);
  (void)SplitMix64(mix);
  const uint64_t child_seed = SplitMix64(mix);
  return Rng(child_seed);
}

uint64_t Rng::UniformInt(uint64_t n) {
  CRF_CHECK_GT(n, 0u);
  // Rejection sampling to avoid modulo bias.
  const uint64_t threshold = -n % n;
  for (;;) {
    const uint64_t r = NextUint64();
    if (r >= threshold) {
      return r % n;
    }
  }
}

double Rng::UniformDouble() {
  // 53 random bits into [0, 1).
  return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) { return lo + (hi - lo) * UniformDouble(); }

double Rng::Normal() {
  // Box-Muller; draw u1 in (0, 1] to avoid log(0).
  const double u1 = 1.0 - UniformDouble();
  const double u2 = UniformDouble();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * std::numbers::pi * u2);
}

double Rng::Normal(double mean, double stddev) { return mean + stddev * Normal(); }

double Rng::LogNormal(double mu, double sigma) { return std::exp(Normal(mu, sigma)); }

double Rng::Exponential(double mean) {
  CRF_CHECK_GT(mean, 0.0);
  const double u = 1.0 - UniformDouble();
  return -mean * std::log(u);
}

int Rng::Poisson(double mean) {
  CRF_CHECK_GE(mean, 0.0);
  if (mean == 0.0) {
    return 0;
  }
  if (mean > 64.0) {
    // Normal approximation with continuity correction; fine for arrival
    // counts at the rates we simulate.
    const double sample = Normal(mean, std::sqrt(mean));
    return sample < 0.5 ? 0 : static_cast<int>(sample + 0.5);
  }
  const double limit = std::exp(-mean);
  double product = UniformDouble();
  int count = 0;
  while (product > limit) {
    ++count;
    product *= UniformDouble();
  }
  return count;
}

double Rng::BoundedPareto(double lo, double hi, double alpha) {
  CRF_CHECK_GT(lo, 0.0);
  CRF_CHECK_GT(hi, lo);
  CRF_CHECK_GT(alpha, 0.0);
  const double u = UniformDouble();
  const double la = std::pow(lo, alpha);
  const double ha = std::pow(hi, alpha);
  return std::pow(-(u * ha - u * la - ha) / (ha * la), -1.0 / alpha);
}

double Rng::Gamma(double shape) {
  CRF_CHECK_GT(shape, 0.0);
  if (shape < 1.0) {
    // Boost to shape+1 and scale back (Marsaglia-Tsang section 6).
    const double u = UniformDouble();
    return Gamma(shape + 1.0) * std::pow(u <= 0.0 ? 1e-300 : u, 1.0 / shape);
  }
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    double x;
    double v;
    do {
      x = Normal();
      v = 1.0 + c * x;
    } while (v <= 0.0);
    v = v * v * v;
    const double u = UniformDouble();
    if (u < 1.0 - 0.0331 * x * x * x * x) {
      return d * v;
    }
    if (u > 0.0 && std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v))) {
      return d * v;
    }
  }
}

double Rng::Beta(double a, double b) {
  const double x = Gamma(a);
  const double y = Gamma(b);
  const double sum = x + y;
  return sum <= 0.0 ? 0.5 : x / sum;
}

int Rng::Geometric(double p) {
  CRF_CHECK_GT(p, 0.0);
  CRF_CHECK_LE(p, 1.0);
  if (p >= 1.0) {
    return 1;
  }
  const double u = 1.0 - UniformDouble();
  const int trials = 1 + static_cast<int>(std::log(u) / std::log1p(-p));
  return trials < 1 ? 1 : trials;
}

bool Rng::Bernoulli(double p) {
  if (p <= 0.0) {
    return false;
  }
  if (p >= 1.0) {
    return true;
  }
  return UniformDouble() < p;
}

}  // namespace crf
