// Deterministic, splittable random number generation.
//
// Every stochastic component takes an explicit Rng. Streams are derived from
// a root seed with Fork(tag), so that e.g. each simulated machine gets an
// independent stream whose output does not depend on the order in which other
// machines are simulated. The generator is xoshiro256++ seeded via SplitMix64
// — fast and high quality. All distributions here are implemented from
// scratch (std::normal_distribution's output is implementation-defined).
//
// Reproducibility across hosts: the raw stream (NextUint64, UniformInt,
// UniformDouble, Uniform, Bernoulli) uses integer and correctly rounded IEEE
// arithmetic only, so it is the same bytes everywhere. Normal, LogNormal,
// Exponential, Poisson, BoundedPareto, Gamma, Beta and Geometric call libm
// (log, cos, exp, pow), whose last bits may differ between libm versions.
// The usage synthesizer, which draws almost all of a trace's random numbers,
// takes its normals from ZigguratNormal (crf/util/portable_math.h) instead,
// which is libm-free.

#ifndef CRF_UTIL_RNG_H_
#define CRF_UTIL_RNG_H_

#include <array>
#include <cstdint>

namespace crf {

// SplitMix64 step; used for seeding and for hashing stream tags.
uint64_t SplitMix64(uint64_t& state);

class Rng {
 public:
  explicit Rng(uint64_t seed);

  // Returns a generator whose stream is a pure function of (this seed, tag):
  // forking with the same tag twice yields identical streams, and streams
  // with different tags are statistically independent.
  Rng Fork(uint64_t tag) const;

  // Uniform on [0, 2^64). Inline: the usage synthesizer's ziggurat draws
  // one per normal on its fast path.
  uint64_t NextUint64() {
    const uint64_t result = Rotl(state_[0] + state_[3], 23) + state_[0];
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  // Uniform on [0, n). Requires n > 0.
  uint64_t UniformInt(uint64_t n);

  // Uniform on [0, 1).
  double UniformDouble();

  // Uniform on [lo, hi).
  double Uniform(double lo, double hi);

  // Standard normal via Box-Muller (deterministic, no cached spare).
  double Normal();
  double Normal(double mean, double stddev);

  // exp(Normal(mu, sigma)): log-normal with the given log-space parameters.
  double LogNormal(double mu, double sigma);

  // Exponential with the given mean. Requires mean > 0.
  double Exponential(double mean);

  // Poisson-distributed count with the given mean (Knuth for small means,
  // normal approximation above 64).
  int Poisson(double mean);

  // Bounded Pareto on [lo, hi] with shape alpha (heavy-tailed runtimes).
  double BoundedPareto(double lo, double hi, double alpha);

  // Gamma(shape, 1) via Marsaglia-Tsang. Requires shape > 0.
  double Gamma(double shape);

  // Beta(a, b) on (0, 1) via two Gamma draws. Requires a, b > 0.
  double Beta(double a, double b);

  // Geometric number of trials until first success (support {1, 2, ...})
  // with success probability p in (0, 1]; mean 1/p.
  int Geometric(double p);

  // True with probability p (clamped to [0, 1]).
  bool Bernoulli(double p);

  uint64_t seed() const { return seed_; }

 private:
  Rng(uint64_t seed, std::array<uint64_t, 4> state);

  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  uint64_t seed_;
  std::array<uint64_t, 4> state_;
};

}  // namespace crf

#endif  // CRF_UTIL_RNG_H_
