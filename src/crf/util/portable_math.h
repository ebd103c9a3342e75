// Host-independent elementary functions and a ziggurat normal sampler.
//
// The usage synthesizer (crf/trace/workload_model) draws millions of
// normals and exponentials per simulated day. Through libm those cost a
// `log`, a `cos` and an `exp` per lognormal draw, and their last bits depend
// on the host's libm. The kernels here use only IEEE-754 +, -, *, / and
// sqrt, which are correctly rounded everywhere, so their results are the
// same bytes on every conforming host. portable_math.cc is compiled with
// -ffp-contract=off: a fused multiply-add would round differently, so no
// compiler may contract these expressions (nor any that feeds them; the
// synthesizer's own source carries the same flag).
//
// Accuracy (tests/portable_math_test.cc checks each bound against libm):
//   PortableExp  within 1 ulp of libm exp on [-708, 709];
//   PortableLog  within 1 ulp of libm log on positive normal numbers;
//   SinTurns     within 2 ulp of sin(2*pi*turns) evaluated in long double.
// Rng::Normal and the other Rng distributions keep using libm; only the
// usage synthesizer's stream goes through this file.

#ifndef CRF_UTIL_PORTABLE_MATH_H_
#define CRF_UTIL_PORTABLE_MATH_H_

#include <span>

#include "crf/util/rng.h"

namespace crf {

// e^x. Returns 0 for x <= -708 (results at the edge of the subnormal range
// are flushed to zero) and +inf for x > 709; NaN passes through.
double PortableExp(double x);

// Natural logarithm of a positive normal number (the ziggurat's tail feeds
// it uniforms in [2^-53, 1]). Zero, negative, subnormal and non-finite
// inputs are outside its domain.
double PortableLog(double x);

// sin(2 * pi * turns). The argument is reduced in turns, which is exact, so
// large day counts lose no accuracy the way sin(2 * pi * x) does once 2*pi*x
// has been rounded.
double SinTurns(double turns);

// A standard normal from a 128-layer ziggurat (Marsaglia & Tsang, 2000) on
// `rng`. One NextUint64 per draw on the ~99% fast path; the wedge and tail
// fall back to PortableExp/PortableLog. A different stream than
// Rng::Normal's Box-Muller.
double ZigguratNormal(Rng& rng);

// values[k] = PortableExp(values[k]). When every value is in (-708, 709],
// which the synthesizer's jitter exponents always are, one branch-free loop
// runs that the compiler vectorizes.
void PortableExpInPlace(std::span<double> values);

}  // namespace crf

#endif  // CRF_UTIL_PORTABLE_MATH_H_
