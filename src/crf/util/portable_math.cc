#include "crf/util/portable_math.h"

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

// The polynomial coefficients below are the minimax sets of Sun's fdlibm
// (e_exp.c, e_log.c, k_sin.c, k_cos.c); the reductions around them are
// written for this file. Rounding to an integer uses the 1.5 * 2^52 shift,
// which is exact under round-to-nearest and needs no libm call.

namespace crf {
namespace {

constexpr double kRoundShift = 0x1.8p52;

constexpr double kLn2Hi = 6.93147180369123816490e-01;  // low 32 bits zero
constexpr double kLn2Lo = 1.90821492927058770002e-10;
constexpr double kInvLn2 = 1.44269504088896338700e+00;

// e^x for x in (-708, 709]. Branch-free, so the batch form vectorizes.
double ExpInRange(double x) {
  // x = k ln2 + r with |r| <= ln2 / 2; k * kLn2Hi is exact for |k| < 2^20.
  const double shifted = x * kInvLn2 + kRoundShift;
  const double k = shifted - kRoundShift;
  const double hi = x - k * kLn2Hi;
  const double lo = k * kLn2Lo;
  const double r = hi - lo;
  // e^r = 1 + r + r c / (2 - c) with c = r - r^2 P(r^2), fdlibm's rational
  // form, which keeps the rounding error of the sum below an ulp.
  constexpr double kP1 = 1.66666666666666019037e-01;
  constexpr double kP2 = -2.77777777770155933842e-03;
  constexpr double kP3 = 6.61375632143793436117e-05;
  constexpr double kP4 = -1.65339022054652515390e-06;
  constexpr double kP5 = 4.13813679705723846039e-08;
  const double r2 = r * r;
  const double c = r - r2 * (kP1 + r2 * (kP2 + r2 * (kP3 + r2 * (kP4 + r2 * kP5))));
  const double y = 1.0 - ((lo - (r * c) / (2.0 - c)) - hi);
  // The low bits of `shifted` hold k in two's complement, so adding the
  // exponent bias and shifting it into the exponent field builds 2^k
  // (k is in [-1021, 1023] here).
  const uint64_t scale = (std::bit_cast<uint64_t>(shifted) + 1023) << 52;
  return y * std::bit_cast<double>(scale);
}

bool ExpInRangeDomain(double x) { return x > -708.0 && x <= 709.0; }

// sin(x) for |x| <= pi/4.
double SinKernel(double x) {
  constexpr double kS1 = -1.66666666666666324348e-01;
  constexpr double kS2 = 8.33333333332248946124e-03;
  constexpr double kS3 = -1.98412698298579493134e-04;
  constexpr double kS4 = 2.75573137070700676789e-06;
  constexpr double kS5 = -2.50507602534068634195e-08;
  constexpr double kS6 = 1.58969099521155010221e-10;
  const double z = x * x;
  const double v = z * x;
  const double r = kS2 + z * (kS3 + z * (kS4 + z * (kS5 + z * kS6)));
  return x + v * (kS1 + z * r);
}

// cos(x) for 0 <= x <= pi/4.
double CosKernel(double x) {
  constexpr double kC1 = 4.16666666666666019037e-02;
  constexpr double kC2 = -1.38888888888741095749e-03;
  constexpr double kC3 = 2.48015872894767294178e-05;
  constexpr double kC4 = -2.75573143513906633035e-07;
  constexpr double kC5 = 2.08757232129817482790e-09;
  constexpr double kC6 = -1.13596475577881948265e-11;
  const double z = x * x;
  const double r = z * (kC1 + z * (kC2 + z * (kC3 + z * (kC4 + z * (kC5 + z * kC6)))));
  if (x < 0.3) {
    return 1.0 - (0.5 * z - z * r);
  }
  // Split 1 - z/2 as (1 - qx) - (z/2 - qx) with qx ~ x/4 truncated to 21
  // mantissa bits, so that 1 - qx is exact and the rounding error of the
  // large subtraction stays below half an ulp.
  const double qx = x > 0.78125 ? 0.28125
                                : std::bit_cast<double>((std::bit_cast<uint64_t>(x) - (2ULL << 52)) &
                                                        0xffffffff00000000ULL);
  const double hz = 0.5 * z - qx;
  const double a = 1.0 - qx;
  return a - (hz - z * r);
}

// 128-layer ziggurat for the half-normal density f(x) = exp(-x^2 / 2).
// Layer i in [1, 127] is the rectangle [0, x[i]] x [f[i], f[i+1]]; layer 0
// is the base strip [0, R] x [0, f(R)] plus the tail beyond R, whose total
// area V every layer shares. x[0] = V / f(R) is the base strip's virtual
// width, so a uniform draw on [0, x[0]) lands in the tail with exactly the
// tail's share of the base layer's area.
constexpr int kLayers = 128;
constexpr double kTailStart = 3.442619855899;     // R
constexpr double kLayerArea = 9.91256303526217e-3;  // V

struct ZigguratTables {
  std::array<double, kLayers + 1> x;
  std::array<double, kLayers + 1> f;
};

ZigguratTables BuildZigguratTables() {
  ZigguratTables t;
  t.f[1] = PortableExp(-0.5 * kTailStart * kTailStart);
  t.x[1] = kTailStart;
  t.x[0] = kLayerArea / t.f[1];
  t.f[0] = 0.0;
  for (int i = 1; i < kLayers - 1; ++i) {
    // x[i] * (f[i+1] - f[i]) = V.
    const double height = kLayerArea / t.x[i] + t.f[i];
    t.x[i + 1] = std::sqrt(-2.0 * PortableLog(height));
    t.f[i + 1] = PortableExp(-0.5 * t.x[i + 1] * t.x[i + 1]);
  }
  t.x[kLayers] = 0.0;
  t.f[kLayers] = 1.0;
  return t;
}

const ZigguratTables kZiggurat = BuildZigguratTables();

// A uniform in (0, 1], safe to take the log of.
double OpenUniform(Rng& rng) { return 1.0 - rng.UniformDouble(); }

}  // namespace

double PortableExp(double x) {
  if (ExpInRangeDomain(x)) {
    return ExpInRange(x);
  }
  if (x > 709.0) {
    return std::numeric_limits<double>::infinity();
  }
  return x == x ? 0.0 : x;  // x <= -708, or NaN
}

double PortableLog(double x) {
  // x = 2^k (1 + f) with sqrt(2)/2 <= 1 + f < sqrt(2).
  const uint64_t bits = std::bit_cast<uint64_t>(x);
  int64_t k = static_cast<int64_t>(bits >> 52) - 1023;
  double m = std::bit_cast<double>((bits & ((1ULL << 52) - 1)) | (1023ULL << 52));
  if (m > 0x1.6a09e667f3bcdp0) {
    m *= 0.5;
    ++k;
  }
  const double f = m - 1.0;  // exact (Sterbenz)
  constexpr double kLg1 = 6.666666666666735130e-01;
  constexpr double kLg2 = 3.999999999940941908e-01;
  constexpr double kLg3 = 2.857142874366239149e-01;
  constexpr double kLg4 = 2.222219843214978396e-01;
  constexpr double kLg5 = 1.818357216161805012e-01;
  constexpr double kLg6 = 1.531383769920937332e-01;
  constexpr double kLg7 = 1.479819860511658591e-01;
  const double s = f / (2.0 + f);
  const double z = s * s;
  const double w = z * z;
  const double t1 = w * (kLg2 + w * (kLg4 + w * kLg6));
  const double t2 = z * (kLg1 + w * (kLg3 + w * (kLg5 + w * kLg7)));
  const double r = t2 + t1;
  const double hfsq = 0.5 * f * f;
  const double dk = static_cast<double>(k);
  return dk * kLn2Hi - ((hfsq - (s * (hfsq + r) + dk * kLn2Lo)) - f);
}

double SinTurns(double turns) {
  if (!(std::fabs(turns) < 0x1p51)) {
    // Every double this large is a multiple of a half turn; inf and NaN
    // give NaN.
    return turns - turns;
  }
  // r = turns minus the nearest integer, exactly, in [-1/2, 1/2].
  const double r = turns - ((turns + kRoundShift) - kRoundShift);
  double a = std::fabs(r);
  if (a > 0.25) {
    a = 0.5 - a;  // sin(pi - t) = sin(t); exact for a in [1/4, 1/2]
  }
  constexpr double kTwoPi = 6.28318530717958647692;
  const double s = a <= 0.125 ? SinKernel(kTwoPi * a) : CosKernel(kTwoPi * (0.25 - a));
  return r < 0.0 ? -s : s;
}

namespace {

// Bits 0-6 of a draw pick the layer, bit 7 the sign, bits 11-63 the
// abscissa. The sign is applied without a branch: it is a coin flip, which a
// branch predictor can only guess.
double WithSign(double x, uint64_t bits) {
  return std::bit_cast<double>(std::bit_cast<uint64_t>(x) | ((bits & kLayers) << 56));
}

double Abscissa(uint64_t bits) {
  const double u = static_cast<double>(static_cast<int64_t>(bits >> 11)) * 0x1.0p-53;
  return u * kZiggurat.x[bits & (kLayers - 1)];
}

// The slow path of ZigguratNormal once `bits` fell outside its layer's
// core rectangle: sample the tail (layer 0) or test the wedge, and on
// rejection start over with a new draw.
[[gnu::noinline]] double ZigguratOutsideCore(Rng& rng, uint64_t bits) {
  const ZigguratTables& t = kZiggurat;
  for (;;) {
    const int i = static_cast<int>(bits & (kLayers - 1));
    const double x = Abscissa(bits);
    if (x < t.x[i + 1]) {
      return WithSign(x, bits);
    }
    if (i == 0) {
      // Marsaglia's tail method on x > R.
      double a;
      double b;
      do {
        a = -PortableLog(OpenUniform(rng)) / kTailStart;
        b = -PortableLog(OpenUniform(rng));
      } while (b + b < a * a);
      return WithSign(kTailStart + a, bits);
    }
    // Wedge: accept if a uniform height in the layer falls under f(x).
    const double y = t.f[i] + rng.UniformDouble() * (t.f[i + 1] - t.f[i]);
    if (y < PortableExp(-0.5 * x * x)) {
      return WithSign(x, bits);
    }
    bits = rng.NextUint64();
  }
}

}  // namespace

double ZigguratNormal(Rng& rng) {
  const uint64_t bits = rng.NextUint64();
  const double x = Abscissa(bits);
  if (x < kZiggurat.x[(bits & (kLayers - 1)) + 1]) {
    return WithSign(x, bits);  // inside the layer's core rectangle
  }
  return ZigguratOutsideCore(rng, bits);
}

void PortableExpInPlace(std::span<double> values) {
  bool in_domain = true;
  for (const double v : values) {
    in_domain &= ExpInRangeDomain(v);
  }
  if (!in_domain) {
    for (double& v : values) {
      v = PortableExp(v);
    }
    return;
  }
  for (double& v : values) {
    v = ExpInRange(v);
  }
}

}  // namespace crf
