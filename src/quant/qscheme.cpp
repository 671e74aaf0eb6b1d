#include "quant/qscheme.h"

#include <algorithm>
#include <cmath>

namespace lbc::quant {

float absmax(std::span<const float> values) {
  float m = 0;
  for (const float v : values) {
    if (std::isnan(v)) return v;
    m = std::max(m, std::fabs(v));
  }
  return m;
}

StatusOr<QScheme> choose_scheme(float absmax, int bits) {
  LBC_VALIDATE(bits >= 2 && bits <= 8, kInvalidArgument,
               "quantization bits must be in [2, 8], got " << bits);
  LBC_VALIDATE(std::isfinite(absmax) && absmax >= 0.0f, kInvalidArgument,
               "absmax must be finite and non-negative, got " << absmax);
  QScheme s;
  s.bits = bits;
  const float qmax = static_cast<float>(qmax_for_bits(bits));
  s.scale = (absmax > 0.0f) ? absmax / qmax : 1.0f;
  return s;
}

FixedPointMultiplier make_multiplier(double m) {
  LBC_CHECK_MSG(m > 0.0, "requant multiplier must be positive");
  FixedPointMultiplier fp;
  // Normalize m into [0.5, 1) * 2^exp, then fix mult = round(m_frac * 2^31).
  int exp = 0;
  const double frac = std::frexp(m, &exp);
  i64 q = static_cast<i64>(std::llround(frac * (1LL << 31)));
  if (q == (1LL << 31)) {  // frexp can round up to exactly 1.0
    q /= 2;
    ++exp;
  }
  fp.mult = static_cast<i32>(q);
  fp.shift = 31 - exp;
  LBC_CHECK_MSG(fp.shift >= 0, "requantization multipliers are always < 1 here");
  return fp;
}

i32 apply_multiplier(i32 acc, FixedPointMultiplier m) {
  // mult is the Q(shift) representation of the real multiplier
  // (m_real ~= mult / 2^shift with mult in [2^30, 2^31)), so
  // result = round(acc * mult / 2^shift), ties away from zero.
  // acc*mult fits in 62 bits, so one 64-bit rounded shift is exact.
  const i64 prod = static_cast<i64>(acc) * static_cast<i64>(m.mult);
  if (m.shift == 0) return static_cast<i32>(prod);
  const i64 round = i64{1} << (m.shift - 1);
  const i64 v = (prod >= 0) ? ((prod + round) >> m.shift)
                            : -((-prod + round) >> m.shift);
  return static_cast<i32>(v);
}

ClampRange clamp_for(int bits, bool fused_relu) {
  ClampRange r;
  r.hi = qmax_for_bits(bits);
  r.lo = fused_relu ? 0 : qmin_for_bits(bits);
  return r;
}

}  // namespace lbc::quant
