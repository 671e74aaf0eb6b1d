// Symmetric linear quantization scheme, as used by the paper's QNNs
// (DSQ / LSQ-style linear quantization; Sec. 2.1 and 5.1).
//
// real = scale * q, with q an integer in the adjusted symmetric range
// [-(2^(b-1)-1), +(2^(b-1)-1)]. The range adjustment (dropping -2^(b-1))
// is exactly what makes the paper's SMLAL/MLA accumulation ratios safe.
#pragma once

#include <span>

#include "common/status.h"
#include "common/types.h"

namespace lbc::quant {

struct QScheme {
  float scale = 1.0f;
  int bits = 8;

  i32 qmin() const { return qmin_for_bits(bits); }
  i32 qmax() const { return qmax_for_bits(bits); }
};

/// Largest |v| over `values` (0 when empty), or NaN when any value is NaN —
/// std::max would drop it — so choose_scheme rejects the values instead of
/// scaling around the NaN. An infinite value gives +inf, rejected likewise.
float absmax(std::span<const float> values);

/// Choose a scale so that |real| <= absmax maps onto the full b-bit range.
/// Rejects bits outside [2, 8] and non-finite/negative absmax — the checks
/// survive release builds (callers with known-valid constants use .value()).
StatusOr<QScheme> choose_scheme(float absmax, int bits);

/// Fixed-point requantization multiplier: represents a positive real
/// multiplier m as m ~= mult * 2^-shift with mult a normalized i32 in
/// [2^30, 2^31). This is the standard integer-only requantization used by
/// gemmlowp/QNNPACK and matches what the paper's "re-quantization on
/// registers" (Sec. 4.3) computes.
struct FixedPointMultiplier {
  i32 mult = 0;
  int shift = 0;  ///< right shift applied after the high multiply
};

FixedPointMultiplier make_multiplier(double m);

/// Rounding-to-nearest (ties away from zero) application of the multiplier
/// to an i32 accumulator. Pure 64-bit integer arithmetic: bit-exact across
/// platforms, exactly reproducible on device.
i32 apply_multiplier(i32 acc, FixedPointMultiplier m);

/// Output clamp range of a requantization, before/after ReLU fusion.
/// Fusing ReLU into the convolution only changes the truncation range
/// (paper Sec. 4.4: "changing the truncated range of re-quantization").
struct ClampRange {
  i32 lo = 0, hi = 0;
};

ClampRange clamp_for(int bits, bool fused_relu);

}  // namespace lbc::quant
