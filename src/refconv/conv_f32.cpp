#include "refconv/conv_f32.h"

#include <algorithm>

#include "common/status.h"

namespace lbc::ref {
namespace {

// Output channels one input load serves.
constexpr i64 kOcBlock = 4;
// Output floats per (block, row tile): 16 KB, so the tile a tap sweeps
// stays L1-resident across the block's (ic, kh, kw) taps.
constexpr i64 kTileFloats = 4096;

// [lo, hi) of the outputs o in [0, out) whose input o * stride + tap - pad
// lies in [0, in).
struct Range {
  i64 lo, hi;
};
Range valid_outputs(i64 out, i64 in, i64 stride, i64 tap, i64 pad) {
  const i64 first = pad - tap;  // o * stride >= first
  const i64 last = in - 1 + pad - tap;  // o * stride <= last
  if (last < 0) return {0, 0};
  const i64 lo = first <= 0 ? 0 : (first + stride - 1) / stride;
  return {lo, std::min(out, last / stride + 1)};
}

// o[j][ow] += x[(ow - lo) * stride] * w[j] for j < B, ow in [lo, hi).
template <int B, bool kUnitStride>
void tap_row(float* const* o, const float* __restrict x, const float* w,
             i64 lo, i64 hi, i64 stride) {
  float* __restrict o0 = o[0];
  if constexpr (B == 1) {
    for (i64 ow = lo; ow < hi; ++ow) {
      const float xv = x[kUnitStride ? ow - lo : (ow - lo) * stride];
      o0[ow] += xv * w[0];
    }
  } else {
    float* __restrict o1 = o[1];
    float* __restrict o2 = o[2];
    float* __restrict o3 = o[3];
    for (i64 ow = lo; ow < hi; ++ow) {
      const float xv = x[kUnitStride ? ow - lo : (ow - lo) * stride];
      o0[ow] += xv * w[0];
      o1[ow] += xv * w[1];
      o2[ow] += xv * w[2];
      o3[ow] += xv * w[3];
    }
  }
}

// Output channels [oc0, oc0 + B) of batch item n.
template <int B, bool kUnitStride>
void conv_block(const ConvShape& s, const float* in, const float* wt,
                float* out, i64 n, i64 oc0) {
  static_assert(B == 1 || B == kOcBlock);
  const i64 oh_n = s.out_h(), ow_n = s.out_w();
  const i64 plane_in = s.in_h * s.in_w, plane_out = oh_n * ow_n;
  const i64 taps = s.kernel * s.kernel;
  const i64 rows = std::max<i64>(1, kTileFloats / (B * ow_n));
  float* planes[B];
  for (int j = 0; j < B; ++j)
    planes[j] = out + ((n * s.out_c) + oc0 + j) * plane_out;
  for (i64 oh0 = 0; oh0 < oh_n; oh0 += rows) {
    const i64 oh1 = std::min(oh_n, oh0 + rows);
    for (i64 ic = 0; ic < s.in_c; ++ic) {
      const float* x = in + (n * s.in_c + ic) * plane_in;
      for (i64 kh = 0; kh < s.kernel; ++kh) {
        const Range r = valid_outputs(oh_n, s.in_h, s.stride, kh, s.pad);
        const i64 oh_lo = std::max(r.lo, oh0), oh_hi = std::min(r.hi, oh1);
        for (i64 kw = 0; kw < s.kernel; ++kw) {
          const Range c = valid_outputs(ow_n, s.in_w, s.stride, kw, s.pad);
          if (c.lo >= c.hi) continue;
          float w[B];
          for (int j = 0; j < B; ++j)
            w[j] = wt[((oc0 + j) * s.in_c + ic) * taps + kh * s.kernel + kw];
          for (i64 oh = oh_lo; oh < oh_hi; ++oh) {
            const i64 ih = oh * s.stride + kh - s.pad;
            const i64 iw = c.lo * s.stride + kw - s.pad;
            float* o[B];
            for (int j = 0; j < B; ++j) o[j] = planes[j] + oh * ow_n;
            tap_row<B, kUnitStride>(o, x + ih * s.in_w + iw, w, c.lo, c.hi,
                                    s.stride);
          }
        }
      }
    }
  }
}

template <bool kUnitStride>
void conv_all(const ConvShape& s, const float* in, const float* wt,
              float* out) {
  const i64 full = s.out_c / kOcBlock * kOcBlock;
  for (i64 n = 0; n < s.batch; ++n) {
    for (i64 oc = 0; oc < full; oc += kOcBlock)
      conv_block<kOcBlock, kUnitStride>(s, in, wt, out, n, oc);
    for (i64 oc = full; oc < s.out_c; ++oc)
      conv_block<1, kUnitStride>(s, in, wt, out, n, oc);
  }
}

}  // namespace

Tensor<float> conv2d_f32_fast(const ConvShape& s, const Tensor<float>& input,
                              const Tensor<float>& weight) {
  LBC_CHECK_MSG(s.valid(), "conv2d: invalid conv shape");
  LBC_CHECK_MSG(input.shape() == (Shape4{s.batch, s.in_c, s.in_h, s.in_w}),
                "conv2d: input tensor does not match conv shape");
  LBC_CHECK_MSG(weight.shape() == (Shape4{s.out_c, s.in_c, s.kernel, s.kernel}),
                "conv2d: weight tensor does not match conv shape");
  Tensor<float> out(Shape4{s.batch, s.out_c, s.out_h(), s.out_w()}, 0.0f);
  if (s.stride == 1)
    conv_all<true>(s, input.data(), weight.data(), out.data());
  else
    conv_all<false>(s, input.data(), weight.data(), out.data());
  return out;
}

}  // namespace lbc::ref
