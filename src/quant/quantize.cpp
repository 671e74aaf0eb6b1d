#include "quant/quantize.h"

#include <cmath>
#include <cstdint>

#include "common/status.h"

namespace lbc::quant {

Tensor<i8> quantize(const Tensor<float>& x, const QScheme& s) {
  Tensor<i8> q(x.shape());
  auto xs = x.span();
  auto qs = q.span();
  const float inv = 1.0f / s.scale;
  for (size_t i = 0; i < xs.size(); ++i) {
    const i64 v = static_cast<i64>(std::lround(xs[i] * inv));
    qs[i] = clamp_to<i8>(v, s.qmin(), s.qmax());
  }
  return q;
}

Tensor<float> dequantize(const Tensor<i8>& q, const QScheme& s) {
  Tensor<float> x(q.shape());
  auto xs = x.span();
  auto qs = q.span();
  for (size_t i = 0; i < qs.size(); ++i)
    xs[i] = s.scale * static_cast<float>(qs[i]);
  return x;
}

StatusOr<std::vector<i32>> quantize_bias(std::span<const float> bias,
                                         i64 channels, const QScheme& in,
                                         const QScheme& weight, i64 depth) {
  std::vector<i32> q(static_cast<size_t>(channels), 0);
  if (bias.empty()) return q;
  LBC_VALIDATE(static_cast<i64>(bias.size()) == channels, kInvalidArgument,
               "quantize_bias: " << bias.size() << " biases for " << channels
                                 << " channels");
  const float acc_scale = in.scale * weight.scale;
  // Every term is an integer below 2^53, so the headroom test is exact.
  const double acc_bound = static_cast<double>(depth) * in.qmax() *
                           static_cast<double>(weight.qmax());
  const double limit = static_cast<double>(INT32_MAX) - acc_bound;
  for (size_t c = 0; c < bias.size(); ++c) {
    LBC_VALIDATE(std::isfinite(bias[c]), kInvalidArgument,
                 "quantize_bias: channel " << c << " bias is " << bias[c]);
    // std::round(double(x)) equals std::lround(x) wherever the latter is
    // defined, and stays defined for the values rejected below.
    const double v = std::round(static_cast<double>(bias[c] / acc_scale));
    LBC_VALIDATE(std::fabs(v) <= limit, kOutOfRange,
                 "quantize_bias: channel " << c << " bias " << bias[c]
                     << " is " << v << " accumulator steps; with |acc| <= "
                     << acc_bound << " the sum must fit in i32");
    q[c] = static_cast<i32>(v);
  }
  return q;
}

RequantParams make_requant(const QScheme& in, const QScheme& weight,
                           const QScheme& out, bool fused_relu) {
  RequantParams p;
  const double m = static_cast<double>(in.scale) *
                   static_cast<double>(weight.scale) /
                   static_cast<double>(out.scale);
  p.mult = make_multiplier(m);
  p.clamp = clamp_for(out.bits, fused_relu);
  return p;
}

i8 requantize_one(i32 acc, const RequantParams& p) {
  const i32 v = apply_multiplier(acc, p.mult);
  return clamp_to<i8>(v, p.clamp.lo, p.clamp.hi);
}

Tensor<i8> requantize(const Tensor<i32>& acc, std::span<const i32> bias,
                      const RequantParams& p) {
  const Shape4 sh = acc.shape();
  LBC_CHECK_MSG(static_cast<i64>(bias.size()) == sh.c,
                "requantize: bias size does not match channel count");
  Tensor<i8> out(sh);
  for (i64 n = 0; n < sh.n; ++n)
    for (i64 c = 0; c < sh.c; ++c)
      for (i64 h = 0; h < sh.h; ++h)
        for (i64 w = 0; w < sh.w; ++w)
          out.at(n, c, h, w) =
              requantize_one(acc.at(n, c, h, w) + bias[static_cast<size_t>(c)], p);
  return out;
}

Tensor<i8> relu_q(const Tensor<i8>& q) {
  Tensor<i8> out(q.shape());
  auto in = q.span();
  auto os = out.span();
  for (size_t i = 0; i < in.size(); ++i) os[i] = in[i] > 0 ? in[i] : i8{0};
  return out;
}

}  // namespace lbc::quant
