// Tensor-level quantize / dequantize / requantize operators.
//
// These are the "extra layers" the paper's QNN pipeline puts around each
// convolution (Sec. 4.4): quantization -> convolution (+re-quantization) ->
// dequantization -> quantization -> ReLU -> dequantization. The GPU backend
// fuses subsets of this chain; the reference implementations here are the
// oracles the fused kernels are tested against.
#pragma once

#include <vector>

#include "common/tensor.h"
#include "quant/qscheme.h"

namespace lbc::quant {

/// round-to-nearest quantization of real values onto the b-bit grid.
Tensor<i8> quantize(const Tensor<float>& x, const QScheme& s);

/// real = scale * q.
Tensor<float> dequantize(const Tensor<i8>& q, const QScheme& s);

/// Requantize int32 convolution accumulators back to a b-bit activation:
/// out_q = clamp(round(acc * (s_in*s_w/s_out)) + bias_q). Bias is folded in
/// int32 domain (one bias per output channel), exactly as the GPU kernel's
/// in-place epilogue does (Sec. 4.3).
struct RequantParams {
  FixedPointMultiplier mult;  ///< s_in * s_w / s_out as fixed point
  ClampRange clamp;
};

RequantParams make_requant(const QScheme& in, const QScheme& weight,
                           const QScheme& out, bool fused_relu);

/// Per-output-channel biases folded into the i32 accumulator domain:
/// bias_q = round(bias / (in.scale * weight.scale)), ties away from zero,
/// zero-filled to `channels` entries when `bias` is empty. `depth` is the
/// GEMM depth K, which bounds |acc| by K * qmax(in) * qmax(weight); a bias
/// whose |bias_q| plus that bound does not fit in i32 is kOutOfRange, since
/// the epilogue's acc + bias_q must not wrap. A non-finite bias is
/// kInvalidArgument.
StatusOr<std::vector<i32>> quantize_bias(std::span<const float> bias,
                                         i64 channels, const QScheme& in,
                                         const QScheme& weight, i64 depth);

/// Scalar requantize of one accumulator (already bias-added).
i8 requantize_one(i32 acc, const RequantParams& p);

/// Whole-tensor requantize: acc laid out NCHW, bias indexed by channel.
Tensor<i8> requantize(const Tensor<i32>& acc, std::span<const i32> bias,
                      const RequantParams& p);

/// ReLU on quantized values (zero-point is 0 under symmetric quantization).
Tensor<i8> relu_q(const Tensor<i8>& q);

}  // namespace lbc::quant
