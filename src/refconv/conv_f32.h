// Fast fp32 direct convolution, bit-identical to ref::conv2d_f32.
//
// QnnGraph's fp32 pass (calibration and forward_fp32) runs this kernel;
// ref::conv2d_f32 stays as its test oracle. The loops run over
// (output-channel block, output-row tile, ic, kh, kw, oh, ow): each tap's
// in-bounds output range is computed once, so the inner loop is a
// branch-free multiply-add over one output row, with one input load
// serving the block's output channels.
//
// Rounding rule. Every output still starts at +0.0f and adds its taps in
// ascending (ic, kh, kw) order, skipping pad taps rather than adding 0 * w,
// exactly as the oracle's per-output loop does. Both files are compiled
// with -ffp-contract=off (src/refconv/CMakeLists.txt), so each product is
// rounded to float before its add on every target, FMA-capable or not.
// The two therefore produce the same bytes on every input.
#pragma once

#include "common/conv_shape.h"
#include "common/tensor.h"

namespace lbc::ref {

/// input:  [batch, in_c, in_h, in_w] fp32
/// weight: [out_c, in_c, k, k] fp32
/// returns [batch, out_c, out_h, out_w], memcmp-equal to conv2d_f32.
Tensor<float> conv2d_f32_fast(const ConvShape& s, const Tensor<float>& input,
                              const Tensor<float>& weight);

}  // namespace lbc::ref
