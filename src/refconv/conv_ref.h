// Direct (definition-based) convolution in int32 and fp32.
//
// This is the oracle every optimized kernel in the repository is tested
// against: the paper's correctness claim is "our optimized low-bit
// convolution kernels guarantee the same results as 32-bit computation"
// (Sec. 5.1), i.e. bit-exact equality with this function on quantized data.
#pragma once

#include "common/conv_shape.h"
#include "common/tensor.h"

namespace lbc::ref {

/// input:  [batch, in_c, in_h, in_w] int8 (quantized)
/// weight: [out_c, in_c, k, k] int8 (quantized)
/// returns [batch, out_c, out_h, out_w] int32 accumulators.
Tensor<i32> conv2d_s32(const ConvShape& s, const Tensor<i8>& input,
                       const Tensor<i8>& weight);

/// fp32 direct convolution: the test oracle of conv2d_f32_fast
/// (refconv/conv_f32.h), which QnnGraph's fp32 pass runs. Built with
/// -ffp-contract=off, so each product rounds to float before its add.
Tensor<float> conv2d_f32(const ConvShape& s, const Tensor<float>& input,
                         const Tensor<float>& weight);

}  // namespace lbc::ref
