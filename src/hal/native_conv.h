// Native-host convolution: the plan/execute split of the emulated ARM
// driver (armkern/conv_arm.h) served by the native GEMM. plan_native_conv
// prepacks the weights in the scheme's layout and resolves the {rb, cb}
// blocking (caller-provided — typically from TuningCache v3 — or a fresh
// measured-ns search); execute_native_conv gathers the input straight into
// the packed-B layout (fused im2col), multiplies, and scatters to NCHW,
// reporting real wall-clock nanoseconds where the ARM path reports modeled
// cycles. Bit-exact with ref::conv2d_s32 and the emulated GEMM rung for
// operands in the adjusted range.
#pragma once

#include <memory>

#include "common/conv_shape.h"
#include "common/status.h"
#include "common/tensor.h"
#include "hal/native_gemm.h"

namespace lbc {
class Workspace;
}  // namespace lbc

namespace lbc::hal {

/// Immutable compiled plan for one native conv layer. Safe to share across
/// threads; each executing worker brings its own Workspace.
struct NativeConvPlan {
  ConvShape shape;  ///< geometry as planned (batch may differ at execute)
  int bits = 8;
  NativeScheme scheme = NativeScheme::kDot;
  NativeBlocking blocking;
  NativePackedA packed_a;  ///< prepacked weights
  std::string backend_name;  ///< native_backend_name() at plan time

  i64 packed_weight_bytes() const { return packed_a.bytes(); }
  /// Exact Workspace bytes one execute at batch `batch` consumes.
  i64 workspace_bytes(i64 batch) const;
};

struct NativeConvResult {
  Tensor<i32> out;  ///< NCHW, 32-bit accumulators
  double ns = 0;    ///< measured wall clock: pack + GEMM + output scatter
  const char* kernel = "";  ///< native kernel that ran ("avx2-lut", ...)
};

/// Compile a native plan. `blocking == nullptr` runs the measured-ns
/// search (search_native_blocking); callers holding a TuningCache resolve
/// the blocking there first and pass it in. Errors: kInvalidArgument (bad
/// shape / bits / weight dims or out-of-range weight values);
/// kUnavailable when LBC_HAL_DISABLE=native opted this host out.
StatusOr<NativeConvPlan> plan_native_conv(const ConvShape& s,
                                          const Tensor<i8>& weight, int bits,
                                          const NativeBlocking* blocking =
                                              nullptr);

/// Execute the plan against `input` (batch may differ from the planned
/// batch). All scratch comes from `ws`, which is reset on entry.
StatusOr<NativeConvResult> execute_native_conv(const NativeConvPlan& plan,
                                               const Tensor<i8>& input,
                                               Workspace& ws);

}  // namespace lbc::hal
