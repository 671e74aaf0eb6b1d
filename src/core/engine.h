// Public convolution engine API — the layer a downstream user programs
// against. Wraps backend selection (simulated ARM Cortex-A53 or simulated
// TU102 GPU), implementation selection (ours vs the paper's baselines), and
// the full quantized layer flow (quantize -> conv -> re-quantize ->
// dequantize) behind one class.
//
// Error contract: every entry point validates its inputs and returns
// Status/StatusOr instead of asserting, so invalid shapes, unsupported bit
// widths, or use-before-set_weights surface as typed errors in release
// builds. Ineligible impl/algo requests do not error — they degrade along
// the kernel fallback ladder (specialized -> GEMM -> reference) and the
// degradation is recorded in the result's FallbackRecord.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "armkern/conv_arm.h"
#include "common/fallback.h"
#include "common/status.h"
#include "common/workspace.h"
#include "gpukern/baselines.h"
#include "gpukern/fusion.h"
#include "nets/nets.h"
#include "quant/quantize.h"

namespace lbc::core {

class ConvPlan;      // core/conv_plan.h
struct GpuConvPlan;  // core/conv_plan.h

/// Execution backend of a layer. kArmCortexA53 and kGpuTU102 report
/// modeled cycles/seconds; kNativeHost executes real instructions on this
/// machine (hal/, AVX2 or scalar) and reports measured wall-clock time;
/// hal::native_backend_name() names its kernel family.
enum class Backend { kArmCortexA53, kGpuTU102, kNativeHost };

/// Stable name for run reports ("arm-a53", "gpu-tu102", "native-host").
const char* backend_name(Backend b);

/// Which ARM implementation executes a layer.
enum class ArmImpl {
  kOurs,
  kNcnn8bit,
  kTvmBitserial,
  kTraditionalGemm,
  kSdotExt,  ///< ARMv8.2 SDOT kernel (extension; see bench/ext_sdot_arm)
  kTblLut,   ///< TBL lookup-table scheme, 2-3 bit (DESIGN.md Sec. 16)
};

/// Which GPU implementation executes a layer.
enum class GpuImpl { kOurs, kOursDefaultTiling, kCudnnDp4a, kTensorRT };

/// Stable names for run reports.
const char* arm_impl_name(ArmImpl impl);
const char* gpu_impl_name(GpuImpl impl);

struct ArmLayerResult {
  Tensor<i32> out;
  double seconds = 0;
  double cycles = 0;
  /// Measured wall-clock nanoseconds of the conv (native backend only;
  /// 0 on the modeled paths, whose `cycles` column is the timing source).
  double measured_ns = 0;
  armsim::Counters counts;
  armkern::SpaceReport space;
  std::string executed_algo;  ///< kernel rung that produced `out`
  FallbackRecord fallback;    ///< set when the request was degraded
};

/// Run one quantized convolution on the ARM backend (functional + timed).
/// `algo` kAuto picks winograd for eligible 4-6-bit layers. Ineligible
/// impl/algo requests degrade (specialized -> GEMM -> reference) and the
/// executed rung + reason land in the result; invalid shapes/bits/dims
/// return kInvalidArgument.
///
/// One-shot convenience over the plan/execute split (core/conv_plan.h):
/// compiles a ConvPlan and executes it once against a throwaway Workspace.
/// A plan-compile fault (plan.compile_fail) plans the reference rung.
/// Callers running the same layer repeatedly should hold a ConvPlan.
StatusOr<ArmLayerResult> run_arm_conv(
    const ConvShape& s, const Tensor<i8>& input, const Tensor<i8>& weight,
    int bits, ArmImpl impl = ArmImpl::kOurs,
    armkern::ConvAlgo algo = armkern::ConvAlgo::kGemm, int threads = 1);

/// Result of core::execute_arm_conv_batched (core/conv_plan.h).
struct BatchedArmResult {
  std::vector<Tensor<i32>> outputs;  ///< one batch-1 NCHW tensor per input
  double seconds = 0;   ///< modeled time of the single batched conv
  double cycles = 0;
  double measured_ns = 0;  ///< wall-clock ns (native backend only)
  std::string executed_algo;
  FallbackRecord fallback;
};

struct GpuLayerResult {
  gpusim::KernelCost cost;
  double seconds = 0;
  gpukern::Tiling tiling;
  FallbackRecord fallback;  ///< autotune degradation, when it occurred
};

/// Time one convolution kernel on the GPU backend (cost model only; the
/// functional executor is exercised via gpukern::conv2d directly).
/// Invalid shapes or bit widths return kInvalidArgument.
StatusOr<GpuLayerResult> time_gpu_conv(const gpusim::DeviceSpec& dev,
                                       const ConvShape& s, int bits,
                                       GpuImpl impl);

/// High-level quantized convolution layer: owns quantized weights and
/// schemes, runs fp32 -> fp32 with the full quantize/conv/requant/dequant
/// chain on the selected backend. This is the quickstart-facing API.
class QuantizedConv2d {
 public:
  /// Construction never aborts; an invalid shape/bits/backend combination
  /// is held in init_status() and poisons set_weights()/forward().
  QuantizedConv2d(ConvShape shape, int bits, Backend backend);

  const Status& init_status() const { return init_status_; }

  /// Quantize and store weights (+ optional bias), then compile the conv
  /// plan for the backend (weight prepack / tiling resolution happens here,
  /// once — forward() only executes). A compile fault degrades inside
  /// planning; forward() reports it in last_fallback(). Must be called once
  /// before forward(). Rejects mismatched dims.
  Status set_weights(const Tensor<float>& w, std::span<const float> bias = {});

  /// Full forward pass. Records the modeled execution time of the conv.
  /// kFailedPrecondition before set_weights(); kInvalidArgument on an
  /// input tensor that does not match the layer shape.
  StatusOr<Tensor<float>> forward(const Tensor<float>& x);

  double last_seconds() const { return last_seconds_; }
  /// Fallback record of the last forward's conv (empty if none fired).
  const FallbackRecord& last_fallback() const { return last_fallback_; }
  int bits() const { return bits_; }
  const ConvShape& shape() const { return shape_; }

 private:
  ConvShape shape_;
  int bits_;
  Backend backend_;
  Status init_status_;
  quant::QScheme w_scheme_;
  Tensor<i8> w_q_;
  std::vector<float> bias_f_;
  bool has_weights_ = false;
  double last_seconds_ = 0;
  FallbackRecord last_fallback_;
  // Compiled at set_weights(); shared_ptr so the header only needs the
  // forward declarations above. Exactly one is non-null once set_weights()
  // succeeds: plan_ on the CPU backends, gpu_plan_ on the GPU.
  std::shared_ptr<const ConvPlan> plan_;
  std::shared_ptr<const GpuConvPlan> gpu_plan_;
  Workspace ws_;  ///< activation scratch reused across forward() calls
};

}  // namespace lbc::core
