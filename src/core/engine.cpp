#include "core/engine.h"

#include <cmath>
#include <sstream>

#include "core/conv_plan.h"

namespace lbc::core {

namespace {

std::string shape4_str(const Shape4& sh) {
  std::ostringstream os;
  os << sh.n << 'x' << sh.c << 'x' << sh.h << 'x' << sh.w;
  return os.str();
}

}  // namespace

const char* backend_name(Backend b) {
  switch (b) {
    case Backend::kArmCortexA53: return "arm-a53";
    case Backend::kGpuTU102: return "gpu-tu102";
    case Backend::kNativeHost: return "native-host";
  }
  return "unknown";
}

const char* arm_impl_name(ArmImpl impl) {
  switch (impl) {
    case ArmImpl::kOurs: return "ours";
    case ArmImpl::kNcnn8bit: return "ncnn-8bit";
    case ArmImpl::kTvmBitserial: return "tvm-bitserial";
    case ArmImpl::kTraditionalGemm: return "traditional-gemm";
    case ArmImpl::kSdotExt: return "sdot-ext";
    case ArmImpl::kTblLut: return "tbl-lut";
  }
  return "unknown";
}

const char* gpu_impl_name(GpuImpl impl) {
  switch (impl) {
    case GpuImpl::kOurs: return "ours";
    case GpuImpl::kOursDefaultTiling: return "ours-default-tiling";
    case GpuImpl::kCudnnDp4a: return "cudnn-dp4a";
    case GpuImpl::kTensorRT: return "tensorrt";
  }
  return "unknown";
}

StatusOr<ArmLayerResult> run_arm_conv(const ConvShape& s,
                                      const Tensor<i8>& input,
                                      const Tensor<i8>& weight, int bits,
                                      ArmImpl impl, armkern::ConvAlgo algo,
                                      int threads) {
  LBC_ASSIGN_OR_RETURN(const ConvPlan plan,
                       plan_arm_conv(s, weight, bits, impl, algo, threads));
  Workspace ws;
  return execute_arm_conv(plan, input, ws);
}

StatusOr<GpuLayerResult> time_gpu_conv(const gpusim::DeviceSpec& dev,
                                       const ConvShape& s, int bits,
                                       GpuImpl impl) {
  LBC_ASSIGN_OR_RETURN(const GpuConvPlan plan,
                       plan_gpu_conv(dev, s, bits, impl));
  return execute_gpu_conv(plan);
}

QuantizedConv2d::QuantizedConv2d(ConvShape shape, int bits, Backend backend)
    : shape_(std::move(shape)), bits_(bits), backend_(backend) {
  init_status_ = [&]() -> Status {
    LBC_VALIDATE(shape_.valid(), kInvalidArgument,
                 "invalid conv shape: " << describe(shape_));
    LBC_VALIDATE(bits_ >= 2 && bits_ <= 8, kInvalidArgument,
                 "bits must be in [2, 8], got " << bits_);
    LBC_VALIDATE(backend_ != Backend::kGpuTU102 || bits_ == 4 || bits_ == 8,
                 kInvalidArgument,
                 "GPU backend supports 4- or 8-bit, got " << bits_);
    return Status();
  }();
}

Status QuantizedConv2d::set_weights(const Tensor<float>& w,
                                    std::span<const float> bias) {
  LBC_RETURN_IF_ERROR(Status(init_status_));
  const Shape4 want{shape_.out_c, shape_.in_c, shape_.kernel, shape_.kernel};
  LBC_VALIDATE(w.shape() == want, kInvalidArgument,
               "weight tensor is " << shape4_str(w.shape())
                                   << " but the layer needs "
                                   << shape4_str(want));
  LBC_VALIDATE(bias.empty() || static_cast<i64>(bias.size()) == shape_.out_c,
               kInvalidArgument,
               "bias has " << bias.size() << " entries, expected "
                           << shape_.out_c);
  LBC_VALIDATE(std::isfinite(quant::absmax(bias)), kInvalidArgument,
               "bias has a non-finite entry");
  LBC_ASSIGN_OR_RETURN(w_scheme_,
                       quant::choose_scheme(quant::absmax(w.span()), bits_));
  w_q_ = quant::quantize(w, w_scheme_);
  // Bias is folded in the int32 accumulator domain at scale s_in * s_w;
  // the exact values are filled per-forward once the input scale is known.
  bias_f_.assign(bias.begin(), bias.end());
  has_weights_ = false;  // forward() needs the plan compiled below

  // Compile the conv plan now: the fallback ladder resolves and the
  // weights prepack (ARM) / the tiling autotune and offset precomp (GPU)
  // happen once here instead of on every forward(). A compile fault, or a
  // native host with no usable native backend, degrades inside planning.
  if (backend_ == Backend::kGpuTU102) {
    LBC_ASSIGN_OR_RETURN(GpuConvPlan p,
                         plan_gpu_conv(gpusim::DeviceSpec::rtx2080ti(),
                                       shape_, bits_, GpuImpl::kOurs));
    gpu_plan_ = std::make_shared<const GpuConvPlan>(std::move(p));
  } else {
    LBC_ASSIGN_OR_RETURN(ConvPlan p,
                         backend_ == Backend::kNativeHost
                             ? plan_native_conv(shape_, w_q_, bits_)
                             : plan_arm_conv(shape_, w_q_, bits_));
    plan_ = std::make_shared<const ConvPlan>(std::move(p));
  }
  has_weights_ = true;
  return Status();
}

StatusOr<Tensor<float>> QuantizedConv2d::forward(const Tensor<float>& x) {
  LBC_RETURN_IF_ERROR(Status(init_status_));
  LBC_VALIDATE(has_weights_, kFailedPrecondition,
               "forward() before set_weights()");
  const Shape4 want{shape_.batch, shape_.in_c, shape_.in_h, shape_.in_w};
  LBC_VALIDATE(x.shape() == want, kInvalidArgument,
               "input tensor is " << shape4_str(x.shape())
                                  << " but the layer needs "
                                  << shape4_str(want));
  LBC_ASSIGN_OR_RETURN(const quant::QScheme in_s,
                       quant::choose_scheme(quant::absmax(x.span()), bits_));
  const Tensor<i8> x_q = quant::quantize(x, in_s);

  const float acc_scale = in_s.scale * w_scheme_.scale;
  LBC_ASSIGN_OR_RETURN(const std::vector<i32> bias_q,
                       quant::quantize_bias(bias_f_, shape_.out_c, in_s,
                                            w_scheme_, shape_.gemm_k()));

  if (plan_ != nullptr) {
    LBC_ASSIGN_OR_RETURN(const ArmLayerResult r,
                         execute_arm_conv(*plan_, x_q, ws_));
    last_seconds_ = r.seconds;
    last_fallback_ = r.fallback;
    Tensor<float> out(r.out.shape());
    const Shape4 sh = r.out.shape();
    for (i64 n = 0; n < sh.n; ++n)
      for (i64 c = 0; c < sh.c; ++c)
        for (i64 h = 0; h < sh.h; ++h)
          for (i64 w = 0; w < sh.w; ++w)
            out.at(n, c, h, w) =
                acc_scale * static_cast<float>(r.out.at(n, c, h, w) +
                                               bias_q[static_cast<size_t>(c)]);
    return out;
  }

  // GPU backend: fused conv + dequantization epilogue, against the tiling
  // the plan resolved at set_weights().
  gpukern::GpuConvOptions opt = gpu_plan_->options;
  opt.epilogue = gpukern::Epilogue::kDequantF32;
  LBC_ASSIGN_OR_RETURN(
      gpukern::GpuConvResult r,
      gpukern::conv2d(gpu_plan_->dev, shape_, x_q, w_q_, bias_q,
                      /*requant=*/nullptr, acc_scale, opt));
  last_seconds_ = r.cost.seconds;
  last_fallback_ = gpu_plan_->planned_fallback;
  if (r.fallback.fell_back)
    last_fallback_.record(r.fallback.requested, r.fallback.executed,
                          r.fallback.reason);
  return std::move(r.out_f);
}

}  // namespace lbc::core
