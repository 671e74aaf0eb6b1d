// Public API tests: engine dispatch, the QuantizedConv2d layer, and the
// relative-performance shapes the engines must exhibit.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/rng.h"
#include "core/engine.h"
#include "refconv/conv_ref.h"

namespace lbc::core {
namespace {

ConvShape small_shape() {
  ConvShape s;
  s.name = "t";
  s.batch = 1;
  s.in_c = 8;
  s.in_h = s.in_w = 8;
  s.out_c = 16;
  s.kernel = 3;
  s.stride = 1;
  s.pad = 1;
  return s;
}

TEST(Engine, ArmDispatchProducesExactConv) {
  const ConvShape s = small_shape();
  const Tensor<i8> in = random_qtensor(Shape4{1, 8, 8, 8}, 4, 1);
  const Tensor<i8> w = random_qtensor(Shape4{16, 8, 3, 3}, 4, 2);
  const ArmLayerResult r = run_arm_conv(s, in, w, 4).value();
  EXPECT_EQ(count_mismatches(ref::conv2d_s32(s, in, w), r.out), 0);
  EXPECT_GT(r.seconds, 0);
}

TEST(Engine, NcnnImplForcesEightBitPath) {
  const ConvShape s = small_shape();
  const Tensor<i8> in = random_qtensor(Shape4{1, 8, 8, 8}, 8, 3);
  const Tensor<i8> w = random_qtensor(Shape4{16, 8, 3, 3}, 8, 4);
  const ArmLayerResult r = run_arm_conv(s, in, w, 8, ArmImpl::kNcnn8bit).value();
  EXPECT_GT(r.counts[armsim::Op::kSmlal16], 0u);
  EXPECT_EQ(r.counts[armsim::Op::kSmlal8], 0u);
}

TEST(Engine, LowerBitsRunFasterOnArm) {
  // The headline ARM result: modeled time decreases with bit width on a
  // deep-K layer, with 8-bit ~ the ncnn baseline.
  ConvShape s;
  s.name = "deep";
  s.batch = 1;
  s.in_c = 128;
  s.in_h = s.in_w = 7;
  s.out_c = 64;
  s.kernel = 1;
  s.stride = 1;
  s.pad = 0;
  const Tensor<i8> w8 = random_qtensor(Shape4{64, 128, 1, 1}, 8, 5);
  const Tensor<i8> in8 = random_qtensor(Shape4{1, 128, 7, 7}, 8, 6);
  double prev = run_arm_conv(s, in8, w8, 8, ArmImpl::kNcnn8bit).value().seconds * 1.2;
  for (int bits : {8, 6, 4, 2}) {
    const Tensor<i8> in = random_qtensor(Shape4{1, 128, 7, 7}, bits, 7);
    const Tensor<i8> w = random_qtensor(Shape4{64, 128, 1, 1}, bits, 8);
    const double t = run_arm_conv(s, in, w, bits).value().seconds;
    EXPECT_LT(t, prev) << "bits=" << bits;
    prev = t;
  }
}

TEST(Engine, GpuImplOrderingAtBatchOne) {
  // ours < TensorRT < cuDNN-dp4a on a batch-1 ResNet-ish layer (Fig. 10).
  ConvShape s;
  s.name = "g";
  s.batch = 1;
  s.in_c = 1024;
  s.in_h = s.in_w = 14;
  s.out_c = 256;
  s.kernel = 1;
  s.stride = 1;
  s.pad = 0;
  const gpusim::DeviceSpec dev = gpusim::DeviceSpec::rtx2080ti();
  const double ours = time_gpu_conv(dev, s, 8, GpuImpl::kOurs).value().seconds;
  const double trt = time_gpu_conv(dev, s, 8, GpuImpl::kTensorRT).value().seconds;
  const double cudnn = time_gpu_conv(dev, s, 8, GpuImpl::kCudnnDp4a).value().seconds;
  const double ours4 = time_gpu_conv(dev, s, 4, GpuImpl::kOurs).value().seconds;
  EXPECT_LT(ours, trt);
  EXPECT_LT(trt, cudnn);
  EXPECT_LE(ours4, ours);
  EXPECT_GT(cudnn / ours, 2.0);  // the paper's gap is ~4-5x on average
}

TEST(Engine, GpuDefaultTilingSlowerThanAutotuned) {
  ConvShape s;
  s.name = "g";
  s.batch = 1;
  s.in_c = 512;
  s.in_h = s.in_w = 7;
  s.out_c = 512;
  s.kernel = 3;
  s.stride = 1;
  s.pad = 1;
  const gpusim::DeviceSpec dev = gpusim::DeviceSpec::rtx2080ti();
  const double tuned = time_gpu_conv(dev, s, 8, GpuImpl::kOurs).value().seconds;
  const double deflt =
      time_gpu_conv(dev, s, 8, GpuImpl::kOursDefaultTiling).value().seconds;
  EXPECT_LT(tuned, deflt);
}

TEST(QuantizedConv2d, ForwardApproximatesFloatConv) {
  const ConvShape s = small_shape();
  const Tensor<float> x = random_ftensor(Shape4{1, 8, 8, 8}, -1.0f, 1.0f, 9);
  const Tensor<float> w =
      random_ftensor(Shape4{16, 8, 3, 3}, -0.5f, 0.5f, 10);
  QuantizedConv2d layer(s, 8, Backend::kArmCortexA53);
  layer.set_weights(w);
  const Tensor<float> out = layer.forward(x).value();
  const Tensor<float> ref = ref::conv2d_f32(s, x, w);
  double max_err = 0, max_mag = 0;
  for (i64 i = 0; i < out.elems(); ++i) {
    max_err = std::max(max_err,
                       static_cast<double>(std::fabs(out.data()[i] - ref.data()[i])));
    max_mag = std::max(max_mag, static_cast<double>(std::fabs(ref.data()[i])));
  }
  EXPECT_LT(max_err, 0.05 * max_mag + 0.05);  // 8-bit quantization error
  EXPECT_GT(layer.last_seconds(), 0);
}

TEST(QuantizedConv2d, GpuBackendMatchesArmBackendClosely) {
  const ConvShape s = small_shape();
  const Tensor<float> x = random_ftensor(Shape4{1, 8, 8, 8}, -1.0f, 1.0f, 11);
  const Tensor<float> w =
      random_ftensor(Shape4{16, 8, 3, 3}, -0.5f, 0.5f, 12);
  QuantizedConv2d arm(s, 8, Backend::kArmCortexA53);
  QuantizedConv2d gpu(s, 8, Backend::kGpuTU102);
  arm.set_weights(w);
  gpu.set_weights(w);
  const Tensor<float> oa = arm.forward(x).value();
  const Tensor<float> og = gpu.forward(x).value();
  // Same quantized math end-to-end: identical accumulators, same scale.
  for (i64 i = 0; i < oa.elems(); ++i)
    EXPECT_FLOAT_EQ(oa.data()[i], og.data()[i]);
}

TEST(QuantizedConv2d, BiasIsApplied) {
  ConvShape s = small_shape();
  const Tensor<float> x = random_ftensor(Shape4{1, 8, 8, 8}, -1.0f, 1.0f, 13);
  Tensor<float> w(Shape4{16, 8, 3, 3}, 0.0f);  // zero weights
  std::vector<float> bias(16, 2.5f);
  QuantizedConv2d layer(s, 8, Backend::kArmCortexA53);
  layer.set_weights(w, bias);
  const Tensor<float> out = layer.forward(x).value();
  // zero weights quantize to a unit-scale scheme (absmax 0 fallback);
  // output should be ~bias everywhere.
  for (float v : out.span()) EXPECT_NEAR(v, 2.5f, 0.05f);
}

// ---------------------------------------------------------------------------
// Robustness: structured errors and the dispatch fallback chain
// ---------------------------------------------------------------------------

TEST(EngineErrors, RunArmConvRejectsInvalidShape) {
  ConvShape s = small_shape();
  s.in_c = 0;  // invalid
  const Tensor<i8> in = random_qtensor(Shape4{1, 8, 8, 8}, 4, 1);
  const Tensor<i8> w = random_qtensor(Shape4{16, 8, 3, 3}, 4, 2);
  const auto r = run_arm_conv(s, in, w, 4);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineErrors, RunArmConvRejectsBadBitsAndMismatchedDims) {
  const ConvShape s = small_shape();
  const Tensor<i8> in = random_qtensor(Shape4{1, 8, 8, 8}, 4, 1);
  const Tensor<i8> w = random_qtensor(Shape4{16, 8, 3, 3}, 4, 2);
  EXPECT_EQ(run_arm_conv(s, in, w, 1).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(run_arm_conv(s, in, w, 9).status().code(),
            StatusCode::kInvalidArgument);
  const Tensor<i8> wrong_in = random_qtensor(Shape4{1, 8, 9, 8}, 4, 3);
  EXPECT_EQ(run_arm_conv(s, wrong_in, w, 4).status().code(),
            StatusCode::kInvalidArgument);
  const Tensor<i8> wrong_w = random_qtensor(Shape4{16, 4, 3, 3}, 4, 4);
  EXPECT_EQ(run_arm_conv(s, in, wrong_w, 4).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(EngineErrors, TimeGpuConvRejectsInvalidInput) {
  const gpusim::DeviceSpec dev = gpusim::DeviceSpec::rtx2080ti();
  ConvShape bad = small_shape();
  bad.kernel = 0;
  EXPECT_EQ(time_gpu_conv(dev, bad, 8, GpuImpl::kOurs).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(time_gpu_conv(dev, small_shape(), 6, GpuImpl::kOurs)
                .status().code(),
            StatusCode::kInvalidArgument);
}

TEST(EngineErrors, QuantizedConv2dInvalidConstructionPoisonsCalls) {
  ConvShape bad = small_shape();
  bad.stride = 0;
  QuantizedConv2d layer(bad, 8, Backend::kArmCortexA53);  // must not abort
  ASSERT_FALSE(layer.init_status().ok());
  EXPECT_EQ(layer.init_status().code(), StatusCode::kInvalidArgument);

  const Tensor<float> w = random_ftensor(Shape4{16, 8, 3, 3}, -0.5f, 0.5f, 1);
  EXPECT_FALSE(layer.set_weights(w).ok());
  const Tensor<float> x = random_ftensor(Shape4{1, 8, 8, 8}, -1.0f, 1.0f, 2);
  EXPECT_FALSE(layer.forward(x).ok());
}

TEST(QuantizedConv2d, GpuBackendRejectsUnsupportedBits) {
  QuantizedConv2d layer(small_shape(), 6, Backend::kGpuTU102);
  EXPECT_EQ(layer.init_status().code(), StatusCode::kInvalidArgument);
}

TEST(QuantizedConv2d, ForwardBeforeSetWeightsIsFailedPrecondition) {
  QuantizedConv2d layer(small_shape(), 8, Backend::kArmCortexA53);
  ASSERT_TRUE(layer.init_status().ok());
  const Tensor<float> x = random_ftensor(Shape4{1, 8, 8, 8}, -1.0f, 1.0f, 3);
  const auto r = layer.forward(x);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
}

TEST(QuantizedConv2d, SetWeightsRejectsMismatchedDims) {
  QuantizedConv2d layer(small_shape(), 8, Backend::kArmCortexA53);
  const Tensor<float> wrong_w =
      random_ftensor(Shape4{16, 8, 5, 5}, -0.5f, 0.5f, 4);
  EXPECT_EQ(layer.set_weights(wrong_w).code(), StatusCode::kInvalidArgument);

  const Tensor<float> w = random_ftensor(Shape4{16, 8, 3, 3}, -0.5f, 0.5f, 5);
  std::vector<float> short_bias(3, 0.0f);
  EXPECT_EQ(layer.set_weights(w, short_bias).code(),
            StatusCode::kInvalidArgument);
}

TEST(QuantizedConv2d, ForwardRejectsWrongInputShape) {
  QuantizedConv2d layer(small_shape(), 8, Backend::kArmCortexA53);
  const Tensor<float> w = random_ftensor(Shape4{16, 8, 3, 3}, -0.5f, 0.5f, 6);
  ASSERT_TRUE(layer.set_weights(w).ok());
  const Tensor<float> bad_x =
      random_ftensor(Shape4{1, 8, 8, 9}, -1.0f, 1.0f, 7);
  EXPECT_EQ(layer.forward(bad_x).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(QuantizedConv2d, RejectsNonFiniteWeightsBiasesAndInputs) {
  QuantizedConv2d layer(small_shape(), 8, Backend::kArmCortexA53);
  const Tensor<float> w = random_ftensor(Shape4{16, 8, 3, 3}, -0.5f, 0.5f, 8);
  Tensor<float> nan_w = w;
  nan_w.data()[nan_w.elems() - 1] = std::nanf("");
  EXPECT_EQ(layer.set_weights(nan_w).code(), StatusCode::kInvalidArgument);
  std::vector<float> bias(16, 0.0f);
  bias[3] = std::numeric_limits<float>::infinity();
  EXPECT_EQ(layer.set_weights(w, bias).code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(layer.set_weights(w).ok());
  Tensor<float> x = random_ftensor(Shape4{1, 8, 8, 8}, -1.0f, 1.0f, 9);
  x.data()[x.elems() - 1] = std::nanf("");
  EXPECT_EQ(layer.forward(x).status().code(), StatusCode::kInvalidArgument);
}

TEST(QuantizedConv2d, BiasTheAccumulatorCannotHoldIsOutOfRange) {
  // 4-bit 4 -> 4 1x1 conv with a +1e7 bias: about 2e10 accumulator steps,
  // which used to wrap in i32 and come out near -8.6e6.
  ConvShape s = small_shape();
  s.in_c = s.out_c = 4;
  s.in_h = s.in_w = 2;
  s.kernel = 1;
  s.pad = 0;
  const Tensor<float> w = random_ftensor(Shape4{4, 4, 1, 1}, -0.25f, 0.25f, 10);
  const Tensor<float> x = random_ftensor(Shape4{1, 4, 2, 2}, -0.1f, 0.1f, 11);
  const std::vector<float> bias{1e7f, 0.0f, 0.0f, 0.0f};
  for (const Backend b : {Backend::kArmCortexA53, Backend::kGpuTU102}) {
    QuantizedConv2d layer(s, 4, b);
    ASSERT_TRUE(layer.set_weights(w, bias).ok());
    EXPECT_EQ(layer.forward(x).status().code(), StatusCode::kOutOfRange)
        << backend_name(b);
  }
}

TEST(EngineFallback, WinogradOnIneligibleShapeDegradesToGemmBitExact) {
  ConvShape s = small_shape();
  s.kernel = 1;  // winograd needs 3x3
  s.pad = 0;
  const Tensor<i8> in = random_qtensor(Shape4{1, 8, 8, 8}, 4, 20);
  const Tensor<i8> w = random_qtensor(Shape4{16, 8, 1, 1}, 4, 21);
  const ArmLayerResult r =
      run_arm_conv(s, in, w, 4, ArmImpl::kOurs, armkern::ConvAlgo::kWinograd)
          .value();
  EXPECT_EQ(r.executed_algo, "gemm");
  EXPECT_TRUE(r.fallback.fell_back);
  EXPECT_EQ(r.fallback.requested, "winograd");
  EXPECT_EQ(r.fallback.executed, "gemm");
  EXPECT_EQ(count_mismatches(ref::conv2d_s32(s, in, w), r.out), 0);
}

TEST(EngineFallback, WinogradAtEightBitDegradesToGemm) {
  const ConvShape s = small_shape();  // 3x3/stride-1, shape-eligible
  const Tensor<i8> in = random_qtensor(Shape4{1, 8, 8, 8}, 8, 22);
  const Tensor<i8> w = random_qtensor(Shape4{16, 8, 3, 3}, 8, 23);
  const ArmLayerResult r =
      run_arm_conv(s, in, w, 8, ArmImpl::kOurs, armkern::ConvAlgo::kWinograd)
          .value();
  EXPECT_EQ(r.executed_algo, "gemm");
  EXPECT_TRUE(r.fallback.fell_back);
  EXPECT_NE(r.fallback.reason.find("4-6 bit"), std::string::npos);
  EXPECT_EQ(count_mismatches(ref::conv2d_s32(s, in, w), r.out), 0);
}

TEST(EngineFallback, TvmBitserialAboveTwoBitDegradesToGemm) {
  // The old engine asserted bits <= 2 for this impl; now it degrades.
  const ConvShape s = small_shape();
  const Tensor<i8> in = random_qtensor(Shape4{1, 8, 8, 8}, 5, 24);
  const Tensor<i8> w = random_qtensor(Shape4{16, 8, 3, 3}, 5, 25);
  const ArmLayerResult r =
      run_arm_conv(s, in, w, 5, ArmImpl::kTvmBitserial).value();
  EXPECT_EQ(r.executed_algo, "gemm");
  EXPECT_TRUE(r.fallback.fell_back);
  EXPECT_EQ(r.fallback.requested, "bitserial");
  EXPECT_EQ(count_mismatches(ref::conv2d_s32(s, in, w), r.out), 0);
}

TEST(EngineFallback, SdotBelowFourBitDegradesToOursGemm) {
  const ConvShape s = small_shape();
  const Tensor<i8> in = random_qtensor(Shape4{1, 8, 8, 8}, 2, 26);
  const Tensor<i8> w = random_qtensor(Shape4{16, 8, 3, 3}, 2, 27);
  const ArmLayerResult r =
      run_arm_conv(s, in, w, 2, ArmImpl::kSdotExt).value();
  EXPECT_TRUE(r.fallback.fell_back);
  EXPECT_EQ(r.fallback.requested, "gemm[sdot]");
  EXPECT_EQ(r.fallback.executed, "gemm[ours]");
  EXPECT_EQ(count_mismatches(ref::conv2d_s32(s, in, w), r.out), 0);
}

TEST(EngineFallback, ReferenceRungIsDirectlyRequestable) {
  const ConvShape s = small_shape();
  const Tensor<i8> in = random_qtensor(Shape4{1, 8, 8, 8}, 8, 28);
  const Tensor<i8> w = random_qtensor(Shape4{16, 8, 3, 3}, 8, 29);
  const ArmLayerResult r =
      run_arm_conv(s, in, w, 8, ArmImpl::kOurs, armkern::ConvAlgo::kReference)
          .value();
  EXPECT_EQ(r.executed_algo, "reference");
  EXPECT_FALSE(r.fallback.fell_back);  // explicit request, not a degradation
  EXPECT_EQ(count_mismatches(ref::conv2d_s32(s, in, w), r.out), 0);
  EXPECT_GT(r.seconds, 0);
}

TEST(EngineFallback, EligibleRequestsDoNotRecordFallback) {
  const ConvShape s = small_shape();
  const Tensor<i8> in = random_qtensor(Shape4{1, 8, 8, 8}, 4, 30);
  const Tensor<i8> w = random_qtensor(Shape4{16, 8, 3, 3}, 4, 31);
  const ArmLayerResult r =
      run_arm_conv(s, in, w, 4, ArmImpl::kOurs, armkern::ConvAlgo::kWinograd)
          .value();
  EXPECT_EQ(r.executed_algo, "winograd");
  EXPECT_FALSE(r.fallback.fell_back);
  EXPECT_TRUE(r.fallback.describe().empty());
}

}  // namespace
}  // namespace lbc::core
