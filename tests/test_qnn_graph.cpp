// End-to-end quantized graph runner tests: calibration, integer-only
// inference accuracy against the fp32 reference, node semantics (residual
// add rescaling, pooling), fused-ReLU behaviour, and bit-width effects.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "common/rng.h"
#include "core/qnn_graph.h"
#include "quant/qscheme.h"
#include "refconv/conv_ref.h"

namespace lbc::core {
namespace {

double max_rel_err(const Tensor<float>& got, const Tensor<float>& want) {
  double err = 0, mag = 1e-9;
  for (i64 i = 0; i < got.elems(); ++i) {
    err = std::max(err, static_cast<double>(
                            std::fabs(got.data()[i] - want.data()[i])));
    mag = std::max(mag, static_cast<double>(std::fabs(want.data()[i])));
  }
  return err / mag;
}

TEST(QnnGraph, SingleConvMatchesFp32Within8BitError) {
  QnnGraph g;
  const auto in = g.add_input(8, 10);
  const Tensor<float> w = random_ftensor(Shape4{12, 8, 3, 3}, -0.3f, 0.3f, 1);
  g.add_conv(in, 12, 3, 1, 1, 8, w);
  const Tensor<float> x = random_ftensor(Shape4{1, 8, 10, 10}, -1.0f, 1.0f, 2);
  g.calibrate(x);
  const auto r = g.forward(x);
  EXPECT_LT(max_rel_err(r.out, g.forward_fp32(x)), 0.03);
  EXPECT_GT(r.seconds, 0);
}

TEST(QnnGraph, FusedReluMatchesReference) {
  QnnGraph g;
  const auto in = g.add_input(4, 8);
  const Tensor<float> w = random_ftensor(Shape4{4, 4, 3, 3}, -0.5f, 0.5f, 3);
  g.add_conv(in, 4, 3, 1, 1, 8, w, {}, /*relu=*/true);
  const Tensor<float> x = random_ftensor(Shape4{1, 4, 8, 8}, -1.0f, 1.0f, 4);
  g.calibrate(x);
  const auto r = g.forward(x);
  const Tensor<float> ref = g.forward_fp32(x);
  for (float v : r.out.span()) EXPECT_GE(v, 0.0f);
  EXPECT_LT(max_rel_err(r.out, ref), 0.03);
}

TEST(QnnGraph, BiasIsCarriedThroughIntegerPath) {
  QnnGraph g;
  const auto in = g.add_input(2, 4);
  Tensor<float> w(Shape4{3, 2, 1, 1}, 0.1f);
  const std::vector<float> bias = {0.5f, -0.25f, 1.0f};
  g.add_conv(in, 3, 1, 1, 0, 8, w, bias);
  const Tensor<float> x = random_ftensor(Shape4{1, 2, 4, 4}, -1.0f, 1.0f, 5);
  g.calibrate(x);
  const auto r = g.forward(x);
  EXPECT_LT(max_rel_err(r.out, g.forward_fp32(x)), 0.03);
}

TEST(QnnGraph, ResidualAddRescalesOperands) {
  // Two conv branches with very different output magnitudes, then add:
  // the rescaling multipliers must align them into one scheme.
  QnnGraph g;
  const auto in = g.add_input(4, 6);
  Tensor<float> w_small(Shape4{4, 4, 1, 1}, 0.05f);
  Tensor<float> w_big(Shape4{4, 4, 1, 1}, 0.9f);
  const auto a = g.add_conv(in, 4, 1, 1, 0, 8, w_small);
  const auto b = g.add_conv(in, 4, 1, 1, 0, 8, w_big);
  g.add_add(a, b);
  const Tensor<float> x = random_ftensor(Shape4{1, 4, 6, 6}, -1.0f, 1.0f, 6);
  g.calibrate(x);
  EXPECT_LT(max_rel_err(g.forward(x).out, g.forward_fp32(x)), 0.04);
}

TEST(QnnGraph, MaxPoolIsExactOnQuantizedValues) {
  // Max pooling commutes with dequantization: the only error is the
  // input quantization itself.
  QnnGraph g;
  const auto in = g.add_input(3, 8);
  g.add_maxpool2(in);
  const Tensor<float> x = random_ftensor(Shape4{1, 3, 8, 8}, -2.0f, 2.0f, 7);
  g.calibrate(x);
  EXPECT_LT(max_rel_err(g.forward(x).out, g.forward_fp32(x)), 0.02);
}

TEST(QnnGraph, GlobalAvgPoolWithinOneStep) {
  QnnGraph g;
  const auto in = g.add_input(6, 8);
  g.add_global_avgpool(in);
  const Tensor<float> x = random_ftensor(Shape4{1, 6, 8, 8}, -1.0f, 1.0f, 8);
  g.calibrate(x);
  const auto r = g.forward(x);
  const Tensor<float> ref = g.forward_fp32(x);
  for (i64 i = 0; i < r.out.elems(); ++i)
    EXPECT_NEAR(r.out.data()[i], ref.data()[i], 0.03f);
}

TEST(QnnGraph, BottleneckBlockEndToEnd) {
  QnnGraph g;
  const auto in = g.add_input(16, 8);
  add_bottleneck_block(g, in, 16, 8, 16, 1, 8, 42);
  const Tensor<float> x = random_ftensor(Shape4{1, 16, 8, 8}, -1.0f, 1.0f, 9);
  g.calibrate(x);
  const auto r = g.forward(x);
  EXPECT_EQ(r.out.shape(), (Shape4{1, 16, 8, 8}));
  EXPECT_LT(max_rel_err(r.out, g.forward_fp32(x)), 0.10);  // 3 convs + add
  EXPECT_GT(r.seconds, 0);
}

TEST(QnnGraph, StridedProjectionBlock) {
  QnnGraph g;
  const auto in = g.add_input(8, 8);
  add_bottleneck_block(g, in, 8, 4, 24, 2, 8, 43);
  const Tensor<float> x = random_ftensor(Shape4{1, 8, 8, 8}, -1.0f, 1.0f, 10);
  g.calibrate(x);
  const auto r = g.forward(x);
  EXPECT_EQ(r.out.shape(), (Shape4{1, 24, 4, 4}));
  EXPECT_LT(max_rel_err(r.out, g.forward_fp32(x)), 0.10);
}

TEST(QnnGraph, LowerBitsLargerErrorFasterRun) {
  QnnGraph g8, g4;
  for (auto* g : {&g8, &g4}) {
    const int bits = (g == &g8) ? 8 : 4;
    const auto in = g->add_input(16, 12);
    add_bottleneck_block(*g, in, 16, 16, 16, 1, bits, 77);
  }
  const Tensor<float> x = random_ftensor(Shape4{1, 16, 12, 12}, -1.0f, 1.0f, 11);
  g8.calibrate(x);
  g4.calibrate(x);
  // Pin both graphs to the GEMM rung: under kAuto the 4-bit graph takes
  // winograd, and with the cache-blocked GEMM the rungs' relative speed
  // is no longer bits-monotonic across algorithms.
  const auto r8 = g8.forward(x, armkern::ConvAlgo::kGemm);
  const auto r4 = g4.forward(x, armkern::ConvAlgo::kGemm);
  const Tensor<float> ref = g8.forward_fp32(x);
  EXPECT_LT(max_rel_err(r8.out, ref), max_rel_err(r4.out, ref));
  EXPECT_LT(r4.seconds, r8.seconds);
}

TEST(QnnGraph, MultiBlockStackStaysAccurate) {
  QnnGraph g;
  auto cur = g.add_input(8, 16);
  cur = add_bottleneck_block(g, cur, 8, 8, 16, 1, 8, 50);
  cur = add_bottleneck_block(g, cur, 16, 8, 16, 1, 8, 60);
  cur = add_bottleneck_block(g, cur, 16, 8, 32, 2, 8, 70);
  g.add_global_avgpool(cur);
  const Tensor<float> x = random_ftensor(Shape4{1, 8, 16, 16}, -1.0f, 1.0f, 12);
  g.calibrate(x);
  const auto r = g.forward(x);
  EXPECT_EQ(r.out.shape(), (Shape4{1, 32, 1, 1}));
  const Tensor<float> ref = g.forward_fp32(x);
  for (i64 i = 0; i < r.out.elems(); ++i)
    EXPECT_NEAR(r.out.data()[i], ref.data()[i],
                0.15f * std::max(1.0f, std::fabs(ref.data()[i])));
  EXPECT_EQ(r.node_seconds.size(), static_cast<size_t>(g.node_count()));
}

TEST(QnnGraph, WinogradAutoDispatchInsideGraph) {
  // A 4-bit 3x3/s1 conv inside the graph takes the winograd path under
  // kAuto; the end-to-end error stays bounded (winograd-domain rounding
  // is absorbed by the quantization error budget).
  // Channels deep enough that the transform overhead amortizes.
  QnnGraph g;
  const auto in = g.add_input(32, 14);
  const Tensor<float> w = random_ftensor(Shape4{32, 32, 3, 3}, -0.3f, 0.3f, 13);
  g.add_conv(in, 32, 3, 1, 1, 5, w);
  const Tensor<float> x = random_ftensor(Shape4{1, 32, 14, 14}, -1.0f, 1.0f, 14);
  g.calibrate(x);
  const auto r_auto = g.forward(x, armkern::ConvAlgo::kAuto);
  const auto r_wino = g.forward(x, armkern::ConvAlgo::kWinograd);
  EXPECT_LT(max_rel_err(r_auto.out, g.forward_fp32(x)), 0.15);
  // kAuto took the winograd path: identical modeled time to requesting it
  // explicitly. (The cache-blocked GEMM now beats winograd on shapes this
  // small, so auto-vs-gemm is no longer a faster-path assertion.)
  EXPECT_DOUBLE_EQ(r_auto.seconds, r_wino.seconds);
}

TEST(QnnGraphCalibration, AllZeroInputIsCleanNotUB) {
  // Degenerate calibration: every recorded absmax is 0. choose_scheme maps
  // that to the identity scale, so calibrate succeeds and the forward pass
  // produces finite values (the conv output is just the bias, here zero).
  QnnGraph g;
  const auto in = g.add_input(4, 6);
  const Tensor<float> w = random_ftensor(Shape4{4, 4, 3, 3}, -0.4f, 0.4f, 20);
  g.add_conv(in, 4, 3, 1, 1, 4, w, {}, /*relu=*/true);
  const Tensor<float> zeros(Shape4{1, 4, 6, 6}, 0.0f);
  const Status cal = g.calibrate(zeros);
  ASSERT_TRUE(cal.ok()) << cal.to_string();
  const auto r = g.forward(zeros);
  for (float v : r.out.span()) {
    EXPECT_TRUE(std::isfinite(v));
    EXPECT_EQ(v, 0.0f);
  }
}

TEST(QnnGraphCalibration, SingleConvGraphAtTwoBits) {
  // The smallest graph at the paper's most extreme width: one 2-bit conv.
  QnnGraph g;
  const auto in = g.add_input(6, 8);
  const Tensor<float> w = random_ftensor(Shape4{8, 6, 3, 3}, -0.3f, 0.3f, 21);
  g.add_conv(in, 8, 3, 1, 1, 2, w);
  const Tensor<float> x = random_ftensor(Shape4{1, 6, 8, 8}, -1.0f, 1.0f, 22);
  ASSERT_TRUE(g.calibrate(x).ok());
  const auto r = g.forward(x);
  EXPECT_EQ(r.out.shape(), (Shape4{1, 8, 8, 8}));
  // 2-bit weights and activations carry no accuracy contract (the rel
  // error vs fp32 exceeds 1); the assertion is clean execution: finite
  // outputs, nonzero signal, a positive modeled latency.
  double mag = 0;
  for (float v : r.out.span()) {
    ASSERT_TRUE(std::isfinite(v));
    mag = std::max(mag, static_cast<double>(std::fabs(v)));
  }
  EXPECT_GT(mag, 0);
  EXPECT_GT(r.seconds, 0);
}

TEST(QnnGraphCalibration, AddWithDifferentBitWidthsIsClean) {
  // A residual add whose operands quantize at different widths (2-bit and
  // 8-bit branches): calibration must pick one output scheme and rescale
  // both operands into it with a clean Status, never UB.
  QnnGraph g;
  const auto in = g.add_input(4, 6);
  const Tensor<float> w2 = random_ftensor(Shape4{4, 4, 1, 1}, -0.5f, 0.5f, 23);
  const Tensor<float> w8 = random_ftensor(Shape4{4, 4, 1, 1}, -0.5f, 0.5f, 24);
  const auto coarse = g.add_conv(in, 4, 1, 1, 0, 2, w2);
  const auto fine = g.add_conv(in, 4, 1, 1, 0, 8, w8);
  g.add_add(coarse, fine, /*relu=*/true);
  const Tensor<float> x = random_ftensor(Shape4{1, 4, 6, 6}, -1.0f, 1.0f, 25);
  const Status cal = g.calibrate(x);
  ASSERT_TRUE(cal.ok()) << cal.to_string();
  const auto r = g.forward(x);
  for (float v : r.out.span()) {
    EXPECT_TRUE(std::isfinite(v));
    EXPECT_GE(v, 0.0f);  // fused ReLU on the add
  }
}

TEST(QnnGraphCalibration, RejectsBadInputsWithCleanStatus) {
  QnnGraph empty;
  EXPECT_EQ(empty.calibrate(Tensor<float>(Shape4{1, 1, 1, 1})).code(),
            StatusCode::kInvalidArgument);

  QnnGraph g;
  const auto in = g.add_input(4, 6);
  const Tensor<float> w = random_ftensor(Shape4{4, 4, 3, 3}, -0.4f, 0.4f, 26);
  g.add_conv(in, 4, 3, 1, 1, 8, w);
  // Shape mismatch against the input node.
  EXPECT_EQ(g.calibrate(Tensor<float>(Shape4{1, 4, 5, 5})).code(),
            StatusCode::kInvalidArgument);
  // Non-finite calibration values must not poison the schemes.
  Tensor<float> nan_x(Shape4{1, 4, 6, 6}, 0.5f);
  nan_x.data()[3] = std::nanf("");
  EXPECT_EQ(g.calibrate(nan_x).code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(g.calibrated());
}

TEST(QnnGraphCalibration, FailedRecalibrationKeepsThePreviousCalibration) {
  // All 0.25 3x3 weights: inputs of 3e38 are finite, but the conv sums 36
  // of them into +inf, so the second calibrate fails at the conv node —
  // after the input node already chose its new scheme.
  QnnGraph g;
  const auto in = g.add_input(4, 6);
  const auto conv =
      g.add_conv(in, 4, 3, 1, 1, 8, Tensor<float>(Shape4{4, 4, 3, 3}, 0.25f));
  const Tensor<float> x = random_ftensor(Shape4{1, 4, 6, 6}, -1.0f, 1.0f, 27);
  ASSERT_TRUE(g.calibrate(x).ok());
  const quant::QScheme in_scheme = g.activation_scheme(in);
  const quant::QScheme conv_scheme = g.activation_scheme(conv);
  const Tensor<float> before = g.forward(x).out;

  const Status st = g.calibrate(Tensor<float>(Shape4{1, 4, 6, 6}, 3e38f));
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("inf"), std::string::npos) << st.to_string();
  ASSERT_TRUE(g.calibrated());
  EXPECT_EQ(g.activation_scheme(in).scale, in_scheme.scale);
  EXPECT_EQ(g.activation_scheme(conv).scale, conv_scheme.scale);
  const Tensor<float> after = g.forward(x).out;
  EXPECT_EQ(std::memcmp(after.data(), before.data(),
                        static_cast<size_t>(before.elems()) * sizeof(float)),
            0);

  // The same failure on a fresh graph leaves it uncalibrated.
  QnnGraph fresh;
  fresh.add_conv(fresh.add_input(4, 6), 4, 3, 1, 1, 8,
                 Tensor<float>(Shape4{4, 4, 3, 3}, 0.25f));
  EXPECT_FALSE(fresh.calibrate(Tensor<float>(Shape4{1, 4, 6, 6}, 3e38f)).ok());
  EXPECT_FALSE(fresh.calibrated());
}

TEST(QnnGraphCalibration, RejectsNonFiniteWeightsAndBiases) {
  const Tensor<float> x = random_ftensor(Shape4{1, 4, 6, 6}, -1.0f, 1.0f, 28);
  const auto expect_rejected = [&](const Tensor<float>& w,
                                   std::span<const float> bias,
                                   const char* what) {
    QnnGraph g;
    g.add_conv(g.add_input(4, 6), 4, 3, 1, 1, 4, w, bias);
    const Status st = g.calibrate(x);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << what;
    EXPECT_NE(st.message().find(what), std::string::npos) << st.to_string();
    EXPECT_FALSE(g.calibrated()) << what;
  };
  const Tensor<float> w = random_ftensor(Shape4{4, 4, 3, 3}, -0.4f, 0.4f, 29);
  const float inf = std::numeric_limits<float>::infinity();
  for (const float bad : {std::nanf(""), inf, -inf}) {
    // The bad value comes last, after larger finite values: std::max
    // alone would drop a NaN there.
    Tensor<float> bad_w = w;
    bad_w.data()[bad_w.elems() - 1] = bad;
    expect_rejected(bad_w, {}, "weight");
    const std::vector<float> bad_bias{0.1f, bad, 0.2f, 0.3f};
    expect_rejected(w, bad_bias, "bias");
  }
}

TEST(QnnGraphCalibration, RejectsABiasTheAccumulatorCannotHold) {
  // 4-bit 4 -> 4 1x1 conv: acc_scale is about (0.1 / 7) * (0.25 / 7), so
  // a bias of 1e7 is about 2e10 accumulator steps, which the i32 bias used
  // to wrap into a large negative output.
  const Tensor<float> w = random_ftensor(Shape4{4, 4, 1, 1}, -0.25f, 0.25f, 30);
  const Tensor<float> x = random_ftensor(Shape4{1, 4, 2, 2}, -0.1f, 0.1f, 31);
  QnnGraph g;
  const std::vector<float> big{1e7f, 0.0f, 0.0f, 0.0f};
  g.add_conv(g.add_input(4, 2), 4, 1, 1, 0, 4, w, big);
  EXPECT_EQ(g.calibrate(x).code(), StatusCode::kOutOfRange);
  EXPECT_FALSE(g.calibrated());

  // A bias the accumulator holds calibrates and runs.
  QnnGraph ok;
  const std::vector<float> small{0.5f, -0.25f, 0.0f, 1.0f};
  ok.add_conv(ok.add_input(4, 2), 4, 1, 1, 0, 8, w, small);
  ASSERT_TRUE(ok.calibrate(x).ok());
  EXPECT_LT(max_rel_err(ok.forward(x).out, ok.forward_fp32(x)), 0.03);
}

// ---------------------------------------------------------------------------
// fp32 executor: forward_fp32 and calibration against the oracle conv
// ---------------------------------------------------------------------------

TEST(QnnGraphFp32, ForwardAndSchemesMatchTheOracleGraphBytewise) {
  // A strided bottleneck with projection shortcut, conv biases, max and
  // average pooling. The oracle replays forward_fp32's node semantics over
  // ref::conv2d_f32: conv, then bias, then ReLU; add, then ReLU.
  constexpr int kBits = 4;
  const auto wt = [](i64 oc, i64 ic, i64 k, u64 seed) {
    return random_ftensor(Shape4{oc, ic, k, k}, -0.25f, 0.25f, seed);
  };
  const auto bias = [](i64 c, u64 seed) {
    const Tensor<float> t = random_ftensor(Shape4{1, c, 1, 1}, -0.5f, 0.5f, seed);
    return std::vector<float>(t.span().begin(), t.span().end());
  };
  const Tensor<float> w1 = wt(6, 8, 1, 40), w2 = wt(6, 6, 3, 41),
                      w3 = wt(12, 6, 1, 42), ws = wt(12, 8, 1, 43);
  const std::vector<float> b1 = bias(6, 44), b2 = bias(6, 45),
                           b3 = bias(12, 46);

  QnnGraph g;
  const auto in = g.add_input(8, 16);
  const auto c1 = g.add_conv(in, 6, 1, 2, 0, kBits, w1, b1, /*relu=*/true);
  const auto c2 = g.add_conv(c1, 6, 3, 1, 1, kBits, w2, b2, true);
  const auto c3 = g.add_conv(c2, 12, 1, 1, 0, kBits, w3, b3, false);
  const auto sc = g.add_conv(in, 12, 1, 2, 0, kBits, ws, {}, false);
  const auto add = g.add_add(c3, sc, /*relu=*/true);
  const auto pool = g.add_maxpool2(add);
  const auto gap = g.add_global_avgpool(pool);

  const auto conv_shape = [](i64 in_c, i64 hw, i64 out_c, i64 k, i64 stride,
                             i64 pad) {
    ConvShape s;
    s.batch = 1;
    s.in_c = in_c;
    s.in_h = s.in_w = hw;
    s.out_c = out_c;
    s.kernel = k;
    s.stride = stride;
    s.pad = pad;
    return s;
  };
  const auto relu = [](Tensor<float> t) {
    for (float& v : t.span()) v = v > 0 ? v : 0.0f;
    return t;
  };
  const auto conv = [&](const ConvShape& s, const Tensor<float>& x,
                        const Tensor<float>& w, const std::vector<float>& b,
                        bool r) {
    Tensor<float> y = ref::conv2d_f32(s, x, w);
    if (!b.empty())
      for (i64 c = 0; c < y.shape().c; ++c)
        for (i64 h = 0; h < y.shape().h; ++h)
          for (i64 v = 0; v < y.shape().w; ++v)
            y.at(0, c, h, v) += b[static_cast<size_t>(c)];
    return r ? relu(y) : y;
  };
  const Tensor<float> x = random_ftensor(Shape4{1, 8, 16, 16}, -1.0f, 1.0f, 47);
  std::vector<Tensor<float>> want(static_cast<size_t>(g.node_count()));
  want[in] = x;
  want[c1] = conv(conv_shape(8, 16, 6, 1, 2, 0), x, w1, b1, true);
  want[c2] = conv(conv_shape(6, 8, 6, 3, 1, 1), want[c1], w2, b2, true);
  want[c3] = conv(conv_shape(6, 8, 12, 1, 1, 0), want[c2], w3, b3, false);
  want[sc] = conv(conv_shape(8, 16, 12, 1, 2, 0), x, ws, {}, false);
  Tensor<float> sum(want[c3].shape());
  for (i64 i = 0; i < sum.elems(); ++i)
    sum.data()[i] = want[c3].data()[i] + want[sc].data()[i];
  want[add] = relu(sum);
  const Tensor<float>& a = want[add];
  Tensor<float> mp(Shape4{1, 12, 4, 4});
  for (i64 c = 0; c < 12; ++c)
    for (i64 h = 0; h < 4; ++h)
      for (i64 v = 0; v < 4; ++v)
        mp.at(0, c, h, v) =
            std::max(std::max(a.at(0, c, 2 * h, 2 * v), a.at(0, c, 2 * h, 2 * v + 1)),
                     std::max(a.at(0, c, 2 * h + 1, 2 * v),
                              a.at(0, c, 2 * h + 1, 2 * v + 1)));
  want[pool] = mp;
  Tensor<float> avg(Shape4{1, 12, 1, 1});
  for (i64 c = 0; c < 12; ++c) {
    float acc = 0;
    for (i64 h = 0; h < 4; ++h)
      for (i64 v = 0; v < 4; ++v) acc += mp.at(0, c, h, v);
    avg.at(0, c, 0, 0) = acc * (1.0f / 16.0f);
  }
  want[gap] = avg;

  const Tensor<float> got = g.forward_fp32(x);
  ASSERT_EQ(got.shape(), want[gap].shape());
  EXPECT_EQ(std::memcmp(got.data(), want[gap].data(),
                        static_cast<size_t>(got.elems()) * sizeof(float)),
            0);
  // Calibration consumes the same executor, so every node's scheme is the
  // one the oracle activations give.
  ASSERT_TRUE(g.calibrate(x).ok());
  for (QnnGraph::NodeId id = 0; id < g.node_count(); ++id) {
    const quant::QScheme want_scheme =
        quant::choose_scheme(quant::absmax(want[static_cast<size_t>(id)].span()),
                             kBits)
            .value();
    EXPECT_EQ(g.activation_scheme(id).scale, want_scheme.scale) << "node " << id;
    EXPECT_EQ(g.activation_scheme(id).bits, kBits);
  }
}

}  // namespace
}  // namespace lbc::core
