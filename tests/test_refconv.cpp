// Tests for the reference oracles: direct conv, im2col + GEMM equivalence,
// winograd transforms and the two winograd weight modes, and the fast fp32
// conv's byte identity with its oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "common/rng.h"
#include "refconv/conv_f32.h"
#include "refconv/conv_ref.h"
#include "refconv/gemm_ref.h"
#include "refconv/im2col.h"
#include "refconv/winograd_ref.h"

namespace lbc::ref {
namespace {

ConvShape shape(i64 b, i64 ic, i64 hw, i64 oc, i64 k, i64 st, i64 pad) {
  ConvShape s;
  s.name = "t";
  s.batch = b;
  s.in_c = ic;
  s.in_h = s.in_w = hw;
  s.out_c = oc;
  s.kernel = k;
  s.stride = st;
  s.pad = pad;
  return s;
}

TEST(ConvRef, HandComputed1x1) {
  const ConvShape s = shape(1, 2, 2, 1, 1, 1, 0);
  Tensor<i8> in(Shape4{1, 2, 2, 2});
  Tensor<i8> w(Shape4{1, 2, 1, 1});
  in.at(0, 0, 0, 0) = 1;
  in.at(0, 1, 0, 0) = 2;
  w.at(0, 0, 0, 0) = 3;
  w.at(0, 1, 0, 0) = 4;
  const Tensor<i32> out = conv2d_s32(s, in, w);
  EXPECT_EQ(out.at(0, 0, 0, 0), 1 * 3 + 2 * 4);
}

TEST(ConvRef, HandComputed3x3WithPadding) {
  const ConvShape s = shape(1, 1, 3, 1, 3, 1, 1);
  Tensor<i8> in(Shape4{1, 1, 3, 3}, 1);
  Tensor<i8> w(Shape4{1, 1, 3, 3}, 1);
  const Tensor<i32> out = conv2d_s32(s, in, w);
  EXPECT_EQ(out.at(0, 0, 1, 1), 9);  // full window
  EXPECT_EQ(out.at(0, 0, 0, 0), 4);  // corner: 2x2 window in bounds
  EXPECT_EQ(out.at(0, 0, 0, 1), 6);  // edge: 2x3 window
}

struct ShapeCase {
  i64 b, ic, hw, oc, k, st, pad;
};

class Im2colGemmEquivalence : public ::testing::TestWithParam<ShapeCase> {};

TEST_P(Im2colGemmEquivalence, MatchesDirectConv) {
  const auto p = GetParam();
  const ConvShape s = shape(p.b, p.ic, p.hw, p.oc, p.k, p.st, p.pad);
  ASSERT_TRUE(s.valid());
  const Tensor<i8> in =
      random_qtensor(Shape4{s.batch, s.in_c, s.in_h, s.in_w}, 8, 1);
  const Tensor<i8> w =
      random_qtensor(Shape4{s.out_c, s.in_c, s.kernel, s.kernel}, 8, 2);

  const Tensor<i32> direct = conv2d_s32(s, in, w);
  const Tensor<i8> mat = im2col(s, in);
  Tensor<i32> gemm_out(Shape4{1, 1, s.gemm_m(), s.gemm_n()});
  gemm_s8s32(w.data(), mat.data(), gemm_out.data(), s.gemm_m(), s.gemm_n(),
             s.gemm_k());
  // For batch 1 the GEMM result is exactly the NCHW output.
  ASSERT_EQ(s.batch, 1);
  EXPECT_EQ(0, std::memcmp(direct.data(), gemm_out.data(),
                           sizeof(i32) * static_cast<size_t>(direct.elems())));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, Im2colGemmEquivalence,
    ::testing::Values(ShapeCase{1, 3, 8, 4, 3, 1, 1},   // 3x3 padded
                      ShapeCase{1, 4, 9, 5, 3, 2, 1},   // strided
                      ShapeCase{1, 8, 7, 8, 1, 1, 0},   // 1x1
                      ShapeCase{1, 2, 10, 3, 1, 2, 0},  // 1x1 strided
                      ShapeCase{1, 1, 12, 2, 5, 1, 2},  // 5x5
                      ShapeCase{1, 6, 6, 6, 3, 1, 0},   // no padding
                      ShapeCase{1, 5, 11, 7, 7, 2, 3})  // 7x7 stem-like
);

TEST(Im2col, OffsetsMarkPaddingAsMinusOne) {
  const ConvShape s = shape(1, 1, 3, 1, 3, 1, 1);
  const auto off = im2col_offsets(s);
  ASSERT_EQ(off.size(), static_cast<size_t>(9 * 9));
  // k = 0 is (ic=0, kh=0, kw=0); for output (0,0) that's input (-1,-1): pad.
  EXPECT_EQ(off[0], -1);
  // k = 4 is the center tap; for output (0,0) that's input (0,0).
  EXPECT_EQ(off[4 * 9 + 0], 0);
  for (i64 v : off) EXPECT_LT(v, 9);
}

TEST(Im2col, BatchedColumnsOrder) {
  const ConvShape s = shape(2, 1, 2, 1, 1, 1, 0);
  Tensor<i8> in(Shape4{2, 1, 2, 2});
  for (i64 i = 0; i < in.elems(); ++i) in.data()[i] = static_cast<i8>(i);
  const Tensor<i8> mat = im2col(s, in);
  ASSERT_EQ(mat.shape().h, 1);  // K = 1
  ASSERT_EQ(mat.shape().w, 8);  // N = 2*2*2
  for (i64 i = 0; i < 8; ++i) EXPECT_EQ(mat.data()[i], static_cast<i8>(i));
}

TEST(WinogradRef, InputTileTransformKnownValues) {
  // d = constant 1 everywhere: B^T d B has a known sparse pattern.
  i16 d[16];
  for (auto& v : d) v = 1;
  i16 v[16];
  winograd_input_tile(d, v);
  // Row/col combinations of (1,0,-1,0)-style sums: verify exhaustively
  // against a direct matrix product.
  const int bt[4][4] = {{1, 0, -1, 0}, {0, 1, 1, 0}, {0, -1, 1, 0}, {0, 1, 0, -1}};
  i32 t[16], expect[16];
  for (int i = 0; i < 4; ++i)
    for (int j = 0; j < 4; ++j) {
      i32 acc = 0;
      for (int k = 0; k < 4; ++k) acc += bt[i][k] * d[k * 4 + j];
      t[i * 4 + j] = acc;
    }
  for (int i = 0; i < 4; ++i)
    for (int j = 0; j < 4; ++j) {
      i32 acc = 0;
      for (int k = 0; k < 4; ++k) acc += t[i * 4 + k] * bt[j][k];
      expect[i * 4 + j] = acc;
    }
  for (int i = 0; i < 16; ++i) EXPECT_EQ(v[i], expect[i]);
}

TEST(WinogradRef, InputRangeGrowsAtMost4x) {
  // Paper Sec. 3.4: B^T d B increases the numeric range by at most 4x.
  Rng rng(9);
  for (int t = 0; t < 200; ++t) {
    i16 d[16];
    for (auto& x : d) x = static_cast<i16>(rng.uniform(-31, 31));  // 6-bit
    i16 v[16];
    winograd_input_tile(d, v);
    for (i16 x : v) {
      EXPECT_GE(x, -124);
      EXPECT_LE(x, 124);
    }
  }
}

TEST(WinogradRef, WeightRangeGrowsAtMost9Quarters) {
  Rng rng(10);
  Tensor<i8> w(Shape4{4, 4, 3, 3});
  for (auto& x : w.span()) x = static_cast<i8>(rng.uniform(-31, 31));
  const Tensor<i16> u4 = winograd_weight_exact(w, 4, 4);
  for (i16 x : u4.span()) {
    EXPECT_GE(x, -9 * 31);  // 4*U bounded by 9*qmax
    EXPECT_LE(x, 9 * 31);
  }
  const Tensor<i8> u8 = winograd_weight_rounded(w, 4, 4);
  for (i8 x : u8.span()) {
    EXPECT_GE(x, -70);
    EXPECT_LE(x, 70);
  }
}

class WinogradExactEqualsDirect : public ::testing::TestWithParam<ShapeCase> {};

TEST_P(WinogradExactEqualsDirect, BitExact) {
  const auto p = GetParam();
  const ConvShape s = shape(p.b, p.ic, p.hw, p.oc, p.k, p.st, p.pad);
  ASSERT_TRUE(s.winograd_eligible());
  const Tensor<i8> in =
      random_qtensor(Shape4{s.batch, s.in_c, s.in_h, s.in_w}, 6, 21);
  const Tensor<i8> w =
      random_qtensor(Shape4{s.out_c, s.in_c, 3, 3}, 6, 22);
  const Tensor<i32> direct = conv2d_s32(s, in, w);
  const Tensor<i32> wino =
      winograd_conv_s32(s, in, w, WinogradWeightMode::kExactInt16);
  EXPECT_EQ(count_mismatches(direct, wino), 0);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, WinogradExactEqualsDirect,
    ::testing::Values(ShapeCase{1, 2, 6, 3, 3, 1, 1},   // even output
                      ShapeCase{1, 3, 7, 2, 3, 1, 1},   // odd output (edge tile)
                      ShapeCase{1, 1, 4, 1, 3, 1, 0},   // no padding
                      ShapeCase{2, 2, 5, 2, 3, 1, 1},   // batched
                      ShapeCase{1, 4, 9, 4, 3, 1, 1}));

TEST(WinogradRef, RoundedMatchesExactWhenTransformIsIntegral) {
  // If every weight is a multiple of 4, G g G^T is integral, so the
  // rounded-int8 mode must agree with the exact mode (and with direct conv).
  const ConvShape s = shape(1, 2, 6, 2, 3, 1, 1);
  Rng rng(33);
  Tensor<i8> w(Shape4{2, 2, 3, 3});
  for (auto& x : w.span()) x = static_cast<i8>(4 * rng.uniform(-7, 7));
  const Tensor<i8> in =
      random_qtensor(Shape4{1, 2, 6, 6}, 6, 34);
  const Tensor<i32> direct = conv2d_s32(s, in, w);
  const Tensor<i32> rounded =
      winograd_conv_s32(s, in, w, WinogradWeightMode::kRoundedInt8);
  EXPECT_EQ(count_mismatches(direct, rounded), 0);
}

TEST(WinogradRef, RoundedErrorIsBounded) {
  // Winograd-domain rounding perturbs each U entry by at most 1/2, so the
  // output error is bounded by sum over 16 coords of |V| * 1/2 * |A^T..A|
  // contributions; empirically small relative to the output magnitude.
  const ConvShape s = shape(1, 4, 8, 4, 3, 1, 1);
  const Tensor<i8> in = random_qtensor(Shape4{1, 4, 8, 8}, 4, 40);
  const Tensor<i8> w = random_qtensor(Shape4{4, 4, 3, 3}, 4, 41);
  const Tensor<i32> direct = conv2d_s32(s, in, w);
  const Tensor<i32> rounded =
      winograd_conv_s32(s, in, w, WinogradWeightMode::kRoundedInt8);
  for (i64 i = 0; i < direct.elems(); ++i) {
    const i32 err = std::abs(direct.data()[i] - rounded.data()[i]);
    EXPECT_LE(err, 16 * 4 * 28);  // coarse analytic bound, never binding
  }
}

TEST(ConvRefF32, MatchesS32OnIntegerData) {
  const ConvShape s = shape(1, 3, 6, 2, 3, 1, 1);
  const Tensor<i8> in = random_qtensor(Shape4{1, 3, 6, 6}, 8, 50);
  const Tensor<i8> w = random_qtensor(Shape4{2, 3, 3, 3}, 8, 51);
  Tensor<float> inf(in.shape()), wf(w.shape());
  for (i64 i = 0; i < in.elems(); ++i)
    inf.data()[i] = static_cast<float>(in.data()[i]);
  for (i64 i = 0; i < w.elems(); ++i)
    wf.data()[i] = static_cast<float>(w.data()[i]);
  const Tensor<i32> si = conv2d_s32(s, in, w);
  const Tensor<float> sf = conv2d_f32(s, inf, wf);
  for (i64 i = 0; i < si.elems(); ++i)
    EXPECT_FLOAT_EQ(static_cast<float>(si.data()[i]), sf.data()[i]);
}

// ---------------------------------------------------------------------------
// Fast fp32 conv vs its oracle (the Fp32Conv suite also runs in CI under
// -march=x86-64-v3, where FMA is available to the compiler)
// ---------------------------------------------------------------------------

bool same_bytes(const Tensor<float>& a, const Tensor<float>& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.elems()) * sizeof(float)) == 0;
}

TEST(Fp32Conv, FastMatchesOracleBytewiseOverShapeGrid) {
  // Stride 1 and 2; 1x1, and 3x3 at pad 0, 1 and 2 (pad 2 leaves border
  // outputs with a single in-bounds tap row); odd, non-square inputs;
  // out_c below, at and past the 4-channel block; batch 1 and 2. The
  // second batch item is all zeros and output channel 0's weights are all
  // negative, so every product there is -0.0: a sum started from its first
  // product instead of +0.0f would keep a -0.0 where the oracle has +0.0.
  u64 seed = 700;
  for (const auto& [k, pad] : {std::pair<i64, i64>{1, 0}, {3, 0}, {3, 1},
                               {3, 2}})
    for (const i64 stride : {1, 2})
      for (const i64 out_c : {1, 4, 6, 9})
        for (const i64 batch : {1, 2}) {
          ConvShape s = shape(batch, 3, 7, out_c, k, stride, pad);
          s.in_w = 6;
          ASSERT_TRUE(s.valid());
          Tensor<float> in = random_ftensor(
              Shape4{batch, s.in_c, s.in_h, s.in_w}, -1.0f, 1.0f, ++seed);
          Tensor<float> w = random_ftensor(
              Shape4{out_c, s.in_c, k, k}, -0.5f, 0.5f, ++seed);
          if (batch == 2)
            std::fill(in.data() + in.elems() / 2, in.data() + in.elems(), 0.0f);
          for (i64 j = 0; j < w.elems() / out_c; ++j)
            w.data()[j] = -std::fabs(w.data()[j]);
          EXPECT_TRUE(same_bytes(conv2d_f32_fast(s, in, w),
                                 conv2d_f32(s, in, w)))
              << "k" << k << " s" << stride << " p" << pad << " oc"
              << out_c << " b" << batch;
        }
}

TEST(Fp32Conv, ZeroInputAgainstNegativeWeightsIsPositiveZero) {
  // Every product is -0.0; the oracle's +0.0f start turns the sum into
  // +0.0, padded border outputs included.
  const ConvShape s = shape(1, 2, 5, 5, 3, 1, 1);
  const Tensor<float> in(Shape4{1, 2, 5, 5}, 0.0f);
  const Tensor<float> w(Shape4{5, 2, 3, 3}, -0.75f);
  const Tensor<float> want = conv2d_f32(s, in, w);
  const Tensor<float> got = conv2d_f32_fast(s, in, w);
  EXPECT_TRUE(same_bytes(got, want));
  for (const float v : got.span()) EXPECT_FALSE(std::signbit(v));
}

TEST(Fp32Conv, ProductsRoundBeforeTheAdd) {
  // Two taps: -1 * 1, then (1 + 2^-12)^2 = 1 + 2^-11 + 2^-24. Rounded to
  // float first, the second product is a tie that rounds to 1 + 2^-11, so
  // the sum is exactly 2^-11. A fused multiply-add would keep the 2^-24.
  const ConvShape s = shape(1, 2, 1, 1, 1, 1, 0);
  const float e = 1.0f + std::ldexp(1.0f, -12);
  Tensor<float> in(Shape4{1, 2, 1, 1});
  Tensor<float> w(Shape4{1, 2, 1, 1});
  in.data()[0] = 1.0f;
  in.data()[1] = e;
  w.data()[0] = -1.0f;
  w.data()[1] = e;
  const float rounded = std::ldexp(1.0f, -11);
  ASSERT_NE(rounded, std::fma(e, e, -1.0f));
  EXPECT_EQ(conv2d_f32(s, in, w).data()[0], rounded);
  EXPECT_EQ(conv2d_f32_fast(s, in, w).data()[0], rounded);
}

}  // namespace
}  // namespace lbc::ref
