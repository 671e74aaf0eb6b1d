// Unit + property tests for the quantization module: scheme selection,
// fixed-point requantization exactness, ReLU range folding, round trips.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "quant/quantize.h"

namespace lbc::quant {
namespace {

TEST(QScheme, ChooseSchemeMapsAbsmaxToQmax) {
  const QScheme s = choose_scheme(2.54f, 8).value();
  EXPECT_EQ(s.bits, 8);
  EXPECT_FLOAT_EQ(s.scale, 2.54f / 127.0f);
  EXPECT_EQ(s.qmax(), 127);
  EXPECT_EQ(s.qmin(), -127);
}

TEST(QScheme, ZeroAbsmaxFallsBackToUnitScale) {
  EXPECT_FLOAT_EQ(choose_scheme(0.0f, 4).value().scale, 1.0f);
}

class MultiplierExactness : public ::testing::TestWithParam<int> {};

TEST_P(MultiplierExactness, MatchesDoubleRounding) {
  // apply_multiplier must agree with round(acc * m) (ties away from zero)
  // for every multiplier the requantization path can produce.
  Rng rng(static_cast<u64>(GetParam()));
  for (int t = 0; t < 2000; ++t) {
    const double m = std::exp(rng.uniform_f(-8.0f, -0.01f));  // m in (3e-4, 1)
    const FixedPointMultiplier fp = make_multiplier(m);
    const i32 acc = rng.uniform(-1 << 22, 1 << 22);
    const i32 got = apply_multiplier(acc, fp);
    const double exact = static_cast<double>(acc) * m;
    // fp.mult approximates m to ~1e-9 relative; the rounded results can
    // differ only when exact lands within that slack of a .5 boundary.
    EXPECT_NEAR(static_cast<double>(got), exact, 0.5 + 1e-4 * std::fabs(exact));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MultiplierExactness, ::testing::Values(1, 2, 3));

TEST(Multiplier, KnownValues) {
  const FixedPointMultiplier half = make_multiplier(0.5);
  EXPECT_EQ(apply_multiplier(100, half), 50);
  EXPECT_EQ(apply_multiplier(101, half), 51);   // 50.5 rounds away from zero
  EXPECT_EQ(apply_multiplier(-101, half), -51);
  const FixedPointMultiplier tiny = make_multiplier(1.0 / 1024.0);
  EXPECT_EQ(apply_multiplier(1024, tiny), 1);
  EXPECT_EQ(apply_multiplier(511, tiny), 0);
  EXPECT_EQ(apply_multiplier(512, tiny), 1);  // exactly .5 -> away from zero
}

TEST(ClampRange, ReluFoldingChangesOnlyLowerBound) {
  const ClampRange plain = clamp_for(8, false);
  const ClampRange relu = clamp_for(8, true);
  EXPECT_EQ(plain.lo, -127);
  EXPECT_EQ(plain.hi, 127);
  EXPECT_EQ(relu.lo, 0);
  EXPECT_EQ(relu.hi, 127);
  EXPECT_EQ(clamp_for(4, true).hi, 7);
}

class QuantRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(QuantRoundTrip, QuantizeDequantizeErrorBounded) {
  const int bits = GetParam();
  const Tensor<float> x = random_ftensor(Shape4{1, 2, 6, 6}, -3.0f, 3.0f, 5);
  const QScheme s = choose_scheme(3.0f, bits).value();
  const Tensor<i8> q = quantize(x, s);
  const Tensor<float> back = dequantize(q, s);
  for (size_t i = 0; i < x.span().size(); ++i)
    EXPECT_LE(std::fabs(x.span()[i] - back.span()[i]), s.scale * 0.5f + 1e-6f);
}

TEST_P(QuantRoundTrip, QuantOfDequantIsIdentity) {
  // The pipeline-fusion equivalence relies on quant(dequant(q)) == q.
  const int bits = GetParam();
  const QScheme s = choose_scheme(1.7f, bits).value();
  Tensor<i8> q = random_qtensor(Shape4{1, 1, 8, 8}, bits, 17);
  const Tensor<i8> q2 = quantize(dequantize(q, s), s);
  EXPECT_EQ(count_mismatches(q, q2), 0);
}

INSTANTIATE_TEST_SUITE_P(AllBits, QuantRoundTrip, ::testing::Range(2, 9));

TEST(Quantize, Clamps) {
  Tensor<float> x(Shape4{1, 1, 1, 2});
  x.at(0, 0, 0, 0) = 100.0f;
  x.at(0, 0, 0, 1) = -100.0f;
  const QScheme s{.scale = 1.0f, .bits = 4};
  const Tensor<i8> q = quantize(x, s);
  EXPECT_EQ(q.at(0, 0, 0, 0), 7);
  EXPECT_EQ(q.at(0, 0, 0, 1), -7);
}

TEST(Requantize, OneValueWithClamp) {
  const QScheme in = choose_scheme(1.0f, 8).value(), w = choose_scheme(1.0f, 8).value(),
                out = choose_scheme(4.0f, 8).value();
  const RequantParams p = make_requant(in, w, out, false);
  EXPECT_EQ(requantize_one(0, p), 0);
  // A huge accumulator saturates at qmax.
  EXPECT_EQ(requantize_one(2000000000, p), 127);
  EXPECT_EQ(requantize_one(-2000000000, p), -127);
}

TEST(Requantize, ReluFusedClampsNegativeToZero) {
  const QScheme in = choose_scheme(1.0f, 8).value(), w = choose_scheme(1.0f, 8).value(),
                out = choose_scheme(1.0f, 8).value();
  const RequantParams p = make_requant(in, w, out, true);
  EXPECT_EQ(requantize_one(-50000, p), 0);
  EXPECT_GT(requantize_one(50000, p), 0);
}

TEST(Requantize, TensorWithPerChannelBias) {
  Tensor<i32> acc(Shape4{1, 2, 1, 1});
  acc.at(0, 0, 0, 0) = 100;
  acc.at(0, 1, 0, 0) = 100;
  const std::vector<i32> bias = {0, 27};
  const QScheme u = choose_scheme(127.0f, 8).value();
  const RequantParams p = make_requant(u, u, u, false);  // multiplier ~1
  const Tensor<i8> q = requantize(acc, bias, p);
  EXPECT_EQ(q.at(0, 0, 0, 0), 100);
  EXPECT_EQ(q.at(0, 1, 0, 0), 127);  // 127 after bias, saturated
}

TEST(ReluQ, ZeroesNegatives) {
  Tensor<i8> q(Shape4{1, 1, 1, 4});
  q.data()[0] = -5;
  q.data()[1] = 0;
  q.data()[2] = 5;
  q.data()[3] = -128;
  const Tensor<i8> r = relu_q(q);
  EXPECT_EQ(r.data()[0], 0);
  EXPECT_EQ(r.data()[1], 0);
  EXPECT_EQ(r.data()[2], 5);
  EXPECT_EQ(r.data()[3], 0);
}

TEST(QScheme, AbsmaxPropagatesNaNAndInfinity) {
  EXPECT_EQ(absmax({}), 0.0f);
  const std::vector<float> finite{0.5f, -3.0f, 2.0f};
  EXPECT_EQ(absmax(finite), 3.0f);
  // NaN at every position, including after the largest finite value, where
  // std::max(m, |v|) would drop it.
  for (size_t pos = 0; pos < finite.size(); ++pos) {
    std::vector<float> v = finite;
    v[pos] = std::nanf("");
    EXPECT_TRUE(std::isnan(absmax(v))) << pos;
    EXPECT_EQ(choose_scheme(absmax(v), 8).status().code(),
              StatusCode::kInvalidArgument);
  }
  std::vector<float> v = finite;
  v[1] = -std::numeric_limits<float>::infinity();
  EXPECT_EQ(absmax(v), std::numeric_limits<float>::infinity());
  EXPECT_FALSE(choose_scheme(absmax(v), 8).ok());
}

TEST(QuantizeBias, RoundsHalfAwayFromZeroAndZeroFills) {
  QScheme unit;
  const std::vector<float> bias{2.5f, -2.5f, 0.49f, -7.0f};
  EXPECT_EQ(quantize_bias(bias, 4, unit, unit, 9).value(),
            (std::vector<i32>{3, -3, 0, -7}));
  // Same rounding as std::lround at a real accumulator scale.
  const QScheme in = choose_scheme(1.3f, 4).value();
  const QScheme w = choose_scheme(0.7f, 4).value();
  const float acc_scale = in.scale * w.scale;
  const std::vector<float> real{0.31f, -1.7f, 0.02f, 5.5f};
  const std::vector<i32> q = quantize_bias(real, 4, in, w, 9).value();
  for (size_t c = 0; c < real.size(); ++c)
    EXPECT_EQ(q[c], static_cast<i32>(std::lround(real[c] / acc_scale)));
  EXPECT_EQ(quantize_bias({}, 3, in, w, 9).value(), std::vector<i32>(3, 0));
  EXPECT_EQ(quantize_bias(std::vector<float>{1.0f}, 3, in, w, 9)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(QuantizeBias, RejectsWhatTheAccumulatorCannotHold) {
  // Unit 2-bit schemes: bias_q = bias and |acc| <= depth. A depth of
  // 2^30 - 1 leaves exactly 2^30 of i32 headroom for |bias_q|.
  QScheme unit;
  unit.bits = 2;
  const i64 depth = (i64{1} << 30) - 1;
  const float edge = std::ldexp(1.0f, 30);
  EXPECT_EQ(quantize_bias(std::vector<float>{edge, -edge}, 2, unit, unit,
                          depth)
                .value(),
            (std::vector<i32>{1 << 30, -(1 << 30)}));
  const float past = std::nextafter(edge, 2 * edge);
  for (const float b : {past, -past, 1e10f})
    EXPECT_EQ(
        quantize_bias(std::vector<float>{b}, 1, unit, unit, depth)
            .status()
            .code(),
        StatusCode::kOutOfRange)
        << b;
  for (const float b : {std::nanf(""), std::numeric_limits<float>::infinity()})
    EXPECT_EQ(
        quantize_bias(std::vector<float>{b}, 1, unit, unit, depth)
            .status()
            .code(),
        StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace lbc::quant
