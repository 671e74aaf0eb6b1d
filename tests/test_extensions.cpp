// Tests for the extension features: the ARMv8.2 SDOT kernel, the exact
// F(4x4,3x3) winograd reference with its range analysis, and the
// multicore timing model.
#include <gtest/gtest.h>

#include <vector>

#include "armkern/conv_arm.h"
#include "armkern/gemm_lowbit.h"
#include "armkern/pack.h"
#include "armsim/neon.h"
#include "common/rng.h"
#include "core/engine.h"
#include "refconv/conv_ref.h"
#include "refconv/gemm_ref.h"
#include "refconv/winograd43_ref.h"

namespace lbc {
namespace {

using armkern::ArmKernel;
using armkern::GemmOptions;
using armkern::GemmStats;

// ---------------------------------------------------------------------------
// SDOT
// ---------------------------------------------------------------------------

TEST(Sdot, InstructionSemantics) {
  armsim::Ctx ctx;
  armsim::int8x16 a, b;
  for (int i = 0; i < 16; ++i) {
    a.v[i] = static_cast<i8>(i + 1);
    b.v[i] = static_cast<i8>(i % 2 ? -1 : 2);
  }
  armsim::int32x4 acc{};
  acc.v = {10, 20, 30, 40};
  armsim::sdot_s8(ctx, acc, a, b);
  // lane 0: 1*2 + 2*(-1) + 3*2 + 4*(-1) = 2
  EXPECT_EQ(acc.v[0], 10 + 2);
  // lane 3: 13*2 + 14*(-1) + 15*2 + 16*(-1) = 26
  EXPECT_EQ(acc.v[3], 40 + 26);
  EXPECT_EQ(ctx.counts[armsim::Op::kSdot], 1u);
}

TEST(Sdot, PackLayout) {
  // 2x6 A, 6x2 B: one panel each, K padded to 8.
  const i8 a[12] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12};
  const i8 b[12] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12};
  const armkern::PackedSdotA pa = armkern::pack_sdot_a(a, 2, 6);
  AlignedVector<i8> bbuf(
      static_cast<size_t>(armkern::packed_sdot_b_bytes(6, 2)));
  const armkern::SdotBPanels pb =
      armkern::pack_sdot_b_into(nullptr, b, 6, 2, bbuf.data());
  EXPECT_EQ(pa.k_pad, 8);
  EXPECT_EQ(pb.k_pad, 8);
  // A panel: kstep 0, row 0, depths 0..3 = {1,2,3,4}; row 1 = {7,8,9,10}.
  const i8* ap = pa.panel(0);
  EXPECT_EQ(ap[0], 1);
  EXPECT_EQ(ap[3], 4);
  EXPECT_EQ(ap[4], 7);  // row 1's first depth group
  // kstep 1, row 0, depths 4..7 = {5, 6, 0, 0} (zero-padded K).
  EXPECT_EQ(ap[(1 * armkern::kMr + 0) * 4 + 0], 5);
  EXPECT_EQ(ap[(1 * armkern::kMr + 0) * 4 + 2], 0);
  // B panel: kstep 0, col 0, depths 0..3 = B[0..3][0] = {1,3,5,7}.
  const i8* bp = pb.panel(0);
  EXPECT_EQ(bp[0], 1);
  EXPECT_EQ(bp[1], 3);
  EXPECT_EQ(bp[3], 7);
  // col 1 group: {2,4,6,8}.
  EXPECT_EQ(bp[4], 2);
}

class SdotGemm : public ::testing::TestWithParam<int> {};

TEST_P(SdotGemm, ExactAcrossBitWidths) {
  const int bits = GetParam();
  const i64 m = 21, n = 9, k = 75;  // remainders on every axis
  const Tensor<i8> a = random_qtensor(Shape4{1, 1, m, k}, bits, 61);
  const Tensor<i8> b = random_qtensor(Shape4{1, 1, k, n}, bits, 62);
  std::vector<i32> c(static_cast<size_t>(m * n)), ref(c.size());
  GemmOptions opt;
  opt.bits = bits;
  opt.kernel = ArmKernel::kSdotExt;
  gemm_s8s32(a.data(), b.data(), c.data(), m, n, k, opt);
  ref::gemm_s8s32(a.data(), b.data(), ref.data(), m, n, k);
  EXPECT_EQ(c, ref);
}

INSTANTIATE_TEST_SUITE_P(Bits, SdotGemm, ::testing::Values(2, 4, 8));

TEST(Sdot, ExactOnExtremeDeepK) {
  const i64 m = 16, n = 4, k = 4096;
  const Tensor<i8> a = extreme_qtensor(Shape4{1, 1, m, k}, 8, 63);
  const Tensor<i8> b = extreme_qtensor(Shape4{1, 1, k, n}, 8, 64);
  std::vector<i32> c(static_cast<size_t>(m * n)), ref(c.size());
  GemmOptions opt;
  opt.kernel = ArmKernel::kSdotExt;
  gemm_s8s32(a.data(), b.data(), c.data(), m, n, k, opt);
  ref::gemm_s8s32(a.data(), b.data(), ref.data(), m, n, k);
  EXPECT_EQ(c, ref);
}

TEST(Sdot, NoWideningChainInMix) {
  const i64 m = 16, n = 4, k = 128;
  const Tensor<i8> a = random_qtensor(Shape4{1, 1, m, k}, 8, 65);
  const Tensor<i8> b = random_qtensor(Shape4{1, 1, k, n}, 8, 66);
  std::vector<i32> c(static_cast<size_t>(m * n));
  GemmOptions opt;
  opt.kernel = ArmKernel::kSdotExt;
  const GemmStats st = gemm_s8s32(a.data(), b.data(), c.data(), m, n, k, opt);
  using armsim::Op;
  EXPECT_GT(st.counts[Op::kSdot], 0u);
  EXPECT_EQ(st.counts[Op::kSmlal8], 0u);
  EXPECT_EQ(st.counts[Op::kSaddw16], 0u);  // the whole point of SDOT
  // 16 SDOT per 4-depth step: k/4 * 16.
  EXPECT_EQ(st.counts[Op::kSdot], static_cast<u64>(k / 4 * 16));
}

TEST(Sdot, FasterThanEveryV81SchemeOnDeepLayers) {
  ConvShape s;
  s.name = "t";
  s.batch = 1;
  s.in_c = 256;
  s.in_h = s.in_w = 7;
  s.out_c = 64;
  s.kernel = 1;
  s.stride = 1;
  s.pad = 0;
  const Tensor<i8> in = random_qtensor(Shape4{1, 256, 7, 7}, 2, 67);
  const Tensor<i8> w = random_qtensor(Shape4{64, 256, 1, 1}, 2, 68);
  const double t_sdot =
      core::run_arm_conv(s, in, w, 8, core::ArmImpl::kSdotExt).value().seconds;
  const double t_mla2 = core::run_arm_conv(s, in, w, 2).value().seconds;
  EXPECT_LT(t_sdot, t_mla2);  // v8.2 beats even the 2-bit v8.1 scheme
}

// ---------------------------------------------------------------------------
// F(4x4, 3x3)
// ---------------------------------------------------------------------------

TEST(Winograd43, ExactAgainstDirectConv) {
  for (auto [hw, ic, oc, pad] : {std::tuple<i64, i64, i64, i64>{8, 3, 2, 1},
                                 {9, 2, 3, 1},   // odd output: edge tiles
                                 {6, 1, 1, 0},   // no padding
                                 {12, 8, 4, 1}}) {
    ConvShape s;
    s.name = "w43";
    s.batch = 1;
    s.in_c = ic;
    s.in_h = s.in_w = hw;
    s.out_c = oc;
    s.kernel = 3;
    s.stride = 1;
    s.pad = pad;
    const Tensor<i8> in =
        random_qtensor(Shape4{1, ic, hw, hw}, 8, static_cast<u64>(hw));
    const Tensor<i8> w =
        random_qtensor(Shape4{oc, ic, 3, 3}, 8, static_cast<u64>(hw) + 1);
    const Tensor<i32> direct = ref::conv2d_s32(s, in, w);
    const Tensor<i32> f44 = ref::winograd43_conv_s32(s, in, w);
    ASSERT_EQ(count_mismatches(direct, f44), 0) << "hw=" << hw;
  }
}

TEST(Winograd43, BatchedExact) {
  ConvShape s;
  s.name = "w43b";
  s.batch = 3;
  s.in_c = 2;
  s.in_h = s.in_w = 7;
  s.out_c = 2;
  s.kernel = 3;
  s.stride = 1;
  s.pad = 1;
  const Tensor<i8> in = random_qtensor(Shape4{3, 2, 7, 7}, 8, 71);
  const Tensor<i8> w = random_qtensor(Shape4{2, 2, 3, 3}, 8, 72);
  EXPECT_EQ(count_mismatches(ref::conv2d_s32(s, in, w),
                             ref::winograd43_conv_s32(s, in, w)),
            0);
}

TEST(Winograd43, InputRangeGrowthBoundIsTightAt100x) {
  // Empirically drive the transform to its analytic bound.
  Rng rng(73);
  i32 worst = 0;
  for (int t = 0; t < 500; ++t) {
    i32 d[36];
    for (auto& x : d) x = rng.uniform(0, 1) ? 127 : -127;
    i32 v[36];
    ref::winograd43_input_tile(d, v);
    for (i32 x : v) worst = std::max(worst, std::abs(x));
  }
  EXPECT_LE(worst, ref::kWinograd43InputGrowth * 127);
  EXPECT_GT(worst, 90 * 127);  // the bound is nearly attained
}

TEST(Winograd43, Int8StorageOnlyFeasibleAtTwoBits) {
  // Paper Sec. 3.4: the F(4x4) range increment is "unacceptable".
  EXPECT_TRUE(ref::winograd43_v_fits_int8(2));
  for (int bits = 3; bits <= 8; ++bits)
    EXPECT_FALSE(ref::winograd43_v_fits_int8(bits)) << bits;
}

TEST(Winograd43, WeightTransformStaysInRange) {
  Rng rng(74);
  Tensor<i8> w(Shape4{1, 1, 3, 3});
  i32 worst = 0;
  for (int t = 0; t < 200; ++t) {
    for (auto& x : w.span()) x = static_cast<i8>(rng.uniform(-127, 127));
    i32 u576[36];
    ref::winograd43_weight_tile(w.data(), u576);
    for (i32 x : u576) worst = std::max(worst, std::abs(x));
  }
  // |U| <= kWinograd43WeightGrowth * qmax  (scaled by 576 here).
  EXPECT_LE(worst, ref::kWinograd43WeightGrowth * 127 * 576);
}

// ---------------------------------------------------------------------------
// Multicore timing model
// ---------------------------------------------------------------------------

TEST(Multicore, ModeledTimeScalesDown) {
  ConvShape s;
  s.name = "mc";
  s.batch = 1;
  s.in_c = 64;
  s.in_h = s.in_w = 14;
  s.out_c = 128;
  s.kernel = 3;
  s.stride = 1;
  s.pad = 1;
  const Tensor<i8> in = random_qtensor(Shape4{1, 64, 14, 14}, 4, 75);
  const Tensor<i8> w = random_qtensor(Shape4{128, 64, 3, 3}, 4, 76);
  const double t1 = core::run_arm_conv(s, in, w, 4, core::ArmImpl::kOurs,
                                       armkern::ConvAlgo::kGemm, 1).value()
                        .seconds;
  const double t2 = core::run_arm_conv(s, in, w, 4, core::ArmImpl::kOurs,
                                       armkern::ConvAlgo::kGemm, 2).value()
                        .seconds;
  const double t4 = core::run_arm_conv(s, in, w, 4, core::ArmImpl::kOurs,
                                       armkern::ConvAlgo::kGemm, 4).value()
                        .seconds;
  EXPECT_LT(t2, t1);
  EXPECT_LT(t4, t2);
  EXPECT_GT(t1 / t4, 2.0);   // real scaling on a compute-heavy layer
  EXPECT_LT(t1 / t4, 4.0);   // but sublinear: serial im2col/pack + sync
}

TEST(Multicore, InstructionCountsConserved) {
  // Threading must not change the total work, only its distribution.
  const i64 m = 64, n = 32, k = 64;
  const Tensor<i8> a = random_qtensor(Shape4{1, 1, m, k}, 4, 77);
  const Tensor<i8> b = random_qtensor(Shape4{1, 1, k, n}, 4, 78);
  std::vector<i32> c(static_cast<size_t>(m * n));
  GemmOptions o1, o4;
  o1.bits = o4.bits = 4;
  o1.threads = 1;
  o4.threads = 4;
  const GemmStats s1 = gemm_s8s32(a.data(), b.data(), c.data(), m, n, k, o1);
  const GemmStats s4 = gemm_s8s32(a.data(), b.data(), c.data(), m, n, k, o4);
  // Executed instructions are identical; cache misses are NOT (each worker
  // core has its own L1/L2 model), so compare totals without the stalls.
  auto instr_total = [](const armsim::Counters& cn) {
    return cn.total() - cn[armsim::Op::kL1Miss] - cn[armsim::Op::kL2Miss];
  };
  EXPECT_EQ(instr_total(s1.counts), instr_total(s4.counts));
  EXPECT_EQ(s4.thread_counts.size(), 4u);
  u64 sum = s4.serial_counts.total();
  for (const auto& tc : s4.thread_counts) sum += tc.total();
  EXPECT_EQ(sum, s4.counts.total());
}

TEST(Multicore, ThreadsCappedByPanels) {
  // 16 rows = one panel: requesting 8 threads must not break anything.
  const i64 m = 16, n = 8, k = 32;
  const Tensor<i8> a = random_qtensor(Shape4{1, 1, m, k}, 8, 79);
  const Tensor<i8> b = random_qtensor(Shape4{1, 1, k, n}, 8, 80);
  std::vector<i32> c(static_cast<size_t>(m * n)), ref(c.size());
  GemmOptions opt;
  opt.threads = 8;
  const GemmStats st = gemm_s8s32(a.data(), b.data(), c.data(), m, n, k, opt);
  ref::gemm_s8s32(a.data(), b.data(), ref.data(), m, n, k);
  EXPECT_EQ(c, ref);
  EXPECT_EQ(st.thread_counts.size(), 1u);
}

}  // namespace
}  // namespace lbc
