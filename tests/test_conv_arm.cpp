// End-to-end ARM convolution driver tests: every algorithm against the
// reference conv on realistic (shrunken) network shapes, the space report
// (Fig. 13 accounting), and cost-model plumbing.
#include <gtest/gtest.h>

#include <vector>

#include "armkern/conv_arm.h"
#include "armkern/gemm_lowbit.h"
#include "common/rng.h"
#include "common/workspace.h"
#include "nets/nets.h"
#include "refconv/conv_ref.h"
#include "refconv/im2col.h"
#include "refconv/winograd_ref.h"

namespace lbc::armkern {
namespace {

ConvShape shape(i64 ic, i64 hw, i64 oc, i64 k, i64 st, i64 pad) {
  ConvShape s;
  s.name = "t";
  s.batch = 1;
  s.in_c = ic;
  s.in_h = s.in_w = hw;
  s.out_c = oc;
  s.kernel = k;
  s.stride = st;
  s.pad = pad;
  return s;
}

void expect_conv_exact(const ConvShape& s, const ArmConvOptions& opt,
                       u64 seed) {
  const Tensor<i8> in =
      random_qtensor(Shape4{1, s.in_c, s.in_h, s.in_w}, opt.bits, seed);
  const Tensor<i8> w =
      random_qtensor(Shape4{s.out_c, s.in_c, s.kernel, s.kernel}, opt.bits,
                     seed + 1);
  const ArmConvResult r = conv2d_s32(s, in, w, opt).value();
  const Tensor<i32> ref = ref::conv2d_s32(s, in, w);
  ASSERT_EQ(count_mismatches(ref, r.out), 0);
  EXPECT_GT(r.cycles, 0);
  EXPECT_GT(r.seconds, 0);
}

class ConvArmBits : public ::testing::TestWithParam<int> {};

TEST_P(ConvArmBits, Gemm3x3Padded) {
  ArmConvOptions o;
  o.bits = GetParam();
  expect_conv_exact(shape(6, 10, 8, 3, 1, 1), o, 1);
}

TEST_P(ConvArmBits, Gemm1x1) {
  ArmConvOptions o;
  o.bits = GetParam();
  expect_conv_exact(shape(16, 8, 24, 1, 1, 0), o, 2);
}

TEST_P(ConvArmBits, GemmStrided) {
  ArmConvOptions o;
  o.bits = GetParam();
  expect_conv_exact(shape(8, 9, 8, 1, 2, 0), o, 3);
  expect_conv_exact(shape(4, 11, 8, 3, 2, 1), o, 4);
}

TEST_P(ConvArmBits, Threaded) {
  ArmConvOptions o;
  o.bits = GetParam();
  o.threads = 3;
  expect_conv_exact(shape(8, 10, 40, 3, 1, 1), o, 5);
}

INSTANTIATE_TEST_SUITE_P(Bits2to8, ConvArmBits, ::testing::Range(2, 9));

TEST(ConvArm, NcnnBaselinePath) {
  ArmConvOptions o;
  o.bits = 8;
  o.kernel = ArmKernel::kNcnn;
  expect_conv_exact(shape(8, 8, 8, 3, 1, 1), o, 6);
}

TEST(ConvArm, BitserialPath) {
  ArmConvOptions o;
  o.bits = 2;
  o.algo = ConvAlgo::kBitserial;
  expect_conv_exact(shape(8, 8, 8, 3, 1, 1), o, 7);
}

TEST(ConvArm, TraditionalPath) {
  ArmConvOptions o;
  o.bits = 8;
  o.kernel = ArmKernel::kTraditional;
  expect_conv_exact(shape(4, 6, 4, 3, 1, 1), o, 8);
}

TEST(ConvArm, WinogradAutoDispatch) {
  // kAuto with 4-6 bits on a 3x3/s1 layer must take the winograd path and
  // match the rounded-winograd reference.
  const ConvShape s = shape(4, 8, 4, 3, 1, 1);
  const Tensor<i8> in = random_qtensor(Shape4{1, 4, 8, 8}, 5, 9);
  const Tensor<i8> w = random_qtensor(Shape4{4, 4, 3, 3}, 5, 10);
  ArmConvOptions o;
  o.bits = 5;
  o.algo = ConvAlgo::kAuto;
  const ArmConvResult r = conv2d_s32(s, in, w, o).value();
  const Tensor<i32> ref =
      ref::winograd_conv_s32(s, in, w, ref::WinogradWeightMode::kRoundedInt8);
  EXPECT_EQ(count_mismatches(ref, r.out), 0);
  EXPECT_GT(r.counts[armsim::Op::kAdd], 0u);  // transforms happened
}

TEST(ConvArm, AutoFallsBackToGemmOutsideWinogradRange) {
  const ConvShape s = shape(4, 8, 4, 3, 1, 1);
  const Tensor<i8> in = random_qtensor(Shape4{1, 4, 8, 8}, 2, 11);
  const Tensor<i8> w = random_qtensor(Shape4{4, 4, 3, 3}, 2, 12);
  ArmConvOptions o;
  o.bits = 2;  // winograd not eligible below 4 bits
  o.algo = ConvAlgo::kAuto;
  const ArmConvResult r = conv2d_s32(s, in, w, o).value();
  EXPECT_EQ(count_mismatches(ref::conv2d_s32(s, in, w), r.out), 0);
}

TEST(ConvArm, SpaceReportReproducesPaperFig13Extremes) {
  // conv2: im2col overhead 8.6034x; conv18: 1.0218x (paper Sec. 5.4).
  // The paper materializes the full im2col matrix — that is the unblocked
  // path, so pin blocking off for the reference numbers.
  ConvShape conv2 = shape(64, 56, 64, 3, 1, 1);
  ConvShape conv18 = shape(1024, 14, 2048, 1, 2, 0);
  const Tensor<i8> in2 = random_qtensor(Shape4{1, 64, 56, 56}, 8, 13);
  const Tensor<i8> w2 = random_qtensor(Shape4{64, 64, 3, 3}, 8, 14);
  ArmConvOptions o;
  o.blocking = BlockingPolicy::kOff;
  const ArmConvResult r2 = conv2d_s32(conv2, in2, w2, o).value();
  EXPECT_NEAR(r2.space.im2col_overhead(), 8.6034, 1e-3);

  const Tensor<i8> in18 = random_qtensor(Shape4{1, 1024, 14, 14}, 8, 15);
  const Tensor<i8> w18 = random_qtensor(Shape4{2048, 1024, 1, 1}, 8, 16);
  const ArmConvResult r18 = conv2d_s32(conv18, in18, w18, o).value();
  EXPECT_NEAR(r18.space.im2col_overhead(), 1.0218, 1e-3);
}

TEST(ConvArm, FusedPackingCollapsesIm2colFootprint) {
  // With blocking on (the default), the im2col matrix is never
  // materialized: the reported activation scratch is one (Kc x Nc) block
  // buffer per worker, far below the paper's 8.6x worst case.
  ConvShape conv2 = shape(64, 56, 64, 3, 1, 1);
  const Tensor<i8> in2 = random_qtensor(Shape4{1, 64, 56, 56}, 8, 13);
  const Tensor<i8> w2 = random_qtensor(Shape4{64, 64, 3, 3}, 8, 14);
  const ArmConvResult fused = conv2d_s32(conv2, in2, w2, {}).value();
  ArmConvOptions off;
  off.blocking = BlockingPolicy::kOff;
  const ArmConvResult mat = conv2d_s32(conv2, in2, w2, off).value();
  EXPECT_GT(fused.space.im2col_elems, 0);
  EXPECT_LT(fused.space.im2col_elems, mat.space.im2col_elems / 8);
  EXPECT_LT(fused.space.im2col_overhead(), 1.2);
  // Same math either way.
  EXPECT_EQ(count_mismatches(mat.out, fused.out), 0);
}

TEST(ConvArm, PackOverheadIsOneWhenAligned) {
  // M, N multiples of 16/4: padding adds nothing (paper: 1.0x for most).
  const ConvShape s = shape(16, 8, 32, 1, 1, 0);  // N = 64, M = 32, K = 16
  const Tensor<i8> in = random_qtensor(Shape4{1, 16, 8, 8}, 8, 17);
  const Tensor<i8> w = random_qtensor(Shape4{32, 16, 1, 1}, 8, 18);
  const ArmConvResult r = conv2d_s32(s, in, w, ArmConvOptions{}).value();
  EXPECT_DOUBLE_EQ(r.space.pack_overhead(), 1.0);
}

TEST(ConvArm, MaterializedCountsHoldTheBPackOnce) {
  // The unblocked (materialized) path's counts are its im2col tally plus
  // what gemm_s8s32_prepacked counts for the same im2col matrix, whose
  // counts already include the B pack pre-pass. The pre-pass used to be
  // counted a second time: 10,800 LD1 here instead of 9,900.
  const ConvShape s = shape(16, 10, 32, 3, 1, 1);
  const Tensor<i8> in = random_qtensor(Shape4{1, 16, 10, 10}, 4, 21);
  const Tensor<i8> w = random_qtensor(Shape4{32, 16, 3, 3}, 4, 22);
  ArmConvOptions opt;
  opt.bits = 4;
  opt.blocking = BlockingPolicy::kOff;
  const ArmConvPlan plan = plan_conv(s, w, opt).value();
  ASSERT_FALSE(plan.blocking.enabled());
  Workspace ws;
  const ArmConvResult r = execute_conv(plan, in, ws).value();

  const i64 m = s.gemm_m(), n = s.gemm_n(), k = s.gemm_k();
  std::vector<i8> bmat(static_cast<size_t>(k * n));
  ref::im2col_into(s, in, bmat.data());
  std::vector<i32> c(static_cast<size_t>(m * n));
  GemmOptions g;
  g.bits = 4;
  g.kernel = plan.kernel;
  const GemmStats gs = gemm_s8s32_prepacked(plan.gemm_a.view(), bmat.data(),
                                            c.data(), m, n, k, g);
  // The im2col tally moves 8 bytes per LD1/ST1 pair.
  const u64 im2col_moves = static_cast<u64>(ceil_div(k * n, i64{8}));
  EXPECT_EQ(r.counts[armsim::Op::kLd1], gs.counts[armsim::Op::kLd1] +
                                            im2col_moves);
  EXPECT_EQ(r.counts[armsim::Op::kLd1], 9900u);
  EXPECT_EQ(r.counts[armsim::Op::kSt1], gs.counts[armsim::Op::kSt1] +
                                            im2col_moves);
  for (const armsim::Op op : {armsim::Op::kLd4r, armsim::Op::kSmlal8,
                              armsim::Op::kSaddw16, armsim::Op::kMovVX})
    EXPECT_EQ(r.counts[op], gs.counts[op]) << armsim::op_name(op);
  EXPECT_TRUE(r.out == ref::conv2d_s32(s, in, w));
}

TEST(ConvArm, ShrunkenResNetLayersAllBitsExact) {
  // Every ResNet-50 layer shape, shrunk to test size, across 3 bit widths.
  const auto layers = nets::shrink_for_tests(nets::resnet50_layers(), 8, 24);
  for (int bits : {2, 4, 8}) {
    u64 seed = 1000 + static_cast<u64>(bits);
    for (const auto& s : layers) {
      ArmConvOptions o;
      o.bits = bits;
      expect_conv_exact(s, o, seed);
      seed += 2;
    }
  }
}

}  // namespace
}  // namespace lbc::armkern
