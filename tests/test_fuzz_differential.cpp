// Randomized differential testing: every optimized kernel against the
// scalar reference on randomly drawn shapes, bit widths, and data
// (including extreme values), with deterministic seeds. Each TEST_P seed
// runs dozens of random cases, so this file contributes several hundred
// distinct kernel-vs-oracle comparisons.
#include <gtest/gtest.h>

#include <vector>

#include "armkern/bitserial.h"
#include "armkern/conv_arm.h"
#include "armkern/pack.h"
#include "armkern/winograd23.h"
#include "common/workspace.h"
#include "core/engine.h"
#include "refconv/winograd_ref.h"
#include "common/rng.h"
#include "gpukern/conv_igemm.h"
#include "refconv/conv_ref.h"
#include "refconv/gemm_ref.h"

namespace lbc {
namespace {

ConvShape random_conv_shape(Rng& rng) {
  ConvShape s;
  s.name = "fuzz";
  s.batch = 1;
  s.kernel = rng.uniform(0, 1) ? 1 : 3;
  if (rng.uniform(0, 4) == 0) s.kernel = 5;
  s.stride = rng.uniform(0, 2) == 0 ? 2 : 1;
  s.pad = (s.kernel > 1 && rng.uniform(0, 1)) ? s.kernel / 2 : 0;
  s.in_c = rng.uniform(1, 24);
  s.out_c = rng.uniform(1, 40);
  s.in_h = s.in_w =
      rng.uniform(static_cast<i32>(s.kernel + (s.pad ? 0 : 1)), 14);
  return s;
}

// A TBL conv in the weight-tables orientation (few output channels) with
// its tables built from the dictionary, under the verifier, at a blocking
// whose column passes span two to four 16-column index panels — one or two
// paired calls, so the tables are read straight from the dictionary — over
// an N that leaves 1-15 columns in the last index panel, and a Kc that
// often leaves a K tail. Memcmp-checked against the reference.
void fuzz_built_weight_tables(Rng& rng) {
  ConvShape s;
  s.name = "fuzz-built";
  s.batch = 1;
  s.kernel = rng.uniform(0, 1) ? 1 : 3;
  s.stride = 1;
  s.pad = s.kernel / 2;
  s.in_c = rng.uniform(1, 24);
  s.out_c = rng.uniform(1, 12);
  do {
    s.in_h = s.in_w = rng.uniform(5, 14);
  } while (s.gemm_n() % 16 == 0);
  const int bits = rng.uniform(2, 3);
  const bool nonneg = rng.uniform(0, 1) == 1;
  Tensor<i8> in = extreme_qtensor(Shape4{1, s.in_c, s.in_h, s.in_w}, bits,
                                  rng.next_u64());
  if (nonneg)
    for (i8& v : in.span()) v = static_cast<i8>(v < 0 ? -v : v);
  const Tensor<i8> w = random_qtensor(
      Shape4{s.out_c, s.in_c, s.kernel, s.kernel}, bits, rng.next_u64());

  armkern::ArmConvOptions opt;
  opt.bits = bits;
  opt.kernel = armkern::ArmKernel::kTblGemm;
  opt.blocking = armkern::BlockingPolicy::kExplicit;
  opt.explicit_blocking = armkern::GemmBlocking{
      rng.uniform(1, 64), rng.uniform(1, static_cast<i32>(s.gemm_k())),
      rng.uniform(17, 64)};
  opt.input_range = nonneg ? armkern::InputRange::kNonNegative
                           : armkern::InputRange::kSigned;
  opt.verify = true;
  armkern::ArmConvPlan plan = armkern::plan_conv(s, w, opt).value();
  const std::string where = describe(s) + " bits=" + std::to_string(bits) +
                            " nonneg=" + std::to_string(nonneg) + " {" +
                            std::to_string(plan.blocking.mc) + "," +
                            std::to_string(plan.blocking.kc) + "," +
                            std::to_string(plan.blocking.nc) + "}";
  ASSERT_EQ(plan.tbl_a.orient, armkern::TblOrientation::kWeightTables)
      << where;
  plan.tbl_a = armkern::pack_tbl_a(w.data(), s.gemm_m(), s.gemm_k(), bits,
                                   plan.tbl_a.orient, opt.input_range,
                                   armkern::TblSource::kBuilt);
  ASSERT_TRUE(plan.executed_layout(1).tbl_direct) << where;
  Workspace ws;
  const StatusOr<armkern::ArmConvResult> r =
      armkern::execute_conv(plan, in, ws);
  ASSERT_TRUE(r.ok()) << where << ": " << r.status().to_string();
  ASSERT_EQ(count_mismatches(ref::conv2d_s32(s, in, w), r.value().out), 0)
      << where;
}

class FuzzArmGemmConv : public ::testing::TestWithParam<u64> {};

TEST_P(FuzzArmGemmConv, RandomShapesAllKernels) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 25; ++iter) {
    // Every other TBL turn: built weight tables read from the dictionary.
    if (iter % 8 == 7) {
      fuzz_built_weight_tables(rng);
      if (HasFatalFailure()) return;
      continue;
    }
    const ConvShape s = random_conv_shape(rng);
    if (!s.valid()) continue;
    const int bits = rng.uniform(2, 8);
    const bool extreme = rng.uniform(0, 3) == 0;
    const auto make = extreme ? extreme_qtensor : random_qtensor;
    const Tensor<i8> in =
        make(Shape4{1, s.in_c, s.in_h, s.in_w}, bits, rng.next_u64());
    const Tensor<i8> w =
        make(Shape4{s.out_c, s.in_c, s.kernel, s.kernel}, bits, rng.next_u64());
    const Tensor<i32> ref = ref::conv2d_s32(s, in, w);

    armkern::ArmConvOptions opt;
    opt.bits = bits;
    opt.threads = rng.uniform(1, 3);
    // Rotate through the comparable kernels (TBL degrades to MLA/SMLAL
    // above 3 bit and without a blocking) and, coprime with that, through
    // the blocking policies: the searched blocking, the unblocked sweep,
    // and a random explicit one the plan clamps.
    switch (iter % 4) {
      case 0: opt.kernel = armkern::ArmKernel::kOursGemm; break;
      case 1: opt.kernel = armkern::ArmKernel::kNcnn; break;
      case 2: opt.kernel = armkern::ArmKernel::kSdotExt; break;
      case 3: opt.kernel = armkern::ArmKernel::kTblGemm; break;
    }
    switch (iter % 3) {
      case 0: opt.blocking = armkern::BlockingPolicy::kAuto; break;
      case 1: opt.blocking = armkern::BlockingPolicy::kOff; break;
      case 2:
        opt.blocking = armkern::BlockingPolicy::kExplicit;
        opt.explicit_blocking = armkern::GemmBlocking{
            rng.uniform(1, 64), rng.uniform(1, 96), rng.uniform(1, 96)};
        break;
    }
    const armkern::ArmConvResult r = armkern::conv2d_s32(s, in, w, opt).value();
    ASSERT_EQ(count_mismatches(ref, r.out), 0)
        << describe(s) << " bits=" << bits << " kernel=" << (iter % 4)
        << " blocking=" << (iter % 3) << " {" << opt.explicit_blocking.mc
        << "," << opt.explicit_blocking.kc << ","
        << opt.explicit_blocking.nc << "} threads=" << opt.threads
        << " extreme=" << extreme;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzArmGemmConv,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

class FuzzWinograd : public ::testing::TestWithParam<u64> {};

TEST_P(FuzzWinograd, RandomEligibleShapes) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 12; ++iter) {
    ConvShape s;
    s.name = "wf";
    s.batch = rng.uniform(1, 2);
    s.kernel = 3;
    s.stride = 1;
    s.pad = rng.uniform(0, 1);
    s.in_c = rng.uniform(1, 20);
    s.out_c = rng.uniform(1, 20);
    s.in_h = s.in_w = rng.uniform(4, 13);
    if (!s.valid()) continue;
    const int bits = rng.uniform(4, 6);
    const Tensor<i8> in =
        random_qtensor(Shape4{s.batch, s.in_c, s.in_h, s.in_w}, bits,
                       rng.next_u64());
    const Tensor<i8> w = random_qtensor(Shape4{s.out_c, s.in_c, 3, 3}, bits,
                                        rng.next_u64());
    Tensor<i32> out;
    armkern::winograd_conv_s32(s, in, w, bits, out);
    const Tensor<i32> ref = ref::winograd_conv_s32(
        s, in, w, ref::WinogradWeightMode::kRoundedInt8);
    ASSERT_EQ(count_mismatches(ref, out), 0) << describe(s) << " bits=" << bits;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzWinograd, ::testing::Values(7, 17, 27));

class FuzzBitserial : public ::testing::TestWithParam<u64> {};

TEST_P(FuzzBitserial, RandomGemms) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 20; ++iter) {
    const i64 m = rng.uniform(1, 20), n = rng.uniform(1, 20),
              k = rng.uniform(1, 300);
    const int bits = rng.uniform(1, 2);
    std::vector<i8> a(static_cast<size_t>(m * k)), b(static_cast<size_t>(k * n));
    const i32 lo = bits == 1 ? -1 : -2, hi = bits == 1 ? 0 : 1;
    for (auto& v : a) v = static_cast<i8>(rng.uniform(lo, hi));
    for (auto& v : b) v = static_cast<i8>(rng.uniform(lo, hi));
    std::vector<i32> c(static_cast<size_t>(m * n)), ref(c.size());
    armkern::bitserial_gemm_s8s32(a.data(), b.data(), c.data(), m, n, k, bits);
    ref::gemm_s8s32(a.data(), b.data(), ref.data(), m, n, k);
    ASSERT_EQ(c, ref) << "m=" << m << " n=" << n << " k=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzBitserial, ::testing::Values(3, 13));

class FuzzGpuIgemm : public ::testing::TestWithParam<u64> {};

TEST_P(FuzzGpuIgemm, RandomShapesAndTilings) {
  Rng rng(GetParam());
  const gpusim::DeviceSpec dev = gpusim::DeviceSpec::rtx2080ti();
  const auto space8 = gpukern::tiling_search_space(8);
  const auto space4 = gpukern::tiling_search_space(4);
  for (int iter = 0; iter < 10; ++iter) {
    ConvShape s = random_conv_shape(rng);
    s.batch = rng.uniform(1, 2);
    if (!s.valid()) continue;
    const int bits = rng.uniform(0, 1) ? 8 : 4;
    const auto& space = bits == 8 ? space8 : space4;
    gpukern::GpuConvOptions opt;
    opt.bits = bits;
    opt.use_tc = rng.uniform(0, 3) != 0;  // mostly tensor core, some dp4a
    opt.epilogue = gpukern::Epilogue::kRawS32;
    // Draw tilings until one is legal for this device.
    for (int tries = 0; tries < 50; ++tries) {
      const auto& t =
          space[static_cast<size_t>(rng.next_u64() % space.size())];
      gpusim::KernelShape ks = gpukern::make_kernel_shape(s, bits, t);
      ks.use_tc = opt.use_tc;
      if (gpusim::config_valid(dev, ks)) {
        opt.tiling = t;
        break;
      }
    }
    const Tensor<i8> in = random_qtensor(
        Shape4{s.batch, s.in_c, s.in_h, s.in_w}, bits, rng.next_u64());
    const Tensor<i8> w = random_qtensor(
        Shape4{s.out_c, s.in_c, s.kernel, s.kernel}, bits, rng.next_u64());
    const Tensor<i32> ref = ref::conv2d_s32(s, in, w);
    const gpukern::GpuConvResult r =
        gpukern::conv2d(dev, s, in, w, {}, nullptr, 1.0f, opt).value();
    ASSERT_EQ(count_mismatches(ref, r.out_s32), 0)
        << describe(s) << " bits=" << bits << " tc=" << opt.use_tc
        << " tiling " << opt.tiling.mtile << "x" << opt.tiling.ntile;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzGpuIgemm, ::testing::Values(5, 15, 25));

// ---------------------------------------------------------------------------
// Invalid/boundary-shape fuzzing: every mutated-invalid input must come
// back as a Status error (never a crash, never silent output), and every
// boundary-legal input must still run.
// ---------------------------------------------------------------------------

StatusOr<core::GpuLayerResult> core_time_gpu(const ConvShape& s, int bits) {
  return core::time_gpu_conv(gpusim::DeviceSpec::rtx2080ti(), s, bits,
                             core::GpuImpl::kOursDefaultTiling);
}

ConvShape mutate_invalid(ConvShape s, Rng& rng) {
  switch (rng.uniform(0, 6)) {
    case 0: s.in_c = 0; break;
    case 1: s.out_c = -1; break;
    case 2: s.in_h = 0; break;
    case 3: s.kernel = 0; break;
    case 4: s.stride = 0; break;
    case 5: s.stride = -2; break;
    case 6: s.pad = s.kernel + rng.uniform(0, 3); break;  // pad >= kernel
  }
  return s;
}

class FuzzInvalidShapes : public ::testing::TestWithParam<u64> {};

TEST_P(FuzzInvalidShapes, ArmDriverRejectsWithoutCrashing) {
  Rng rng(GetParam());
  int rejected = 0;
  for (int iter = 0; iter < 40; ++iter) {
    ConvShape base = random_conv_shape(rng);
    if (!base.valid()) continue;
    const ConvShape s = mutate_invalid(base, rng);
    if (s.valid()) continue;  // some mutations keep small shapes legal
    // Tensors sized for the *valid* base shape: the driver must reject on
    // the shape alone, before ever touching the data.
    const Tensor<i8> in =
        random_qtensor(Shape4{1, base.in_c, base.in_h, base.in_w}, 4,
                       rng.next_u64());
    const Tensor<i8> w = random_qtensor(
        Shape4{base.out_c, base.in_c, base.kernel, base.kernel}, 4,
        rng.next_u64());
    armkern::ArmConvOptions opt;
    opt.bits = 4;
    const auto r = armkern::conv2d_s32(s, in, w, opt);
    ASSERT_FALSE(r.ok()) << describe(s);
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << describe(s);
    ++rejected;
  }
  EXPECT_GT(rejected, 5) << "mutator produced too few invalid shapes";
}

TEST_P(FuzzInvalidShapes, BadBitWidthsRejectedAtEveryBoundary) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 10; ++iter) {
    const ConvShape s = random_conv_shape(rng);
    if (!s.valid()) continue;
    const Tensor<i8> in = random_qtensor(
        Shape4{1, s.in_c, s.in_h, s.in_w}, 4, rng.next_u64());
    const Tensor<i8> w = random_qtensor(
        Shape4{s.out_c, s.in_c, s.kernel, s.kernel}, 4, rng.next_u64());
    for (int bits : {-1, 0, 1, 9, 16}) {
      armkern::ArmConvOptions opt;
      opt.bits = bits;
      const auto r = armkern::conv2d_s32(s, in, w, opt);
      ASSERT_FALSE(r.ok()) << "bits=" << bits;
      EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    }
    for (int bits : {3, 5, 7}) {  // GPU backend: only 4 and 8 supported
      const auto r = core_time_gpu(s, bits);
      ASSERT_FALSE(r.ok()) << "gpu bits=" << bits;
    }
    // Boundary-legal widths still run.
    for (int bits : {2, 8}) {
      const Tensor<i8> bin = random_qtensor(
          Shape4{1, s.in_c, s.in_h, s.in_w}, bits, rng.next_u64());
      const Tensor<i8> bw = random_qtensor(
          Shape4{s.out_c, s.in_c, s.kernel, s.kernel}, bits, rng.next_u64());
      armkern::ArmConvOptions opt;
      opt.bits = bits;
      const auto r = armkern::conv2d_s32(s, bin, bw, opt);
      ASSERT_TRUE(r.ok()) << r.status().to_string();
      EXPECT_EQ(count_mismatches(ref::conv2d_s32(s, bin, bw), r.value().out),
                0);
    }
  }
}

TEST_P(FuzzInvalidShapes, GpuDriverRejectsWithoutCrashing) {
  Rng rng(GetParam());
  const gpusim::DeviceSpec dev = gpusim::DeviceSpec::rtx2080ti();
  int rejected = 0;
  for (int iter = 0; iter < 30; ++iter) {
    ConvShape base = random_conv_shape(rng);
    if (!base.valid()) continue;
    const ConvShape s = mutate_invalid(base, rng);
    if (s.valid()) continue;
    const Tensor<i8> in =
        random_qtensor(Shape4{1, base.in_c, base.in_h, base.in_w}, 4,
                       rng.next_u64());
    const Tensor<i8> w = random_qtensor(
        Shape4{base.out_c, base.in_c, base.kernel, base.kernel}, 4,
        rng.next_u64());
    gpukern::GpuConvOptions opt;
    opt.bits = 4;
    opt.epilogue = gpukern::Epilogue::kRawS32;
    const auto r = gpukern::conv2d(dev, s, in, w, {}, nullptr, 1.0f, opt);
    ASSERT_FALSE(r.ok()) << describe(s);
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << describe(s);
    ++rejected;
  }
  EXPECT_GT(rejected, 4);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzInvalidShapes,
                         ::testing::Values(101, 202, 303));

}  // namespace
}  // namespace lbc
