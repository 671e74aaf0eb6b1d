// TBL lookup-table scheme (DESIGN.md Sec. 16): bit-exactness of both
// orientations vs the reference GEMM, ternary pack detection and its edge
// cases, plan-level eligibility degrades, checked execution under the
// invariant verifier, orientation pricing, and the prover's TBL obligations
// with mutation tests that must fail at the exact named obligation.
#include <gtest/gtest.h>

#include <vector>

#include "armkern/conv_arm.h"
#include "armkern/gemm_blocked.h"
#include "armkern/gemm_lowbit.h"
#include "armkern/pack.h"
#include "armkern/schemes.h"
#include "armkern/tile_search.h"
#include "armkern/verify_kernels.h"
#include "check/kernel_prover.h"
#include "common/rng.h"
#include "common/workspace.h"
#include "refconv/conv_ref.h"
#include "refconv/gemm_ref.h"

namespace lbc::armkern {
namespace {

ConvShape conv_shape(i64 ic, i64 hw, i64 oc, i64 k, i64 st, i64 pad) {
  ConvShape s;
  s.name = "tbl";
  s.in_c = ic;
  s.in_h = s.in_w = hw;
  s.out_c = oc;
  s.kernel = k;
  s.stride = st;
  s.pad = pad;
  return s;
}

Tensor<i8> ternary_tensor(Shape4 shape, u64 seed) {
  Tensor<i8> t(shape);
  u64 st = seed;
  for (i64 i = 0; i < t.elems(); ++i) {
    st = st * 6364136223846793005ull + 1442695040888963407ull;
    t.data()[i] = static_cast<i8>(static_cast<i64>((st >> 33) % 3) - 1);
  }
  return t;
}

// ---------------------------------------------------------------------------
// GEMM-level bit-exactness, both orientations forced explicitly
// ---------------------------------------------------------------------------

void expect_tbl_exact(const Tensor<i8>& a, const Tensor<i8>& b, i64 m, i64 n,
                      i64 k, int bits, TblOrientation orient,
                      const GemmBlocking& blocking) {
  const PackedTblA ta = pack_tbl_a(a.data(), m, k, bits, orient);
  GemmOptions opt;
  opt.bits = bits;
  opt.kernel = ArmKernel::kTblGemm;
  opt.blocking = clamp_blocking(blocking, m, n, k, /*sdot=*/false, ta.group);
  std::vector<i32> c(static_cast<size_t>(m * n), -1);
  gemm_blocked_tbl_prepacked(ta.view(), b.data(), c.data(), m, n, k, opt);

  std::vector<i32> ref(static_cast<size_t>(m * n), -2);
  ref::gemm_s8s32(a.data(), b.data(), ref.data(), m, n, k);
  ASSERT_EQ(c, ref) << "bits=" << bits
                    << " orient=" << static_cast<int>(orient)
                    << " group=" << ta.group;
}

TEST(TblGemm, BitExactBothOrientationsAllModes) {
  // Odd sizes: M % 16, N % 4, N % 16, K % Kc and K % group all nonzero.
  const i64 m = 37, n = 29, k = 53;
  const GemmBlocking blk{32, 20, 8};
  for (int bits = 2; bits <= 3; ++bits) {
    const Tensor<i8> a =
        random_qtensor(Shape4{1, 1, m, k}, bits, 500 + static_cast<u64>(bits));
    const Tensor<i8> b =
        random_qtensor(Shape4{1, 1, k, n}, bits, 600 + static_cast<u64>(bits));
    expect_tbl_exact(a, b, m, n, k, bits, TblOrientation::kActTables, blk);
    expect_tbl_exact(a, b, m, n, k, bits, TblOrientation::kWeightTables, blk);
  }
  // 3-bit ternary weights: pack detects pair mode on the index side.
  const Tensor<i8> wt = ternary_tensor(Shape4{1, 1, m, k}, 71);
  const Tensor<i8> b3 = random_qtensor(Shape4{1, 1, k, n}, 3, 72);
  expect_tbl_exact(wt, b3, m, n, k, 3, TblOrientation::kActTables, blk);
  expect_tbl_exact(wt, b3, m, n, k, 3, TblOrientation::kWeightTables, blk);
}

TEST(TblGemm, BitExactOnExtremeOperands) {
  // Alternating +/- qmax — worst-case accumulator growth for the flush
  // argument, and every table entry at its bound.
  const i64 m = 21, n = 33, k = 47;
  for (int bits = 2; bits <= 3; ++bits) {
    const Tensor<i8> a = extreme_qtensor(Shape4{1, 1, m, k}, bits, 81);
    const Tensor<i8> b = extreme_qtensor(Shape4{1, 1, k, n}, bits, 82);
    expect_tbl_exact(a, b, m, n, k, bits, TblOrientation::kActTables,
                     GemmBlocking{16, 16, 16});
    expect_tbl_exact(a, b, m, n, k, bits, TblOrientation::kWeightTables,
                     GemmBlocking{16, 16, 16});
  }
}

TEST(TblGemm, DispatchEntryMatchesReference) {
  // The public gemm_s8s32 entry picks orientation and packing itself.
  const i64 m = 24, n = 19, k = 31;
  for (int bits = 2; bits <= 3; ++bits) {
    const Tensor<i8> a = random_qtensor(Shape4{1, 1, m, k}, bits, 91);
    const Tensor<i8> b = random_qtensor(Shape4{1, 1, k, n}, bits, 92);
    GemmOptions opt;
    opt.bits = bits;
    opt.kernel = ArmKernel::kTblGemm;
    std::vector<i32> c(static_cast<size_t>(m * n), -1);
    gemm_s8s32(a.data(), b.data(), c.data(), m, n, k, opt);
    std::vector<i32> ref(static_cast<size_t>(m * n), -2);
    ref::gemm_s8s32(a.data(), b.data(), ref.data(), m, n, k);
    ASSERT_EQ(c, ref) << "bits=" << bits;
  }
}

// ---------------------------------------------------------------------------
// Ternary pack detection and edge cases
// ---------------------------------------------------------------------------

TEST(TblPack, TernaryDetectionSelectsPairMode) {
  const i64 m = 20, k = 18;
  const Tensor<i8> tern = ternary_tensor(Shape4{1, 1, m, k}, 11);
  EXPECT_TRUE(tbl_values_ternary(tern.data(), m, k));
  const PackedTblA pa =
      pack_tbl_a(tern.data(), m, k, 3, TblOrientation::kActTables);
  EXPECT_TRUE(pa.ternary);
  EXPECT_EQ(pa.group, kTblPairGroup);
}

TEST(TblPack, MixedWeightsFallBackToGenericAtThreeBit) {
  const i64 m = 20, k = 18;
  Tensor<i8> mixed = ternary_tensor(Shape4{1, 1, m, k}, 12);
  mixed.data()[m * k / 2] = 3;  // one full-range value breaks ternary
  EXPECT_FALSE(tbl_values_ternary(mixed.data(), m, k));
  const PackedTblA pa =
      pack_tbl_a(mixed.data(), m, k, 3, TblOrientation::kActTables);
  EXPECT_FALSE(pa.ternary);
  EXPECT_EQ(pa.group, 1);  // generic one-value-per-index form
  // Two-bit stays paired regardless: {-1, 0, 1} is the whole 2-bit range.
  const Tensor<i8> w2 = random_qtensor(Shape4{1, 1, m, k}, 2, 13);
  EXPECT_EQ(pack_tbl_a(w2.data(), m, k, 2, TblOrientation::kActTables).group,
            kTblPairGroup);
}

TEST(TblPack, AllZeroWeightsStayTernaryAndExact) {
  const i64 m = 18, n = 21, k = 26;
  Tensor<i8> zeros(Shape4{1, 1, m, k});  // zero-initialized
  EXPECT_TRUE(tbl_values_ternary(zeros.data(), m, k));
  const Tensor<i8> b = random_qtensor(Shape4{1, 1, k, n}, 3, 14);
  expect_tbl_exact(zeros, b, m, n, k, 3, TblOrientation::kActTables,
                   GemmBlocking{16, 8, 8});
  expect_tbl_exact(zeros, b, m, n, k, 3, TblOrientation::kWeightTables,
                   GemmBlocking{16, 8, 8});
}

TEST(TblPack, OddDepthPairTailIsNeutral) {
  // K odd with group 2: the last index encodes (v, 0) — the missing pair
  // partner must contribute nothing.
  const i64 m = 17, n = 13;
  for (const i64 k : {1, 7, 15}) {
    const Tensor<i8> a = random_qtensor(Shape4{1, 1, m, k}, 2, 15);
    const Tensor<i8> b = random_qtensor(Shape4{1, 1, k, n}, 2, 16);
    expect_tbl_exact(a, b, m, n, k, 2, TblOrientation::kActTables,
                     GemmBlocking{16, 6, 4});
    expect_tbl_exact(a, b, m, n, k, 2, TblOrientation::kWeightTables,
                     GemmBlocking{16, 6, 4});
  }
}

// ---------------------------------------------------------------------------
// Conv plan: eligibility degrades, checked execution, space accounting
// ---------------------------------------------------------------------------

TEST(TblConv, MatchesReferenceUnderVerifier) {
  const ConvShape s = conv_shape(8, 12, 20, 3, 1, 1);
  for (int bits = 2; bits <= 3; ++bits) {
    const Tensor<i8> in = extreme_qtensor(
        Shape4{s.batch, s.in_c, s.in_h, s.in_w}, bits, 21);
    const Tensor<i8> w = extreme_qtensor(
        Shape4{s.out_c, s.in_c, s.kernel, s.kernel}, bits, 22);
    ArmConvOptions opt;
    opt.bits = bits;
    opt.kernel = ArmKernel::kTblGemm;
    opt.verify = true;  // invariant verifier on the whole execute
    const ArmConvResult r = conv2d_s32(s, in, w, opt).value();
    EXPECT_EQ(r.executed_algo, "gemm");
    EXPECT_FALSE(r.fallback.fell_back) << r.fallback.describe();
    const Tensor<i32> ref = ref::conv2d_s32(s, in, w);
    ASSERT_EQ(r.out.shape(), ref.shape());
    for (i64 i = 0; i < ref.elems(); ++i)
      ASSERT_EQ(r.out.data()[i], ref.data()[i]) << "elem " << i;
  }
}

TEST(TblConv, WeightTablesTilesStayInsideTheirBandWhenThreaded) {
  // 2-bit 64 -> 64 1x1 at 14x14: weight tables, and the thread refinement
  // cuts Nc to 100 (2 threads) / 52 (4 threads), so each band's last
  // 16-column tile is partly padding. Clipping that tile at n instead of
  // at the band end let it write the next band's columns, which another
  // worker owns — a race that corrupted the output.
  const ConvShape s = conv_shape(64, 14, 64, 1, 1, 0);
  const Tensor<i8> in =
      random_qtensor(Shape4{s.batch, s.in_c, s.in_h, s.in_w}, 2, 51);
  const Tensor<i8> w =
      random_qtensor(Shape4{s.out_c, s.in_c, s.kernel, s.kernel}, 2, 52);
  const Tensor<i32> ref = ref::conv2d_s32(s, in, w);
  for (const int threads : {2, 4}) {
    ArmConvOptions opt;
    opt.bits = 2;
    opt.kernel = ArmKernel::kTblGemm;
    opt.threads = threads;
    const ArmConvPlan plan = plan_conv(s, w, opt).value();
    ASSERT_EQ(plan.kernel, ArmKernel::kTblGemm);
    ASSERT_EQ(plan.tbl_a.orient, TblOrientation::kWeightTables);
    ASSERT_NE(plan.blocking.nc % 16, 0) << "threads=" << threads;
    ASSERT_LT(plan.blocking.nc, s.gemm_n()) << "threads=" << threads;
    Workspace ws;
    for (int rep = 0; rep < 20; ++rep) {
      const ArmConvResult r = execute_conv(plan, in, ws).value();
      ASSERT_TRUE(r.out == ref) << "threads=" << threads << " rep " << rep;
    }
  }
}

TEST(TblConv, WideBitsDegradeToOurs) {
  const ConvShape s = conv_shape(8, 10, 12, 3, 1, 1);
  const Tensor<i8> in =
      random_qtensor(Shape4{s.batch, s.in_c, s.in_h, s.in_w}, 5, 31);
  const Tensor<i8> w =
      random_qtensor(Shape4{s.out_c, s.in_c, s.kernel, s.kernel}, 5, 32);
  ArmConvOptions opt;
  opt.bits = 5;
  opt.kernel = ArmKernel::kTblGemm;
  const ArmConvPlan plan = plan_conv(s, w, opt).value();
  EXPECT_EQ(plan.kernel, ArmKernel::kOursGemm);
  EXPECT_TRUE(plan.planned_fallback.fell_back);
  Workspace ws;
  const ArmConvResult r = execute_conv(plan, in, ws).value();
  const Tensor<i32> ref = ref::conv2d_s32(s, in, w);
  for (i64 i = 0; i < ref.elems(); ++i)
    ASSERT_EQ(r.out.data()[i], ref.data()[i]);
}

TEST(TblConv, UnblockedRequestDegradesToOurs) {
  const ConvShape s = conv_shape(6, 8, 10, 1, 1, 0);
  const Tensor<i8> w =
      random_qtensor(Shape4{s.out_c, s.in_c, s.kernel, s.kernel}, 2, 41);
  ArmConvOptions opt;
  opt.bits = 2;
  opt.kernel = ArmKernel::kTblGemm;
  opt.blocking = BlockingPolicy::kOff;
  const ArmConvPlan plan = plan_conv(s, w, opt).value();
  EXPECT_EQ(plan.kernel, ArmKernel::kOursGemm);
  EXPECT_TRUE(plan.planned_fallback.fell_back);
}

// ---------------------------------------------------------------------------
// Orientation pricing and tile search
// ---------------------------------------------------------------------------

TEST(TblSearch, OrientationFollowsRowCount) {
  // fig09 geometry: small-M layers amortize the online table build poorly
  // (kWeightTables wins); large-M layers share one online build across
  // hundreds of rows (kActTables wins).
  EXPECT_EQ(choose_tbl_orientation(64, 3136, 576, 2, false),
            TblOrientation::kWeightTables);
  EXPECT_EQ(choose_tbl_orientation(256, 196, 2304, 2, false),
            TblOrientation::kActTables);
  EXPECT_EQ(choose_tbl_orientation(512, 49, 4608, 2, false),
            TblOrientation::kActTables);
}

TEST(TblSearch, BlockingSearchIsDeterministicAndClamped) {
  const ConvShape s = conv_shape(16, 14, 32, 3, 1, 1);
  const GemmBlocking b1 = search_blocking(s, 2, ArmKernel::kTblGemm);
  const GemmBlocking b2 = search_blocking(s, 2, ArmKernel::kTblGemm);
  EXPECT_EQ(b1, b2);
  EXPECT_TRUE(b1.enabled());
  const double score = score_blocking(s, 2, ArmKernel::kTblGemm, b1);
  EXPECT_GT(score, 0);
  EXPECT_EQ(blocking_scheme_id(ArmKernel::kTblGemm, 2), 4);
}

// ---------------------------------------------------------------------------
// Prover: TBL obligations, sweep registration, mutation tests
// ---------------------------------------------------------------------------

TEST(TblProver, ShippingModelsProve) {
  for (int bits = 2; bits <= 3; ++bits) {
    const check::ProofResult r = check::prove(
        check::shipping_model(check::ProofScheme::kArmTbl, bits, 4608));
    EXPECT_TRUE(r.proved()) << r.to_status().to_string();
  }
  EXPECT_TRUE(
      check::prove_arm_kernel(ArmKernel::kTblGemm, 2, 8192).ok());
  EXPECT_TRUE(
      check::prove_arm_kernel(ArmKernel::kTblGemm, 3, 8192).ok());
}

TEST(TblProver, SweepsIncludeTblAndMatchDerivedCounts) {
  const check::ProofSweepReport rep = check::prove_all_schemes();
  EXPECT_TRUE(rep.ok()) << rep.failure_summary();
  EXPECT_EQ(static_cast<int>(rep.entries.size()),
            check::proof_sweep_expected_entries());
  int tbl_rows = 0;
  for (const check::ProofSweepEntry& e : rep.entries)
    if (e.config.rfind("tbl ", 0) == 0) ++tbl_rows;
  EXPECT_EQ(tbl_rows, 4 * 3);  // 4 shapes x (b2, b3, b3 ternary-pair)
}

TEST(TblProverMutation, ShrunkFlushFailsAtFlushCoversKernel) {
  check::SchemeModel m =
      check::shipping_model(check::ProofScheme::kArmTbl, 2, 576);
  m.acc8_flush = tbl_flush_interval(2, true) / 2;  // declared < kernel cadence
  const check::ProofResult r = check::prove(m);
  EXPECT_FALSE(r.proved());
  ASSERT_NE(r.first_failed(), nullptr);
  EXPECT_EQ(r.first_failed()->name, "tbl.flush-covers-kernel");
}

void corrupted_build(int bits, bool ternary_pairs, i8 b0, i8 b1, i8 out[16]) {
  tbl_build_table(bits, ternary_pairs, b0, b1, out);
  out[kTblNeutralPairIndex] = 1;  // padding index no longer neutral
}

TEST(TblProverMutation, CorruptTableEntryFailsAtTableEntriesExact) {
  check::SchemeModel m =
      check::shipping_model(check::ProofScheme::kArmTbl, 2, 576);
  m.tbl_build = &corrupted_build;
  const check::ProofResult r = check::prove(m);
  EXPECT_FALSE(r.proved());
  ASSERT_NE(r.first_failed(), nullptr);
  EXPECT_EQ(r.first_failed()->name, "tbl.table-entries-exact");
}

TEST(TblProverMutation, OversizedOperandsFailAtEntryFitsI8) {
  check::SchemeModel m =
      check::shipping_model(check::ProofScheme::kArmTbl, 3, 576);
  m.a_max_abs = 12;  // 12 * 12 = 144 > 127: generic entry no longer fits
  m.b_max_abs = 12;
  m.tbl_build = nullptr;  // isolate the symbolic obligations
  const check::ProofResult r = check::prove(m);
  EXPECT_FALSE(r.proved());
  ASSERT_NE(r.first_failed(), nullptr);
  EXPECT_EQ(r.first_failed()->name, "tbl.entry-fits-i8");
}

// ---------------------------------------------------------------------------
// Verifier sweep registration
// ---------------------------------------------------------------------------

TEST(TblVerify, SweepCoversTblAndMatchesDerivedCount) {
  const KernelVerifyReport rep = verify_all_kernels();
  EXPECT_TRUE(rep.ok()) << rep.failure_summary();
  EXPECT_EQ(static_cast<int>(rep.entries.size()),
            kernel_verify_expected_entries());
  int tbl_rows = 0;
  for (const KernelVerifyEntry& e : rep.entries)
    if (e.kernel == ArmKernel::kTblGemm) ++tbl_rows;
  // bits 2-3, one blocked combo, three shapes each.
  EXPECT_EQ(tbl_rows, 2 * 3);
}

}  // namespace
}  // namespace lbc::armkern
