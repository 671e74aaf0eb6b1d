// TBL lookup-table scheme (DESIGN.md Sec. 16): bit-exactness of both
// orientations vs the reference GEMM, the paired 32x4 tile in every mode,
// ternary pack detection and its edge cases, plan-level eligibility
// degrades, checked execution under the invariant verifier, orientation
// pricing, tuning rows of the retired 16x4-only schedule, and the prover's
// TBL obligations with mutation tests that must fail at the exact named
// obligation.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "armkern/conv_arm.h"
#include "armkern/gemm_lowbit.h"
#include "armkern/micro.h"
#include "armkern/pack.h"
#include "armkern/schemes.h"
#include "armkern/tile_search.h"
#include "armkern/verify_kernels.h"
#include "check/kernel_prover.h"
#include "common/align.h"
#include "common/rng.h"
#include "common/workspace.h"
#include "core/conv_plan.h"
#include "gpukern/tuning_cache.h"
#include "refconv/conv_ref.h"
#include "refconv/gemm_ref.h"

namespace lbc::armkern {
namespace {

// Depth positions per index in ternary pair mode.
constexpr int kPairGroup = tbl_group(kTbl2Pair);

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

// The blocked driver on the GEMM's 1x1 view: the row-major k x n B is the
// [1, k, 1, n] input of a 1x1, stride-1, pad-0 conv with m output
// channels, whose im2col is B itself.
void expect_tbl_exact(const Tensor<i8>& a, const Tensor<i8>& b, i64 m, i64 n,
                      i64 k, int bits, TblOrientation orient,
                      const GemmBlocking& blocking) {
  ConvShape view = conv_shape(k, 1, m, 1, 1, 0);
  view.in_w = n;
  const PackedTblA ta = pack_tbl_a(a.data(), m, k, bits, orient);
  GemmOptions opt;
  opt.bits = bits;
  opt.kernel = ArmKernel::kTblGemm;
  opt.blocking = clamp_blocking(blocking, m, n, k, /*sdot=*/false, ta.group());
  std::vector<i32> c(static_cast<size_t>(m * n), -1);
  const GemmStats st =
      gemm_s8s32_conv_blocked(ta.view(), view, b.data(), c.data(), opt);
  ASSERT_TRUE(st.status.ok()) << st.status.to_string();

  std::vector<i32> ref(static_cast<size_t>(m * n), -2);
  ref::gemm_s8s32(a.data(), b.data(), ref.data(), m, n, k);
  ASSERT_EQ(c, ref) << "bits=" << bits
                    << " orient=" << static_cast<int>(orient)
                    << " group=" << ta.group();
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
  EXPECT_EQ(pa.group(), kPairGroup);
}

TEST(TblPack, MixedWeightsFallBackToGenericAtThreeBit) {
  const i64 m = 20, k = 18;
  Tensor<i8> mixed = ternary_tensor(Shape4{1, 1, m, k}, 12);
  mixed.data()[m * k / 2] = 3;  // one full-range value breaks ternary
  EXPECT_FALSE(tbl_values_ternary(mixed.data(), m, k));
  const PackedTblA pa =
      pack_tbl_a(mixed.data(), m, k, 3, TblOrientation::kActTables);
  EXPECT_FALSE(pa.ternary);
  EXPECT_EQ(pa.group(), 1);  // generic one-value-per-index form
  // Two-bit stays paired regardless: {-1, 0, 1} is the whole 2-bit range.
  const Tensor<i8> w2 = random_qtensor(Shape4{1, 1, m, k}, 2, 13);
  EXPECT_EQ(pack_tbl_a(w2.data(), m, k, 2, TblOrientation::kActTables).group(),
            kPairGroup);
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
// The paired 32x4 tile: one table load serves two index vectors
// ---------------------------------------------------------------------------

// A checked conv plan at an explicit blocking; its orientation follows the
// geometry (choose_tbl_orientation), which each caller asserts.
ArmConvPlan tbl_plan(const ConvShape& s, const Tensor<i8>& w, int bits,
                     const GemmBlocking& blk) {
  ArmConvOptions opt;
  opt.bits = bits;
  opt.kernel = ArmKernel::kTblGemm;
  opt.blocking = BlockingPolicy::kExplicit;
  opt.explicit_blocking = blk;
  opt.verify = true;
  return plan_conv(s, w, opt).value();
}

TEST(TblPairedTile, MatchesReferenceInEveryModeAndOrientation) {
  // Act tables: 96 rows, Mc = 64: two row-panel pairs in the first block,
  // one in the second.
  // Weight tables: 8 rows, and each 48-column band holds a 16-column index
  // panel pair plus an odd one. Weights: random 2-bit (pair mode), ternary
  // 3-bit (pair mode on the act-tables index side; weight tables index the
  // non-ternary activations, so generic) and random 3-bit (generic).
  struct Case {
    ConvShape s;
    TblOrientation orient;
    GemmBlocking blk;
  };
  const Case cases[] = {
      {conv_shape(64, 5, 96, 3, 1, 1), TblOrientation::kActTables,
       GemmBlocking{64, 96, 8}},
      {conv_shape(8, 12, 8, 3, 1, 1), TblOrientation::kWeightTables,
       GemmBlocking{16, 40, 48}},
  };
  for (const Case& c : cases) {
    const ConvShape& s = c.s;
    const Shape4 wshape{s.out_c, s.in_c, s.kernel, s.kernel};
    struct Mode {
      const char* name;
      int bits;
      Tensor<i8> w;
      int act_group;  ///< index-side group under kActTables
    };
    const Mode modes[] = {
        {"2-bit pair", 2, random_qtensor(wshape, 2, 101), kPairGroup},
        {"3-bit pair", 3, ternary_tensor(wshape, 102), kPairGroup},
        {"3-bit generic", 3, random_qtensor(wshape, 3, 103), 1},
    };
    for (const Mode& md : modes) {
      const Tensor<i8> in = extreme_qtensor(
          Shape4{s.batch, s.in_c, s.in_h, s.in_w}, md.bits, 104);
      const ArmConvPlan plan = tbl_plan(s, md.w, md.bits, c.blk);
      ASSERT_EQ(plan.kernel, ArmKernel::kTblGemm) << md.name;
      ASSERT_EQ(plan.tbl_a.orient, c.orient) << md.name;
      EXPECT_EQ(plan.tbl_a.group(),
                c.orient == TblOrientation::kActTables
                    ? md.act_group
                    : tbl_group(tbl_mode_for(c.orient, md.bits, false)))
          << md.name;
      Workspace ws;
      const StatusOr<ArmConvResult> r = execute_conv(plan, in, ws);
      ASSERT_TRUE(r.ok()) << md.name << ": " << r.status().to_string();
      EXPECT_TRUE(r.value().out == ref::conv2d_s32(s, in, md.w))
          << md.name << " orient=" << static_cast<int>(c.orient);
    }
  }
}

TEST(TblPairedTile, DeepGenericCallCrossesTheI16SecondLevel) {
  // 3-bit generic, K = 4096 with Kc = K: 4096 group steps per call, past
  // the 256 * 14 = 3584 a call covers before its i16 sums must widen into
  // the i32 tile, so the tile re-loads and adds its own partial sums once.
  // Checked execution: the verifier's interval analysis follows the i32
  // re-load from the tile region. Both orientations pair: 32 rows (act
  // tables) and 36 columns (weight tables: a pair and an odd panel).
  const GemmBlocking blk{32, i64{1} << 20, 64};
  const std::pair<ConvShape, TblOrientation> cases[] = {
      {conv_shape(4096, 2, 32, 1, 1, 0), TblOrientation::kActTables},
      {conv_shape(4096, 6, 4, 1, 1, 0), TblOrientation::kWeightTables},
  };
  static_assert(kTblSecondLevelRounds * 14 == 3584);
  ASSERT_EQ(tbl_flush_interval(kTbl3Value), 14);
  for (const auto& [s, orient] : cases) {
    const Tensor<i8> w = extreme_qtensor(
        Shape4{s.out_c, s.in_c, s.kernel, s.kernel}, 3, 111);
    const Tensor<i8> in =
        extreme_qtensor(Shape4{s.batch, s.in_c, s.in_h, s.in_w}, 3, 112);
    const ArmConvPlan plan = tbl_plan(s, w, 3, blk);
    ASSERT_EQ(plan.tbl_a.orient, orient);
    ASSERT_EQ(plan.tbl_a.group(), 1);
    ASSERT_EQ(plan.blocking.kc, 4096);
    Workspace ws;
    const StatusOr<ArmConvResult> r = execute_conv(plan, in, ws);
    ASSERT_TRUE(r.ok()) << r.status().to_string();
    EXPECT_TRUE(r.value().out == ref::conv2d_s32(s, in, w))
        << "orient=" << static_cast<int>(orient);
  }
}

TEST(TblPairedTile, EqualsTwoUnpairedTilesUnderItsKernelSpec) {
  // The kernel alone under a verifier: every group step's table line is
  // shared by both index vectors, the result is two 16x4 tiles bit for
  // bit, and the declared contract holds — both flush cadences (across a
  // second-level flush: 3-bit generic, 4000 > 3584 steps), the CAL/LD band
  // around 8 TBL / 3 loads and the 32-entry register file, no spills.
  const i64 groups = 4000;
  const int flush = tbl_flush_interval(kTbl3Value);
  const i32 bound = tbl_entry_bound(kTbl3Value);
  AlignedVector<u8> idx0(static_cast<size_t>(groups * 16));
  AlignedVector<u8> idx1(static_cast<size_t>(groups * 16));
  AlignedVector<i8> tables(static_cast<size_t>(groups * 64));
  for (i64 i = 0; i < groups * 16; ++i) {
    idx0[static_cast<size_t>(i)] = static_cast<u8>(i % 7);
    idx1[static_cast<size_t>(i)] = static_cast<u8>((i * 5 + 3) % 7);
  }
  for (i64 i = 0; i < groups * 64; ++i)
    tables[static_cast<size_t>(i)] =
        static_cast<i8>((i % 3 == 0 ? 1 : -1) * (i % (bound + 1)));

  alignas(64) i32 want[2 * kMr * kNr];
  armsim::Ctx plain;
  micro_tbl_16x4(plain, idx0.data(), TblTables{tables.data()}, groups, flush,
                 want);
  micro_tbl_16x4(plain, idx1.data(), TblTables{tables.data()}, groups, flush,
                 want + kMr * kNr);

  armsim::Verifier v;
  v.add_region(idx0.data(), groups * 16, "idx0", 0, 15);
  v.add_region(idx1.data(), groups * 16, "idx1", 0, 15);
  v.add_region(tables.data(), groups * 64, "tables", -bound, bound);
  alignas(64) i32 tile[2 * kMr * kNr];
  const i64 tile_bound = groups * bound;
  v.add_region(tile, sizeof(tile), "tile", -tile_bound, tile_bound);
  armsim::Ctx ctx;
  ctx.verifier = &v;
  micro_tbl_32x4(ctx, idx0.data(), idx1.data(), TblTables{tables.data()},
                 groups, flush, tile);
  EXPECT_TRUE(v.ok()) << v.to_status().to_string();
  EXPECT_EQ(v.max_live_regs(), 32);
  EXPECT_TRUE(std::equal(tile, tile + 2 * kMr * kNr, want));
  // One LD1x4 per step instead of two.
  EXPECT_EQ(ctx.counts[armsim::Op::kLd1x4], static_cast<u64>(groups));
  EXPECT_EQ(plain.counts[armsim::Op::kLd1x4], static_cast<u64>(2 * groups));
}

TEST(TblPairedTile, SearchPricesTheExecutedInstructionMix) {
  // The tile search's issue side (micro probes scaled by paired and single
  // call counts, pack, accumulate and epilogue tallies) must equal what the
  // driver executes, instruction for instruction; only the cache misses
  // come from the replay. Blockings: pairs plus an odd panel, pairs only,
  // and nothing paired, under both orientations and both schedules, each
  // priced in the table source its plan packed.
  struct Case {
    ConvShape s;
    TblOrientation orient;
    GemmBlocking blk;
  };
  const Case cases[] = {
      {conv_shape(128, 5, 48, 3, 1, 1), TblOrientation::kActTables,
       GemmBlocking{64, 96, 8}},
      {conv_shape(64, 5, 96, 3, 1, 1), TblOrientation::kActTables,
       GemmBlocking{64, i64{1} << 20, 8}},
      {conv_shape(64, 5, 96, 3, 1, 1), TblOrientation::kActTables,
       GemmBlocking{16, 96, 8}},
      {conv_shape(8, 12, 8, 3, 1, 1), TblOrientation::kWeightTables,
       GemmBlocking{16, 40, 48}},
      {conv_shape(8, 12, 8, 3, 1, 1), TblOrientation::kWeightTables,
       GemmBlocking{16, i64{1} << 20, 32}},
      {conv_shape(8, 12, 8, 3, 1, 1), TblOrientation::kWeightTables,
       GemmBlocking{16, 40, 12}},
  };
  const auto expect_same_issue = [](const armsim::Counters& priced,
                                    const armsim::Counters& ran,
                                    const std::string& where) {
    for (size_t i = 0; i < armsim::kNumOps; ++i) {
      const auto op = static_cast<armsim::Op>(i);
      if (op == armsim::Op::kL1Miss || op == armsim::Op::kL2Miss) continue;
      EXPECT_EQ(priced.n[i], ran.n[i]) << where << " " << armsim::op_name(op);
    }
  };
  for (const int bits : {2, 3})
    for (const Case& c : cases) {
      const ConvShape& s = c.s;
      const Tensor<i8> w = random_qtensor(
          Shape4{s.out_c, s.in_c, s.kernel, s.kernel}, bits, 131);
      const Tensor<i8> in =
          random_qtensor(Shape4{s.batch, s.in_c, s.in_h, s.in_w}, bits, 132);
      ArmConvOptions opt;
      opt.bits = bits;
      opt.kernel = ArmKernel::kTblGemm;
      opt.blocking = BlockingPolicy::kExplicit;
      opt.explicit_blocking = c.blk;
      const ArmConvPlan plan = plan_conv(s, w, opt).value();
      ASSERT_EQ(plan.tbl_a.orient, c.orient);
      const std::string where = "bits=" + std::to_string(bits) + " mc=" +
                                std::to_string(c.blk.mc) + " kc=" +
                                std::to_string(plan.blocking.kc) + " nc=" +
                                std::to_string(c.blk.nc);
      Workspace ws;
      expect_same_issue(
          blocking_issue_counts(s, bits, ArmKernel::kTblGemm, plan.blocking,
                                BlockedSchedule::kStandalone,
                                InputRange::kSigned, plan.tbl_a.source),
          execute_conv(plan, in, ws).value().counts, where + " standalone");

      const i64 m = s.gemm_m(), n = s.gemm_n();
      AlignedVector<i8> out(static_cast<size_t>(m * n));
      TileEpilogue epi;
      epi.fn = [](i64, i64, i64, const i32*) {};
      epi.out_base = out.data();
      epi.row_stride = n;
      epi.out_rows = m;
      AlignedVector<std::byte> scratch(
          static_cast<size_t>(plan.fused_scratch_bytes()));
      const FusedConvResult fused =
          execute_conv_fused(plan, in.data(), scratch, epi).value();
      expect_same_issue(
          blocking_issue_counts(s, bits, ArmKernel::kTblGemm, plan.blocking,
                                BlockedSchedule::kFused, InputRange::kSigned,
                                plan.tbl_a.source),
          fused.counts, where + " fused");
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
  // hundreds of rows (kActTables wins) while few columns leave each built
  // or streamed weight table little reuse. Building weight tables from the
  // dictionary moved the crossover up: 256 rows over 196 columns now pick
  // weight tables.
  EXPECT_EQ(choose_tbl_orientation(64, 3136, 576, 2, false),
            TblOrientation::kWeightTables);
  EXPECT_EQ(choose_tbl_orientation(256, 196, 2304, 2, false),
            TblOrientation::kWeightTables);
  EXPECT_EQ(choose_tbl_orientation(512, 49, 4608, 2, false),
            TblOrientation::kActTables);
  EXPECT_EQ(choose_tbl_orientation(2048, 196, 1024, 2, false),
            TblOrientation::kActTables);
  // The weight side is priced in the conv's own mode: a ReLU'd input folds
  // four activations per index, which halves its lookups and moves even
  // those large-M layers to weight tables.
  EXPECT_EQ(choose_tbl_orientation(512, 49, 4608, 2, false,
                                   InputRange::kNonNegative),
            TblOrientation::kWeightTables);
  EXPECT_EQ(choose_tbl_orientation(2048, 196, 1024, 2, false,
                                   InputRange::kNonNegative),
            TblOrientation::kWeightTables);
}

TEST(TblSearch, BlockingSearchIsDeterministicAndClamped) {
  const ConvShape s = conv_shape(16, 14, 32, 3, 1, 1);
  const GemmBlocking b1 = search_blocking(s, 2, ArmKernel::kTblGemm);
  const GemmBlocking b2 = search_blocking(s, 2, ArmKernel::kTblGemm);
  EXPECT_EQ(b1, b2);
  EXPECT_TRUE(b1.enabled());
  const double score = score_blocking(s, 2, ArmKernel::kTblGemm, b1);
  EXPECT_GT(score, 0);
  EXPECT_EQ(blocking_scheme_id(ArmKernel::kTblGemm, 2), 5);
}

TEST(TblSearch, RowsKeyedForTheUnpairedTileAreNotReturned) {
  // A persisted TBL row under scheme id 4 was searched for the 16x4 tile
  // alone. Planning through the cache must miss it, search the paired
  // schedule and store that winner under the current id; the old row
  // still parses (a file holding it loads).
  const ConvShape s = conv_shape(16, 14, 32, 3, 1, 1);
  const Tensor<i8> w =
      random_qtensor(Shape4{s.out_c, s.in_c, s.kernel, s.kernel}, 2, 121);
  const gpukern::ArmTuningKey old_key{s.gemm_m(), s.gemm_n(), s.gemm_k(), 2,
                                      4};
  const gpukern::ArmBlocking stale{16, 8, 4};
  const TblSource source = choose_tbl_source(s, 2);
  const GemmBlocking searched =
      search_blocking(s, 2, ArmKernel::kTblGemm, BlockedSchedule::kStandalone,
                      InputRange::kSigned, source);
  ASSERT_NE(searched, (GemmBlocking{stale.mc, stale.kc, stale.nc}));
  gpukern::TuningCache cache;
  cache.put_arm(old_key, stale);
  gpukern::TuningCache reloaded;
  ASSERT_TRUE(reloaded.deserialize(cache.serialize()).ok());

  const core::ConvPlan plan =
      core::plan_arm_conv(s, w, 2, core::ArmImpl::kTblLut,
                          ConvAlgo::kGemm, 1, false, &reloaded)
          .value();
  ASSERT_EQ(plan.impl_plan().kernel, ArmKernel::kTblGemm);
  EXPECT_EQ(plan.impl_plan().blocking, searched);
  gpukern::ArmTuningKey key = old_key;
  key.scheme =
      blocking_scheme_id(ArmKernel::kTblGemm, 2, InputRange::kSigned, source);
  const std::optional<gpukern::ArmBlocking> row = reloaded.lookup_arm(key);
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ(*row, (gpukern::ArmBlocking{searched.mc, searched.kc,
                                        searched.nc}));
  EXPECT_EQ(reloaded.lookup_arm(old_key), stale);
}

// ---------------------------------------------------------------------------
// Exact pruning: search_blocking and choose_gemm_kernel equal their
// unpruned definitions
// ---------------------------------------------------------------------------

// The 16 conv shapes of perfbench's ResNet-50 net: one bottleneck per
// stage from a 64 x 56 x 56 input, projection shortcut in every stage.
std::vector<ConvShape> resnet_stage_convs() {
  std::vector<ConvShape> out;
  i64 in_c = 64, hw = 56;
  for (const auto& [mid, wide, stride] :
       {std::tuple<i64, i64, i64>{64, 256, 1}, {128, 512, 2}, {256, 1024, 2},
        {512, 2048, 2}}) {
    const i64 mid_hw = (hw - 1) / stride + 1;
    out.push_back(conv_shape(in_c, hw, mid, 1, stride, 0));
    out.push_back(conv_shape(mid, mid_hw, mid, 3, 1, 1));
    out.push_back(conv_shape(mid, mid_hw, wide, 1, 1, 0));
    out.push_back(conv_shape(in_c, hw, wide, 1, stride, 0));
    in_c = wide;
    hw = mid_hw;
  }
  return out;
}

// Small layers: stalls are a smaller share of the score and the schemes'
// prices sit closer together, so a bound that is too loose changes a pick.
std::vector<ConvShape> small_convs() {
  std::vector<ConvShape> out;
  for (const i64 ic : {8, 32})
    for (const i64 hw : {6, 14})
      for (const i64 oc : {16, 48})
        for (const i64 k : {1, 3})
          out.push_back(conv_shape(ic, hw, oc, k, 1, k / 2));
  return out;
}

TEST(TileSearchPruning, SearchIsTheFirstMinimumOverTheGrid) {
  // The unpruned definition: score every candidate with its replay and
  // keep the first strict minimum in grid order.
  const auto first_min = [](const ConvShape& s, int bits, ArmKernel kernel,
                            BlockedSchedule sched) {
    const std::vector<GemmBlocking> grid =
        blocking_candidates(s, bits, kernel, sched);
    GemmBlocking best = grid.front();
    double best_score = score_blocking(s, bits, kernel, best, sched);
    for (const GemmBlocking& cand : grid) {
      const double sc = score_blocking(s, bits, kernel, cand, sched);
      if (sc < best_score) {
        best_score = sc;
        best = cand;
      }
    }
    return best;
  };
  // Stage 4 of the ResNet net (the earlier stages repeat its geometry
  // classes at 4x to 64x the replay cost) and the small layers; TBL and
  // MLA at 2 bit, SMLAL and SDOT at 8.
  const std::vector<ConvShape> resnet = resnet_stage_convs();
  std::vector<ConvShape> convs(resnet.begin() + 12, resnet.end());
  for (const ConvShape& s : small_convs()) convs.push_back(s);
  const i64 skipped_before = tile_search_stats().replays_skipped;
  for (const ConvShape& s : convs)
    for (const BlockedSchedule sched :
         {BlockedSchedule::kStandalone, BlockedSchedule::kFused})
      for (const auto& [bits, kernel] :
           {std::pair{2, ArmKernel::kTblGemm}, std::pair{2, ArmKernel::kOursGemm},
            std::pair{8, ArmKernel::kOursGemm},
            std::pair{8, ArmKernel::kSdotExt}})
        EXPECT_EQ(search_blocking(s, bits, kernel, sched),
                  first_min(s, bits, kernel, sched))
            << describe(s) << " bits " << bits << " scheme "
            << blocking_scheme_id(kernel, bits) << " fused "
            << (sched == BlockedSchedule::kFused);
  // The bound is live: some candidates were decided without a replay.
  EXPECT_GT(tile_search_stats().replays_skipped, skipped_before);
}

class KernelChoicePruning
    : public ::testing::TestWithParam<std::tuple<int, BlockedSchedule>> {};

TEST_P(KernelChoicePruning, EqualsTheFullComparison) {
  const auto [bits, sched] = GetParam();
  std::vector<ConvShape> convs = resnet_stage_convs();
  for (const ConvShape& s : small_convs()) convs.push_back(s);
  int mla_skipped = 0;
  for (const ConvShape& s : convs) {
    const i64 searches = tile_search_stats().searches;
    const ArmKernel pick = choose_gemm_kernel(s, bits, sched);
    // Cold TBL searches alone — one per table source where TBL prices
    // weight tables — mean MLA's search was skipped.
    const i64 tbl_keys =
        choose_tbl_orientation(s.gemm_m(), s.gemm_n(), s.gemm_k(), bits,
                               false) == TblOrientation::kWeightTables
            ? 2
            : 1;
    if (tile_search_stats().searches - searches == tbl_keys) ++mla_skipped;
    // The full comparison: TBL at its cheaper table source against MLA.
    double tbl_score = std::numeric_limits<double>::infinity();
    for (const TblSource src : {TblSource::kStored, TblSource::kBuilt}) {
      const GemmBlocking tbl = search_blocking(s, bits, ArmKernel::kTblGemm,
                                               sched, InputRange::kSigned, src);
      tbl_score = std::min(tbl_score,
                           score_blocking(s, bits, ArmKernel::kTblGemm, tbl,
                                          sched, InputRange::kSigned, src));
    }
    const GemmBlocking mla =
        search_blocking(s, bits, ArmKernel::kOursGemm, sched);
    const ArmKernel full =
        tbl_score < score_blocking(s, bits, ArmKernel::kOursGemm, mla, sched)
            ? ArmKernel::kTblGemm
            : ArmKernel::kOursGemm;
    EXPECT_EQ(pick, full) << describe(s);
  }
  // perfbench's configuration: TBL wins under MLA's issue floor.
  if (bits == 2 && sched == BlockedSchedule::kFused) {
    EXPECT_GT(mla_skipped, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    BitsAndSchedules, KernelChoicePruning,
    ::testing::Combine(::testing::Values(2, 3),
                       ::testing::Values(BlockedSchedule::kStandalone,
                                         BlockedSchedule::kFused)),
    [](const auto& p) {
      return "b" + std::to_string(std::get<0>(p.param)) +
             (std::get<1>(p.param) == BlockedSchedule::kFused
                  ? "Fused"
                  : "Standalone");
    });

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
  // The 32x4 tile's i16 level is part of every TBL proof.
  const check::ProofResult r = check::prove(
      check::shipping_model(check::ProofScheme::kArmTbl, 3, 4608));
  for (const char* name :
       {"tbl.rounds-cover-kernel", "tbl.i16-second-level-headroom"}) {
    const auto it = std::find_if(
        r.obligations.begin(), r.obligations.end(),
        [name](const check::Obligation& o) { return o.name == name; });
    ASSERT_NE(it, r.obligations.end()) << name;
    EXPECT_TRUE(it->proved) << it->statement;
  }
}

TEST(TblProver, SweepsIncludeTblAndMatchDerivedCounts) {
  const check::ProofSweepReport rep = check::prove_all_schemes();
  EXPECT_TRUE(rep.ok()) << rep.failure_summary();
  EXPECT_EQ(static_cast<int>(rep.entries.size()),
            check::proof_sweep_expected_entries());
  int tbl_rows = 0;
  for (const check::ProofSweepEntry& e : rep.entries)
    if (e.config.rfind("tbl ", 0) == 0) ++tbl_rows;
  // 4 shapes x (b2, b3, b3 ternary-pair, b2 and b3 non-negative)
  EXPECT_EQ(tbl_rows, 4 * 5);
}

TEST(TblProverMutation, ShrunkFlushFailsAtFlushCoversKernel) {
  check::SchemeModel m =
      check::shipping_model(check::ProofScheme::kArmTbl, 2, 576);
  m.acc8_flush = tbl_flush_interval(kTbl2Pair) / 2;  // declared < kernel cadence
  const check::ProofResult r = check::prove(m);
  EXPECT_FALSE(r.proved());
  ASSERT_NE(r.first_failed(), nullptr);
  EXPECT_EQ(r.first_failed()->name, "tbl.flush-covers-kernel");
}

TEST(TblProverMutation, RoundsPastI16HeadroomFailAtSecondLevelHeadroom) {
  // Declared 16->32 cadence twice the kernel's: it still covers the kernel
  // (rounds-cover-kernel holds), but 512 byte-lane flushes of up to 126
  // each overrun an i16 lane.
  check::SchemeModel m =
      check::shipping_model(check::ProofScheme::kArmTbl, 2, 576);
  m.second_level_rounds = 2 * kTblSecondLevelRounds;
  const check::ProofResult r = check::prove(m);
  EXPECT_FALSE(r.proved());
  ASSERT_NE(r.first_failed(), nullptr);
  EXPECT_EQ(r.first_failed()->name, "tbl.i16-second-level-headroom");
}

void corrupted_build(TblMode mode, const i8* b, i8 out[16]) {
  tbl_build_table(mode, b, out);
  out[tbl_neutral_index(mode)] = 1;  // padding index no longer neutral
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
  // bits 2-3, four blocked combos (searched, an explicit blocking that
  // pairs panels into the 32x4 tile, the same with weight tables built
  // from the dictionary, and built ones at Nc = n) on a signed and a
  // non-negative input, three shapes each.
  EXPECT_EQ(tbl_rows, 2 * 8 * 3);
}


// ---------------------------------------------------------------------------
// The non-negative fold: a ReLU'd input lets weight tables fold
// tbl_nonneg_group(bits) activations into one index
// ---------------------------------------------------------------------------

// Activations in [0, qmax]: what a ReLU'd producer hands its consumer.
Tensor<i8> nonneg_qtensor(Shape4 shape, int bits, u64 seed) {
  Tensor<i8> t = random_qtensor(shape, bits, seed);
  for (i8& v : t.span()) v = static_cast<i8>(v < 0 ? -v : v);
  return t;
}

ArmConvPlan nonneg_plan(const ConvShape& s, const Tensor<i8>& w, int bits,
                        const GemmBlocking& blk, int threads, bool verify) {
  ArmConvOptions opt;
  opt.bits = bits;
  opt.kernel = ArmKernel::kTblGemm;
  opt.blocking = BlockingPolicy::kExplicit;
  opt.explicit_blocking = blk;
  opt.threads = threads;
  opt.verify = verify;
  opt.input_range = InputRange::kNonNegative;
  return plan_conv(s, w, opt).value();
}

// The fused execute's accumulators, recorded by its epilogue.
StatusOr<std::vector<i32>> fused_acc(const ArmConvPlan& plan,
                                     const Tensor<i8>& in) {
  const i64 m = plan.shape.gemm_m(), n = plan.shape.gemm_n();
  std::vector<i32> acc(static_cast<size_t>(m * n), -7);
  AlignedVector<i8> out(static_cast<size_t>(m * n));
  TileEpilogue epi;
  epi.fn = [&acc, n](i64 row, i64 col0, i64 cols, const i32* a) {
    for (i64 j = 0; j < cols; ++j)
      acc[static_cast<size_t>(row * n + col0 + j)] = a[j];
  };
  epi.out_base = out.data();
  epi.row_stride = n;
  epi.out_rows = m;
  AlignedVector<std::byte> scratch(
      static_cast<size_t>(plan.fused_scratch_bytes()));
  LBC_RETURN_IF_ERROR(
      execute_conv_fused(plan, in.data(), scratch, epi).status());
  return acc;
}

TEST(TblMode, EveryValueGroupEncodesAndDecodesBack) {
  // The one rule the index packer, the table builder and the prover share:
  // every in-range group encodes inside the 16-entry window and decodes
  // back to itself; the all-zero group is the neutral index; a value
  // outside the mode's range has no index.
  for (const TblMode m : {kTbl2Pair, kTbl3Pair, kTbl3Value, kTbl2NonNeg,
                          kTbl3NonNeg}) {
    const i32 q = qmax_for_bits(m.bits);
    const i32 lo = m.fold == TblFold::kTernaryPair
                       ? -1
                       : (m.fold == TblFold::kNonNegative ? 0 : -q);
    const i32 hi = m.fold == TblFold::kTernaryPair ? 1 : q;
    const int g = tbl_group(m);
    const i32 span = hi - lo + 1;
    i32 combos = 1;
    for (int i = 0; i < g; ++i) combos *= span;
    std::vector<bool> used(16, false);
    for (i32 c = 0; c < combos; ++c) {
      i32 v[4] = {}, d[4] = {};
      for (i32 i = 0, x = c; i < g; ++i, x /= span) v[i] = lo + x % span;
      u8 idx = 0;
      ASSERT_TRUE(tbl_encode(m, v, idx)) << "bits " << m.bits;
      ASSERT_LT(idx, 16);
      EXPECT_FALSE(used[idx]) << "two groups share index " << int{idx};
      used[idx] = true;
      ASSERT_TRUE(tbl_decode(m, idx, d));
      for (int i = 0; i < g; ++i) EXPECT_EQ(d[i], v[i]);
    }
    const i32 zeros[4] = {};
    u8 neutral = 0;
    ASSERT_TRUE(tbl_encode(m, zeros, neutral));
    EXPECT_EQ(neutral, tbl_neutral_index(m));
    i32 below[4] = {lo - 1}, above[4] = {hi + 1};
    u8 idx = 0;
    EXPECT_FALSE(tbl_encode(m, below, idx)) << "bits " << m.bits;
    EXPECT_FALSE(tbl_encode(m, above, idx)) << "bits " << m.bits;
  }
  // The non-negative fold fills the window: V^G = 16 groups at 2 and 3 bit.
  EXPECT_EQ(tbl_max_index(kTbl2NonNeg), 15);
  EXPECT_EQ(tbl_max_index(kTbl3NonNeg), 15);
}

TEST(TblNonNeg, FoldedPlansMatchReferenceUnderChecks) {
  // Few rows over many columns: weight tables, whose activation indices
  // fold 4 (2 bit) or 2 (3 bit) values. K % 4 = 1, 2, 3 and 0, a K tail
  // shorter than a group; Kc = K and a split K whose Kc clamps to the
  // group; Nc % 16 != 0 so the last 16-column tile of a band is padding.
  // Checked execution at one worker, three workers unchecked; the
  // standalone and the fused execute both memcmp-match the reference.
  const ConvShape shapes[] = {
      conv_shape(5, 12, 8, 1, 1, 0), conv_shape(6, 12, 8, 1, 1, 0),
      conv_shape(7, 12, 12, 1, 1, 0), conv_shape(9, 9, 8, 3, 1, 1),
      conv_shape(8, 12, 8, 3, 1, 1)};
  for (const int bits : {2, 3})
    for (const ConvShape& s : shapes) {
      const Tensor<i8> w = random_qtensor(
          Shape4{s.out_c, s.in_c, s.kernel, s.kernel}, bits, 141);
      for (const Tensor<i8>& in :
           {nonneg_qtensor(Shape4{1, s.in_c, s.in_h, s.in_w}, bits, 142),
            [&] {
              Tensor<i8> t(Shape4{1, s.in_c, s.in_h, s.in_w});
              for (i8& v : t.span()) v = static_cast<i8>(qmax_for_bits(bits));
              return t;
            }()}) {
        const Tensor<i32> ref = ref::conv2d_s32(s, in, w);
        for (const GemmBlocking& blk :
             {GemmBlocking{16, i64{1} << 20, 12}, GemmBlocking{16, 3, 20}})
          for (const int threads : {1, 3}) {
            const ArmConvPlan plan =
                nonneg_plan(s, w, bits, blk, threads, threads == 1);
            const std::string where = describe(s) + " bits=" +
                                      std::to_string(bits) + " kc=" +
                                      std::to_string(plan.blocking.kc) +
                                      " threads=" + std::to_string(threads);
            ASSERT_EQ(plan.tbl_a.orient, TblOrientation::kWeightTables)
                << where;
            ASSERT_EQ(plan.tbl_a.mode, (TblMode{TblFold::kNonNegative, bits}))
                << where;
            EXPECT_EQ(plan.executed_layout(1).blk, plan.blocking) << where;
            Workspace ws;
            const StatusOr<ArmConvResult> alone = execute_conv(plan, in, ws);
            ASSERT_TRUE(alone.ok()) << where << ": "
                                    << alone.status().to_string();
            EXPECT_TRUE(alone.value().out == ref) << where << " standalone";
            const StatusOr<std::vector<i32>> fused = fused_acc(plan, in);
            ASSERT_TRUE(fused.ok()) << where << ": "
                                    << fused.status().to_string();
            EXPECT_TRUE(std::equal(fused.value().begin(), fused.value().end(),
                                   ref.data()))
                << where << " fused";
          }
      }
    }
}

TEST(TblNonNeg, FoldHalvesTheLookupsAndTheTables) {
  // 2 bit, 64 -> 16 channels, K = 64: the signed plan folds pairs, the
  // non-negative one four values. TBL, ADD.16B, index loads (LD1) and
  // table loads (LD1x4, both plans run from stored tables) halve, and so
  // do the packed weights: in either table source the folded pack holds
  // half the tables (stored) or ids (built) of the signed one.
  const ConvShape s = conv_shape(64, 12, 16, 1, 1, 0);
  const Tensor<i8> w = random_qtensor(Shape4{16, 64, 1, 1}, 2, 151);
  const Tensor<i8> in = nonneg_qtensor(Shape4{1, 64, 12, 12}, 2, 152);
  const GemmBlocking blk{16, i64{1} << 20, 32};
  ArmConvOptions opt;
  opt.bits = 2;
  opt.kernel = ArmKernel::kTblGemm;
  opt.blocking = BlockingPolicy::kExplicit;
  opt.explicit_blocking = blk;
  const ArmConvPlan signed_plan = plan_conv(s, w, opt).value();
  const ArmConvPlan folded = nonneg_plan(s, w, 2, blk, 1, false);
  ASSERT_EQ(signed_plan.tbl_a.orient, TblOrientation::kWeightTables);
  ASSERT_EQ(folded.tbl_a.orient, TblOrientation::kWeightTables);
  EXPECT_EQ(signed_plan.tbl_a.group(), 2);
  EXPECT_EQ(folded.tbl_a.group(), 4);
  // Each plan holds what its own source packs ...
  EXPECT_EQ(signed_plan.packed_weight_bytes, signed_plan.tbl_a.bytes());
  EXPECT_EQ(folded.packed_weight_bytes, folded.tbl_a.bytes());
  // ... and within one source the fold halves the pack.
  for (const TblSource src : {TblSource::kStored, TblSource::kBuilt}) {
    const PackedTblA sp =
        pack_tbl_a(w.data(), 16, 64, 2, TblOrientation::kWeightTables,
                   InputRange::kSigned, src);
    const PackedTblA fp =
        pack_tbl_a(w.data(), 16, 64, 2, TblOrientation::kWeightTables,
                   InputRange::kNonNegative, src);
    const char* name = src == TblSource::kStored ? "stored" : "built";
    EXPECT_EQ(sp.source, src) << name;
    EXPECT_EQ(fp.source, src) << name;
    EXPECT_EQ(2 * fp.bytes(), sp.bytes()) << name;
    if (src == signed_plan.tbl_a.source) {
      EXPECT_EQ(sp.bytes(), signed_plan.packed_weight_bytes) << name;
    }
    if (src == folded.tbl_a.source) {
      EXPECT_EQ(fp.bytes(), folded.packed_weight_bytes) << name;
    }
  }
  // Whichever source each plan priced, run both from stored tables, so
  // every group step loads its tables with one LD1x4 on either side.
  ArmConvPlan signed_stored = signed_plan, folded_stored = folded;
  signed_stored.tbl_a =
      pack_tbl_a(w.data(), 16, 64, 2, TblOrientation::kWeightTables,
                 InputRange::kSigned, TblSource::kStored);
  folded_stored.tbl_a =
      pack_tbl_a(w.data(), 16, 64, 2, TblOrientation::kWeightTables,
                 InputRange::kNonNegative, TblSource::kStored);
  Workspace ws;
  const ArmConvResult a = execute_conv(signed_stored, in, ws).value();
  const ArmConvResult b = execute_conv(folded_stored, in, ws).value();
  EXPECT_TRUE(a.out == b.out);
  for (const armsim::Op op : {armsim::Op::kTbl, armsim::Op::kLd1x4})
    EXPECT_EQ(2 * b.counts[op], a.counts[op]) << armsim::op_name(op);
  // ADD.16B and LD1 also count the C accumulate and the epilogue-free
  // writeback's vectors, which do not fold; the lookups' share halves.
  EXPECT_LT(b.counts[armsim::Op::kAdd], a.counts[armsim::Op::kAdd]);
  EXPECT_LT(b.counts[armsim::Op::kLd1], a.counts[armsim::Op::kLd1]);
  EXPECT_LT(b.cycles, a.cycles);
}

TEST(TblNonNeg, SearchPricesTheExecutedInstructionMix) {
  // The tile search's issue side in the folded mode equals what the driver
  // executes, for Kc = K and a split K, both schedules.
  const ConvShape s = conv_shape(9, 12, 8, 3, 1, 1);
  for (const int bits : {2, 3})
    for (const GemmBlocking& blk :
         {GemmBlocking{16, i64{1} << 20, 40}, GemmBlocking{16, 30, 48}}) {
      const Tensor<i8> w = random_qtensor(
          Shape4{s.out_c, s.in_c, s.kernel, s.kernel}, bits, 161);
      const Tensor<i8> in =
          nonneg_qtensor(Shape4{1, s.in_c, s.in_h, s.in_w}, bits, 162);
      const ArmConvPlan plan = nonneg_plan(s, w, bits, blk, 1, false);
      ASSERT_EQ(plan.tbl_a.mode.fold, TblFold::kNonNegative);
      Workspace ws;
      const armsim::Counters ran = execute_conv(plan, in, ws).value().counts;
      const armsim::Counters priced =
          blocking_issue_counts(s, bits, ArmKernel::kTblGemm, plan.blocking,
                                BlockedSchedule::kStandalone,
                                InputRange::kNonNegative);
      for (size_t i = 0; i < armsim::kNumOps; ++i) {
        const auto op = static_cast<armsim::Op>(i);
        if (op == armsim::Op::kL1Miss || op == armsim::Op::kL2Miss) continue;
        EXPECT_EQ(priced.n[i], ran.n[i])
            << "bits " << bits << " kc " << plan.blocking.kc << " "
            << armsim::op_name(op);
      }
    }
}

TEST(TblNonNeg, SignedValueFailsTheExecuteInsteadOfSummingWrongly) {
  // The plan's fact is checked, never trusted: one -1 among the
  // activations of a folded plan has no index, so every execute path
  // returns kOutOfRange naming it.
  const ConvShape s = conv_shape(8, 12, 8, 1, 1, 0);
  for (const int bits : {2, 3}) {
    const Tensor<i8> w =
        random_qtensor(Shape4{s.out_c, s.in_c, 1, 1}, bits, 171);
    Tensor<i8> in = nonneg_qtensor(Shape4{1, s.in_c, s.in_h, s.in_w}, bits,
                                   172);
    in.data()[5 * 12 + 7] = -1;
    for (const bool verify : {false, true}) {
      const ArmConvPlan plan = nonneg_plan(
          s, w, bits, GemmBlocking{16, i64{1} << 20, 32}, 1, verify);
      ASSERT_EQ(plan.tbl_a.mode.fold, TblFold::kNonNegative);
      Workspace ws;
      const StatusOr<ArmConvResult> r = execute_conv(plan, in, ws);
      ASSERT_FALSE(r.ok()) << "bits " << bits;
      EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
      EXPECT_NE(r.status().to_string().find("non-negative"),
                std::string::npos)
          << r.status().to_string();
      const StatusOr<std::vector<i32>> fused = fused_acc(plan, in);
      ASSERT_FALSE(fused.ok());
      EXPECT_EQ(fused.status().code(), StatusCode::kOutOfRange);
    }
    // Three workers: the bad value sits in one worker's band.
    const ArmConvPlan threaded =
        nonneg_plan(s, w, bits, GemmBlocking{16, i64{1} << 20, 16}, 3, false);
    Workspace ws;
    EXPECT_EQ(execute_conv(threaded, in, ws).status().code(),
              StatusCode::kOutOfRange);
  }
}

TEST(TblBlocking, RecordedBlockingIsTheExecutedOneAtGroupsTwoAndFour) {
  // K = 576. A plan given Kc = 63 must record the Kc its driver runs: 62
  // with pairs, 60 with the 4-value fold; the threaded Nc refine clamps
  // with the same group.
  const ConvShape s = conv_shape(64, 8, 16, 3, 1, 1);
  const Tensor<i8> w = random_qtensor(Shape4{16, 64, 3, 3}, 2, 181);
  for (const InputRange in : {InputRange::kSigned, InputRange::kNonNegative})
    for (const int threads : {1, 3})
      for (const i64 kc : {63, 62, 61}) {
        ArmConvOptions opt;
        opt.bits = 2;
        opt.kernel = ArmKernel::kTblGemm;
        opt.blocking = BlockingPolicy::kExplicit;
        opt.explicit_blocking = GemmBlocking{16, kc, 64};
        opt.threads = threads;
        opt.input_range = in;
        const ArmConvPlan plan = plan_conv(s, w, opt).value();
        ASSERT_EQ(plan.tbl_a.orient, TblOrientation::kWeightTables);
        const int group = in == InputRange::kNonNegative ? 4 : 2;
        ASSERT_EQ(plan.tbl_a.group(), group);
        EXPECT_EQ(plan.blocking.kc, kc - kc % group) << "kc " << kc;
        EXPECT_EQ(plan.executed_layout(1).blk, plan.blocking)
            << "group " << group << " kc " << kc << " threads " << threads;
      }
}

TEST(TblSearch, InputRangeKeysTheSchemeTheMemoAndTheTuningRow) {
  // A conv's input range is part of every TBL pick: its own scheme id,
  // memo key and TuningCache row. A row searched for one range is never
  // served to the other.
  EXPECT_EQ(blocking_scheme_id(ArmKernel::kTblGemm, 2, InputRange::kSigned),
            5);
  EXPECT_EQ(
      blocking_scheme_id(ArmKernel::kTblGemm, 2, InputRange::kNonNegative), 6);
  EXPECT_EQ(blocking_scheme_id(ArmKernel::kOursGemm, 2,
                               InputRange::kNonNegative),
            blocking_scheme_id(ArmKernel::kOursGemm, 2));
  const ConvShape s = conv_shape(24, 13, 8, 1, 1, 0);
  const i64 before = tile_search_stats().searches;
  const GemmBlocking sb = search_blocking(s, 2, ArmKernel::kTblGemm,
                                          BlockedSchedule::kFused,
                                          InputRange::kSigned);
  const GemmBlocking nb = search_blocking(s, 2, ArmKernel::kTblGemm,
                                          BlockedSchedule::kFused,
                                          InputRange::kNonNegative);
  EXPECT_EQ(tile_search_stats().searches - before, 2);
  EXPECT_TRUE(nb.kc % 4 == 0 || nb.kc == s.gemm_k()) << nb.kc;
  gpukern::TuningCache cache;
  const gpukern::ArmTuningKey signed_key{
      s.gemm_m(), s.gemm_n(), s.gemm_k(), 2,
      blocking_scheme_id(ArmKernel::kTblGemm, 2, InputRange::kSigned)};
  gpukern::ArmTuningKey nonneg_key = signed_key;
  nonneg_key.scheme =
      blocking_scheme_id(ArmKernel::kTblGemm, 2, InputRange::kNonNegative);
  cache.put_arm(signed_key, gpukern::ArmBlocking{sb.mc, sb.kc, sb.nc});
  EXPECT_FALSE(cache.lookup_arm(nonneg_key).has_value());
}

TEST(TblProver, FoldedModesProveAndAPlanProvesItsOwnMode) {
  for (const TblMode m : {kTbl2NonNeg, kTbl3NonNeg}) {
    const check::ProofResult r =
        check::prove(check::shipping_tbl_model(m, 4608));
    EXPECT_TRUE(r.proved()) << r.to_status().to_string();
    EXPECT_TRUE(check::prove_tbl_mode(m, 8192).ok());
  }
  // The folded entry bounds are 4 (2 bit) and 18 (3 bit).
  const check::ProofResult r3 =
      check::prove(check::shipping_tbl_model(kTbl3NonNeg, 576));
  const auto entry = std::find_if(
      r3.obligations.begin(), r3.obligations.end(),
      [](const check::Obligation& o) { return o.name == "tbl.entry-fits-i8"; });
  ASSERT_NE(entry, r3.obligations.end());
  EXPECT_NE(entry->statement.find("= 18 <="), std::string::npos)
      << entry->statement;
  // A folded plan passes the plan-time gate on the mode it packed.
  const ConvShape s = conv_shape(8, 12, 8, 3, 1, 1);
  const Tensor<i8> w = random_qtensor(Shape4{8, 8, 3, 3}, 2, 191);
  const ArmConvPlan plan =
      nonneg_plan(s, w, 2, GemmBlocking{16, 64, 32}, 1, false);
  ASSERT_EQ(plan.tbl_a.mode, kTbl2NonNeg);
  EXPECT_TRUE(core::prove_arm_plan(plan).ok());
  EXPECT_TRUE(check::prove_arm_kernel(ArmKernel::kTblGemm, 3, 8192).ok());
}

TEST(TblProverMutation, FoldedFlushOneStepTooLongFailsAtI8LaneHeadroom) {
  // 32 * 4 = 128 and 8 * 18 = 144 both overrun a byte lane.
  for (const TblMode m : {kTbl2NonNeg, kTbl3NonNeg}) {
    check::SchemeModel model = check::shipping_tbl_model(m, 576);
    model.acc8_flush = tbl_flush_interval(m) + 1;
    const check::ProofResult r = check::prove(model);
    EXPECT_FALSE(r.proved());
    ASSERT_NE(r.first_failed(), nullptr);
    EXPECT_EQ(r.first_failed()->name, "tbl.i8-lane-headroom")
        << "bits " << m.bits;
  }
}

void corrupted_folded_build(TblMode mode, const i8* b, i8 out[16]) {
  tbl_build_table(mode, b, out);
  out[15] = static_cast<i8>(out[15] + 1);  // one folded entry off by one
}

TEST(TblProverMutation, CorruptFoldedEntryFailsAtTableEntriesExact) {
  for (const TblMode m : {kTbl2NonNeg, kTbl3NonNeg}) {
    check::SchemeModel model = check::shipping_tbl_model(m, 576);
    model.tbl_build = &corrupted_folded_build;
    const check::ProofResult r = check::prove(model);
    EXPECT_FALSE(r.proved());
    ASSERT_NE(r.first_failed(), nullptr);
    EXPECT_EQ(r.first_failed()->name, "tbl.table-entries-exact")
        << "bits " << m.bits;
  }
}

}  // namespace
}  // namespace lbc::armkern
