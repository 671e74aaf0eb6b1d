// TBL lookup-table scheme (DESIGN.md Sec. 16): bit-exactness of both
// orientations vs the reference GEMM, the paired 32x4 tile in every mode,
// ternary pack detection and its edge cases, plan-level eligibility
// degrades, checked execution under the invariant verifier, orientation
// pricing, tuning rows of the retired 16x4-only schedule, and the prover's
// TBL obligations with mutation tests that must fail at the exact named
// obligation.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "armkern/conv_arm.h"
#include "armkern/gemm_blocked.h"
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
        {"2-bit pair", 2, random_qtensor(wshape, 2, 101), kTblPairGroup},
        {"3-bit pair", 3, ternary_tensor(wshape, 102), kTblPairGroup},
        {"3-bit generic", 3, random_qtensor(wshape, 3, 103), 1},
    };
    for (const Mode& md : modes) {
      const Tensor<i8> in = extreme_qtensor(
          Shape4{s.batch, s.in_c, s.in_h, s.in_w}, md.bits, 104);
      const ArmConvPlan plan = tbl_plan(s, md.w, md.bits, c.blk);
      ASSERT_EQ(plan.kernel, ArmKernel::kTblGemm) << md.name;
      ASSERT_EQ(plan.tbl_a.orient, c.orient) << md.name;
      EXPECT_EQ(plan.tbl_a.group,
                c.orient == TblOrientation::kActTables
                    ? md.act_group
                    : tbl_group_for(c.orient, md.bits, false))
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
  ASSERT_EQ(tbl_flush_interval(3, false), 14);
  for (const auto& [s, orient] : cases) {
    const Tensor<i8> w = extreme_qtensor(
        Shape4{s.out_c, s.in_c, s.kernel, s.kernel}, 3, 111);
    const Tensor<i8> in =
        extreme_qtensor(Shape4{s.batch, s.in_c, s.in_h, s.in_w}, 3, 112);
    const ArmConvPlan plan = tbl_plan(s, w, 3, blk);
    ASSERT_EQ(plan.tbl_a.orient, orient);
    ASSERT_EQ(plan.tbl_a.group, 1);
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
  const int flush = tbl_flush_interval(3, false);
  const i32 bound = tbl_entry_bound(3, false);
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
  micro_tbl_16x4(plain, idx0.data(), tables.data(), groups, flush, want);
  micro_tbl_16x4(plain, idx1.data(), tables.data(), groups, flush,
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
  micro_tbl_32x4(ctx, idx0.data(), idx1.data(), tables.data(), groups, flush,
                 tile);
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
  // and nothing paired, under both orientations and both schedules.
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
          blocking_issue_counts(s, bits, ArmKernel::kTblGemm, plan.blocking),
          execute_conv(plan, in, ws).value().counts, where + " standalone");

      const i64 m = s.gemm_m(), n = s.gemm_n();
      std::vector<i8> out(static_cast<size_t>(m * n));
      TileEpilogue epi;
      epi.fn = [](i64, i64, i64, const i32*) {};
      epi.out_base = out.data();
      epi.row_stride = n;
      epi.out_rows = m;
      std::vector<i32> band(static_cast<size_t>(plan.fused_band_elems()));
      const FusedConvResult fused =
          execute_conv_fused(plan, in.data(), band.data(),
                             plan.fused_band_elems(), epi, ws)
              .value();
      expect_same_issue(
          blocking_issue_counts(s, bits, ArmKernel::kTblGemm, plan.blocking,
                                BlockedSchedule::kFused),
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
  const GemmBlocking searched = search_blocking(s, 2, ArmKernel::kTblGemm);
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
  key.scheme = blocking_scheme_id(ArmKernel::kTblGemm, 2);
  const std::optional<gpukern::ArmBlocking> row = reloaded.lookup_arm(key);
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ(*row, (gpukern::ArmBlocking{searched.mc, searched.kc,
                                        searched.nc}));
  EXPECT_EQ(reloaded.lookup_arm(old_key), stale);
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
  // bits 2-3, two blocked combos (searched, and an explicit blocking that
  // pairs panels into the 32x4 tile), three shapes each.
  EXPECT_EQ(tbl_rows, 2 * 2 * 3);
}

}  // namespace
}  // namespace lbc::armkern
