// Cache-blocked GEMM (blocking.h / gemm_blocked.cpp), fused im2col
// packing, and the ARM {Mc, Kc, Nc} tile auto-search: bit-exactness vs
// the unblocked sweep across every bit width and scheme, the cache-miss
// reduction the blocking exists for, search determinism and memoization,
// plan-level clamping, and checked execution of the blocked schedule.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <string>
#include <vector>

#include "armkern/conv_arm.h"
#include "armkern/gemm_lowbit.h"
#include "armkern/pack.h"
#include "armkern/tile_search.h"
#include "common/align.h"
#include "common/rng.h"
#include "common/workspace.h"
#include "refconv/conv_ref.h"

namespace lbc::armkern {
namespace {

ConvShape shape(i64 ic, i64 hw, i64 oc, i64 k, i64 st, i64 pad,
                i64 batch = 1) {
  ConvShape s;
  s.name = "blk";
  s.batch = batch;
  s.in_c = ic;
  s.in_h = s.in_w = hw;
  s.out_c = oc;
  s.kernel = k;
  s.stride = st;
  s.pad = pad;
  return s;
}

// ---------------------------------------------------------------------------
// Conv-level: fused packing vs materialized im2col
// ---------------------------------------------------------------------------

void expect_fused_conv_exact(const ConvShape& s, int bits, ArmKernel kernel,
                             const GemmBlocking& blocking, u64 seed) {
  const Tensor<i8> in =
      random_qtensor(Shape4{s.batch, s.in_c, s.in_h, s.in_w}, bits, seed);
  const Tensor<i8> w = random_qtensor(
      Shape4{s.out_c, s.in_c, s.kernel, s.kernel}, bits, seed + 1);

  ArmConvOptions fused;
  fused.bits = bits;
  fused.kernel = kernel;
  fused.blocking = BlockingPolicy::kExplicit;
  fused.explicit_blocking = blocking;
  const ArmConvResult rf = conv2d_s32(s, in, w, fused).value();
  EXPECT_EQ(rf.executed_algo, "gemm");

  ArmConvOptions mat = fused;
  mat.blocking = BlockingPolicy::kOff;
  const ArmConvResult rm = conv2d_s32(s, in, w, mat).value();

  ASSERT_EQ(rf.out.shape(), rm.out.shape());
  for (i64 i = 0; i < rf.out.elems(); ++i)
    ASSERT_EQ(rf.out.data()[i], rm.out.data()[i])
        << "elem " << i << " bits=" << bits
        << " kernel=" << static_cast<int>(kernel);
  EXPECT_TRUE(rf.out == ref::conv2d_s32(s, in, w))
      << "bits=" << bits << " kernel=" << static_cast<int>(kernel);
  // Padding accounting is partition-invariant.
  EXPECT_EQ(rf.space.pack_extra_elems, rm.space.pack_extra_elems);
}

// A 37x53 . 53x29 GEMM as its 1x1 view: 53 channels of a 1x29 image, 37
// output channels. The blocked driver's gather of that input is the
// row-major B itself. Odd sizes exercise every edge: M % 16, N % 4 and
// K % Kc all nonzero. The materialized side runs the unblocked sweep, so
// this checks blocked == unblocked at every bit width and scheme.
void expect_blocked_matches_unblocked(const GemmBlocking& blocking) {
  ConvShape gemm_view = shape(53, 1, 37, 1, 1, 0);
  gemm_view.in_w = 29;
  for (int bits = 2; bits <= 8; ++bits) {
    const u64 seed = 300 + static_cast<u64>(bits);
    expect_fused_conv_exact(gemm_view, bits, ArmKernel::kOursGemm, blocking,
                            seed);
    expect_fused_conv_exact(gemm_view, bits, ArmKernel::kNcnn, blocking,
                            seed);
    if (sdot_eligible_for(bits))
      expect_fused_conv_exact(gemm_view, bits, ArmKernel::kSdotExt, blocking,
                              seed);
  }
}

TEST(GemmBlocked, MatchesUnblockedAllBitsAllSchemes) {
  // Splits each GEMM dimension into several blocks with tails.
  expect_blocked_matches_unblocked(GemmBlocking{32, 20, 8});
}

TEST(GemmBlocked, SingleBlockDegeneratesToOneSweep) {
  // Clamped by the plan to one block covering the whole GEMM.
  expect_blocked_matches_unblocked(GemmBlocking{1024, 1024, 1024});
}

TEST(GemmBlocked, FusedConvMatchesMaterializedAllSchemes) {
  // 3x3 pad 1 (gather crosses image borders), plus a strided 5x5 stem and
  // a batched 1x1 — multi-block in every GEMM dimension.
  const GemmBlocking blk{16, 24, 16};
  for (int bits : {2, 3, 4, 8}) {
    for (ArmKernel kern : {ArmKernel::kOursGemm, ArmKernel::kNcnn}) {
      expect_fused_conv_exact(shape(8, 10, 20, 3, 1, 1), bits, kern,
                              blk, 500 + static_cast<u64>(bits));
      expect_fused_conv_exact(shape(3, 13, 18, 5, 2, 2), bits, kern,
                              blk, 520 + static_cast<u64>(bits));
      expect_fused_conv_exact(shape(6, 8, 17, 1, 1, 0, /*batch=*/2), bits,
                              kern, blk, 540 + static_cast<u64>(bits));
    }
    if (sdot_eligible_for(bits)) {
      expect_fused_conv_exact(shape(8, 10, 20, 3, 1, 1), bits,
                              ArmKernel::kSdotExt, blk,
                              560 + static_cast<u64>(bits));
      expect_fused_conv_exact(shape(6, 8, 17, 1, 1, 0, /*batch=*/2), bits,
                              ArmKernel::kSdotExt, blk,
                              580 + static_cast<u64>(bits));
    }
  }
}

TEST(GemmBlocked, BlockedReducesL2MissesOnResNetShape) {
  // The point of the exercise: on a 56 x 56 layer with in_c = 256 the
  // packed-B working set of the unblocked sweep (K x N = 256 x 3136) blows
  // past the modeled 512 KB L2; the blocked schedule keeps one Kc x Nc
  // block L1-resident and strictly cuts kL2Miss (and modeled cycles).
  const ConvShape s = shape(256, 56, 64, 1, 1, 0);
  const Tensor<i8> in = random_qtensor(Shape4{1, 256, 56, 56}, 8, 71);
  const Tensor<i8> w = random_qtensor(Shape4{64, 256, 1, 1}, 8, 72);

  ArmConvOptions off;
  off.blocking = BlockingPolicy::kOff;
  const ArmConvResult r_off = conv2d_s32(s, in, w, off).value();

  const ArmConvResult r_on = conv2d_s32(s, in, w, {}).value();  // kAuto

  EXPECT_LT(r_on.counts[armsim::Op::kL2Miss],
            r_off.counts[armsim::Op::kL2Miss]);
  EXPECT_LT(r_on.cycles, r_off.cycles);
  // Same math.
  for (i64 i = 0; i < r_on.out.elems(); ++i)
    ASSERT_EQ(r_on.out.data()[i], r_off.out.data()[i]);
}

// ---------------------------------------------------------------------------
// Tile auto-search
// ---------------------------------------------------------------------------

TEST(GemmBlocked, TileSearchIsDeterministicAndMemoized) {
  const ConvShape s = shape(64, 14, 128, 3, 1, 1);
  const TileSearchStats before = tile_search_stats();
  const GemmBlocking first = search_blocking(s, 4, ArmKernel::kOursGemm);
  ASSERT_TRUE(first.enabled());
  const TileSearchStats mid = tile_search_stats();
  const GemmBlocking second = search_blocking(s, 4, ArmKernel::kOursGemm);
  const TileSearchStats after = tile_search_stats();
  EXPECT_EQ(first, second);
  // First call may hit a memo warmed by another test; the second call on
  // the identical key must.
  EXPECT_GE(mid.searches + mid.memo_hits, before.searches + before.memo_hits);
  EXPECT_EQ(after.memo_hits, mid.memo_hits + 1);
  EXPECT_EQ(after.searches, mid.searches);

  // The winner is a valid clamped candidate for the shape's GEMM view.
  const GemmBlocking clamped =
      clamp_blocking(first, s.gemm_m(), s.gemm_n(), s.gemm_k(), false);
  EXPECT_EQ(first, clamped);
}

TEST(GemmBlocked, SearchedBlockingScoresNoWorseThanDefault) {
  const ConvShape s = shape(128, 28, 256, 3, 1, 1);
  const GemmBlocking win = search_blocking(s, 8, ArmKernel::kOursGemm);
  const GemmBlocking dflt =
      default_blocking(s.gemm_m(), s.gemm_n(), s.gemm_k(), false);
  EXPECT_LE(score_blocking(s, 8, ArmKernel::kOursGemm, win),
            score_blocking(s, 8, ArmKernel::kOursGemm, dflt));
}

TEST(GemmBlocked, ExplicitBlockingIsClampedByPlan) {
  const ConvShape s = shape(8, 10, 20, 3, 1, 1);  // M = 20, N = 100, K = 72
  ArmConvOptions o;
  o.bits = 4;
  o.blocking = BlockingPolicy::kExplicit;
  o.explicit_blocking = GemmBlocking{1000, 10000, 7};
  const Tensor<i8> w = random_qtensor(Shape4{20, 8, 3, 3}, 4, 91);
  const ArmConvPlan plan = plan_conv(s, w, o).value();
  ASSERT_TRUE(plan.blocking.enabled());
  EXPECT_EQ(plan.blocking.mc % kMr, 0);
  EXPECT_EQ(plan.blocking.nc % kNr, 0);
  EXPECT_LE(plan.blocking.mc, round_up(s.gemm_m(), kMr));
  EXPECT_LE(plan.blocking.nc, round_up(s.gemm_n(), kNr));
  EXPECT_LE(plan.blocking.kc, s.gemm_k());

  // kOff compiles a plan with blocking disabled.
  o.blocking = BlockingPolicy::kOff;
  EXPECT_FALSE(plan_conv(s, w, o).value().blocking.enabled());
}

// ---------------------------------------------------------------------------
// Checked execution over the blocked schedule
// ---------------------------------------------------------------------------

TEST(GemmBlocked, BlockedConvPassesVerifier) {
  const ConvShape s = shape(16, 12, 24, 3, 1, 1);
  const Tensor<i8> in = random_qtensor(Shape4{1, 16, 12, 12}, 5, 95);
  const Tensor<i8> w = random_qtensor(Shape4{24, 16, 3, 3}, 5, 96);
  ArmConvOptions o;
  o.bits = 5;
  o.verify = true;
  o.blocking = BlockingPolicy::kExplicit;
  o.explicit_blocking = GemmBlocking{16, 48, 16};  // several blocks each way
  const StatusOr<ArmConvResult> r = conv2d_s32(s, in, w, o);
  ASSERT_TRUE(r.ok()) << r.status().to_string();
  const Tensor<i32> ref = ref::conv2d_s32(s, in, w);
  for (i64 i = 0; i < ref.elems(); ++i)
    ASSERT_EQ(r.value().out.data()[i], ref.data()[i]);
}

// ---------------------------------------------------------------------------
// Fused execute: C bands, direct tiles, checked execution
// ---------------------------------------------------------------------------

struct FusedCase {
  const char* name;
  int bits;
  ArmKernel kernel;
  ConvShape s;
  TblOrientation orient = TblOrientation::kActTables;  ///< TBL cases only
};

// Every blocked kernel, and TBL in both orientations: few rows pick weight
// tables, many rows over a table set too big for L2 pick activation tables.
std::vector<FusedCase> fused_cases() {
  return {
      {"smlal", 8, ArmKernel::kOursGemm, shape(16, 12, 24, 3, 1, 1)},
      {"mla", 3, ArmKernel::kOursGemm, shape(16, 12, 24, 3, 1, 1)},
      {"ncnn", 8, ArmKernel::kNcnn, shape(16, 12, 24, 3, 1, 1)},
      {"sdot", 8, ArmKernel::kSdotExt, shape(16, 12, 24, 3, 1, 1)},
      {"tbl-weight-tables", 2, ArmKernel::kTblGemm, shape(8, 12, 8, 3, 1, 1),
       TblOrientation::kWeightTables},
      {"tbl-act-tables", 2, ArmKernel::kTblGemm, shape(64, 5, 96, 3, 1, 1),
       TblOrientation::kActTables},
  };
}

// Accumulators and status of one execute_conv_fused run whose epilogue
// records every C element it is handed (and stores a clamped i8 copy
// through out_base, so the output region is exercised too).
struct FusedRun {
  Status status;
  std::vector<i32> acc;
};

FusedRun run_fused(const ArmConvPlan& plan, const Tensor<i8>& in,
                   i64 scratch_bytes) {
  const i64 m = plan.shape.gemm_m(), n = plan.shape.gemm_n();
  FusedRun r;
  r.acc.assign(static_cast<size_t>(m * n), -7);
  AlignedVector<i8> out(static_cast<size_t>(m * n));
  TileEpilogue epi;
  epi.fn = [&r, &out, n](i64 row, i64 col0, i64 cols, const i32* acc) {
    for (i64 j = 0; j < cols; ++j) {
      r.acc[static_cast<size_t>(row * n + col0 + j)] = acc[j];
      out[static_cast<size_t>(row * n + col0 + j)] =
          static_cast<i8>(std::clamp<i32>(acc[j], -127, 127));
    }
  };
  epi.out_base = out.data();
  epi.row_stride = n;
  epi.out_rows = m;
  AlignedVector<std::byte> scratch(static_cast<size_t>(scratch_bytes));
  r.status = execute_conv_fused(plan, in.data(), scratch, epi).status();
  return r;
}

ArmConvPlan fused_plan(const FusedCase& fc, const Tensor<i8>& w,
                       GemmBlocking blk, int threads, bool verify) {
  ArmConvOptions o;
  o.bits = fc.bits;
  o.kernel = fc.kernel;
  o.threads = threads;
  o.verify = verify;
  o.blocking = BlockingPolicy::kExplicit;
  o.explicit_blocking = blk;
  return plan_conv(fc.s, w, o).value();
}

// Kc covering K (no C band: the epilogue reads the tiles) and a split K
// (one m x Nc band per worker), both with Nc % 16 != 0 so TBL's 16-column
// weight-table tiles end mid-band.
const GemmBlocking kDirectTile{16, i64{1} << 20, 12};
const GemmBlocking kBanded{16, 40, 12};

TEST(GemmBlocked, FusedExecuteMatchesReferenceForEveryKernel) {
  // Checked execution (one worker), then three workers with a band each:
  // a tile that overran its band's Nc columns would corrupt the next
  // row's partial sums.
  for (const FusedCase& fc : fused_cases()) {
    const ConvShape& s = fc.s;
    const Tensor<i8> in =
        random_qtensor(Shape4{1, s.in_c, s.in_h, s.in_w}, fc.bits, 61);
    const Tensor<i8> w =
        random_qtensor(Shape4{s.out_c, s.in_c, s.kernel, s.kernel}, fc.bits,
                       62);
    const Tensor<i32> ref = ref::conv2d_s32(s, in, w);
    for (const GemmBlocking& blk : {kDirectTile, kBanded})
      for (const int threads : {1, 3}) {
        const bool verify = threads == 1;
        const ArmConvPlan plan = fused_plan(fc, w, blk, threads, verify);
        ASSERT_EQ(plan.kernel, fc.kernel) << fc.name;
        if (fc.kernel == ArmKernel::kTblGemm) {
          EXPECT_EQ(plan.tbl_a.orient, fc.orient) << fc.name;
        }
        const BlockedLayout lay = plan.executed_layout(s.batch);
        const bool direct = blk == kDirectTile;
        EXPECT_EQ(lay.k_blocks == 1, direct) << fc.name;
        EXPECT_GE(lay.n_blocks, 3) << fc.name;
        EXPECT_EQ(plan.fused_band_elems(),
                  direct ? 0 : threads * s.gemm_m() * 12)
            << fc.name;
        const FusedRun r = run_fused(plan, in, plan.fused_scratch_bytes());
        ASSERT_TRUE(r.status.ok()) << fc.name << ": " << r.status.to_string();
        EXPECT_TRUE(std::equal(r.acc.begin(), r.acc.end(), ref.data()))
            << fc.name << (direct ? " direct tile" : " banded")
            << ", threads=" << threads;
      }
  }
}

TEST(GemmBlocked, PairedTblTileMatchesReferenceAtEveryPanelEdge) {
  // TBL pairs adjacent panels into the 32x4 tile and keeps the 16x4 tile
  // for an odd last one. Act tables (m = 48, three row panels): Mc = 64
  // pairs two and runs one alone, Mc = 32 pairs only in the first block,
  // Mc = 16 pairs nothing. Weight tables (8 rows, n = 144): Nc = 48 and 40
  // hold a 16-column index pair and an odd panel (40: a partial one),
  // Nc = 32 exactly one pair, Nc = 12 nothing. Each blocking runs with
  // Kc = K and with split-K bands, standalone and fused, checked at one
  // thread and banded across three.
  struct Case {
    const char* name;
    ConvShape s;
    TblOrientation orient;
    std::vector<i64> mc, nc;
  };
  const Case cases[] = {
      {"act-tables", shape(128, 5, 48, 3, 1, 1), TblOrientation::kActTables,
       {64, 32, 16}, {8}},
      {"weight-tables", shape(8, 12, 8, 3, 1, 1),
       TblOrientation::kWeightTables, {16}, {48, 40, 32, 12}},
  };
  for (const int bits : {2, 3})
    for (const Case& c : cases) {
      const ConvShape& s = c.s;
      const Tensor<i8> in =
          random_qtensor(Shape4{1, s.in_c, s.in_h, s.in_w}, bits, 71);
      const Tensor<i8> w = random_qtensor(
          Shape4{s.out_c, s.in_c, s.kernel, s.kernel}, bits, 72);
      const Tensor<i32> ref = ref::conv2d_s32(s, in, w);
      const FusedCase fc{c.name, bits, ArmKernel::kTblGemm, s, c.orient};
      for (const i64 mc : c.mc)
        for (const i64 nc : c.nc)
          for (const i64 kc : {i64{1} << 20, i64{96}})
            for (const int threads : {1, 3}) {
              const bool verify = threads == 1;
              const ArmConvPlan plan =
                  fused_plan(fc, w, GemmBlocking{mc, kc, nc}, threads, verify);
              const std::string where =
                  std::string(c.name) + " bits=" + std::to_string(bits) +
                  " mc=" + std::to_string(mc) + " kc=" + std::to_string(kc) +
                  " nc=" + std::to_string(nc) +
                  " threads=" + std::to_string(threads);
              ASSERT_EQ(plan.kernel, ArmKernel::kTblGemm) << where;
              ASSERT_EQ(plan.tbl_a.orient, c.orient) << where;
              ASSERT_EQ(plan.blocking.nc, nc) << where;
              Workspace ws;
              const StatusOr<ArmConvResult> alone = execute_conv(plan, in, ws);
              ASSERT_TRUE(alone.ok()) << where << ": "
                                      << alone.status().to_string();
              EXPECT_TRUE(alone.value().out == ref) << where << " standalone";
              const FusedRun fused = run_fused(plan, in,
                                               plan.fused_scratch_bytes());
              ASSERT_TRUE(fused.status.ok()) << where << ": "
                                             << fused.status.to_string();
              EXPECT_TRUE(std::equal(fused.acc.begin(), fused.acc.end(),
                                     ref.data()))
                  << where << " fused";
            }
    }
}

TEST(GemmBlocked, FusedExecuteRejectsAShortBand) {
  // The scratch holds the line-rounded C band, then the block buffer: one
  // byte short of that is refused.
  const FusedCase fc = fused_cases()[0];
  const Tensor<i8> w = random_qtensor(Shape4{24, 16, 3, 3}, 8, 81);
  const Tensor<i8> in = random_qtensor(Shape4{1, 16, 12, 12}, 8, 82);
  const ArmConvPlan plan = fused_plan(fc, w, kBanded, 1, false);
  const BlockedLayout lay = plan.executed_layout(1);
  ASSERT_GT(plan.fused_band_elems(), 0);
  EXPECT_EQ(plan.fused_scratch_bytes(),
            workspace_rounded(plan.fused_band_elems() * 4) +
                workspace_rounded(lay.block_elems()));
  EXPECT_EQ(run_fused(plan, in, plan.fused_scratch_bytes() - 1).status.code(),
            StatusCode::kInvalidArgument);
  // A plan with one K block needs no band, only the block buffer.
  const ArmConvPlan direct = fused_plan(fc, w, kDirectTile, 1, false);
  ASSERT_EQ(direct.fused_band_elems(), 0);
  EXPECT_EQ(direct.fused_scratch_bytes(),
            workspace_rounded(direct.executed_layout(1).block_elems()));
  EXPECT_TRUE(run_fused(direct, in, direct.fused_scratch_bytes()).status.ok());
}

TEST(GemmBlocked, FusedExecuteRejectsAnUnalignedOutputOrScratch) {
  // The cache model keys on host lines, so an output or scratch that does
  // not start on one would move the modeled cycles: both are refused.
  const FusedCase fc = fused_cases()[0];
  const Tensor<i8> w = random_qtensor(Shape4{24, 16, 3, 3}, 8, 83);
  const Tensor<i8> in = random_qtensor(Shape4{1, 16, 12, 12}, 8, 84);
  const ArmConvPlan plan = fused_plan(fc, w, kBanded, 1, false);
  const i64 n = plan.shape.gemm_n();
  AlignedVector<i8> out(static_cast<size_t>(plan.shape.gemm_m() * n + 64));
  AlignedVector<std::byte> scratch(
      static_cast<size_t>(plan.fused_scratch_bytes() + 64));
  TileEpilogue epi;
  epi.fn = [](i64, i64, i64, const i32*) {};
  epi.row_stride = n;
  epi.out_rows = plan.shape.gemm_m();
  const std::span<std::byte> whole(scratch.data(), scratch.size());
  for (const i64 shift : {0, 16}) {
    epi.out_base = out.data() + shift;
    const Status st =
        execute_conv_fused(plan, in.data(), whole, epi).status();
    EXPECT_EQ(st.code(),
              shift == 0 ? StatusCode::kOk : StatusCode::kInvalidArgument)
        << st.to_string();
  }
  epi.out_base = out.data();
  const Status st =
      execute_conv_fused(plan, in.data(), whole.subspan(8), epi).status();
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.to_string();
  EXPECT_NE(st.to_string().find("scratch"), std::string::npos)
      << st.to_string();
}

// ---------------------------------------------------------------------------
// The tile search's tally equals the executed counts
// ---------------------------------------------------------------------------

// Activations in [0, qmax]: what a ReLU'd producer hands its consumer.
Tensor<i8> nonneg_qtensor(Shape4 s, int bits, u64 seed) {
  Tensor<i8> t = random_qtensor(s, bits, seed);
  for (i8& v : t.span()) v = static_cast<i8>(v < 0 ? -v : v);
  return t;
}

TEST(BlockedWalk, TallyEqualsTheExecutedCountsForEveryKernel) {
  // blocking_issue_counts (micro probes scaled by the walk's calls, plus
  // the pack, table-copy, C-reload and epilogue tallies) must equal what
  // the driver executes, instruction for instruction; only the cache
  // misses come from the replay. Every kernel; TBL in both orientations,
  // with stored and built weight tables — the built ones both copied per
  // pass (Nc = n, nine panels) and read straight from the dictionary (Nc
  // of 40 and 48, two calls a pass) — on signed and folded inputs, with
  // pairs plus an odd panel, pairs only and nothing paired; a 3x3, a
  // stride-2 3x3 and a 5x5; Kc = K and a split K with a tail; Nc % 16 != 0;
  // both schedules; one worker and three.
  struct Row {
    ConvShape s;
    ArmKernel kernel;
    std::vector<int> bits;
    InputRange input;
    TblSource source;
    std::vector<GemmBlocking> blks;
  };
  const InputRange kSigned = InputRange::kSigned;
  const InputRange kNonNeg = InputRange::kNonNegative;
  const TblSource kStored = TblSource::kStored;
  const TblSource kBuilt = TblSource::kBuilt;
  const std::vector<GemmBlocking> plain_blks = {
      {32, i64{1} << 20, 12}, {16, 40, 40}, {32, 40, 48}};
  const std::vector<Row> rows = {
      {shape(16, 10, 20, 3, 1, 1), ArmKernel::kOursGemm, {2, 3, 4, 8},
       kSigned, kStored, plain_blks},
      {shape(8, 11, 24, 3, 2, 1), ArmKernel::kOursGemm, {2, 3, 4, 8},
       kSigned, kStored, plain_blks},
      {shape(3, 13, 18, 5, 2, 2), ArmKernel::kNcnn, {8}, kSigned, kStored,
       plain_blks},
      {shape(16, 10, 20, 3, 1, 1), ArmKernel::kNcnn, {8}, kSigned, kStored,
       plain_blks},
      {shape(16, 10, 20, 3, 1, 1), ArmKernel::kSdotExt, {4, 8}, kSigned,
       kStored, plain_blks},
      {shape(8, 11, 24, 3, 2, 1), ArmKernel::kSdotExt, {4, 8}, kSigned,
       kStored, plain_blks},
      // TBL act tables: pairs plus an odd panel, pairs only, none paired.
      {shape(128, 5, 48, 3, 1, 1), ArmKernel::kTblGemm, {2, 3}, kSigned,
       kStored, {{64, 96, 8}}},
      {shape(64, 5, 96, 3, 1, 1), ArmKernel::kTblGemm, {2, 3}, kSigned,
       kStored, {{64, i64{1} << 20, 8}, {16, 96, 8}}},
      // TBL weight tables: three 16-column panels, two, and one.
      {shape(8, 12, 8, 3, 1, 1), ArmKernel::kTblGemm, {2, 3}, kSigned,
       kStored, {{16, 40, 48}, {16, i64{1} << 20, 32}, {16, 40, 12}}},
      {shape(9, 12, 8, 3, 1, 1), ArmKernel::kTblGemm, {2, 3}, kNonNeg,
       kStored, {{16, i64{1} << 20, 40}, {16, 30, 48}}},
      {shape(9, 12, 8, 3, 1, 1), ArmKernel::kTblGemm, {2, 3}, kSigned,
       kBuilt, {{16, i64{1} << 20, 40}, {16, 24, 48}, {16, 24, 144}}},
      {shape(9, 12, 8, 3, 1, 1), ArmKernel::kTblGemm, {2, 3}, kNonNeg,
       kBuilt, {{16, i64{1} << 20, 40}, {16, 24, 48}, {16, 24, 144}}},
  };
  // The built source's read modes the rows ran: [copy, direct].
  bool built_modes[2] = {false, false};
  const auto expect_same_issue = [](const armsim::Counters& priced,
                                    const armsim::Counters& ran,
                                    const std::string& where) {
    for (size_t i = 0; i < armsim::kNumOps; ++i) {
      const auto op = static_cast<armsim::Op>(i);
      if (op == armsim::Op::kL1Miss || op == armsim::Op::kL2Miss) continue;
      EXPECT_EQ(priced.n[i], ran.n[i]) << where << " " << armsim::op_name(op);
    }
  };
  for (const Row& row : rows)
    for (const int bits : row.bits)
      for (const GemmBlocking& blk : row.blks)
        for (const int threads : {1, 3}) {
          const ConvShape& s = row.s;
          const i64 m = s.gemm_m(), n = s.gemm_n(), k = s.gemm_k();
          const Tensor<i8> w = random_qtensor(
              Shape4{s.out_c, s.in_c, s.kernel, s.kernel}, bits, 131);
          const Shape4 in_shape{s.batch, s.in_c, s.in_h, s.in_w};
          const Tensor<i8> in = row.input == kNonNeg
                                    ? nonneg_qtensor(in_shape, bits, 132)
                                    : random_qtensor(in_shape, bits, 132);
          ArmConvOptions opt;
          opt.bits = bits;
          opt.kernel = row.kernel;
          opt.blocking = BlockingPolicy::kExplicit;
          opt.explicit_blocking = blk;
          opt.threads = threads;
          opt.input_range = row.input;
          ArmConvPlan plan = plan_conv(s, w, opt).value();
          ASSERT_EQ(plan.kernel, row.kernel);
          const bool tbl = row.kernel == ArmKernel::kTblGemm;
          if (tbl) {
            // Whatever source the blocking prices, run the row's.
            plan.tbl_a = pack_tbl_a(w.data(), m, k, bits, plan.tbl_a.orient,
                                    row.input, row.source);
            plan.packed_weight_bytes = plan.tbl_a.bytes();
            ASSERT_EQ(plan.tbl_a.source, row.source);
            ASSERT_EQ(plan.tbl_a.orient,
                      choose_tbl_orientation(m, n, k, bits, false, row.input));
            if (plan.tbl_a.orient == TblOrientation::kWeightTables) {
              ASSERT_EQ(plan.tbl_a.mode.fold == TblFold::kNonNegative,
                        row.input == kNonNeg);
            }
          }
          const BlockedLayout lay = plan.executed_layout(1);
          if (lay.tbl_built()) built_modes[lay.tbl_direct ? 1 : 0] = true;
          const std::string where =
              "m " + std::to_string(m) + " scheme " +
              std::to_string(blocking_scheme_id(row.kernel, bits, row.input,
                                                row.source)) +
              (tbl && plan.tbl_a.orient == TblOrientation::kActTables
                   ? " act"
                   : "") +
              (lay.tbl_built() ? (lay.tbl_direct ? " direct" : " copy") : "") +
              " bits " + std::to_string(bits) + " blocking {" +
              std::to_string(plan.blocking.mc) + "," +
              std::to_string(plan.blocking.kc) + "," +
              std::to_string(plan.blocking.nc) + "} threads " +
              std::to_string(threads);
          Workspace ws;
          const StatusOr<ArmConvResult> alone = execute_conv(plan, in, ws);
          ASSERT_TRUE(alone.ok()) << where << ": "
                                  << alone.status().to_string();
          expect_same_issue(
              blocking_issue_counts(s, bits, row.kernel, plan.blocking,
                                    BlockedSchedule::kStandalone, row.input,
                                    row.source),
              alone.value().counts, where + " standalone");

          AlignedVector<i8> out(static_cast<size_t>(m * n));
          TileEpilogue epi;
          epi.fn = [](i64, i64, i64, const i32*) {};
          epi.out_base = out.data();
          epi.row_stride = n;
          epi.out_rows = m;
          AlignedVector<std::byte> scratch(
              static_cast<size_t>(plan.fused_scratch_bytes()));
          const StatusOr<FusedConvResult> fused =
              execute_conv_fused(plan, in.data(), scratch, epi);
          ASSERT_TRUE(fused.ok()) << where << ": "
                                  << fused.status().to_string();
          expect_same_issue(
              blocking_issue_counts(s, bits, row.kernel, plan.blocking,
                                    BlockedSchedule::kFused, row.input,
                                    row.source),
              fused.value().counts, where + " fused");
        }
  EXPECT_TRUE(built_modes[0]) << "no built row copied its tables";
  EXPECT_TRUE(built_modes[1]) << "no built row read the dictionary directly";
}

// ---------------------------------------------------------------------------
// Pinned prices: the tile search's exact scores of a fixed candidate set
// ---------------------------------------------------------------------------

// The search-vs-exhaustive tests (TileSearchPruning.*, KernelChoicePruning.*)
// compare two passes under the same replay, so a changed walk or replay
// passes them. These exact values pin the prices themselves: every kernel,
// both TBL orientations, both table sources (the built one reading its
// tables straight from the dictionary at these blockings) and input
// ranges, both schedules, a split K with a tail and Kc = K, on a GEMM
// replayed in full (at most kFullReplayMacs MACs) and on one extrapolated
// from block 0 and one line period of column blocks (one block at
// Nc = 64, eight at Nc = 40).
struct PricedKernel {
  ArmKernel kernel;
  int bits;
  InputRange input = InputRange::kSigned;
  TblSource source = TblSource::kStored;
};

TEST(TileSearchPrices, ScoresOfAFixedCandidateSetArePinned) {
  const ConvShape full = shape(16, 14, 32, 3, 1, 1);    // 903,168 MACs
  const ConvShape extrap = shape(128, 28, 64, 1, 1, 0);  // 6,422,528 MACs
  const ConvShape act = shape(128, 5, 48, 3, 1, 1);     // TBL act tables
  ASSERT_EQ(choose_tbl_orientation(full.gemm_m(), full.gemm_n(),
                                   full.gemm_k(), 2, false),
            TblOrientation::kWeightTables);
  ASSERT_EQ(choose_tbl_orientation(extrap.gemm_m(), extrap.gemm_n(),
                                   extrap.gemm_k(), 2, false),
            TblOrientation::kWeightTables);
  ASSERT_EQ(choose_tbl_orientation(act.gemm_m(), act.gemm_n(), act.gemm_k(),
                                   3, false),
            TblOrientation::kActTables);
  const PricedKernel kernels[] = {
      {ArmKernel::kOursGemm, 2},  // MLA
      {ArmKernel::kOursGemm, 3},
      {ArmKernel::kOursGemm, 4},  // SMLAL
      {ArmKernel::kOursGemm, 8},
      {ArmKernel::kNcnn, 8},
      {ArmKernel::kSdotExt, 8},
      {ArmKernel::kTblGemm, 2, InputRange::kSigned, TblSource::kStored},
      {ArmKernel::kTblGemm, 2, InputRange::kSigned, TblSource::kBuilt},
      {ArmKernel::kTblGemm, 2, InputRange::kNonNegative, TblSource::kStored},
      {ArmKernel::kTblGemm, 3, InputRange::kNonNegative, TblSource::kBuilt},
  };
  struct Case {
    ConvShape s;
    PricedKernel k;
  };
  std::vector<Case> cases;
  for (const ConvShape& s : {full, extrap})
    for (const PricedKernel& k : kernels) cases.push_back({s, k});
  cases.push_back({act, {ArmKernel::kTblGemm, 3}});
  cases.push_back({act, {ArmKernel::kTblGemm, 2}});
  // Exact recorded scores; only a deliberate price change re-records
  // them. The comment names each case (m, scheme id, bits, Kc, fused).
  const double pinned[] = {
      194422.72,  // m32 kernel 1 bits 2 kc 64 fused 0
      192794.72,  // m32 kernel 1 bits 2 kc 64 fused 1
      178603.07999999999,  // m32 kernel 1 bits 2 kc 1048576 fused 0
      172255.07999999999,  // m32 kernel 1 bits 2 kc 1048576 fused 1
      199173.76000000001,  // m32 kernel 1 bits 3 kc 64 fused 0
      197545.76000000001,  // m32 kernel 1 bits 3 kc 64 fused 1
      183820.60000000001,  // m32 kernel 1 bits 3 kc 1048576 fused 0
      177472.60000000001,  // m32 kernel 1 bits 3 kc 1048576 fused 1
      213421,  // m32 kernel 0 bits 4 kc 64 fused 0
      211793,  // m32 kernel 0 bits 4 kc 64 fused 1
      203146.20000000001,  // m32 kernel 0 bits 4 kc 1048576 fused 0
      193740.60000000001,  // m32 kernel 0 bits 4 kc 1048576 fused 1
      303806.39999999997,  // m32 kernel 0 bits 8 kc 64 fused 0
      299120.79999999999,  // m32 kernel 0 bits 8 kc 64 fused 1
      299009.79999999999,  // m32 kernel 0 bits 8 kc 1048576 fused 0
      289604.19999999995,  // m32 kernel 0 bits 8 kc 1048576 fused 1
      294045.59999999998,  // m32 kernel 2 bits 8 kc 64 fused 0
      289360,  // m32 kernel 2 bits 8 kc 64 fused 1
      289641,  // m32 kernel 2 bits 8 kc 1048576 fused 0
      280235.40000000002,  // m32 kernel 2 bits 8 kc 1048576 fused 1
      145654,  // m32 kernel 3 bits 8 kc 64 fused 0
      144026,  // m32 kernel 3 bits 8 kc 64 fused 1
      131567,  // m32 kernel 3 bits 8 kc 1048576 fused 0
      125219,  // m32 kernel 3 bits 8 kc 1048576 fused 1
      216004.20000000001,  // m32 kernel 5 bits 2 kc 64 fused 0
      212352.20000000001,  // m32 kernel 5 bits 2 kc 64 fused 1
      168266,  // m32 kernel 5 bits 2 kc 1048576 fused 0
      158806.39999999999,  // m32 kernel 5 bits 2 kc 1048576 fused 1
      214386.20000000001,  // m32 kernel 7 bits 2 kc 64 fused 0
      209686.20000000001,  // m32 kernel 7 bits 2 kc 64 fused 1
      156064.39999999999,  // m32 kernel 7 bits 2 kc 1048576 fused 0
      146500.39999999999,  // m32 kernel 7 bits 2 kc 1048576 fused 1
      142044.20000000001,  // m32 kernel 6 bits 2 kc 64 fused 0
      132464.20000000001,  // m32 kernel 6 bits 2 kc 64 fused 1
      103375.2,  // m32 kernel 6 bits 2 kc 1048576 fused 0
      90771.199999999997,  // m32 kernel 6 bits 2 kc 1048576 fused 1
      218886.60000000001,  // m32 kernel 8 bits 3 kc 64 fused 0
      214186.60000000001,  // m32 kernel 8 bits 3 kc 64 fused 1
      159258.08000000002,  // m32 kernel 8 bits 3 kc 1048576 fused 0
      149686.08000000002,  // m32 kernel 8 bits 3 kc 1048576 fused 1
      1368137.6000000001,  // m64 kernel 1 bits 2 kc 64 fused 0
      1337385.6000000001,  // m64 kernel 1 bits 2 kc 64 fused 1
      1281564.04,  // m64 kernel 1 bits 2 kc 1048576 fused 0
      1231996.04,  // m64 kernel 1 bits 2 kc 1048576 fused 1
      1401394.8799999999,  // m64 kernel 1 bits 3 kc 64 fused 0
      1370642.8799999999,  // m64 kernel 1 bits 3 kc 64 fused 1
      1318553.1599999999,  // m64 kernel 1 bits 3 kc 1048576 fused 0
      1268985.1599999999,  // m64 kernel 1 bits 3 kc 1048576 fused 1
      1513804.7999999998,  // m64 kernel 0 bits 4 kc 64 fused 0
      1473676.1599999999,  // m64 kernel 0 bits 4 kc 64 fused 1
      1471323.3999999999,  // m64 kernel 0 bits 4 kc 1048576 fused 0
      1397294.6000000001,  // m64 kernel 0 bits 4 kc 1048576 fused 1
      2200588.7999999998,  // m64 kernel 0 bits 8 kc 64 fused 0
      2145376,  // m64 kernel 0 bits 8 kc 64 fused 1
      2158107.4000000004,  // m64 kernel 0 bits 8 kc 1048576 fused 0
      2084078.6000000001,  // m64 kernel 0 bits 8 kc 1048576 fused 1
      2132224,  // m64 kernel 2 bits 8 kc 64 fused 0
      2077011.2,  // m64 kernel 2 bits 8 kc 64 fused 1
      2091310.6000000001,  // m64 kernel 2 bits 8 kc 1048576 fused 0
      2017281.8,  // m64 kernel 2 bits 8 kc 1048576 fused 1
      1024902.4,  // m64 kernel 3 bits 8 kc 64 fused 0
      994150.40000000002,  // m64 kernel 3 bits 8 kc 64 fused 1
      945259.40000000002,  // m64 kernel 3 bits 8 kc 1048576 fused 0
      895691.40000000002,  // m64 kernel 3 bits 8 kc 1048576 fused 1
      1363631.04,  // m64 kernel 5 bits 2 kc 64 fused 0
      1320655.04,  // m64 kernel 5 bits 2 kc 64 fused 1
      1039027.3999999999,  // m64 kernel 5 bits 2 kc 1048576 fused 0
      955120.19999999995,  // m64 kernel 5 bits 2 kc 1048576 fused 1
      1455101.04,  // m64 kernel 7 bits 2 kc 64 fused 0
      1408765.04,  // m64 kernel 7 bits 2 kc 64 fused 1
      1079236.1200000001,  // m64 kernel 7 bits 2 kc 1048576 fused 0
      981476.12,  // m64 kernel 7 bits 2 kc 1048576 fused 1
      960400.64000000001,  // m64 kernel 6 bits 2 kc 64 fused 0
      917424.64000000001,  // m64 kernel 6 bits 2 kc 64 fused 1
      706287.71999999997,  // m64 kernel 6 bits 2 kc 1048576 fused 0
      628495.71999999997,  // m64 kernel 6 bits 2 kc 1048576 fused 1
      1483421.2,  // m64 kernel 8 bits 3 kc 64 fused 0
      1436477.2,  // m64 kernel 8 bits 3 kc 64 fused 1
      1096106.6799999999,  // m64 kernel 8 bits 3 kc 1048576 fused 0
      998346.67999999993,  // m64 kernel 8 bits 3 kc 1048576 fused 1
      720018,  // m48 kernel 5 bits 3 kc 64 fused 0
      724418.80000000005,  // m48 kernel 5 bits 3 kc 64 fused 1
      1974070.3999999999,  // m48 kernel 5 bits 3 kc 1048576 fused 0
      1970823.2,  // m48 kernel 5 bits 3 kc 1048576 fused 1
      312606.35999999999,  // m48 kernel 5 bits 2 kc 64 fused 0
      316438.35999999999,  // m48 kernel 5 bits 2 kc 64 fused 1
      594349.40000000002,  // m48 kernel 5 bits 2 kc 1048576 fused 0
      591102.19999999995,  // m48 kernel 5 bits 2 kc 1048576 fused 1
  };
  size_t i = 0;
  for (const Case& c : cases)
    for (const GemmBlocking& blk :
         {GemmBlocking{32, 64, 40}, GemmBlocking{64, i64{1} << 20, 64}})
      for (const BlockedSchedule sched :
           {BlockedSchedule::kStandalone, BlockedSchedule::kFused}) {
        ASSERT_LT(i, std::size(pinned));
        EXPECT_EQ(score_blocking(c.s, c.k.bits, c.k.kernel, blk, sched,
                                 c.k.input, c.k.source),
                  pinned[i])
            << "case " << i << ": m " << c.s.gemm_m() << " scheme "
            << blocking_scheme_id(c.k.kernel, c.k.bits, c.k.input, c.k.source)
            << " bits " << c.k.bits << " kc " << blk.kc << " fused "
            << (sched == BlockedSchedule::kFused);
        ++i;
      }
  EXPECT_EQ(i, std::size(pinned));
}

TEST(TileSearchPrices, ActTableScoresDoNotDependOnReplayOrder) {
  // Under act tables the walk pairs row panels inside each Mc block, so two
  // Mcs of one (Kc, Nc) replay different touch sequences: each candidate
  // reads its own cold replay, whichever was scored first (a replay keyed
  // without Mc read 611,734.8 then 587,089.2 in this order, and 611,966.8
  // then 587,321.2 in the reverse one).
  const ConvShape act = shape(128, 5, 48, 3, 1, 1);
  const auto score = [&act](const GemmBlocking& blk) {
    return score_blocking(act, 3, ArmKernel::kTblGemm, blk,
                          BlockedSchedule::kStandalone, InputRange::kSigned,
                          TblSource::kStored);
  };
  EXPECT_EQ(score(GemmBlocking{16, 96, 8}), 611734.80000000005);
  EXPECT_EQ(score(GemmBlocking{64, 96, 8}), 587321.19999999995);
}

TEST(TileSearchPrices, ChainedGraphScoreIsPinned) {
  // Three fused layers, each reading what the previous one wrote: a 2-bit
  // TBL weight-tables 3x3 with built tables, a folded (ReLU-fed) 2-bit TBL
  // 1x1 with stored ones, and a 4-bit SMLAL 1x1.
  std::vector<GraphSearchLayer> layers(3);
  layers[0] = {shape(16, 14, 32, 3, 1, 1), 2, ArmKernel::kTblGemm,
               InputRange::kSigned, TblSource::kBuilt};
  layers[1] = {shape(32, 14, 64, 1, 1, 0), 2, ArmKernel::kTblGemm,
               InputRange::kNonNegative, TblSource::kStored};
  layers[2] = {shape(64, 14, 32, 1, 1, 0), 4, ArmKernel::kOursGemm};
  const std::vector<GemmBlocking> blocking = {
      {32, 64, 40}, {64, i64{1} << 20, 64}, {32, 32, 96}};
  EXPECT_EQ(score_graph_blocking(layers, blocking, BlockedSchedule::kFused),
            386695.31999999995);
}

TEST(TileSearchPrices, ReplayRanksNarrowBandsAsExecutionDoes) {
  // The perfbench ResNet-50 n3: 64 -> 256, 1x1 at 56x56, ReLU-fed, 2 bit,
  // fused. At Nc = 32 a column block writes half a line of each i8 output
  // row, so the odd blocks find their lines already in L2 and the even ones
  // go to DRAM. With the stored tables n3 runs, a replay extrapolated from
  // block 1 alone scored {64,64,32} under {64,64,512} (4.660 M against
  // 4.701 M cycles), which execute in about 5.5 M and 4.6 M; extrapolated
  // over one line period of blocks, the scores rank the two as execution
  // does.
  const ConvShape s = shape(64, 56, 256, 1, 1, 0);
  const Tensor<i8> w = random_qtensor(Shape4{256, 64, 1, 1}, 2, 141);
  const Tensor<i8> in = nonneg_qtensor(Shape4{1, 64, 56, 56}, 2, 142);
  const i64 m = s.gemm_m(), n = s.gemm_n(), k = s.gemm_k();
  double score[2] = {}, ran[2] = {};
  const GemmBlocking blockings[2] = {{64, 64, 32}, {64, 64, 512}};
  for (int i = 0; i < 2; ++i) {
    ArmConvOptions opt;
    opt.bits = 2;
    opt.kernel = ArmKernel::kTblGemm;
    opt.blocking = BlockingPolicy::kExplicit;
    opt.explicit_blocking = blockings[i];
    opt.input_range = InputRange::kNonNegative;
    ArmConvPlan plan = plan_conv(s, w, opt, BlockedSchedule::kFused).value();
    ASSERT_EQ(plan.blocking, blockings[i]);
    ASSERT_EQ(plan.tbl_a.orient, TblOrientation::kWeightTables);
    plan.tbl_a = pack_tbl_a(w.data(), m, k, 2, TblOrientation::kWeightTables,
                            InputRange::kNonNegative, TblSource::kStored);
    ASSERT_EQ(plan.fused_band_elems(), 0);
    score[i] = score_blocking(s, 2, ArmKernel::kTblGemm, plan.blocking,
                              BlockedSchedule::kFused,
                              InputRange::kNonNegative, TblSource::kStored);
    // Line-aligned, so the executed misses do not depend on where the
    // allocator puts the output.
    AlignedVector<i8> out(static_cast<size_t>(m * n));
    TileEpilogue epi;
    epi.fn = [](i64, i64, i64, const i32*) {};
    epi.out_base = out.data();
    epi.row_stride = n;
    epi.out_rows = m;
    AlignedVector<std::byte> scratch(
        static_cast<size_t>(plan.fused_scratch_bytes()));
    ran[i] = execute_conv_fused(plan, in.data(), scratch, epi).value().cycles;
  }
  EXPECT_GT(ran[0], ran[1]);
  EXPECT_GT(score[0], score[1]) << score[0] << " against " << score[1];
}

TEST(GemmBlocked, WorkspaceHighWaterMatchesPlanEstimate) {
  // The blocked path draws per-worker block buffers (and batch staging)
  // from the arena; the plan's workspace_bytes must bound the high water.
  const ConvShape s = shape(12, 9, 21, 3, 1, 1, /*batch=*/2);
  const Tensor<i8> in = random_qtensor(Shape4{2, 12, 9, 9}, 6, 97);
  const Tensor<i8> w = random_qtensor(Shape4{21, 12, 3, 3}, 6, 98);
  ArmConvOptions o;
  o.bits = 6;
  const ArmConvPlan plan = plan_conv(s, w, o).value();
  ASSERT_TRUE(plan.blocking.enabled());
  Workspace ws;
  ASSERT_TRUE(execute_conv(plan, in, ws).ok());
  EXPECT_GT(ws.high_water(), 0);
  EXPECT_LE(ws.high_water(), plan.workspace_bytes(2));
}

}  // namespace
}  // namespace lbc::armkern
