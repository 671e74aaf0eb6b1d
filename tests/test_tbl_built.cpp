// Weight tables built at run time from the shared dictionary (DESIGN.md
// Sec. 16): the dictionary and the weight-group ids, bit-exactness of
// built plans in every weight-tables mode, the priced issue mix, the
// priced choice of source, the source keying the search memo, the
// TuningCache row and the graph hash, the prover's dictionary obligations,
// checked execution, and mutation tests that must fail at their named
// checks (ctest label: check).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "armkern/conv_arm.h"
#include "armkern/micro.h"
#include "armkern/pack.h"
#include "armkern/schemes.h"
#include "armkern/tile_search.h"
#include "armsim/verifier.h"
#include "check/kernel_prover.h"
#include "common/align.h"
#include "common/rng.h"
#include "common/workspace.h"
#include "core/conv_plan.h"
#include "core/graph_plan.h"
#include "gpukern/tuning_cache.h"
#include "refconv/conv_ref.h"

namespace lbc::armkern {
namespace {

ConvShape conv_shape(i64 ic, i64 hw, i64 oc, i64 k, i64 st, i64 pad) {
  ConvShape s;
  s.name = "built";
  s.in_c = ic;
  s.in_h = s.in_w = hw;
  s.out_c = oc;
  s.kernel = k;
  s.stride = st;
  s.pad = pad;
  return s;
}

// Activations in [0, qmax]: what a ReLU'd producer hands its consumer.
Tensor<i8> nonneg_qtensor(Shape4 shape, int bits, u64 seed) {
  Tensor<i8> t = random_qtensor(shape, bits, seed);
  for (i8& v : t.span()) v = static_cast<i8>(v < 0 ? -v : v);
  return t;
}

// The four weight-tables modes: 2-bit pairs and 4-value fold, 3-bit values
// and 2-value fold.
struct Mode {
  int bits;
  InputRange input;
  TblMode mode;
};
constexpr Mode kModes[] = {
    {2, InputRange::kSigned, kTbl2Pair},
    {2, InputRange::kNonNegative, kTbl2NonNeg},
    {3, InputRange::kSigned, kTbl3Value},
    {3, InputRange::kNonNegative, kTbl3NonNeg},
};

// A weight-tables plan at an explicit blocking, its weights packed from the
// built source whatever the shape prices (the source is a per-conv priced
// choice; these shapes are too small to pick it).
ArmConvPlan built_plan(const ConvShape& s, const Tensor<i8>& w, const Mode& md,
                       const GemmBlocking& blk, int threads, bool verify) {
  ArmConvOptions opt;
  opt.bits = md.bits;
  opt.kernel = ArmKernel::kTblGemm;
  opt.blocking = BlockingPolicy::kExplicit;
  opt.explicit_blocking = blk;
  opt.threads = threads;
  opt.verify = verify;
  opt.input_range = md.input;
  ArmConvPlan plan = plan_conv(s, w, opt).value();
  EXPECT_EQ(plan.tbl_a.orient, TblOrientation::kWeightTables);
  plan.tbl_a = pack_tbl_a(w.data(), s.gemm_m(), s.gemm_k(), md.bits,
                          plan.tbl_a.orient, md.input, TblSource::kBuilt);
  plan.packed_weight_bytes = plan.tbl_a.bytes();
  EXPECT_EQ(plan.tbl_a.mode, md.mode);
  return plan;
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

// ---------------------------------------------------------------------------
// The dictionary and the ids
// ---------------------------------------------------------------------------

TEST(TblDictionary, EveryIdNamesItsWeightGroupsTable) {
  // Every weight group in the adjusted range has an id inside the mode's
  // dictionary that decodes back to it, and the dictionary's table of that
  // id is the one tbl_build_table builds from the group.
  for (const TblMode m :
       {kTbl2Pair, kTbl2NonNeg, kTbl3Value, kTbl3NonNeg, kTbl3Pair}) {
    const i8* dict = tbl_dictionary(m);
    const int g = tbl_group(m);
    const i32 q = qmax_for_bits(m.bits);
    std::vector<bool> seen(static_cast<size_t>(tbl_dict_size(m)), false);
    for (int id = 0; id < tbl_dict_size(m); ++id) {
      i32 w[4] = {}, again[4] = {};
      ASSERT_TRUE(tbl_decode_id(m, id, w));
      u8 enc = 0;
      ASSERT_TRUE(tbl_encode_id(m, w, enc));
      EXPECT_EQ(enc, id);
      for (int i = 0; i < g; ++i) EXPECT_LE(std::abs(w[i]), q);
      ASSERT_TRUE(tbl_decode_id(m, enc, again));
      i8 b[4] = {};
      for (int i = 0; i < 4; ++i) b[i] = static_cast<i8>(w[i]);
      i8 want[16];
      tbl_build_table(m, b, want);
      EXPECT_EQ(std::memcmp(dict + id * 16, want, 16), 0)
          << "bits " << m.bits << " id " << id;
      seen[static_cast<size_t>(id)] = true;
    }
    EXPECT_TRUE(std::all_of(seen.begin(), seen.end(), [](bool b) { return b; }));
    // The all-zero group's table is all zeros: padded rows add nothing.
    const i32 zeros[4] = {};
    u8 zero_id = 0;
    ASSERT_TRUE(tbl_encode_id(m, zeros, zero_id));
    EXPECT_TRUE(std::all_of(dict + zero_id * 16, dict + zero_id * 16 + 16,
                            [](i8 v) { return v == 0; }));
    i32 past[4] = {};
    EXPECT_FALSE(tbl_decode_id(m, tbl_dict_size(m), past));
  }
  // A weight past the adjusted range has no id.
  const i32 wide[4] = {2, 0, 0, 0};
  u8 id = 0;
  EXPECT_FALSE(tbl_encode_id(kTbl2NonNeg, wide, id));
}

TEST(TblDictionary, BuiltPackHoldsOneIdPerStoredTable) {
  // The built pack keeps, per (row quad, group step, row), the id of the
  // table the stored pack copies out: one byte against sixteen.
  const i64 m = 13, k = 37;
  for (const Mode& md : kModes) {
    const Tensor<i8> a = random_qtensor(Shape4{1, 1, m, k}, md.bits, 71);
    const PackedTblA stored =
        pack_tbl_a(a.data(), m, k, md.bits, TblOrientation::kWeightTables,
                   md.input, TblSource::kStored);
    const PackedTblA built =
        pack_tbl_a(a.data(), m, k, md.bits, TblOrientation::kWeightTables,
                   md.input, TblSource::kBuilt);
    ASSERT_EQ(built.mode, md.mode);
    EXPECT_TRUE(built.tables.empty());
    EXPECT_TRUE(stored.ids.empty());
    ASSERT_EQ(16 * built.bytes(), stored.bytes());
    const i8* dict = tbl_dictionary(md.mode);
    for (size_t t = 0; t < built.ids.size(); ++t)
      ASSERT_EQ(std::memcmp(stored.tables.data() + t * 16,
                            dict + built.ids[t] * 16, 16),
                0)
          << "table " << t;
    // Act tables index the weights: no source to build from.
    EXPECT_EQ(pack_tbl_a(a.data(), m, k, md.bits, TblOrientation::kActTables,
                         md.input, TblSource::kBuilt)
                  .source,
              TblSource::kStored);
  }
}

// ---------------------------------------------------------------------------
// Built plans against the reference
// ---------------------------------------------------------------------------

TEST(TblBuilt, PlansMatchReferenceInEveryModeAndSchedule) {
  // Every weight-tables mode; standalone and fused; one worker under
  // checked execution (the dictionary, the ids and the panel registered
  // with their bounds) and three unchecked; Kc = K and a split K; Nc % 16
  // != 0, so each band's last 16-column tile is padding. Few rows over
  // many columns, so the plans take weight tables.
  const ConvShape shapes[] = {conv_shape(9, 12, 8, 3, 1, 1),
                              conv_shape(7, 12, 12, 1, 1, 0),
                              conv_shape(6, 10, 20, 3, 2, 1)};
  for (const Mode& md : kModes)
    for (const ConvShape& s : shapes) {
      const Tensor<i8> w = random_qtensor(
          Shape4{s.out_c, s.in_c, s.kernel, s.kernel}, md.bits, 81);
      const Shape4 in_shape{1, s.in_c, s.in_h, s.in_w};
      const Tensor<i8> in = md.input == InputRange::kNonNegative
                                ? nonneg_qtensor(in_shape, md.bits, 82)
                                : extreme_qtensor(in_shape, md.bits, 82);
      const Tensor<i32> ref = ref::conv2d_s32(s, in, w);
      for (const GemmBlocking& blk :
           {GemmBlocking{16, i64{1} << 20, 12}, GemmBlocking{16, 8, 20}})
        for (const int threads : {1, 3}) {
          const ArmConvPlan plan =
              built_plan(s, w, md, blk, threads, threads == 1);
          const std::string where =
              describe(s) + " bits=" + std::to_string(md.bits) +
              " fold=" + std::to_string(plan.tbl_a.group()) +
              " kc=" + std::to_string(plan.blocking.kc) +
              " threads=" + std::to_string(threads);
          ASSERT_EQ(plan.tbl_a.source, TblSource::kBuilt) << where;
          EXPECT_EQ(plan.executed_layout(1).blk, plan.blocking) << where;
          EXPECT_TRUE(core::prove_arm_plan(plan).ok()) << where;
          Workspace ws;
          const StatusOr<ArmConvResult> alone = execute_conv(plan, in, ws);
          ASSERT_TRUE(alone.ok()) << where << ": " << alone.status().to_string();
          EXPECT_TRUE(alone.value().out == ref) << where << " standalone";
          const StatusOr<std::vector<i32>> fused = fused_acc(plan, in);
          ASSERT_TRUE(fused.ok()) << where << ": " << fused.status().to_string();
          EXPECT_TRUE(
              std::equal(fused.value().begin(), fused.value().end(), ref.data()))
              << where << " fused";
        }
    }
}

TEST(TblBuilt, SearchPricesTheExecutedInstructionMix) {
  // blocking_issue_counts of the built source equals an executed built run
  // instruction for instruction (misses come from the replay), for both
  // schedules, Kc = K and a split K, in every weight-tables mode: the
  // per-pass copy of each row quad's tables is priced as the driver runs it.
  const ConvShape s = conv_shape(9, 12, 8, 3, 1, 1);
  for (const Mode& md : kModes)
    for (const GemmBlocking& blk :
         {GemmBlocking{16, i64{1} << 20, 40}, GemmBlocking{16, 24, 48}}) {
      const Tensor<i8> w = random_qtensor(
          Shape4{s.out_c, s.in_c, s.kernel, s.kernel}, md.bits, 91);
      const Tensor<i8> in =
          nonneg_qtensor(Shape4{1, s.in_c, s.in_h, s.in_w}, md.bits, 92);
      const ArmConvPlan plan = built_plan(s, w, md, blk, 1, false);
      Workspace ws;
      const armsim::Counters alone = execute_conv(plan, in, ws).value().counts;
      AlignedVector<i8> out(static_cast<size_t>(s.gemm_m() * s.gemm_n()));
      TileEpilogue epi;
      epi.fn = [](i64, i64, i64, const i32*) {};
      epi.out_base = out.data();
      epi.row_stride = s.gemm_n();
      epi.out_rows = s.gemm_m();
      AlignedVector<std::byte> scratch(
          static_cast<size_t>(plan.fused_scratch_bytes()));
      const armsim::Counters fused =
          execute_conv_fused(plan, in.data(), scratch, epi).value().counts;
      for (const auto& [sched, ran] :
           {std::pair{BlockedSchedule::kStandalone, alone},
            std::pair{BlockedSchedule::kFused, fused}}) {
        const armsim::Counters priced =
            blocking_issue_counts(s, md.bits, ArmKernel::kTblGemm,
                                  plan.blocking, sched, md.input,
                                  TblSource::kBuilt);
        for (size_t i = 0; i < armsim::kNumOps; ++i) {
          const auto op = static_cast<armsim::Op>(i);
          if (op == armsim::Op::kL1Miss || op == armsim::Op::kL2Miss) continue;
          EXPECT_EQ(priced.n[i], ran.n[i])
              << "bits " << md.bits << " fold " << plan.tbl_a.group() << " kc "
              << plan.blocking.kc << " fused "
              << (sched == BlockedSchedule::kFused) << " "
              << armsim::op_name(op);
        }
      }
    }
}

// ---------------------------------------------------------------------------
// The priced choice and its keys
// ---------------------------------------------------------------------------

TEST(TblBuilt, SourceIsPricedPerConvAndAPlanPacksTheOneItPriced) {
  // Two perfbench ResNet-50 convs: the 64 -> 256 1x1 at 56x56 on the signed
  // input holds few tables per weight (64 rows), so its stored set prices
  // cheaper; the ReLU-fed 128 -> 128 3x3 at 28x28 streams a large one, so
  // building prices cheaper. plan_conv packs exactly the priced source.
  struct Case {
    ConvShape s;
    InputRange input;
    TblSource want;
  };
  const Case cases[] = {
      {conv_shape(64, 56, 256, 1, 1, 0), InputRange::kSigned,
       TblSource::kStored},
      {conv_shape(128, 28, 128, 3, 1, 1), InputRange::kNonNegative,
       TblSource::kBuilt},
  };
  for (const Case& c : cases) {
    const TblSource src =
        choose_tbl_source(c.s, 2, BlockedSchedule::kFused, c.input);
    EXPECT_EQ(src, c.want) << describe(c.s);
    // The pick is the cheaper of the two sources' winners.
    double score[2];
    for (const TblSource s : {TblSource::kStored, TblSource::kBuilt})
      score[static_cast<int>(s)] = score_blocking(
          c.s, 2, ArmKernel::kTblGemm,
          search_blocking(c.s, 2, ArmKernel::kTblGemm, BlockedSchedule::kFused,
                          c.input, s),
          BlockedSchedule::kFused, c.input, s);
    EXPECT_EQ(src, score[0] < score[1] ? TblSource::kStored : TblSource::kBuilt);
    TblSource priced = TblSource::kStored;
    EXPECT_EQ(choose_gemm_kernel(c.s, 2, BlockedSchedule::kFused, c.input,
                                 &priced),
              ArmKernel::kTblGemm);
    EXPECT_EQ(priced, src);
    // A searched plan runs the pick at its source's winner, where scoring
    // the one blocking in both sources picks it too.
    ArmConvOptions opt;
    opt.bits = 2;
    opt.kernel = ArmKernel::kTblGemm;
    opt.input_range = c.input;
    const Tensor<i8> w = random_qtensor(
        Shape4{c.s.out_c, c.s.in_c, c.s.kernel, c.s.kernel}, 2, 101);
    const ArmConvPlan searched =
        plan_conv(c.s, w, opt, BlockedSchedule::kFused).value();
    EXPECT_EQ(searched.tbl_a.source, src) << describe(c.s);
    EXPECT_EQ(searched.blocking,
              search_blocking(c.s, 2, ArmKernel::kTblGemm,
                              BlockedSchedule::kFused, c.input, src));
    EXPECT_EQ(tbl_source_at(c.s, 2, searched.blocking, BlockedSchedule::kFused,
                            c.input),
              src);
    EXPECT_EQ(searched.packed_weight_bytes, searched.tbl_a.bytes());
    // An explicit blocking runs the source that scores less at it.
    opt.blocking = BlockingPolicy::kExplicit;
    for (const GemmBlocking& blk :
         {GemmBlocking{64, 256, 512}, GemmBlocking{64, 256, 128},
          GemmBlocking{64, 64, 32}}) {
      opt.explicit_blocking = blk;
      const ArmConvPlan plan =
          plan_conv(c.s, w, opt, BlockedSchedule::kFused).value();
      const auto at = [&](TblSource src_at) {
        return score_blocking(c.s, 2, ArmKernel::kTblGemm, plan.blocking,
                              BlockedSchedule::kFused, c.input, src_at);
      };
      const TblSource cheaper = at(TblSource::kStored) < at(TblSource::kBuilt)
                                    ? TblSource::kStored
                                    : TblSource::kBuilt;
      EXPECT_EQ(plan.tbl_a.source, cheaper)
          << describe(c.s) << " " << blk.mc << "/" << blk.kc << "/" << blk.nc;
      EXPECT_EQ(plan.tbl_a.source,
                tbl_source_at(c.s, 2, plan.blocking, BlockedSchedule::kFused,
                              c.input));
      EXPECT_EQ(plan.packed_weight_bytes, plan.tbl_a.bytes());
    }
  }
  // An act-tables conv has no source to choose.
  EXPECT_EQ(choose_tbl_source(conv_shape(1024, 7, 2048, 1, 1, 0), 2),
            TblSource::kStored);
}

TEST(TblBuilt, SourceKeysTheSchemeTheMemoTheTuningRowAndTheGraphHash) {
  EXPECT_EQ(blocking_scheme_id(ArmKernel::kTblGemm, 2, InputRange::kSigned,
                               TblSource::kStored),
            5);
  EXPECT_EQ(blocking_scheme_id(ArmKernel::kTblGemm, 2,
                               InputRange::kNonNegative, TblSource::kStored),
            6);
  EXPECT_EQ(blocking_scheme_id(ArmKernel::kTblGemm, 2, InputRange::kSigned,
                               TblSource::kBuilt),
            7);
  EXPECT_EQ(blocking_scheme_id(ArmKernel::kTblGemm, 2,
                               InputRange::kNonNegative, TblSource::kBuilt),
            8);
  EXPECT_EQ(blocking_scheme_id(ArmKernel::kOursGemm, 2, InputRange::kSigned,
                               TblSource::kBuilt),
            blocking_scheme_id(ArmKernel::kOursGemm, 2));
  // Each source is its own search key.
  const ConvShape s = conv_shape(20, 13, 12, 1, 1, 0);
  const i64 before = tile_search_stats().searches;
  search_blocking(s, 2, ArmKernel::kTblGemm, BlockedSchedule::kFused,
                  InputRange::kNonNegative, TblSource::kStored);
  search_blocking(s, 2, ArmKernel::kTblGemm, BlockedSchedule::kFused,
                  InputRange::kNonNegative, TblSource::kBuilt);
  EXPECT_EQ(tile_search_stats().searches - before, 2);
  // A row searched for one source is never served to the other, and a file
  // holding every TBL id loads.
  gpukern::TuningCache cache;
  gpukern::ArmTuningKey key{s.gemm_m(), s.gemm_n(), s.gemm_k(), 2, 5};
  for (const int scheme : {5, 6, 7}) {
    key.scheme = scheme;
    cache.put_arm(key, gpukern::ArmBlocking{16, 20, 4 * scheme});
  }
  key.scheme = 8;
  EXPECT_FALSE(cache.lookup_arm(key).has_value());
  cache.put_arm(key, gpukern::ArmBlocking{16, 20, 32});
  gpukern::TuningCache reloaded;
  ASSERT_TRUE(reloaded.deserialize(cache.serialize()).ok());
  for (const int scheme : {5, 6, 7, 8}) {
    key.scheme = scheme;
    const std::optional<gpukern::ArmBlocking> row = reloaded.lookup_arm(key);
    ASSERT_TRUE(row.has_value()) << "scheme " << scheme;
    EXPECT_EQ(row->nc, scheme == 8 ? 32 : 4 * scheme);
  }
  // The graph hash keys the source like the input range.
  std::vector<GraphSearchLayer> layers = {
      {s, 2, ArmKernel::kTblGemm, InputRange::kNonNegative, TblSource::kStored}};
  const u64 stored_hash = graph_blocking_hash(layers);
  layers[0].source = TblSource::kBuilt;
  EXPECT_NE(graph_blocking_hash(layers), stored_hash);
}

TEST(TblBuilt, JointSearchPricesEachBlockingAtItsOwnSource) {
  // The ResNet-50 256 -> 128 1x1 stride-2 conv on a ReLU'd input: built
  // tables score less at Nc = 512, stored ones at Nc = 128 (four column
  // passes). The chained objective prices a TBL layer at tbl_source_at of
  // its blocking, whatever per-layer pick the layer carries, and a plan at
  // that explicit blocking packs the same source.
  const ConvShape s = conv_shape(256, 56, 128, 1, 2, 0);
  constexpr BlockedSchedule kFused = BlockedSchedule::kFused;
  const GemmBlocking wide{64, 256, 512}, narrow{64, 256, 128};
  EXPECT_EQ(tbl_source_at(s, 2, wide, kFused, InputRange::kNonNegative),
            TblSource::kBuilt);
  EXPECT_EQ(tbl_source_at(s, 2, narrow, kFused, InputRange::kNonNegative),
            TblSource::kStored);
  std::vector<GraphSearchLayer> layers = {{s, 2, ArmKernel::kTblGemm,
                                           InputRange::kNonNegative,
                                           TblSource::kBuilt}};
  for (const GemmBlocking& b : {wide, narrow}) {
    layers[0].source = TblSource::kBuilt;
    const double seeded_built = score_graph_blocking(layers, {b}, kFused);
    layers[0].source = TblSource::kStored;
    EXPECT_EQ(score_graph_blocking(layers, {b}, kFused), seeded_built);
  }
  ArmConvOptions opt;
  opt.bits = 2;
  opt.kernel = ArmKernel::kTblGemm;
  opt.blocking = BlockingPolicy::kExplicit;
  opt.input_range = InputRange::kNonNegative;
  const Tensor<i8> w = random_qtensor(Shape4{128, 256, 1, 1}, 2, 131);
  for (const GemmBlocking& b : {wide, narrow}) {
    opt.explicit_blocking = b;
    EXPECT_EQ(plan_conv(s, w, opt, kFused).value().tbl_a.source,
              tbl_source_at(s, 2, b, kFused, InputRange::kNonNegative));
  }
}

TEST(TblBuilt, WarmTuningCacheServesBothSourcesWithoutASearch) {
  // core::plan_arm_conv keeps one TuningCache row per table source for a
  // weight-tables TBL conv and runs the row that scores less in its source.
  // Served from a warm cache — here on a shape no test searches, so the
  // in-process memo cannot hide a search — it runs no search at all.
  const ConvShape s = conv_shape(72, 15, 40, 3, 1, 1);
  ASSERT_EQ(choose_tbl_orientation(s.gemm_m(), s.gemm_n(), s.gemm_k(), 2,
                                   false),
            TblOrientation::kWeightTables);
  const Tensor<i8> w = random_qtensor(Shape4{40, 72, 3, 3}, 2, 121);
  gpukern::ArmTuningKey key{s.gemm_m(), s.gemm_n(), s.gemm_k(), 2, 0};
  const GemmBlocking rows[2] = {GemmBlocking{64, 128, 64},
                                GemmBlocking{64, 648, 32}};
  gpukern::TuningCache warm;
  for (const TblSource src : {TblSource::kStored, TblSource::kBuilt}) {
    key.scheme = blocking_scheme_id(ArmKernel::kTblGemm, 2,
                                    InputRange::kSigned, src);
    const GemmBlocking& b = rows[static_cast<int>(src)];
    warm.put_arm(key, gpukern::ArmBlocking{b.mc, b.kc, b.nc});
  }
  const i64 before = tile_search_stats().searches;
  const core::ConvPlan plan =
      core::plan_arm_conv(s, w, 2, core::ArmImpl::kTblLut, ConvAlgo::kGemm, 1,
                          false, &warm)
          .value();
  EXPECT_EQ(tile_search_stats().searches, before);
  const ArmConvPlan& ap = plan.impl_plan();
  ASSERT_EQ(ap.kernel, ArmKernel::kTblGemm);
  const auto score = [&](const GemmBlocking& b, TblSource src) {
    return score_blocking(s, 2, ArmKernel::kTblGemm, b,
                          BlockedSchedule::kStandalone, InputRange::kSigned,
                          src);
  };
  const TblSource row_pick =
      score(rows[0], TblSource::kStored) < score(rows[1], TblSource::kBuilt)
          ? TblSource::kStored
          : TblSource::kBuilt;
  ArmConvOptions opt;
  opt.bits = 2;
  opt.kernel = ArmKernel::kTblGemm;
  opt.blocking = BlockingPolicy::kExplicit;
  opt.explicit_blocking = rows[static_cast<int>(row_pick)];
  const ArmConvPlan want = plan_conv(s, w, opt).value();
  EXPECT_EQ(ap.blocking, want.blocking);
  EXPECT_EQ(ap.tbl_a.source, want.tbl_a.source);
  EXPECT_EQ(tile_search_stats().searches, before);
  // A cold cache searches both sources once and then holds both rows.
  gpukern::TuningCache cold;
  const core::ConvPlan searched =
      core::plan_arm_conv(s, w, 2, core::ArmImpl::kTblLut, ConvAlgo::kGemm, 1,
                          false, &cold)
          .value();
  EXPECT_EQ(tile_search_stats().searches - before, 2);
  for (const TblSource src : {TblSource::kStored, TblSource::kBuilt}) {
    key.scheme = blocking_scheme_id(ArmKernel::kTblGemm, 2,
                                    InputRange::kSigned, src);
    EXPECT_TRUE(cold.lookup_arm(key).has_value()) << key.scheme;
  }
  EXPECT_EQ(searched.impl_plan().tbl_a.source, choose_tbl_source(s, 2));
}

TEST(TblBuilt, GraphPlanBuildsWhereItPricesAndMatchesReference) {
  // A ReLU-fed 32 -> 64 1x1 at 14x14, stride 2, prices built tables on the
  // whole-net path; the compile packs them (its ids are what the audit
  // counts), and the fused, unfused and reference forwards agree.
  core::QnnGraph g;
  const auto in = g.add_input(16, 14);
  const auto c1 = g.add_conv(
      in, 32, 1, 1, 0, 2,
      random_ftensor(Shape4{32, 16, 1, 1}, -0.4f, 0.4f, 111), {}, true);
  g.add_conv(c1, 64, 1, 2, 0, 2,
             random_ftensor(Shape4{64, 32, 1, 1}, -0.3f, 0.3f, 112), {}, true);
  const Tensor<float> x = random_ftensor(Shape4{1, 16, 14, 14}, -1, 1, 113);
  ASSERT_TRUE(g.calibrate(x).ok());
  for (const core::FusionMode fusion :
       {core::FusionMode::kOn, core::FusionMode::kOff}) {
    core::GraphPlanOptions opt;
    opt.fusion = fusion;
    const core::GraphPlan plan = core::GraphPlan::compile(g, opt).value();
    const ArmConvPlan& cp = *plan.conv_plan(2);
    ASSERT_EQ(cp.kernel, ArmKernel::kTblGemm);
    EXPECT_EQ(cp.tbl_a.source, TblSource::kBuilt);
    EXPECT_EQ(cp.tbl_a.mode, kTbl2NonNeg);
    bool counted = false;
    for (const check::PackedRegion& r : plan.audit_input().packed)
      if (r.node == 2) {
        EXPECT_EQ(r.backing_bytes, static_cast<i64>(cp.tbl_a.ids.size()));
        EXPECT_EQ(r.declared_bytes, r.backing_bytes);
        counted = true;
      }
    EXPECT_TRUE(counted);
    core::GraphPlanOptions ro;
    ro.fusion = core::FusionMode::kOff;
    ro.joint_search = false;
    ro.algo = ConvAlgo::kReference;
    const core::GraphPlan ref = core::GraphPlan::compile(g, ro).value();
    Workspace a1, s1, a2, s2;
    const Tensor<float> got = plan.forward(x, a1, s1).value().out;
    const Tensor<float> want = ref.forward(x, a2, s2).value().out;
    EXPECT_EQ(std::memcmp(got.data(), want.data(),
                          static_cast<size_t>(got.elems()) * sizeof(float)),
              0)
        << (fusion == core::FusionMode::kOn ? "fused" : "unfused");
  }
}

// ---------------------------------------------------------------------------
// Proofs
// ---------------------------------------------------------------------------

const check::Obligation* obligation(const check::ProofResult& r,
                                    const std::string& name) {
  for (const check::Obligation& o : r.obligations)
    if (o.name == name) return &o;
  return nullptr;
}

TEST(TblBuiltProver, EveryModesDictionaryIsProvedEntryExact) {
  // prove_all_schemes sweeps every TBL mode (b2, b3, b3 ternary pairs, b2
  // and b3 non-negative); each proof checks the mode's dictionary over
  // every id and that every id the pack can emit indexes it.
  const check::ProofSweepReport rep = check::prove_all_schemes();
  EXPECT_TRUE(rep.ok()) << rep.failure_summary();
  for (const TblMode m :
       {kTbl2Pair, kTbl3Pair, kTbl3Value, kTbl2NonNeg, kTbl3NonNeg})
    for (const TblSource src : {TblSource::kStored, TblSource::kBuilt}) {
      const check::ProofResult r =
          check::prove(check::shipping_tbl_model(m, 4608, src));
      EXPECT_TRUE(r.proved()) << r.to_status().to_string();
      const check::Obligation* exact = obligation(r, "tbl.table-entries-exact");
      ASSERT_NE(exact, nullptr);
      EXPECT_TRUE(exact->proved);
      EXPECT_NE(exact->statement.find("dictionary"), std::string::npos);
      const check::Obligation* ids = obligation(r, "tbl.id-in-dictionary");
      ASSERT_NE(ids, nullptr);
      EXPECT_TRUE(ids->proved);
      EXPECT_NE(ids->statement.find(
                    "= " + std::to_string(tbl_dict_size(m) - 1) + " <="),
                std::string::npos)
          << ids->statement;
      // Built tables are read at dict + id * 16 for any id byte.
      const check::Obligation* reads =
          obligation(r, "tbl.direct-read-in-storage");
      ASSERT_EQ(reads != nullptr, src == TblSource::kBuilt);
      if (reads != nullptr) {
        EXPECT_TRUE(reads->proved) << reads->statement;
      }
      EXPECT_TRUE(check::prove_tbl_mode(m, 8192, src).ok());
    }
  EXPECT_TRUE(check::prove_arm_kernel(ArmKernel::kTblGemm, 2, 8192).ok());
  EXPECT_TRUE(check::prove_arm_kernel(ArmKernel::kTblGemm, 3, 8192).ok());
}

// ---------------------------------------------------------------------------
// Mutation tests: each must fail at its named check
// ---------------------------------------------------------------------------

TEST(TblBuiltMutation, CorruptedDictionaryEntryFailsAtTableEntriesExact) {
  for (const TblMode m : {kTbl2NonNeg, kTbl3Value}) {
    // The whole storage: the model declares all kTblDictBytes of it.
    std::vector<i8> dict(tbl_dictionary(m), tbl_dictionary(m) + kTblDictBytes);
    dict[static_cast<size_t>((tbl_dict_size(m) / 2) * 16 + 5)] += 1;
    check::SchemeModel model =
        check::shipping_tbl_model(m, 576, TblSource::kBuilt);
    model.tbl_dict = dict.data();
    const check::ProofResult r = check::prove(model);
    EXPECT_FALSE(r.proved());
    ASSERT_NE(r.first_failed(), nullptr);
    EXPECT_EQ(r.first_failed()->name, "tbl.table-entries-exact");
    EXPECT_NE(r.first_failed()->statement.find("dictionary table"),
              std::string::npos)
        << r.first_failed()->statement;
  }
}

TEST(TblBuiltMutation, IdOnePastTheDictionaryFailsAtIdInDictionary) {
  // Statically: a dictionary declared one table short of the ids the pack
  // emits. Dynamically: one packed id one past the dictionary makes the
  // checked run read outside the registered dictionary, whether a micro
  // call reads the table directly (Nc = 32) or the per-pass copy does
  // (Nc = n).
  for (const TblMode m : {kTbl2Pair, kTbl2NonNeg, kTbl3Value, kTbl3NonNeg}) {
    check::SchemeModel model =
        check::shipping_tbl_model(m, 576, TblSource::kBuilt);
    model.tbl_dict_entries = tbl_dict_size(m) - 1;
    const check::ProofResult r = check::prove(model);
    EXPECT_FALSE(r.proved());
    ASSERT_NE(r.first_failed(), nullptr);
    EXPECT_EQ(r.first_failed()->name, "tbl.id-in-dictionary") << m.bits;
  }
  const ConvShape s = conv_shape(9, 12, 8, 3, 1, 1);
  const Mode md = kModes[1];
  const Tensor<i8> w =
      random_qtensor(Shape4{s.out_c, s.in_c, s.kernel, s.kernel}, 2, 121);
  const Tensor<i8> in =
      nonneg_qtensor(Shape4{1, s.in_c, s.in_h, s.in_w}, 2, 122);
  for (const i64 nc : {i64{32}, s.gemm_n()}) {
    ArmConvPlan plan =
        built_plan(s, w, md, GemmBlocking{16, i64{1} << 20, nc}, 1, true);
    ASSERT_EQ(plan.executed_layout(1).tbl_direct, nc == 32);
    Workspace ws;
    ASSERT_TRUE(execute_conv(plan, in, ws).ok());
    plan.tbl_a.ids[7] = static_cast<u8>(tbl_dict_size(md.mode));
    const StatusOr<ArmConvResult> r = execute_conv(plan, in, ws);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvariantViolation);
    EXPECT_NE(r.status().to_string().find("TBL table dictionary"),
              std::string::npos)
        << r.status().to_string();
  }
}

TEST(TblBuiltMutation, StorageOneTableShortFailsAtDirectReadInStorage) {
  // The built source reads the table an id byte names at dict + id * 16:
  // dictionary storage declared one table short of the 256 byte ids, or a
  // nonzero entry past the dictionary, fails the named obligation.
  for (const TblMode m : {kTbl2Pair, kTbl2NonNeg, kTbl3Value, kTbl3NonNeg}) {
    check::SchemeModel model =
        check::shipping_tbl_model(m, 576, TblSource::kBuilt);
    model.tbl_dict_storage_bytes -= 16;
    const check::ProofResult r = check::prove(model);
    ASSERT_NE(r.first_failed(), nullptr);
    EXPECT_EQ(r.first_failed()->name, "tbl.direct-read-in-storage") << m.bits;

    std::vector<i8> storage(tbl_dictionary(m),
                            tbl_dictionary(m) + kTblDictBytes);
    storage[static_cast<size_t>(tbl_dict_size(m) * 16 + 3)] = 1;
    check::SchemeModel stray =
        check::shipping_tbl_model(m, 576, TblSource::kBuilt);
    stray.tbl_dict = storage.data();
    const check::ProofResult rs = check::prove(stray);
    ASSERT_NE(rs.first_failed(), nullptr);
    EXPECT_EQ(rs.first_failed()->name, "tbl.direct-read-in-storage")
        << m.bits;
  }
}

TEST(TblBuiltMutation, PanelCopyOneTableShortFailsAtUninitRead) {
  // The driver's registration of one row quad's copy: the dictionary and
  // the ids with their bounds, the panel as a scratch region every read of
  // which must follow a write. A copy one table short leaves the last
  // table of the panel stale; the kernel's load of it is caught, naming
  // the panel. The full copy is clean.
  const TblMode mode = kTbl2NonNeg;
  const i64 groups = 6, tables = 4 * groups;
  const i32 bound = tbl_entry_bound(mode);
  AlignedVector<u8> ids(static_cast<size_t>(tables));
  for (i64 t = 0; t < tables; ++t)
    ids[static_cast<size_t>(t)] =
        static_cast<u8>((t * 37 + 5) % tbl_dict_size(mode));
  AlignedVector<u8> idx(static_cast<size_t>(groups * 16));
  for (i64 i = 0; i < groups * 16; ++i)
    idx[static_cast<size_t>(i)] = static_cast<u8>(i % 16);
  AlignedVector<i8> panel(static_cast<size_t>(tables * 16));
  for (const i64 copied : {tables, tables - 1}) {
    armsim::Verifier v;
    v.add_region(tbl_dictionary(mode), tbl_dict_size(mode) * 16,
                 "TBL table dictionary", -bound, bound);
    v.add_region(ids.data(), tables, "packed TBL A table ids", 0,
                 tbl_dict_size(mode) - 1);
    v.add_region(idx.data(), groups * 16, "packed B block", 0, 15);
    v.add_scratch_region(panel.data(), tables * 16, "TBL table panel", -bound,
                         bound);
    alignas(64) i32 tile[kMr * kNr];
    v.add_region(tile, sizeof(tile), "gemm C tile");
    armsim::Ctx ctx;
    ctx.verifier = &v;
    copy_tbl_tables(ctx, mode, ids.data(), copied, panel.data());
    micro_tbl_16x4(ctx, idx.data(), TblTables{panel.data()}, groups,
                   tbl_flush_interval(mode), tile);
    if (copied == tables) {
      EXPECT_TRUE(v.ok()) << v.to_status().to_string();
      continue;
    }
    ASSERT_FALSE(v.ok());
    const std::vector<armsim::Violation> viol = v.violations();
    const auto it =
        std::find_if(viol.begin(), viol.end(), [](const armsim::Violation& x) {
          return x.kind == "uninit-read" &&
                 x.detail.find("TBL table panel") != std::string::npos;
        });
    ASSERT_NE(it, viol.end()) << v.to_status().to_string();
    EXPECT_EQ(it->op, armsim::Op::kLd1x4);
  }
}

}  // namespace
}  // namespace lbc::armkern
