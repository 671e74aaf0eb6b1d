// Tests for the padding + packing layouts (paper Fig. 2) and the scheme
// parameter tables (paper Sec. 3.3).
#include <gtest/gtest.h>

#include "armkern/pack.h"
#include "armkern/schemes.h"
#include "common/rng.h"

namespace lbc::armkern {
namespace {

TEST(Schemes, SmlalFlushTableMatchesPaperUnrollFactors) {
  EXPECT_EQ(smlal_flush_interval(4), 32);
  EXPECT_EQ(smlal_flush_interval(5), 24);
  EXPECT_EQ(smlal_flush_interval(6), 16);
  EXPECT_EQ(smlal_flush_interval(7), 8);
  EXPECT_EQ(smlal_flush_interval(8), 2);
}

TEST(Schemes, SafeRatiosMatchPaperWhereQuoted) {
  EXPECT_EQ(smlal_safe_ratio(8), 2);  // "2/1" with range [-127,127]
  EXPECT_EQ(smlal_safe_ratio(7), 8);  // "8/1"
  EXPECT_GE(smlal_safe_ratio(6), 31);
  EXPECT_GE(smlal_safe_ratio(5), 127);
  EXPECT_GE(smlal_safe_ratio(4), 511);
}

TEST(Schemes, MlaFlushTable) {
  EXPECT_EQ(mla_flush_interval(2), 31);  // paper: "31/1"
  EXPECT_EQ(mla_flush_interval(3), 7);   // paper: "7/1"
}

TEST(Schemes, MlaFlushNeverOverflows8Bit) {
  // flush * qmax^2 must stay within the int8 accumulator.
  EXPECT_LE(mla_flush_interval(2) * 1 * 1, 127);
  EXPECT_LE(mla_flush_interval(3) * 3 * 3, 127);
}

TEST(PackA, PanelLayoutColumnMajor) {
  // A is 2x3 row-major; panel 0 must hold, per depth k, the 16 row values
  // (rows beyond M zero-padded).
  const i8 a[6] = {1, 2, 3, 4, 5, 6};
  const PackedA pa = pack_a(nullptr, a, 2, 3);
  EXPECT_EQ(pa.m_pad, 16);
  EXPECT_EQ(pa.panels(), 1);
  const i8* p = pa.panel(0);
  // depth 0: rows {1, 4, 0, 0, ...}
  EXPECT_EQ(p[0], 1);
  EXPECT_EQ(p[1], 4);
  EXPECT_EQ(p[2], 0);
  // depth 2: rows {3, 6, 0, ...}
  EXPECT_EQ(p[2 * 16 + 0], 3);
  EXPECT_EQ(p[2 * 16 + 1], 6);
  EXPECT_EQ(pa.extra_elems(), (16 - 2) * 3);
}

TEST(PackA, MultiplePanels) {
  std::vector<i8> a(static_cast<size_t>(20 * 2));
  for (size_t i = 0; i < a.size(); ++i) a[i] = static_cast<i8>(i);
  const PackedA pa = pack_a(nullptr, a.data(), 20, 2);
  EXPECT_EQ(pa.panels(), 2);
  // Panel 1, depth 1, row offset 0 -> global row 16, k=1 -> a[16*2+1] = 33.
  EXPECT_EQ(pa.panel(1)[1 * 16 + 0], 33);
  // Padded rows of panel 1 (rows 20..31) are zero.
  EXPECT_EQ(pa.panel(1)[1 * 16 + 5], 0);
}

TEST(PackB, PanelLayoutRowMajor) {
  // B is 2x5 row-major (K=2, N=5): panel q holds per depth the 4 column
  // values, with column 5..7 zero-padded in panel 1.
  const i8 b[10] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  AlignedVector<i8> buf(static_cast<size_t>(packed_b_bytes(2, 5)));
  const BPanels pb = pack_b_into(nullptr, b, 2, 5, buf.data());
  EXPECT_EQ(pb.n_pad, 8);
  EXPECT_EQ(pb.panels(), 2);
  const i8* p0 = pb.panel(0);
  EXPECT_EQ(p0[0], 1);  // k=0, col 0
  EXPECT_EQ(p0[3], 4);  // k=0, col 3
  EXPECT_EQ(p0[4], 6);  // k=1, col 0
  const i8* p1 = pb.panel(1);
  EXPECT_EQ(p1[0], 5);   // k=0, col 4
  EXPECT_EQ(p1[1], 0);   // padded col
  EXPECT_EQ(p1[4], 10);  // k=1, col 4
  EXPECT_EQ(pb.extra_elems(), (8 - 5) * 2);
}

TEST(PackB, ExactMultipleHasNoPadding) {
  std::vector<i8> b(static_cast<size_t>(3 * 8), 1);
  AlignedVector<i8> buf(static_cast<size_t>(packed_b_bytes(3, 8)));
  const BPanels pb = pack_b_into(nullptr, b.data(), 3, 8, buf.data());
  EXPECT_EQ(pb.extra_elems(), 0);
}

TEST(Pack, TallyCountsLoadsAndStores) {
  std::vector<i8> b(static_cast<size_t>(64 * 64), 1);
  AlignedVector<i8> buf(static_cast<size_t>(packed_b_bytes(64, 64)));
  armsim::Ctx ctx;
  pack_b_into(&ctx, b.data(), 64, 64, buf.data());
  EXPECT_GT(ctx.counts[armsim::Op::kLd1], 0u);
  EXPECT_GT(ctx.counts[armsim::Op::kSt1], 0u);
  // one vector load per 16 packed bytes
  EXPECT_EQ(ctx.counts[armsim::Op::kLd1], static_cast<u64>(64 * 64 / 16));
}

}  // namespace
}  // namespace lbc::armkern
