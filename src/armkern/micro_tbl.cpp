#include "armkern/micro.h"

namespace lbc::armkern {

using namespace armsim;

namespace {

// Group step g's four product tables: one LD1x4 of the panel, or the direct
// reads' id word and one LD1 per table from the dictionary.
void load_tables(Ctx& ctx, const TblTables& t, i64 g, int8x16 tables[4]) {
  if (t.ids == nullptr) {
    ld1x4_s8(ctx, t.panel + g * 64, tables);
    return;
  }
  const u8* ids = t.ids + g * 4;
  ctx.mem(ids, 4);
  ctx.tally(Op::kScalar, kTblDirectScalarOps);
  for (int slot = 0; slot < 4; ++slot)
    ld1_s8(ctx, t.dict + ids[slot] * 16, tables[slot]);
}

}  // namespace

void micro_tbl_16x4(Ctx& ctx, const u8* idx_panel, const TblTables& tables_in,
                    i64 groups, int flush, i32* c) {
  // Two-level accumulation (the MLA scheme's trick, Sec. 3.4): each group
  // step is one TBL shuffle plus one ADD.16B into a byte accumulator;
  // `flush` = tbl_flush_interval(mode) group steps fit the i8 lane
  // (|entry| <= tbl_entry_bound), then sshll/saddw widen into the 32-bit
  // tile. Checked-execution contract: the declared acc8 flush interval and
  // the 4 TBL : 2 load CAL/LD ratio (4 : 5 reading the dictionary
  // directly). No spill slots: 1 idx + 4 tables + 1 product + 4 i8 acc +
  // 1 i16 temp + 16 i32 accumulators = 27 of 32.
  const bool direct = tables_in.ids != nullptr;
  const VerifyScope vs(
      ctx, KernelSpec{.name = direct ? "micro_tbl_16x4_direct"
                                     : "micro_tbl_16x4",
                      .acc8_flush = flush,
                      .cal_ld_min = direct ? 0.6 : 1.5,
                      .cal_ld_max = direct ? 1.0 : 2.5});
  int8x16 acc8[4];
  int32x4 acc32[4][4];
  for (int s = 0; s < 4; ++s) {
    movi_zero(ctx, acc8[s]);
    for (int g = 0; g < 4; ++g) movi_zero(ctx, acc32[s][g]);
  }

  auto flush_8_to_32 = [&] {
    for (int s = 0; s < 4; ++s) {
      int16x8 wide;
      sshll_s8(ctx, wide, acc8[s]);
      saddw_s16(ctx, acc32[s][0], wide);
      saddw2_s16(ctx, acc32[s][1], wide);
      sshll2_s8(ctx, wide, acc8[s]);
      saddw_s16(ctx, acc32[s][2], wide);
      saddw2_s16(ctx, acc32[s][3], wide);
      movi_zero(ctx, acc8[s]);
    }
  };

  i64 g = 0;
  while (g < groups) {
    const i64 steps = std::min<i64>(flush, groups - g);
    for (i64 s = 0; s < steps; ++s) {
      uint8x16 idx;
      ld1_u8(ctx, idx_panel + (g + s) * 16, idx);
      int8x16 tables[4];
      load_tables(ctx, tables_in, g + s, tables);
      for (int slot = 0; slot < 4; ++slot) {
        int8x16 prod;
        tbl_s8(ctx, prod, tables[slot], idx);
        add_s8(ctx, acc8[slot], prod);
      }
    }
    ctx.tally(Op::kLoop);
    g += steps;
    flush_8_to_32();
  }

  for (int s = 0; s < 4; ++s)
    for (int q = 0; q < 4; ++q) st1_s32(ctx, acc32[s][q], c + s * 16 + q * 4);
}

void micro_tbl_32x4(Ctx& ctx, const u8* idx_panel0, const u8* idx_panel1,
                    const TblTables& tables_in, i64 groups, int flush,
                    i32* c) {
  // Three-level accumulation: one TBL + ADD.16B per (slot, index vector)
  // and group step into byte lanes; every `flush` steps SADDW/SADDW2 widen
  // the bytes into i16 accumulators; every kTblSecondLevelRounds of those
  // (and at the end of the call) SADDW.4S widens the i16 sums into the i32
  // tile. Checked-execution contract: both flush cadences and the 8 TBL :
  // 3 load CAL/LD ratio (2.67; 8 : 6 = 1.33 reading the dictionary
  // directly). Every register is declared once here, so the verifier
  // counts exactly the plan: 2 idx + 4 tables + 1 product + 8 i8 + 16 i16
  // + 1 i32 = 32, no spills.
  const bool direct = tables_in.ids != nullptr;
  const VerifyScope vs(
      ctx, KernelSpec{.name = direct ? "micro_tbl_32x4_direct"
                                     : "micro_tbl_32x4",
                      .acc16_flush = kTblSecondLevelRounds,
                      .acc8_flush = flush,
                      .cal_ld_min = direct ? 1.1 : 2.2,
                      .cal_ld_max = direct ? 1.6 : 3.1});
  const u8* idx_panel[2] = {idx_panel0, idx_panel1};
  uint8x16 idx[2];
  int8x16 tables[4];
  int8x16 prod;
  int8x16 acc8[2][4];
  int16x8 acc16[2][4][2];
  int32x4 wide;
  for (int h = 0; h < 2; ++h)
    for (int s = 0; s < 4; ++s) {
      movi_zero(ctx, acc8[h][s]);
      movi_zero(ctx, acc16[h][s][0]);
      movi_zero(ctx, acc16[h][s][1]);
    }

  auto flush_8_to_16 = [&] {
    for (int h = 0; h < 2; ++h)
      for (int s = 0; s < 4; ++s) {
        saddw_s8(ctx, acc16[h][s][0], acc8[h][s]);
        saddw2_s8(ctx, acc16[h][s][1], acc8[h][s]);
        movi_zero(ctx, acc8[h][s]);
      }
  };

  // The i32 sums live in the tile itself: the first second-level flush of
  // the call assigns, later ones (deep calls only) re-load and add.
  bool stored = false;
  auto flush_16_to_32 = [&] {
    for (int h = 0; h < 2; ++h)
      for (int s = 0; s < 4; ++s) {
        for (int v = 0; v < 2; ++v)
          for (int half = 0; half < 2; ++half) {
            i32* dst = c + h * 64 + s * 16 + v * 8 + half * 4;
            if (stored)
              ld1_s32(ctx, dst, wide);
            else
              movi_zero(ctx, wide);
            if (half == 0)
              saddw_s16(ctx, wide, acc16[h][s][v]);
            else
              saddw2_s16(ctx, wide, acc16[h][s][v]);
            st1_s32(ctx, wide, dst);
          }
        movi_zero(ctx, acc16[h][s][0]);
        movi_zero(ctx, acc16[h][s][1]);
      }
    stored = true;
  };

  i64 g = 0;
  int rounds = 0;
  while (g < groups) {
    const i64 steps = std::min<i64>(flush, groups - g);
    for (i64 s = 0; s < steps; ++s) {
      for (int h = 0; h < 2; ++h)
        ld1_u8(ctx, idx_panel[h] + (g + s) * 16, idx[h]);
      load_tables(ctx, tables_in, g + s, tables);
      for (int slot = 0; slot < 4; ++slot)
        for (int h = 0; h < 2; ++h) {
          tbl_s8(ctx, prod, tables[slot], idx[h]);
          add_s8(ctx, acc8[h][slot], prod);
        }
    }
    ctx.tally(Op::kLoop);
    g += steps;
    flush_8_to_16();
    if (++rounds == kTblSecondLevelRounds) {
      flush_16_to_32();
      rounds = 0;
    }
  }
  if (rounds != 0 || !stored) flush_16_to_32();
}

}  // namespace lbc::armkern
