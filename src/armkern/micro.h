// GEMM micro kernels on the emulated NEON ISA. Each computes one
// kMr x kNr (16 x 4) tile of C from packed panels:
//   a_panel: [kc][16] (one LD1 per depth step)
//   b_panel: [kc][4]  (one LD4R per depth step)
//   c:       16 x 4 tile, COLUMN-major (c[col*16 + row]), int32.
//
// micro_smlal_16x4 — the paper's 4-8 bit scheme (Fig. 3a, Alg. 1):
//   SMLAL/SMLAL2 into 16-bit lanes, SADDW/SADDW2 flush to 32-bit every
//   `flush` depth steps, with the Alg. 1 v<->x spill traffic charged.
// micro_mla_16x4 — the paper's 2-3 bit scheme (Fig. 3b):
//   MLA into 8-bit lanes, SADDW (8->16) flush every `flush8` steps,
//   second-level SADDW (16->32) every kSecondLevelRounds flushes.
// micro_ncnn_16x4 — the ncnn 8-bit baseline (Sec. 5.2): inputs widened to
//   16-bit registers (SSHLL), SMLAL on 16-bit lanes straight into 32-bit.
// micro_tbl_16x4 / micro_tbl_32x4 — the TBL lookup-table scheme (2-3 bit,
//   DESIGN.md Sec. 16). The 32x4 tile runs two 16-lane index vectors
//   against one LD1x4 of four tables (8 TBL+ADD per 3 loads instead of
//   4 per 2); the blocked driver pairs panels into it and keeps the 16x4
//   tile for an odd last panel. Either tile also reads built weight
//   tables straight from the dictionary (TblTables::ids).
#pragma once

#include <algorithm>

#include "armsim/neon.h"
#include "armkern/schemes.h"

namespace lbc::armkern {

void micro_smlal_16x4(armsim::Ctx& ctx, const i8* a_panel, const i8* b_panel,
                      i64 kc, int flush, i32* c);

void micro_mla_16x4(armsim::Ctx& ctx, const i8* a_panel, const i8* b_panel,
                    i64 kc, int flush8, i32* c);

void micro_ncnn_16x4(armsim::Ctx& ctx, const i8* a_panel, const i8* b_panel,
                     i64 kc, i32* c);

/// ARMv8.2 extension: SDOT kernel over pack_sdot_a / pack_sdot_b panels (a: [k/4][16][4],
/// b: [k/4][4][4], k_pad a multiple of 4).
void micro_sdot_16x4(armsim::Ctx& ctx, const i8* a_panel, const i8* b_panel,
                     i64 k_pad, i32* c);

/// Where a TBL micro call finds the four 16-entry product tables of each
/// group step: a panel of [groups][4][16] i8 (one LD1x4 per step) — the
/// act-tables block, the stored weight tables, or the built source's
/// copy — or, for the built source's direct reads, `ids` ([groups][4] u8,
/// one row quad's dictionary ids per step) into `dict`: per step one id
/// word (a scalar load and the extracts that address four tables,
/// kTblDirectScalarOps) and four LD1 of dict + id * 16.
struct TblTables {
  const i8* panel = nullptr;
  const u8* ids = nullptr;
  const i8* dict = nullptr;
};

/// Scalar ops of one direct-read group step: the 32-bit id word load and
/// one extract per id, which the LD1 then scales into its dictionary
/// address.
constexpr int kTblDirectScalarOps = 5;

/// TBL lookup-table scheme (2-3 bit, DESIGN.md Sec. 16). Orientation-
/// agnostic 4-slot x 16-lane tile:
///   idx_panel: [groups][16] u8 — one index vector per group step
///   tables:    four 16-entry product tables per step (TblTables)
///   c:         c[slot*16 + lane], int32.
/// With activation-side tables (large-M orientation) a lane is a C row and
/// a slot a C column (the standard column-major 16x4 tile); with weight-
/// side tables a slot is a C row and a lane a C column (a 4x16 tile).
/// `flush` bounds ADD.16B entry accumulations per 8-bit lane between the
/// sshll/saddw flushes into the i32 tile — pass
/// tbl_flush_interval(mode) so the byte lanes cannot wrap.
void micro_tbl_16x4(armsim::Ctx& ctx, const u8* idx_panel,
                    const TblTables& tables, i64 groups, int flush, i32* c);

/// Register-blocked TBL tile: two index panels (idx_panel0, idx_panel1,
/// each [groups][16] u8) share every table load, so one LD1x4 serves 8
/// TBL+ADD. c holds two of micro_tbl_16x4's tiles back to back: c[0..64)
/// for idx_panel0 and c[64..128) for idx_panel1, same slot/lane layout.
/// Byte sums widen into i16 accumulators held in registers (2 idx + 4
/// tables + 1 product + 8 i8 + 16 i16 = 31 of 32); the one free register
/// widens i16 into the i32 tile at the end of the call and after every
/// kTblSecondLevelRounds byte-lane flushes.
void micro_tbl_32x4(armsim::Ctx& ctx, const u8* idx_panel0,
                    const u8* idx_panel1, const TblTables& tables, i64 groups,
                    int flush, i32* c);

}  // namespace lbc::armkern
