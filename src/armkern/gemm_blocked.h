// Internal entries of the Mc/Kc/Nc blocked GEMM driver (gemm_blocked.cpp),
// used by the gemm_lowbit.cpp dispatch when GemmOptions::blocking is
// enabled. The public fused-conv entries live in gemm_lowbit.h.
#pragma once

#include "armkern/gemm_lowbit.h"

namespace lbc::armkern {

/// Blocked sweep over a row-major K x N B matrix (packs one Kc x Nc block
/// at a time via pack_b_block_into). Requires opt.blocking.enabled().
GemmStats gemm_blocked_prepacked(const APanels& pa, const i8* b, i32* c,
                                 i64 m, i64 n, i64 k, const GemmOptions& opt);
GemmStats gemm_blocked_sdot_prepacked(const SdotAPanels& pa, const i8* b,
                                      i32* c, i64 m, i64 n, i64 k,
                                      const GemmOptions& opt);
GemmStats gemm_blocked_tbl_prepacked(const TblAPanels& ta, const i8* b,
                                     i32* c, i64 m, i64 n, i64 k,
                                     const GemmOptions& opt);

/// The micro kernel a blocked GEMM calls and its flush cadence: MLA at
/// <= 3 bit and SMLAL above (SMLAL at `flush_override` when set, see
/// GemmOptions), ncnn, SDOT, or TBL in `tbl_mode`.
struct MicroKernel {
  ArmKernel kernel = ArmKernel::kOursGemm;
  int bits = 8;
  int flush_override = 0;
  TblMode tbl_mode{};
};

/// Operands of one micro call. MLA / SMLAL / ncnn / SDOT read the packed-A
/// K slice `a` against the packed-B panel `b`; TBL reads index panel `idx0`
/// — and `idx1` too, as the paired 32x4 tile, when set — against the table
/// panel `b`.
struct MicroOperands {
  const i8* a = nullptr;
  const i8* b = nullptr;
  const u8* idx0 = nullptr;
  const u8* idx1 = nullptr;
};

/// One micro call over depth `kc` into `tile` (two 16x4 tiles for a paired
/// TBL call). The blocked driver runs every call through it, and the tile
/// search probes each call's instruction mix with it.
void run_micro(armsim::Ctx& ctx, const MicroKernel& mk, i64 kc,
               const MicroOperands& op, i32* tile);

/// Issue tally of handing one finished tile (`rows` x `cols`) of K block
/// `kcb` to C: after the first K block each row re-loads and adds its C
/// segment (one i32x4 vector per 4 columns of the tile), and after the last
/// one a fused epilogue (`epilogue`) pays 2 scalar ops per element and one
/// narrow store per row.
inline void tally_tile_writeback(armsim::Counters& counts,
                                 const BlockedLayout& lay, bool epilogue,
                                 i64 rows, i64 cols, i64 kcb) {
  if (kcb > 0) {
    // The first K block's stores come free with the micro kernel's ST1s,
    // same as the unblocked scatter.
    const u64 vecs = static_cast<u64>(rows * (lay.tile_cols() / 4));
    counts[armsim::Op::kLd1] += vecs;
    counts[armsim::Op::kAdd] += vecs;
  }
  if (epilogue && kcb == lay.k_blocks - 1) {
    counts[armsim::Op::kScalar] += static_cast<u64>(rows * cols) * 2;
    counts[armsim::Op::kSt1] += static_cast<u64>(rows);
  }
}

}  // namespace lbc::armkern
