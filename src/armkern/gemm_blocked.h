// Internals the GEMM drivers share (gemm_lowbit.cpp's unblocked sweep and
// gemm_blocked.cpp's blocked driver) with the tile search: the one
// per-call micro kernel and flush dispatch, the C-writeback tally, and the
// per-call scratch rule. The entry points live in gemm_lowbit.h.
#pragma once

#include "armkern/gemm_lowbit.h"
#include "common/workspace.h"

namespace lbc::armkern {

/// Per-call scratch of `bytes` bytes: from opt.workspace when one is
/// plumbed through, otherwise `own`, resized to fit (the one-shot path).
inline i8* gemm_scratch(const GemmOptions& opt, AlignedVector<i8>& own,
                        i64 bytes) {
  if (opt.workspace != nullptr) return opt.workspace->alloc_n<i8>(bytes);
  own.resize(static_cast<size_t>(bytes));
  return own.data();
}

/// Whether `a` holds an m x k weight matrix packed in the layout `kernel`
/// reads.
inline bool packed_a_fits(const KernelAPanels& a, ArmKernel kernel, i64 m,
                          i64 k) {
  const bool layout =
      std::holds_alternative<APanels>(a)
          ? kernel == ArmKernel::kOursGemm || kernel == ArmKernel::kNcnn
          : kernel == (std::holds_alternative<SdotAPanels>(a)
                           ? ArmKernel::kSdotExt
                           : ArmKernel::kTblGemm);
  return layout &&
         std::visit([&](const auto& p) { return p.m == m && p.k == k; }, a);
}

/// The micro kernel a GEMM calls and its flush cadence: MLA at <= 3 bit
/// and SMLAL above (SMLAL at `flush_override` when set, see GemmOptions),
/// ncnn, SDOT, or TBL in `tbl_mode`.
struct MicroKernel {
  ArmKernel kernel = ArmKernel::kOursGemm;
  int bits = 8;
  int flush_override = 0;
  TblMode tbl_mode{};
};

/// Operands of one micro call. MLA / SMLAL / ncnn / SDOT read the packed-A
/// K slice `a` against the packed-B panel `b`; TBL reads index panel `idx0`
/// — and `idx1` too, as the paired 32x4 tile, when set — against the table
/// panel `b`, or, when `ids` is set, against the tables those dictionary
/// ids name in `dict` (the built source's direct reads, TblTables).
struct MicroOperands {
  const i8* a = nullptr;
  const i8* b = nullptr;
  const u8* idx0 = nullptr;
  const u8* idx1 = nullptr;
  const u8* ids = nullptr;
  const i8* dict = nullptr;
};

/// One micro call over depth `kc` into `tile` (two 16x4 tiles for a paired
/// TBL call; SDOT runs round_up(kc, 4) deep). Both GEMM drivers run every
/// call through it, and the tile search probes each call's instruction mix
/// with it.
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
