// Low-bit GEMM driver over the packed panels and micro kernels.
//
// This is the "re-designed GEMM computation" of paper Sec. 3.2: packing
// (Fig. 2) plus the per-bit-width instruction schemes (Fig. 3), dispatched
// by bit width — MLA scheme for 2-3 bit, SMLAL scheme for 4-8 bit — with
// the ncnn-style 8-bit baseline and the traditional (Fig. 1a) GEMM
// available for comparison.
//
// Three entry points:
//  * gemm_s8s32 — one-shot unblocked GEMM: packs both operands and runs
//    the full-K panel sweep (the ablations and micro benches).
//  * gemm_s8s32_prepacked — the same sweep with A (weights) packed once at
//    plan-compile time; only B (activations) is packed here, into
//    opt.workspace when one is provided. The materialized conv path and
//    the winograd GEMMs run it. Bit-exact with the one-shot entry in
//    results and modeled counts: neither tallies the A pack (weights are
//    packed offline in deployment).
//  * gemm_s8s32_conv_blocked — the Mc/Kc/Nc blocked driver
//    (gemm_blocked.cpp), which gathers each Kc x Nc block of B straight
//    from a conv input. A row-major K x N B is the [1, K, 1, N] input of a
//    1x1, stride-1, pad-0 conv, whose im2col is B itself.
#pragma once

#include <functional>
#include <variant>
#include <vector>

#include "armsim/cost_model.h"
#include "armsim/counters.h"
#include "armkern/blocking.h"
#include "armkern/pack.h"
#include "common/status.h"
#include "common/types.h"

namespace lbc {
class Workspace;
}  // namespace lbc

namespace lbc::armkern {

enum class ArmKernel {
  kOursGemm,     ///< the paper's re-designed GEMM with per-bit schemes
  kNcnn,         ///< ncnn-style 8-bit baseline (widen + 16-bit SMLAL)
  kTraditional,  ///< Fig. 1a inner-product GEMM (ablation)
  kSdotExt,      ///< ARMv8.2 SDOT kernel (extension; not on the v8.1 target)
  kTblGemm,      ///< TBL lookup-table scheme, 2-3 bit (DESIGN.md Sec. 16)
};

/// Epilogue hook of the blocked driver (the ARM twin of gpukern/fusion):
/// after a C row segment receives its final Kc accumulation, the driver
/// hands the still-cache-resident i32 accumulators to `fn` so requantize /
/// ReLU / residual-add can run before the rows are ever evicted — no m x n
/// i32 tensor exists at all. `fn(row, col0, cols, acc)` sees the final
/// values C[row][col0 .. col0+cols) in `acc`: a row of the calling
/// worker's C band (GemmOptions::epilogue), or a row gathered from the
/// micro tile when one K block covers K. `acc` is valid only during the
/// call and must not be written. Under multi-threaded runs segments from
/// disjoint jc column bands are delivered concurrently, so `fn` must only
/// write per-(row, col) outputs. The driver tallies the epilogue's
/// fixed-point math and i8 stores into the calling worker's counters; the
/// bytes written to `out_base` (when set) go through the cache model so the
/// fused traffic is measured, not asserted.
struct TileEpilogue {
  std::function<void(i64 row, i64 col0, i64 cols, const i32* acc)> fn;
  /// i8 output buffer the epilogue writes, laid out out[row * row_stride +
  /// col] (row_stride in elements, normally the GEMM n). Optional, but when
  /// set the driver feeds the written bytes through the cache model and
  /// registers the region with an active verifier, so the fused path's
  /// store traffic is measured, not asserted.
  i8* out_base = nullptr;
  i64 row_stride = 0;
  i64 out_rows = 0;  ///< rows the epilogue covers (region registration)
};

struct GemmOptions {
  int bits = 8;
  ArmKernel kernel = ArmKernel::kOursGemm;
  int threads = 1;
  /// Non-zero: override the SADDW flush interval of the SMLAL scheme.
  /// Used by the winograd path, whose operand ranges (4x activations,
  /// 9/4 weights) shrink the safe ratio below the raw-bit-width table.
  int flush_override = 0;
  /// When set, per-call scratch (the packed-B panels) comes from this arena
  /// instead of fresh heap allocations. The arena must outlive the call;
  /// the caller resets it between executions.
  Workspace* workspace = nullptr;
  /// gemm_s8s32_conv_blocked only: caller-carved B-block buffers,
  /// blocked_threads() consecutive buffers of
  /// workspace_rounded(BlockedLayout::block_elems()) bytes, one per worker.
  /// When set, `workspace` is not drawn from.
  i8* block_buffers = nullptr;
  /// Checked execution (armsim/verifier.h): every Ctx this call creates
  /// carries the verifier, operand regions are registered with the value
  /// ranges below, and the panel loop is forced to threads = 1 so reported
  /// instruction indices are deterministic.
  armsim::Verifier* verifier = nullptr;
  /// Max |value| the A / B operands can hold, seeding the overflow interval
  /// analysis. 0 derives the bound from `bits` (qmax_for_bits); the
  /// winograd path passes its transformed-operand ranges here, since it
  /// runs the GEMM with bits = 8 + flush_override.
  i32 a_max_abs = 0;
  i32 b_max_abs = 0;
  /// Mc/Kc/Nc cache blocking (blocking.h) of gemm_s8s32_conv_blocked,
  /// which requires it; the unblocked entries require it disabled. The
  /// blocked driver packs one Kc x Nc B block at a time and accumulates
  /// partial-K products into C — bit-exact with the unblocked sweep.
  GemmBlocking blocking;
  /// Fused epilogue (blocked driver only): invoked on each C row segment
  /// right after its final Kc accumulation. nullptr = no epilogue. When
  /// set, the `c` argument of the GEMM entry is not the m x n matrix but
  /// the C bands: blocked_threads() x BlockedLayout::fused_band_elems()
  /// i32 elements (one m x Nc band per worker; none, and `c` may be null,
  /// when one K block covers K).
  const TileEpilogue* epilogue = nullptr;
};

struct GemmStats {
  armsim::Counters counts;   ///< total instruction mix (all threads + pack)
  i64 pack_extra_elems = 0;  ///< padding bytes added by pack (Fig. 13)
  bool interleaved = true;   ///< whether the kernel interleaves LD/MAC

  /// Timing decomposition for the multicore model: the packing pre-pass is
  /// serial; the panel loop splits across threads. Single-threaded runs
  /// have exactly one entry in thread_counts.
  armsim::Counters serial_counts;
  std::vector<armsim::Counters> thread_counts;

  /// Non-OK when the TBL weight-tables pack met an activation its mode
  /// cannot encode (pack_tbl_b_idx_*): the output is then unspecified and
  /// the caller must surface this Status instead.
  Status status;
};

/// Packed A (weights) in the layout of the kernel that reads it: APanels
/// for kOursGemm / kNcnn, SdotAPanels for kSdotExt, TblAPanels for
/// kTblGemm (ArmConvPlan::gemm_a, sdot_a or tbl_a).
using KernelAPanels = std::variant<APanels, SdotAPanels, TblAPanels>;

/// C[M x N] (i32, row-major) = A[M x K] (i8, row-major) * B[K x N]
/// (i8, row-major), unblocked. Bit-exact with ref::gemm_s8s32 for inputs
/// within the adjusted range of `bits`. TBL, a blocking and an epilogue
/// run only blocked (gemm_s8s32_conv_blocked); requesting one here is a
/// precondition failure.
GemmStats gemm_s8s32(const i8* a, const i8* b, i32* c, i64 m, i64 n, i64 k,
                     const GemmOptions& opt);

/// The same unblocked sweep with A already packed: APanels for kOursGemm /
/// kNcnn, SdotAPanels for kSdotExt, each packed from an M x K matrix
/// matching (m, k). Same preconditions as gemm_s8s32.
GemmStats gemm_s8s32_prepacked(const KernelAPanels& a, const i8* b, i32* c,
                               i64 m, i64 n, i64 k, const GemmOptions& opt);

/// Blocked conv GEMM: C[M x N] = A * im2col(input), where the im2col
/// matrix is never materialized — each Kc x Nc B block is gathered
/// straight from `input` (pack_b_panels_from_conv and its SDOT / TBL
/// twins) into an L1-resident scratch block. `input` is the raw NCHW i8
/// activation buffer of s.batch * s.in_c * s.in_h * s.in_w elements (a
/// Tensor's data() or a graph arena slot). `a` is packed in opt.kernel's
/// layout from the (m, k) weight matrix of the GEMM view of `s`; TBL
/// builds product tables (kActTables) or encodes index panels
/// (kWeightTables) per block, in the pack's mode. Requires
/// opt.blocking.enabled(). Bit-exact with gemm_s8s32_prepacked over the
/// materialized im2col matrix. An input value a TBL mode cannot encode
/// returns in GemmStats::status.
GemmStats gemm_s8s32_conv_blocked(const KernelAPanels& a, const ConvShape& s,
                                  const i8* input, i32* c,
                                  const GemmOptions& opt);

/// Traditional GEMM used by the ablation bench (declared here, defined in
/// gemm_traditional.cpp); B is consumed column-major-packed internally.
void gemm_traditional(armsim::Ctx& ctx, int bits, const i8* a, const i8* b,
                      i32* c, i64 m, i64 n, i64 k);

}  // namespace lbc::armkern
