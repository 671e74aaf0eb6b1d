// Data padding and packing for the re-designed GEMM (paper Sec. 3.2, Fig. 2).
//
// A (M x K, row-major) is packed into panels of kMr = 16 rows stored
// column-of-the-panel-major: for panel p and depth k, the 16 row values
// A[p*16 .. p*16+15][k] are contiguous — exactly what one LD1 of the micro
// kernel consumes. B (K x N, row-major) is packed into panels of kNr = 4
// columns: for panel q and depth k, B[k][q*4 .. q*4+3] are contiguous — one
// LD4R. Rows beyond M / columns beyond N are zero-padded ("zero padding"
// in the paper), which is value-safe: padded lanes only ever add zero
// products.
//
// Two layers of API:
//  * Owning PackedA/PackedSdotA/PackedTblA — allocate and pack in one
//    call. Plans prepack weights through these once per layer.
//  * Non-owning APanels/BPanels/Sdot*Panels views + pack_*_into functions
//    that fill caller-provided memory — the per-execute activation packs
//    write into a Workspace arena instead of fresh heap blocks.
#pragma once

#include <algorithm>
#include <vector>

#include "common/align.h"

#include "armsim/counters.h"
#include "armkern/schemes.h"
#include "common/conv_shape.h"
#include "common/status.h"
#include "common/tensor.h"
#include "common/types.h"

namespace lbc::armkern {

/// Non-owning view of packed A panels ([panels][K][kMr]).
struct APanels {
  const i8* data = nullptr;
  i64 m = 0, k = 0;
  i64 m_pad = 0;  ///< m rounded up to kMr

  i64 panels() const { return m_pad / kMr; }
  const i8* panel(i64 p) const { return data + p * k * kMr; }
  i64 extra_elems() const { return m_pad * k - m * k; }
};

/// Non-owning view of packed B panels ([panels][K][kNr]).
struct BPanels {
  const i8* data = nullptr;
  i64 k = 0, n = 0;
  i64 n_pad = 0;  ///< n rounded up to kNr

  i64 panels() const { return n_pad / kNr; }
  const i8* panel(i64 q) const { return data + q * k * kNr; }
  i64 extra_elems() const { return n_pad * k - k * n; }
};

struct PackedA {
  AlignedVector<i8> data;  ///< [panels][K][kMr]
  i64 m = 0, k = 0;
  i64 m_pad = 0;  ///< m rounded up to kMr

  i64 panels() const { return m_pad / kMr; }
  const i8* panel(i64 p) const { return data.data() + p * k * kMr; }
  /// Extra elements introduced by padding+packing (Fig. 13 accounting).
  i64 extra_elems() const { return static_cast<i64>(data.size()) - m * k; }
  APanels view() const { return APanels{data.data(), m, k, m_pad}; }
};

/// Packed buffer sizes in bytes (i8 elements), for workspace sizing.
i64 packed_a_bytes(i64 m, i64 k);
i64 packed_b_bytes(i64 k, i64 n);

/// Pack A with cost tallying (the packing itself runs per GEMM call for
/// activations; for weights it is done once at plan compile — callers
/// choose whether to pass a tallying ctx).
PackedA pack_a(armsim::Ctx* ctx, const i8* a, i64 m, i64 k);

/// Pack into caller memory (packed_a_bytes/packed_b_bytes big, cache-line
/// aligned). Every destination byte is written, padding included, so stale
/// workspace contents cannot leak into the panels.
APanels pack_a_into(armsim::Ctx* ctx, const i8* a, i64 m, i64 k, i8* dst);
BPanels pack_b_into(armsim::Ctx* ctx, const i8* b, i64 k, i64 n, i8* dst);

// ---- cache-blocked packing (blocking.h) ------------------------------
//
// The blocked GEMM packs ONE (Kc x Nc) block of B at a time into a small
// reusable scratch buffer, gathered straight from the conv input through
// the im2col index mapping, so the full K x N im2col matrix is never
// materialized. That gather is the blocked driver's one B source: a
// row-major K x N matrix is the [1, K, 1, N] input of a 1x1, stride-1,
// pad-0 conv, whose im2col is the matrix itself. `dst` must hold kc
// (rounded to 4 for the SDOT layout) x round_up(nc, kNr) bytes; every byte
// is written.

/// Fused im2col packing (paper Sec. 3.2 + cache blocking): gather the
/// im2col rows [k0, k0+kc) for output columns [n0, n0+nc) straight from
/// the input activations (raw NCHW i8 buffer of s.batch * s.in_c * s.in_h
/// * s.in_w elements — a Tensor's data() or a graph arena slot) into
/// packed-B panel layout ([local panel][kc][kNr]). Out-of-image taps and
/// columns beyond nc are zero-filled, so the result is byte-identical to
/// the same block of pack_b_into over a materialized im2col matrix.
BPanels pack_b_panels_from_conv(armsim::Ctx* ctx, const ConvShape& s,
                                const i8* input, i64 k0, i64 kc,
                                i64 n0, i64 nc, i8* dst);

// SDOT-layout blocked variants are declared below SdotBPanels.

/// The input spans the fused gather of block [k0, k0+kc) x [n0, n0+nc)
/// reads: for each im2col row, one contiguous span per output row, clamped
/// to the image. Calls span(offset, bytes) in gather order, the offset
/// counted in elements of the NCHW input. The conv packs feed the spans to
/// the cache model (Ctx::mem_range), so the gather's L1/L2 behaviour — the
/// whole point of the blocked schedule — is measured, not asserted; the
/// tile search feeds them to its replay's line trace.
template <typename Span>
void for_each_gather_span(const ConvShape& s, i64 k0, i64 kc, i64 n0, i64 nc,
                          Span&& span) {
  const i64 ohw = s.out_h() * s.out_w();
  const i64 ksq = s.kernel * s.kernel;
  for (i64 kg = k0; kg < k0 + kc; ++kg) {
    const i64 ic = kg / ksq;
    const i64 kh = (kg / s.kernel) % s.kernel;
    const i64 kw = kg % s.kernel;
    i64 col = n0;
    while (col < n0 + nc) {
      const i64 b = col / ohw;
      const i64 rem = col % ohw;
      const i64 oh = rem / s.out_w();
      const i64 ow0 = rem % s.out_w();
      const i64 ow1 = std::min<i64>(s.out_w() - 1, ow0 + (n0 + nc - 1 - col));
      const i64 ih = oh * s.stride + kh - s.pad;
      if (ih >= 0 && ih < s.in_h) {
        const i64 iw_lo = std::max<i64>(ow0 * s.stride + kw - s.pad, 0);
        const i64 iw_hi =
            std::min<i64>(ow1 * s.stride + kw - s.pad, s.in_w - 1);
        if (iw_lo <= iw_hi)
          span(((b * s.in_c + ic) * s.in_h + ih) * s.in_w + iw_lo,
               iw_hi - iw_lo + 1);
      }
      col += ow1 - ow0 + 1;
    }
  }
}

/// Issue-cost tally of the fused conv gather of `elems` packed bytes (16-
/// byte moves plus the strided gather's transpose math and the per-element
/// im2col index math), exported so the tile search can price a candidate
/// block partition without executing it.
void tally_pack_im2col_gather(armsim::Ctx* ctx, i64 elems);

/// SDOT packing (ARMv8.2 extension kernel): K grouped by 4 so that each
/// 32-bit SDOT lane sees four consecutive depth values.
///   A: [K4/4][kMr rows][4 depths]  (4 x LD1 per 4-depth step)
///   B: [K4/4][kNr cols][4 depths]  (1 x LD1 per 4-depth step)
/// Rows/cols beyond M/N and depths beyond K are zero-padded.
struct SdotAPanels {
  const i8* data = nullptr;
  i64 m = 0, k = 0;
  i64 m_pad = 0, k_pad = 0;

  i64 panels() const { return m_pad / kMr; }
  const i8* panel(i64 p) const { return data + p * k_pad * kMr; }
};

struct SdotBPanels {
  const i8* data = nullptr;
  i64 n = 0, k = 0;
  i64 n_pad = 0, k_pad = 0;

  i64 panels() const { return n_pad / kNr; }
  const i8* panel(i64 q) const { return data + q * k_pad * kNr; }
};

struct PackedSdotA {
  AlignedVector<i8> data;
  i64 m = 0, k = 0;
  i64 m_pad = 0, k_pad = 0;

  i64 panels() const { return m_pad / kMr; }
  const i8* panel(i64 p) const { return data.data() + p * k_pad * kMr; }
  SdotAPanels view() const { return SdotAPanels{data.data(), m, k, m_pad, k_pad}; }
};

i64 packed_sdot_b_bytes(i64 k, i64 n);

/// A-side SDOT pack (weights — runs once at plan compile; execute-time
/// counts never include it). `ctx` is for plan-time cost accounting only:
/// it lets a ConvPlan report what the pack *would* cost per call.
PackedSdotA pack_sdot_a(const i8* a, i64 m, i64 k,
                        armsim::Ctx* ctx = nullptr);
/// B-side SDOT pack into caller memory (activations — per execute; the
/// strided interleave is tallied like an A pack).
SdotBPanels pack_sdot_b_into(armsim::Ctx* ctx, const i8* b, i64 k, i64 n,
                             i8* dst);

/// SDOT-layout fused conv gather ([local panel][kc4/4][kNr][4], depth
/// padded to 4) — see the cache-blocked packing section above.
SdotBPanels pack_sdot_b_panels_from_conv(armsim::Ctx* ctx, const ConvShape& s,
                                         const i8* input, i64 k0,
                                         i64 kc, i64 n0, i64 nc, i8* dst);

// ---- TBL lookup-table packing (schemes.h TBL section, DESIGN.md Sec. 16) --
//
// The TBL scheme re-encodes one GEMM side as byte indices into 16-entry
// product tables built from the other side. Which side is which is the
// orientation (TblOrientation): kActTables prepacks WEIGHT indices offline
// and builds tables from activations online per B block; kWeightTables
// takes WEIGHT tables from the mode's shared dictionary — copied out at
// pack time (TblSource::kStored) or read at run time by id (kBuilt), per
// column pass into an L1 panel or straight from the dictionary — and
// encodes activation indices online. The mode (TblMode)
// fixes how many depth values one index folds; every packer below encodes
// and builds through schemes.h's one tbl_encode / tbl_decode rule.

/// True when every element of the m x k row-major matrix is in {-1, 0, 1}
/// — the ternary-weight detection that enables pair mode at 3 bit.
bool tbl_values_ternary(const i8* a, i64 m, i64 k);

/// Non-owning view of the offline TBL weight pack.
struct TblAPanels {
  TblOrientation orient = TblOrientation::kActTables;
  TblMode mode;
  bool ternary = false;  ///< weights all in {-1,0,1}
  TblSource source = TblSource::kStored;
  const u8* idx = nullptr;     ///< kActTables: [m_pad/kMr][groups][kMr]
  const i8* tables = nullptr;  ///< stored: [m_pad/4][groups][4][16]
  const u8* ids = nullptr;     ///< built: [m_pad/4][groups][4] table ids
  i64 m = 0, k = 0;
  i64 m_pad = 0;  ///< kActTables: round_up(m, kMr); else round_up(m, 4)

  int group() const { return tbl_group(mode); }
  i64 groups() const { return ceil_div(k, static_cast<i64>(group())); }
  const u8* idx_panel(i64 p) const { return idx + p * groups() * kMr; }
  const i8* table_panel(i64 p4) const {
    return tables + p4 * groups() * 4 * 16;
  }
  const u8* ids_panel(i64 p4) const { return ids + p4 * groups() * 4; }
};

/// Owning offline weight pack for the TBL scheme (plan compile).
///  * kActTables: `idx` holds weight-index panels — each byte one group's
///    tbl_encode; rows beyond m and K tails encode the neutral index.
///  * kWeightTables, stored: `tables` holds per-(row, group step) product
///    tables, each the dictionary's table of that weight group.
///  * kWeightTables, built: `ids` holds those groups' dictionary ids
///    (tbl_encode_id) in the same [row quad][group step][row] order.
///  Rows beyond m get the all-zero weight group's table (or id), whose
///  entries are all 0.
struct PackedTblA {
  TblOrientation orient = TblOrientation::kActTables;
  TblMode mode;
  bool ternary = false;
  TblSource source = TblSource::kStored;
  i64 m = 0, k = 0;
  i64 m_pad = 0;
  AlignedVector<u8> idx;
  AlignedVector<i8> tables;
  AlignedVector<u8> ids;

  int group() const { return tbl_group(mode); }
  i64 groups() const { return ceil_div(k, static_cast<i64>(group())); }
  /// Bytes the pack holds (the shared dictionary is not the plan's).
  i64 bytes() const {
    return static_cast<i64>(idx.size() + tables.size() + ids.size());
  }
  TblAPanels view() const {
    return TblAPanels{orient,     mode,          ternary,    source,
                      idx.data(), tables.data(), ids.data(), m,
                      k,          m_pad};
  }
};

/// Offline TBL weight pack in mode tbl_mode_for(orient, bits, ternary,
/// input), with ternary weights detected here; `source` applies to
/// kWeightTables only (act-tables packs are always kStored). Weights must
/// lie in the adjusted range. Each pack resolves its mode once, outside
/// the per-group loop. `ctx` is for plan-time cost accounting only
/// (execute-time counts never include it).
PackedTblA pack_tbl_a(const i8* a, i64 m, i64 k, int bits,
                      TblOrientation orient,
                      InputRange input = InputRange::kSigned,
                      TblSource source = TblSource::kStored,
                      armsim::Ctx* ctx = nullptr);

/// The built source's run-time copy: tables ids[0 .. tables) from the
/// mode's dictionary into dst (16 bytes each, contiguous) — per table one
/// LD1, one ST1 and the id load plus address math (2 scalar ops), and one
/// loop tally per call (tally_tbl_table_copy). The blocked driver copies a
/// row quad's tables for one K block before sweeping its column panels,
/// unless its layout reads them directly (BlockedLayout::tbl_direct).
void copy_tbl_tables(armsim::Ctx& ctx, TblMode mode, const u8* ids,
                     i64 tables, i8* dst);

/// Issue-cost tally of one copy_tbl_tables call of `tables` tables —
/// exported so tile_search can price the built source without executing.
void tally_tbl_table_copy(armsim::Counters& counts, i64 tables);

/// kActTables online table build over one (kc x nc) B block:
/// [nc_pad/kNr][groups_c][kNr][16] i8 at dst (groups_c = ceil(kc/group)).
/// One tbl_build_table per (column, group step) from the group's B values
/// (zero outside k/kc/n; padding columns get all-zero tables). The q-panel
/// stride is groups_c * kNr * 16 = kNr * k_stride of the TBL BlockedLayout,
/// so the blocked driver's panel arithmetic holds unchanged. kc must be a
/// multiple of the mode's group unless k0 + kc == k.
void pack_tbl_b_tables_from_conv(armsim::Ctx* ctx, TblMode mode,
                                 const ConvShape& s, const i8* input, i64 k0,
                                 i64 kc, i64 n0, i64 nc, i8* dst);

/// kWeightTables online index encode over one (kc x nc) B block:
/// [round_up(nc,16)/16][groups_c][16] u8 at dst. Padding columns get the
/// neutral index; a group cut short by kc encodes its missing values as 0.
/// kOutOfRange, naming the value, when an activation lies outside the
/// mode's range (a signed value in a non-negative plan, or one past qmax):
/// the block is then unusable, so the sum is never silently wrong.
Status pack_tbl_b_idx_from_conv(armsim::Ctx* ctx, TblMode mode,
                                const ConvShape& s, const i8* input, i64 k0,
                                i64 kc, i64 n0, i64 nc, u8* dst);

/// Issue-cost tally of building `tables` 16-entry product tables (two DUP
/// broadcasts, two vector adds, one ST1 plus operand/address math each) —
/// exported so tile_search can price TBL candidates without executing.
void tally_pack_tbl_tables(armsim::Ctx* ctx, i64 tables);

}  // namespace lbc::armkern
