// Mc/Kc/Nc cache blocking for the re-designed low-bit GEMM.
//
// The unblocked driver sweeps every A panel against every full-K B panel,
// so on ResNet-50 shapes the packed B working set (K x N bytes) blows past
// the modeled 32 KB L1 / 512 KB L2 and kL1Miss/kL2Miss stalls dominate the
// Cortex-A53 breakdown. The blocked loop nest follows the BLIS hierarchy
// used by QNNPACK-class low-bit engines:
//
//   for jc over Nc column blocks            (threading dimension)
//     for kcb over Kc depth blocks          (pack ONE Kc x Nc B block)
//       for icb over Mc row blocks
//         for p, q micro tiles              (16 x 4 kernels, C += tile)
//
// sized so the packed B block (Kc x Nc) stays L1-resident across the whole
// A sweep and the A panel slices for one Kc block (m_pad x Kc) are reused
// from L2. Partial-K products accumulate into C in plain i32 adds, so the
// result is bit-exact with the unblocked full-K sweep in any block order.
//
// This header holds the geometry (BlockedLayout) and the loop nest itself
// (walk_blocked), written once: it emits pack, table-copy, micro-call and
// writeback events to a visitor. The driver in gemm_blocked.cpp executes
// them; the tile search (tile_search.cpp) tallies their instruction counts
// and replays their cache-line trace. Workspace sizing (conv_arm.cpp) and
// the driver share BlockedLayout so the Workspace high-water mark stays
// exact.
#pragma once

#include <algorithm>

#include "armkern/schemes.h"
#include "common/status.h"
#include "common/types.h"

namespace lbc::armkern {

/// The blocked driver's two schedules (gemm_blocked.cpp), which a blocking
/// (and a TBL table source) is priced for.
enum class BlockedSchedule {
  /// No epilogue (execute_conv): partial-K sums accumulate in the m x n
  /// i32 C matrix.
  kStandalone,
  /// With a TileEpilogue (execute_conv_fused): C is one m x Nc band per
  /// worker, or absent when Kc covers K, and the epilogue writes the i8
  /// output. Its grid adds deep-Kc / narrow-Nc candidates, which pay only
  /// once the C matrix is gone.
  kFused,
};

/// Cache-blocking parameters. Disabled (all zero) selects the legacy
/// unblocked full-K sweep. When enabled: mc is a multiple of kMr, nc a
/// multiple of kNr, kc positive (and a multiple of 4 whenever the SDOT
/// layout splits K into more than one block).
struct GemmBlocking {
  i64 mc = 0, kc = 0, nc = 0;

  bool enabled() const { return mc > 0 && kc > 0 && nc > 0; }
  bool operator==(const GemmBlocking&) const = default;
};

/// Clamp a candidate to the problem and the micro-tile grid: mc to
/// [kMr, m_pad] (multiple of kMr), nc to [kNr, n_pad] (multiple of kNr),
/// kc to [1, k] — rounded down to a multiple of 4 for the SDOT layout when
/// K still splits into more than one block (every non-final block must end
/// on a 4-depth SDOT group), and likewise to a multiple of the TBL
/// mode's group (tbl_group) so no index group straddles a depth-block
/// boundary.
inline GemmBlocking clamp_blocking(GemmBlocking b, i64 m, i64 n, i64 k,
                                   bool sdot, int tbl_group = 0) {
  if (!b.enabled()) return b;
  const i64 m_pad = round_up(m, kMr);
  const i64 n_pad = round_up(n, kNr);
  b.mc = round_up(std::clamp<i64>(b.mc, kMr, m_pad), kMr);
  b.nc = round_up(std::clamp<i64>(b.nc, kNr, n_pad), kNr);
  b.kc = std::clamp<i64>(b.kc, 1, k);
  if (sdot && b.kc < k)
    b.kc = std::min<i64>(k, std::max<i64>(4, b.kc - (b.kc % 4)));
  if (tbl_group > 1 && b.kc < k)
    b.kc = std::min<i64>(
        k, std::max<i64>(tbl_group, b.kc - (b.kc % tbl_group)));
  return b;
}

/// Panels one TBL micro call covers at panel `i` of a run ending at `end`
/// (the row panels of an Mc block under kActTables, the 16-column index
/// panels of an Nc band under kWeightTables): 2 — the 32x4 tile, sharing
/// each table load — while a neighbour remains in the run, else 1 (the
/// 16x4 tile). A run of c panels thus costs c / 2 paired calls and c % 2
/// single ones.
constexpr i64 tbl_call_panels(i64 i, i64 end) { return i + 1 < end ? 2 : 1; }

/// Heuristic fallback when no search result is available: a B block of
/// Kc x Nc = 256 x 64 (16 KB) stays under half the modeled 32 KB L1, and
/// Mc = 128 keeps the per-Kc A slice well inside the 512 KB L2.
inline GemmBlocking default_blocking(i64 m, i64 n, i64 k, bool sdot) {
  return clamp_blocking(GemmBlocking{128, 256, 64}, m, n, k, sdot);
}

/// Resolved loop-nest geometry for one (m, n, k) problem under a clamped
/// blocking. Shared by the blocked driver, workspace sizing, and the tile
/// search so every consumer agrees on block counts and scratch bytes.
struct BlockedLayout {
  GemmBlocking blk;  ///< clamped parameters
  i64 m = 0, n = 0, k = 0;
  i64 m_pad = 0, n_pad = 0;
  i64 m_blocks = 0, n_blocks = 0, k_blocks = 0;
  bool sdot = false;
  /// TBL layout: depth positions per index, tbl_group(tbl_mode) (> 0
  /// selects TBL).
  int tbl_group = 0;
  TblMode tbl_mode;
  TblOrientation tbl_orient = TblOrientation::kActTables;
  TblSource tbl_source = TblSource::kStored;
  /// How the built source reaches a row quad's tables, whichever the walk's
  /// issue counts price lower at this blocking (tbl_blocked_layout): false
  /// copies them for the current K block from the dictionary into a panel
  /// that opens the worker's block buffer, once per column pass, and every
  /// micro call of the pass loads them from there (one LD1x4 per group
  /// step); true has each micro call read them straight from the
  /// dictionary (one id word and four LD1 per group step), with no copy
  /// and no panel. The copy pays only when enough calls reuse it.
  bool tbl_direct = false;

  bool tbl() const { return tbl_group > 0; }
  bool tbl_weight_tables() const {
    return tbl() && tbl_orient == TblOrientation::kWeightTables;
  }
  /// Weight tables from the built source: ids into the mode's dictionary.
  bool tbl_built() const { return tbl() && tbl_source == TblSource::kBuilt; }
  /// The built source's per-pass copy into the panel (the walk's
  /// copy_tables events).
  bool tbl_copies() const { return tbl_built() && !tbl_direct; }
  i64 m_panels() const { return m_pad / kMr; }
  /// One micro tile's rows and columns: the column-major 16 x 4 tile, or
  /// under weight tables the row-major 4 x 16 one (a slot is a C row, a
  /// lane a C column). A row panel is tile_rows() rows of A, a column
  /// panel tile_cols() columns of the packed block.
  i64 tile_rows() const { return tbl_weight_tables() ? 4 : kMr; }
  i64 tile_cols() const { return tbl_weight_tables() ? 16 : kNr; }
  i64 nc_eff(i64 jc) const { return std::min(blk.nc, n - jc * blk.nc); }
  i64 kc_eff(i64 kcb) const { return std::min(blk.kc, k - kcb * blk.kc); }
  i64 tbl_groups(i64 kcb) const {
    return ceil_div(kc_eff(kcb), static_cast<i64>(tbl_group));
  }
  /// Packed-B depth stride of one block: bytes per B-panel column (SDOT
  /// pads depth to 4; TBL kActTables stores a 16-entry table per group
  /// step, kWeightTables one index byte per group step).
  i64 k_stride(i64 kcb) const {
    if (tbl())
      return tbl_orient == TblOrientation::kActTables ? tbl_groups(kcb) * 16
                                                      : tbl_groups(kcb);
    return sdot ? round_up(kc_eff(kcb), 4) : kc_eff(kcb);
  }
  /// Bytes of the built source's table panel, which opens a worker's block
  /// buffer (the packed block follows it): one row quad's tables for the
  /// largest K block, 4 tables of 16 entries per group step. 0 without a
  /// copy.
  i64 tbl_panel_bytes() const {
    return tbl_copies() ? ceil_div(blk.kc, static_cast<i64>(tbl_group)) * 64
                        : 0;
  }
  /// Scratch elements (= bytes, i8) of one thread's B-block buffer, sized
  /// for the largest block, after the built source's table panel.
  i64 block_elems() const {
    if (tbl()) {
      const i64 groups = ceil_div(blk.kc, static_cast<i64>(tbl_group));
      return tbl_panel_bytes() + (tbl_orient == TblOrientation::kActTables
                                      ? round_up(blk.nc, kNr) * groups * 16
                                      : round_up(blk.nc, i64{16}) * groups);
    }
    return round_up(blk.nc, kNr) * (sdot ? round_up(blk.kc, 4) : blk.kc);
  }
  /// i32 elements of one worker's C band under a fused epilogue: the
  /// partial-K sums of its current jc column block (m rows x Nc, row stride
  /// Nc), reused across the worker's jc blocks. 0 when one K block covers
  /// K: the epilogue then reads each finished micro tile directly.
  i64 fused_band_elems() const { return k_blocks == 1 ? 0 : m * blk.nc; }
  /// i32 offset of C element (row, col) in the column block starting at
  /// n0: in the m x n matrix (kStandalone) or in the worker's m x Nc band
  /// (kFused, k_blocks > 1); -1 when there is no C (kFused, one K block).
  i64 c_offset(BlockedSchedule schedule, i64 n0, i64 row, i64 col) const {
    if (schedule == BlockedSchedule::kStandalone) return row * n + col;
    return k_blocks == 1 ? -1 : row * blk.nc + col - n0;
  }
};

inline BlockedLayout blocked_layout(i64 m, i64 n, i64 k,
                                    const GemmBlocking& blocking, bool sdot) {
  BlockedLayout l;
  l.blk = clamp_blocking(blocking, m, n, k, sdot);
  l.m = m;
  l.n = n;
  l.k = k;
  l.m_pad = round_up(m, kMr);
  l.n_pad = round_up(n, kNr);
  l.sdot = sdot;
  l.m_blocks = ceil_div(l.m_pad, l.blk.mc);
  l.n_blocks = ceil_div(n, l.blk.nc);
  l.k_blocks = ceil_div(k, l.blk.kc);
  return l;
}

/// Whether the built source's direct reads price lower than its per-pass
/// copy on `lay` (whose tbl_direct is ignored): the walk's issue counts in
/// each mode under the A53 cost model, without an epilogue, which both
/// modes pay alike. A tie keeps the copy. Defined beside the walk's tally
/// in tile_search.cpp; memoized per geometry, blocking and mode.
bool tbl_direct_reads_pay(const BlockedLayout& lay);

/// The TBL layout of a plan running `mode` in orientation `orient` with
/// its tables from `source` (weight tables only; act tables are always
/// kStored): the blocking clamps to the mode's group, so no index group
/// straddles a depth-block boundary, and the built source reads its tables
/// the way tbl_direct_reads_pay prices lower.
inline BlockedLayout tbl_blocked_layout(i64 m, i64 n, i64 k,
                                        const GemmBlocking& blocking,
                                        TblMode mode, TblOrientation orient,
                                        TblSource source = TblSource::kStored) {
  const int group = tbl_group(mode);
  BlockedLayout l = blocked_layout(
      m, n, k, clamp_blocking(blocking, m, n, k, /*sdot=*/false, group),
      /*sdot=*/false);
  l.tbl_group = group;
  l.tbl_mode = mode;
  l.tbl_orient = orient;
  l.tbl_source = tbl_packed_source(orient, source);
  if (l.tbl_built()) l.tbl_direct = tbl_direct_reads_pay(l);
  return l;
}

/// Worker count of the blocked driver: jc column blocks split across
/// threads (disjoint C column bands); checked execution forces one thread
/// so instruction indices stay deterministic.
inline int blocked_threads(const BlockedLayout& l, int threads, bool verify) {
  if (verify) return 1;
  return std::max(1, std::min<int>(threads, static_cast<int>(l.n_blocks)));
}

/// One (jc, kcb) block of the schedule: C columns [n0, n0 + nc) at depth
/// [k0, k0 + kc) of K block kcb, with the block's packed-B depth stride
/// (BlockedLayout::k_stride) and, under TBL, its group steps [g0, g0 +
/// groups).
struct BlockStep {
  i64 kcb = 0;
  i64 n0 = 0, nc = 0;
  i64 k0 = 0, kc = 0;
  i64 kstride = 0;
  i64 g0 = 0, groups = 0;
};

/// One micro call: row panel p against column panel q of the packed block
/// (BlockedLayout::tile_rows / tile_cols). pair = 2 is the paired 32x4 TBL
/// tile over row panels p, p + 1 (act tables) or column panels q, q + 1
/// (weight tables).
struct MicroStep {
  i64 p = 0, q = 0, pair = 1;
};

/// One finished tile of a micro call (h < pair) handed to C: rows
/// [row0, row0 + rows), columns [col0, col0 + cols), clipped at m and at
/// the block's last column — not at n: when Nc % tile_cols != 0 a block's
/// last tile is partly padding, and the columns past n0 + nc belong to the
/// next block (another worker's, or the next rows of a fused band).
struct TileStep {
  i64 h = 0, row0 = 0, col0 = 0, rows = 0, cols = 0;
};

/// The blocked schedule over column blocks [jc0, jc1), in execution order:
/// per (jc, kcb) it packs the block, then sweeps the Mc row blocks; per row
/// panel it copies the panel's tables (the built TBL source's copy only), then
/// per column panel makes one micro call and writes back its tiles. TBL
/// pairs panels by tbl_call_panels. The visitor provides
///   Status pack(const BlockStep&);
///   void copy_tables(const BlockStep&, i64 p);
///   void micro(const BlockStep&, const MicroStep&);
///   void write_tile(const BlockStep&, const TileStep&);
/// A pack that fails stops the walk, which returns its Status.
template <typename Visitor>
Status walk_blocked(const BlockedLayout& lay, i64 jc0, i64 jc1, Visitor& v) {
  const bool pair_cols = lay.tbl_weight_tables();
  const bool pair_rows = lay.tbl() && !pair_cols;
  const i64 tile_rows = lay.tile_rows(), tile_cols = lay.tile_cols();
  const i64 row_panels = ceil_div(lay.m, tile_rows);
  const i64 panels_per_mc = lay.blk.mc / tile_rows;
  for (i64 jc = jc0; jc < jc1; ++jc)
    for (i64 kcb = 0; kcb < lay.k_blocks; ++kcb) {
      BlockStep b{kcb, jc * lay.blk.nc, lay.nc_eff(jc), kcb * lay.blk.kc,
                  lay.kc_eff(kcb), lay.k_stride(kcb)};
      if (lay.tbl()) {
        b.g0 = b.k0 / lay.tbl_group;
        b.groups = lay.tbl_groups(kcb);
      }
      LBC_RETURN_IF_ERROR(v.pack(b));
      const i64 col_panels = ceil_div(b.nc, tile_cols);
      for (i64 icb = 0; icb < lay.m_blocks; ++icb) {
        const i64 p1 = std::min(row_panels, (icb + 1) * panels_per_mc);
        i64 row_pair = 1;
        for (i64 p = icb * panels_per_mc; p < p1; p += row_pair) {
          row_pair = pair_rows ? tbl_call_panels(p, p1) : 1;
          if (lay.tbl_copies()) v.copy_tables(b, p);
          i64 col_pair = 1;
          for (i64 q = 0; q < col_panels; q += col_pair) {
            col_pair = pair_cols ? tbl_call_panels(q, col_panels) : 1;
            const MicroStep call{p, q, row_pair * col_pair};
            v.micro(b, call);
            // A paired call's second tile is the next row or column panel.
            for (i64 h = 0; h < call.pair; ++h) {
              const i64 row0 = (p + h * (row_pair - 1)) * tile_rows;
              const i64 col0 = b.n0 + (q + h * (col_pair - 1)) * tile_cols;
              const i64 rows = std::min(tile_rows, lay.m - row0);
              const i64 cols = std::min(tile_cols, b.n0 + b.nc - col0);
              v.write_tile(b, TileStep{h, row0, col0, rows, cols});
            }
          }
        }
      }
    }
  return Status();
}

}  // namespace lbc::armkern
