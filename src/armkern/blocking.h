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
// This header only resolves geometry; the driver lives in gemm_blocked.cpp
// and the {Mc, Kc, Nc} auto-search in tile_search.cpp. workspace sizing
// (conv_arm.cpp) and the driver share BlockedLayout so the Workspace
// high-water mark stays exact.
#pragma once

#include <algorithm>

#include "armkern/schemes.h"
#include "common/types.h"

namespace lbc::armkern {

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
/// single ones; the blocked driver and the tile search both follow it.
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

  bool tbl() const { return tbl_group > 0; }
  i64 m_panels() const { return m_pad / kMr; }
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
  /// Scratch elements (= bytes, i8) of one thread's B-block buffer, sized
  /// for the largest block.
  i64 block_elems() const {
    if (tbl()) {
      const i64 groups = ceil_div(blk.kc, static_cast<i64>(tbl_group));
      return tbl_orient == TblOrientation::kActTables
                 ? round_up(blk.nc, kNr) * groups * 16
                 : round_up(blk.nc, i64{16}) * groups;
    }
    return round_up(blk.nc, kNr) * (sdot ? round_up(blk.kc, 4) : blk.kc);
  }
  i64 block_bytes() const { return block_elems(); }
  /// i32 elements of one worker's C band under a fused epilogue: the
  /// partial-K sums of its current jc column block (m rows x Nc, row stride
  /// Nc), reused across the worker's jc blocks. 0 when one K block covers
  /// K: the epilogue then reads each finished micro tile directly.
  i64 fused_band_elems() const { return k_blocks == 1 ? 0 : m * blk.nc; }
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

/// The TBL layout of a plan running `mode` in orientation `orient`: the
/// blocking clamps to the mode's group, so no index group straddles a
/// depth-block boundary.
inline BlockedLayout tbl_blocked_layout(i64 m, i64 n, i64 k,
                                        const GemmBlocking& blocking,
                                        TblMode mode, TblOrientation orient) {
  const int group = tbl_group(mode);
  BlockedLayout l = blocked_layout(
      m, n, k, clamp_blocking(blocking, m, n, k, /*sdot=*/false, group),
      /*sdot=*/false);
  l.tbl_group = group;
  l.tbl_mode = mode;
  l.tbl_orient = orient;
  return l;
}

/// Worker count of the blocked driver: jc column blocks split across
/// threads (disjoint C column bands); checked execution forces one thread
/// so instruction indices stay deterministic.
inline int blocked_threads(const BlockedLayout& l, int threads, bool verify) {
  if (verify) return 1;
  return std::max(1, std::min<int>(threads, static_cast<int>(l.n_blocks)));
}

}  // namespace lbc::armkern
