// Mc/Kc/Nc cache-blocked GEMM driver (blocking.h) for the low-bit micro
// kernels, with fused im2col packing on the conv path.
//
// Loop nest (BLIS order, QNNPACK-style for low-bit):
//   jc  — Nc column blocks; the threading dimension (disjoint C bands)
//   kcb — Kc depth blocks; ONE Kc x Nc B block is packed per (jc, kcb)
//         into a small reusable scratch buffer that stays L1-resident
//   icb — Mc row blocks; the A panel slices for this Kc block re-stream
//         from L2 instead of DRAM
//   p,q — 16 x 4 micro tiles
//
// TBL pairs panels into the 32 x 4 tile (micro_tbl_32x4), where one table
// load serves two index vectors: adjacent row panels inside an Mc block
// under kActTables, adjacent 16-column index panels inside a band under
// kWeightTables. An odd last panel keeps the 16 x 4 tile.
//
// The micro kernels are unchanged: they zero their accumulators and
// overwrite the column-major scratch tile, so the driver scatter assigns
// on the first K block and accumulates (plain i32 adds) afterwards —
// bit-exact with the unblocked full-K sweep in any block order. The
// accumulate's extra C re-load/add per tile row is tallied; the first
// block's stores ride on the micro kernel's ST1s exactly like the
// unblocked scatter.
//
// With a fused epilogue there is no m x n C matrix. Each worker keeps the
// partial-K sums of its current jc block in an m x Nc band, reused across
// its jc blocks, and hands each row segment to the epilogue after the last
// K block. When one K block covers K there is no band either: the epilogue
// reads the finished micro tile directly.
//
// Under checked execution the per-(jc, kcb) B block is re-registered with
// the verifier before each pack (same-start registration replaces), so
// bounds always describe the live block extent; the built TBL source's
// table panel likewise before each copy, as a scratch region whose every
// read must follow a write of this copy.
#include <cstring>
#include <limits>
#include <vector>

#include "armkern/gemm_blocked.h"

#include "armkern/micro.h"
#include "armsim/verifier.h"
#include "common/status.h"
#include "common/workspace.h"
#include "serve/thread_pool.h"

namespace lbc::armkern {

using namespace armsim;

namespace {

// Per-call scratch: from the caller's arena when one is plumbed through,
// otherwise a fresh aligned heap block (mirrors gemm_lowbit.cpp).
i8* block_scratch(const GemmOptions& opt, AlignedVector<i8>& own, i64 bytes) {
  if (opt.workspace != nullptr) return opt.workspace->alloc_n<i8>(bytes);
  own.resize(static_cast<size_t>(bytes));
  return own.data();
}

// Where packed-B blocks come from: a row-major K x N matrix, or (fused
// path) the raw conv input buffer through the im2col mapping.
struct BSource {
  const i8* b = nullptr;
  const ConvShape* shape = nullptr;
  const i8* input = nullptr;
};

// Where the C row segments of one jc block live: the full m x n matrix
// (standalone), the worker's m x Nc band indexed from the block's first
// column (fused, k_blocks > 1), or nowhere (fused, one K block: base is
// null and the epilogue reads the tile).
struct CTarget {
  i32* base = nullptr;
  i64 ld = 0;    ///< row stride in elements
  i64 col0 = 0;  ///< C column stored at band column 0
  i32* at(i64 row, i64 col) const { return base + row * ld + (col - col0); }
};

// Hand one finished micro tile to C: element (ii, jj) is tile[ii * rs +
// jj * cs], C row row0 + ii, column col0 + jj. Assigns on the first K
// block and accumulates after it (re-loading and adding `vecs` i32x4
// vectors per row); after the last K block each row segment goes straight
// on to the fused epilogue, if any, while it is cache-resident.
void write_tile(Ctx& ctx, const BlockedLayout& lay, const GemmOptions& opt,
                const CTarget& c, const i32* tile, i64 rs, i64 cs, u64 vecs,
                i64 row0, i64 col0, i64 rows, i64 cols, i64 kcb) {
  const TileEpilogue* epi =
      kcb == lay.k_blocks - 1 ? opt.epilogue : nullptr;
  alignas(64) i32 direct[16] = {};  // a tile row, when there is no C
  for (i64 ii = 0; ii < rows; ++ii) {
    const i64 row = row0 + ii;
    const i32* acc = direct;
    if (c.base != nullptr) {
      i32* crow = c.at(row, col0);
      ctx.mem(crow, static_cast<u64>(cols) * 4);
      if (kcb == 0)
        for (i64 jj = 0; jj < cols; ++jj) crow[jj] = tile[ii * rs + jj * cs];
      else
        for (i64 jj = 0; jj < cols; ++jj) crow[jj] += tile[ii * rs + jj * cs];
      acc = crow;
    } else if (epi != nullptr) {
      for (i64 jj = 0; jj < cols; ++jj) direct[jj] = tile[ii * rs + jj * cs];
    }
    if (epi != nullptr) {
      epi->fn(row, col0, cols, acc);
      if (epi->out_base != nullptr)
        ctx.mem(epi->out_base + row * epi->row_stride + col0,
                static_cast<u64>(cols));
    }
  }
  if (c.base != nullptr && kcb > 0 && rows > 0) {
    // Accumulating a partial-K tile re-loads the C rows and adds them in
    // (the first K block's stores come free with the micro kernel's ST1s,
    // same as the unblocked scatter).
    ctx.tally(Op::kLd1, static_cast<u64>(rows) * vecs);
    ctx.tally(Op::kAdd, static_cast<u64>(rows) * vecs);
  }
  if (epi != nullptr) {
    // Fused epilogue cost: the fixed-point multiply + clamp per element and
    // the narrow i8 store per row.
    ctx.tally(Op::kScalar, static_cast<u64>(rows * cols) * 2);
    ctx.tally(Op::kSt1, static_cast<u64>(rows));
  }
}

// kWeightTables inner sweep for one packed (jc, kcb) block: 4 x 16
// row-major tiles (a slot is a C row, a lane a C column) against the
// weight tables, with the same assign/accumulate + fused-epilogue
// discipline as the column-major sweep below. Adjacent 16-column index
// panels of the band share each table load (the 32 x 4 tile). The stored
// source reads each row quad's K slice of the offline tables in place; the
// built source first copies it from the dictionary into the worker's
// panel that opens its block buffer (one copy per quad per column pass);
// the packed index block follows the panel.
void run_tbl_wt_block(Ctx& ctx, const TblAPanels& ta, const CTarget& c,
                      const BlockedLayout& lay, const GemmOptions& opt,
                      i8* buf, i32* tile, i64 n0, i64 nc, i64 k0,
                      i64 kcb) {
  const i64 groups_c = lay.tbl_groups(kcb);
  const int flush = tbl_flush_interval(lay.tbl_mode);
  const i64 q_total = round_up(nc, i64{16}) / 16;
  const i64 p4_total = ceil_div(lay.m, i64{4});
  const i64 panels4_per_mc = lay.blk.mc / 4;
  i8* panel = buf;
  const u8* idx = reinterpret_cast<const u8*>(buf + lay.tbl_panel_bytes());
  for (i64 icb = 0; icb < lay.m_blocks; ++icb) {
    const i64 p0 = icb * panels4_per_mc;
    const i64 p1 = std::min<i64>(p4_total, p0 + panels4_per_mc);
    for (i64 p = p0; p < p1; ++p) {
      const i8* tbl_slice = panel;
      if (lay.tbl_built()) {
        if (ctx.verifier != nullptr) {
          // The panel holds exactly what this copy writes, and the kernels
          // may read only that: re-registering clears its write record.
          const i32 bound = tbl_entry_bound(lay.tbl_mode);
          ctx.verifier->add_scratch_region(panel, groups_c * 4 * 16,
                                           "TBL table panel", -bound, bound);
        }
        copy_tbl_tables(ctx, lay.tbl_mode,
                        ta.ids_panel(p) + (k0 / lay.tbl_group) * 4,
                        groups_c * 4, panel);
      } else {
        tbl_slice = ta.table_panel(p) + (k0 / lay.tbl_group) * 4 * 16;
      }
      i64 pair = 0;
      for (i64 q = 0; q < q_total; q += pair) {
        pair = tbl_call_panels(q, q_total);
        if (pair == 2)
          micro_tbl_32x4(ctx, idx + q * groups_c * 16,
                         idx + (q + 1) * groups_c * 16, tbl_slice, groups_c,
                         flush, tile);
        else
          micro_tbl_16x4(ctx, idx + q * groups_c * 16, tbl_slice, groups_c,
                         flush, tile);
        for (i64 h = 0; h < pair; ++h) {
          const i64 row0 = p * 4;
          const i64 col0 = n0 + (q + h) * 16;
          const i64 rows = std::min<i64>(4, lay.m - row0);
          // Clip at the band end, not at n: when Nc % 16 != 0 the band's
          // last tile is partly padding, and the columns past n0 + nc belong
          // to the next band (another worker's, or the next rows of a fused
          // band).
          const i64 cols = std::min<i64>(16, n0 + nc - col0);
          // A 16-col i32 row span re-loads as four vectors.
          write_tile(ctx, lay, opt, c, tile + h * kMr * kNr, 16, 1, 4, row0,
                     col0, rows, cols, kcb);
        }
      }
    }
  }
}

// One worker's share of jc blocks: pack each (jc, kcb) B block, sweep all
// A panels against it, scatter/accumulate into C. Stops at the first
// block the TBL index encoder rejects and returns its Status.
Status run_block_range(Ctx& ctx, const APanels* pa, const SdotAPanels* sa,
                       const TblAPanels* ta, const BSource& src, i32* c,
                       const BlockedLayout& lay, const GemmOptions& opt,
                       i8* buf, i64 jc0, i64 jc1) {
  const int bits = opt.bits;
  // Two 16 x 4 tiles: the paired TBL tile fills both, other kernels the
  // first.
  alignas(64) i32 tile[2 * kMr * kNr] = {};
  const i32 qa = opt.a_max_abs > 0 ? opt.a_max_abs : qmax_for_bits(bits);
  const i32 qb = opt.b_max_abs > 0 ? opt.b_max_abs : qmax_for_bits(bits);
  if (ctx.verifier != nullptr) {
    // Tile values are partial dot products over at most K depth; the 32 x 4
    // TBL tile re-loads its own i32 sums after a second-level flush, and
    // the verifier seeds those loads from this bound.
    const i64 bound =
        std::min<i64>(lay.k * qa * qb, std::numeric_limits<i32>::max());
    ctx.verifier->add_region(tile, sizeof(tile), "gemm C tile", -bound,
                             bound);
  }
  const bool tbl_wt =
      lay.tbl() && lay.tbl_orient == TblOrientation::kWeightTables;
  const i64 panels_per_mc = lay.blk.mc / kMr;
  // The built TBL source's table panel opens the buffer; the packed block
  // follows it.
  i8* block = buf + lay.tbl_panel_bytes();
  for (i64 jc = jc0; jc < jc1; ++jc) {
    const i64 n0 = jc * lay.blk.nc;
    const i64 nc = lay.nc_eff(jc);
    const i64 nc_pad = round_up(nc, kNr);
    CTarget ct{c, lay.n, 0};
    if (opt.epilogue != nullptr)
      ct = lay.k_blocks > 1 ? CTarget{c, lay.blk.nc, n0} : CTarget{};
    for (i64 kcb = 0; kcb < lay.k_blocks; ++kcb) {
      const i64 k0 = kcb * lay.blk.kc;
      const i64 kc = lay.kc_eff(kcb);
      const i64 kstride = lay.k_stride(kcb);
      if (ctx.verifier != nullptr) {
        // Value bounds of the packed block: operand bytes by default, the
        // table-entry hull for online TBL tables, [0, 15] for TBL indices.
        i32 blo = -qb, bhi = qb;
        i64 bbytes = nc_pad * kstride;
        if (lay.tbl() && !tbl_wt) {
          const i32 bound = tbl_entry_bound(lay.tbl_mode);
          blo = -bound;
          bhi = bound;
        } else if (tbl_wt) {
          blo = 0;
          bhi = 15;
          bbytes = round_up(nc, i64{16}) * kstride;
        }
        ctx.verifier->add_region(block, bbytes, "packed B block", blo, bhi);
      }
      if (lay.tbl()) {
        if (!tbl_wt) {
          if (src.b != nullptr)
            pack_tbl_b_tables_block_into(&ctx, lay.tbl_mode, src.b, lay.k,
                                         lay.n, k0, kc, n0, nc, buf);
          else
            pack_tbl_b_tables_from_conv(&ctx, lay.tbl_mode, *src.shape,
                                        src.input, k0, kc, n0, nc, buf);
        } else {
          u8* idx_dst = reinterpret_cast<u8*>(block);
          LBC_RETURN_IF_ERROR(
              src.b != nullptr
                  ? pack_tbl_b_idx_block_into(&ctx, lay.tbl_mode, src.b,
                                              lay.k, lay.n, k0, kc, n0, nc,
                                              idx_dst)
                  : pack_tbl_b_idx_from_conv(&ctx, lay.tbl_mode, *src.shape,
                                             src.input, k0, kc, n0, nc,
                                             idx_dst));
          run_tbl_wt_block(ctx, *ta, ct, lay, opt, buf, tile, n0, nc, k0,
                           kcb);
          continue;
        }
      } else if (lay.sdot) {
        if (src.b != nullptr)
          pack_sdot_b_block_into(&ctx, src.b, lay.k, lay.n, k0, kc, n0, nc,
                                 buf);
        else
          pack_sdot_b_panels_from_conv(&ctx, *src.shape, src.input, k0, kc,
                                       n0, nc, buf);
      } else {
        if (src.b != nullptr)
          pack_b_block_into(&ctx, src.b, lay.k, lay.n, k0, kc, n0, nc, buf);
        else
          pack_b_panels_from_conv(&ctx, *src.shape, src.input, k0, kc, n0,
                                  nc, buf);
      }
      for (i64 icb = 0; icb < lay.m_blocks; ++icb) {
        const i64 p0 = icb * panels_per_mc;
        const i64 p1 = std::min<i64>(lay.m_panels(), p0 + panels_per_mc);
        // kActTables pairs adjacent row panels of the Mc block into the
        // 32 x 4 tile; every other kernel runs one panel at a time.
        i64 pair = 0;
        for (i64 p = p0; p < p1; p += pair) {
          pair = opt.kernel == ArmKernel::kTblGemm ? tbl_call_panels(p, p1)
                                                    : 1;
          // The packed-A K slice at depth k0 needs no repack: panel layout
          // is [K][kMr] (and [K4/4][kMr][4] for SDOT with k0 % 4 == 0, or
          // [groups][kMr] index bytes for TBL with k0 % group == 0), so
          // the slice is a plain pointer offset.
          const i8* a_slice =
              lay.tbl() ? nullptr
                        : (lay.sdot ? sa->panel(p) + k0 * kMr
                                    : pa->panel(p) + k0 * kMr);
          for (i64 q = 0; q < nc_pad / kNr; ++q) {
            const i8* b_panel = buf + q * kstride * kNr;
            switch (opt.kernel) {
              case ArmKernel::kOursGemm:
                if (opt.flush_override > 0)
                  micro_smlal_16x4(ctx, a_slice, b_panel, kc,
                                   opt.flush_override, tile);
                else if (bits <= 3)
                  micro_mla_16x4(ctx, a_slice, b_panel, kc,
                                 mla_flush_interval(bits), tile);
                else
                  micro_smlal_16x4(ctx, a_slice, b_panel, kc,
                                   smlal_flush_interval(bits), tile);
                break;
              case ArmKernel::kNcnn:
                micro_ncnn_16x4(ctx, a_slice, b_panel, kc, tile);
                break;
              case ArmKernel::kSdotExt:
                micro_sdot_16x4(ctx, a_slice, b_panel, kstride, tile);
                break;
              case ArmKernel::kTblGemm: {
                // kActTables: weight indices from the offline pack, product
                // tables from the online block pack; a lane is a C row and
                // a slot a C column, matching the scatter below.
                const i64 idx_off = (k0 / lay.tbl_group) * kMr;
                const int flush = tbl_flush_interval(lay.tbl_mode);
                if (pair == 2)
                  micro_tbl_32x4(ctx, ta->idx_panel(p) + idx_off,
                                 ta->idx_panel(p + 1) + idx_off, b_panel,
                                 lay.tbl_groups(kcb), flush, tile);
                else
                  micro_tbl_16x4(ctx, ta->idx_panel(p) + idx_off, b_panel,
                                 lay.tbl_groups(kcb), flush, tile);
                break;
              }
              case ArmKernel::kTraditional:
                LBC_CHECK_MSG(false, "kernel has its own entry point");
                break;
            }
            const i64 col0 = n0 + q * kNr;
            const i64 cols = std::min<i64>(kNr, n0 + nc - col0);
            for (i64 h = 0; h < pair; ++h) {
              const i64 row0 = (p + h) * kMr;
              const i64 rows = std::min<i64>(kMr, lay.m - row0);
              // Column-major tile; a 4-col i32 row span is one vector.
              write_tile(ctx, lay, opt, ct, tile + h * kMr * kNr, 1, kMr, 1,
                         row0, col0, rows, cols, kcb);
            }
          }
        }
      }
    }
  }
  return Status();
}

GemmStats run_blocked(const APanels* pa, const SdotAPanels* sa,
                      const TblAPanels* ta, const BSource& src, i32* c,
                      i64 m, i64 n, i64 k, const GemmOptions& opt) {
  LBC_CHECK_MSG(opt.blocking.enabled(),
                "blocked GEMM driver called with blocking disabled");
  const bool sdot = sa != nullptr;
  const BlockedLayout lay =
      ta != nullptr
          ? tbl_blocked_layout(m, n, k, opt.blocking, ta->mode, ta->orient,
                               ta->source)
          : blocked_layout(m, n, k, opt.blocking, sdot);
  LBC_CHECK_MSG(!sdot || lay.k_blocks == 1 || lay.blk.kc % 4 == 0,
                "SDOT blocked Kc must be a multiple of 4");
  LBC_CHECK_MSG(!lay.tbl() || lay.k_blocks == 1 ||
                    lay.blk.kc % lay.tbl_group == 0,
                "TBL blocked Kc must be a multiple of the mode's group");

  // With a fused epilogue `c` holds one C band per worker (none when one K
  // block covers K); otherwise it is the m x n matrix all workers share.
  const i64 band = opt.epilogue != nullptr ? lay.fused_band_elems() : 0;

  GemmStats stats;
  // Padding accounting matches the unblocked drivers: block partitioning
  // moves the padding around but adds none. The TBL layouts re-encode
  // rather than copy, so only the index-side padding bytes count.
  if (sdot)
    stats.pack_extra_elems =
        (sa->m_pad * sa->k_pad + lay.n_pad * round_up(k, 4)) - m * k - k * n;
  else if (ta != nullptr)
    stats.pack_extra_elems =
        lay.tbl_orient == TblOrientation::kActTables
            ? (ta->m_pad - m) * ta->groups()
            : (round_up(n, i64{16}) - n) * ta->groups();
  else
    stats.pack_extra_elems = pa->extra_elems() + (lay.n_pad * k - k * n);

  if (opt.verifier != nullptr) {
    const i32 qa = opt.a_max_abs > 0 ? opt.a_max_abs : qmax_for_bits(opt.bits);
    const i32 qb = opt.b_max_abs > 0 ? opt.b_max_abs : qmax_for_bits(opt.bits);
    if (sdot)
      opt.verifier->add_region(sa->data, sa->m_pad * sa->k_pad,
                               "packed SDOT A", -qa, qa);
    else if (ta != nullptr) {
      const i32 bound = tbl_entry_bound(ta->mode);
      if (lay.tbl_orient == TblOrientation::kActTables) {
        opt.verifier->add_region(ta->idx, ta->m_pad * ta->groups(),
                                 "packed TBL A indices", 0, 15);
      } else if (lay.tbl_built()) {
        // The ids index the mode's dictionary, which holds exactly
        // tbl_dict_size tables: an id past it reads outside this region.
        const int entries = tbl_dict_size(ta->mode);
        opt.verifier->add_region(ta->ids, ta->m_pad * ta->groups(),
                                 "packed TBL A table ids", 0, entries - 1);
        opt.verifier->add_region(tbl_dictionary(ta->mode), entries * 16,
                                 "TBL table dictionary", -bound, bound);
      } else {
        opt.verifier->add_region(ta->tables, ta->m_pad * ta->groups() * 16,
                                 "packed TBL A tables", -bound, bound);
      }
    } else
      opt.verifier->add_region(pa->data, pa->m_pad * pa->k, "packed A panels",
                               -qa, qa);
    if (src.b != nullptr)
      opt.verifier->add_region(src.b, k * n, "gemm B", -qb, qb);
    if (opt.epilogue == nullptr)
      opt.verifier->add_region(c, m * n * static_cast<i64>(sizeof(i32)),
                               "gemm C");
    else if (band > 0)  // checked execution runs one worker, so one band
      opt.verifier->add_region(c, band * static_cast<i64>(sizeof(i32)),
                               "fused C band");
    if (opt.epilogue != nullptr && opt.epilogue->out_base != nullptr)
      opt.verifier->add_region(
          opt.epilogue->out_base,
          (opt.epilogue->out_rows > 0 ? opt.epilogue->out_rows : m) *
              opt.epilogue->row_stride,
          "fused epilogue out");
  }

  const int threads =
      blocked_threads(lay, opt.threads, opt.verifier != nullptr);
  // Per-thread B-block scratch, drawn from the arena up front (a Workspace
  // is single-owner, so all draws happen before the workers start).
  std::vector<AlignedVector<i8>> own(static_cast<size_t>(threads));
  std::vector<i8*> bufs(static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t)
    bufs[static_cast<size_t>(t)] =
        block_scratch(opt, own[static_cast<size_t>(t)], lay.block_bytes());

  if (threads == 1) {
    Ctx ctx;
    ctx.verifier = opt.verifier;
    stats.status = run_block_range(ctx, pa, sa, ta, src, c, lay, opt,
                                   bufs[0], 0, lay.n_blocks);
    stats.counts = ctx.counts;
    stats.thread_counts = {ctx.counts};
  } else {
    // Column-band parallelism: each modeled worker owns a contiguous range
    // of jc blocks (a disjoint band of C columns) and its own Ctx + block
    // buffer. Packing is fused into the worker, so nothing stays serial.
    std::vector<Ctx> ctxs(static_cast<size_t>(threads));
    std::vector<Status> status(static_cast<size_t>(threads));
    const i64 per = ceil_div(lay.n_blocks, threads);
    serve::ThreadPool::global().parallel_for(
        0, threads, 1, [&](i64 t0, i64 t1) {
          for (i64 t = t0; t < t1; ++t) {
            const i64 jc0 = t * per;
            const i64 jc1 = std::min<i64>(lay.n_blocks, jc0 + per);
            if (jc0 < jc1)
              status[static_cast<size_t>(t)] = run_block_range(
                  ctxs[static_cast<size_t>(t)], pa, sa, ta, src,
                  band > 0 ? c + t * band : c, lay, opt,
                  bufs[static_cast<size_t>(t)], jc0, jc1);
          }
        });
    for (const auto& cx : ctxs) {
      stats.counts.merge(cx.counts);
      stats.thread_counts.push_back(cx.counts);
    }
    // The first worker's error in band order, so a run reports the same
    // Status whatever the scheduling.
    for (const Status& st : status)
      if (!st.ok()) {
        stats.status = st;
        break;
      }
  }
  return stats;
}

}  // namespace

GemmStats gemm_blocked_prepacked(const APanels& pa, const i8* b, i32* c,
                                 i64 m, i64 n, i64 k, const GemmOptions& opt) {
  return run_blocked(&pa, nullptr, nullptr, BSource{b, nullptr, nullptr}, c,
                     m, n, k, opt);
}

GemmStats gemm_blocked_sdot_prepacked(const SdotAPanels& pa, const i8* b,
                                      i32* c, i64 m, i64 n, i64 k,
                                      const GemmOptions& opt) {
  return run_blocked(nullptr, &pa, nullptr, BSource{b, nullptr, nullptr}, c,
                     m, n, k, opt);
}

GemmStats gemm_blocked_tbl_prepacked(const TblAPanels& ta, const i8* b,
                                     i32* c, i64 m, i64 n, i64 k,
                                     const GemmOptions& opt) {
  LBC_CHECK_MSG(opt.kernel == ArmKernel::kTblGemm,
                "gemm_blocked_tbl_prepacked: kernel must be kTblGemm");
  LBC_CHECK_MSG(ta.m == m && ta.k == k,
                "gemm_blocked_tbl_prepacked: packed TBL A geometry mismatch");
  return run_blocked(nullptr, nullptr, &ta, BSource{b, nullptr, nullptr}, c,
                     m, n, k, opt);
}

GemmStats gemm_s8s32_conv_fused(const APanels& pa, const ConvShape& s,
                                const i8* input, i32* c,
                                const GemmOptions& opt) {
  LBC_CHECK_MSG(opt.kernel == ArmKernel::kOursGemm ||
                    opt.kernel == ArmKernel::kNcnn,
                "gemm_s8s32_conv_fused: kernel does not use packed A panels");
  const i64 m = s.gemm_m(), n = s.gemm_n(), k = s.gemm_k();
  LBC_CHECK_MSG(pa.m == m && pa.k == k,
                "gemm_s8s32_conv_fused: packed A geometry mismatch");
  return run_blocked(&pa, nullptr, nullptr, BSource{nullptr, &s, input}, c,
                     m, n, k, opt);
}

GemmStats gemm_s8s32_sdot_conv_fused(const SdotAPanels& pa, const ConvShape& s,
                                     const i8* input, i32* c,
                                     const GemmOptions& opt) {
  const i64 m = s.gemm_m(), n = s.gemm_n(), k = s.gemm_k();
  LBC_CHECK_MSG(pa.m == m && pa.k == k,
                "gemm_s8s32_sdot_conv_fused: packed A geometry mismatch");
  return run_blocked(nullptr, &pa, nullptr, BSource{nullptr, &s, input}, c,
                     m, n, k, opt);
}

GemmStats gemm_s8s32_tbl_conv_fused(const TblAPanels& ta, const ConvShape& s,
                                    const i8* input, i32* c,
                                    const GemmOptions& opt) {
  LBC_CHECK_MSG(opt.kernel == ArmKernel::kTblGemm,
                "gemm_s8s32_tbl_conv_fused: kernel must be kTblGemm");
  const i64 m = s.gemm_m(), n = s.gemm_n(), k = s.gemm_k();
  LBC_CHECK_MSG(ta.m == m && ta.k == k,
                "gemm_s8s32_tbl_conv_fused: packed TBL A geometry mismatch");
  return run_blocked(nullptr, nullptr, &ta, BSource{nullptr, &s, input}, c,
                     m, n, k, opt);
}

}  // namespace lbc::armkern
