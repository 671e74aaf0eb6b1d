// Mc/Kc/Nc cache-blocked conv GEMM driver for the low-bit micro kernels
// (gemm_s8s32_conv_blocked): the executing visitor of the blocked schedule
// (blocking.h, walk_blocked). Its one B source is the conv input, gathered
// through the im2col mapping one block at a time (fused im2col packing);
// a plain K x N GEMM runs as the 1x1 conv whose input is B.
//
// Loop nest (BLIS order, QNNPACK-style for low-bit):
//   jc  — Nc column blocks; the threading dimension (disjoint C bands),
//         each worker walks its own range of them
//   kcb — Kc depth blocks; ONE Kc x Nc B block is gathered per (jc, kcb)
//         into a small reusable scratch buffer that stays L1-resident
//   icb — Mc row blocks; the A panel slices for this Kc block re-stream
//         from L2 instead of DRAM
//   p,q — micro tiles: 16 x 4 column-major, or 4 x 16 row-major against
//         weight tables
//
// TBL pairs panels into the 32 x 4 tile (micro_tbl_32x4), where one table
// load serves two index vectors: adjacent row panels inside an Mc block
// under kActTables, adjacent 16-column index panels inside a band under
// kWeightTables. An odd last panel keeps the 16 x 4 tile. The built TBL
// source either copies a row quad's tables for the current K block from the
// dictionary into the worker's panel that opens its block buffer before
// sweeping the quad's column panels, or, where the layout prices that
// lower (BlockedLayout::tbl_direct), has each micro call read them straight
// from the dictionary by the quad's ids; the stored source reads them in
// place.
//
// The micro kernels are unchanged: they zero their accumulators and
// overwrite the scratch tile, so the driver scatter assigns on the first K
// block and accumulates (plain i32 adds) afterwards — bit-exact with the
// unblocked full-K sweep in any block order. The accumulate's extra C
// re-load/add per tile row is tallied; the first block's stores ride on the
// micro kernel's ST1s exactly like the unblocked scatter.
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
// read must follow a write of this copy. The built source's ids and the
// dictionary, which the copy and the direct reads both read, are
// registered once, with their bounds.
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

void run_micro(Ctx& ctx, const MicroKernel& mk, i64 kc,
               const MicroOperands& op, i32* tile) {
  switch (mk.kernel) {
    case ArmKernel::kOursGemm:
      if (mk.flush_override > 0)
        micro_smlal_16x4(ctx, op.a, op.b, kc, mk.flush_override, tile);
      else if (mk.bits <= 3)
        micro_mla_16x4(ctx, op.a, op.b, kc, mla_flush_interval(mk.bits), tile);
      else
        micro_smlal_16x4(ctx, op.a, op.b, kc, smlal_flush_interval(mk.bits),
                         tile);
      break;
    case ArmKernel::kNcnn:
      micro_ncnn_16x4(ctx, op.a, op.b, kc, tile);
      break;
    case ArmKernel::kSdotExt:
      micro_sdot_16x4(ctx, op.a, op.b, round_up(kc, 4), tile);
      break;
    case ArmKernel::kTblGemm: {
      const i64 groups = ceil_div(kc, static_cast<i64>(tbl_group(mk.tbl_mode)));
      const int flush = tbl_flush_interval(mk.tbl_mode);
      const TblTables tables{op.b, op.ids, op.dict};
      if (op.idx1 != nullptr)
        micro_tbl_32x4(ctx, op.idx0, op.idx1, tables, groups, flush, tile);
      else
        micro_tbl_16x4(ctx, op.idx0, tables, groups, flush, tile);
      break;
    }
    case ArmKernel::kTraditional:
      LBC_CHECK_MSG(false, "kernel has its own entry point");
      break;
  }
}

namespace {

// One worker's walk of the blocked schedule: gathers each (jc, kcb) B block
// from the conv input, runs every micro call against it and hands each tile
// to C (BlockedLayout::c_offset) and the fused epilogue.
struct Execute {
  Ctx& ctx;
  const APanels* pa;
  const SdotAPanels* sa;
  const TblAPanels* ta;
  const ConvShape& s;
  const i8* input;
  i32* c;
  const BlockedLayout& lay;
  const GemmOptions& opt;
  MicroKernel mk;
  i32 qb;
  // The built TBL source's table panel opens the buffer; the packed block
  // follows it.
  i8* panel;
  i8* block;
  // Two 16 x 4 tiles: the paired TBL tile fills both, other kernels the
  // first.
  alignas(64) i32 tile[2 * kMr * kNr] = {};

  Status pack(const BlockStep& b) {
    const bool tbl_wt = lay.tbl_weight_tables();
    if (ctx.verifier != nullptr) {
      // Value bounds of the packed block: operand bytes by default, the
      // table-entry hull for online TBL tables, [0, 15] for TBL indices.
      i32 blo = -qb, bhi = qb;
      if (lay.tbl()) {
        blo = tbl_wt ? 0 : -tbl_entry_bound(lay.tbl_mode);
        bhi = tbl_wt ? 15 : tbl_entry_bound(lay.tbl_mode);
      }
      const i64 bytes = round_up(b.nc, lay.tile_cols()) * b.kstride;
      ctx.verifier->add_region(block, bytes, "packed B block", blo, bhi);
    }
    if (tbl_wt)
      return pack_tbl_b_idx_from_conv(&ctx, lay.tbl_mode, s, input, b.k0,
                                      b.kc, b.n0, b.nc,
                                      reinterpret_cast<u8*>(block));
    if (lay.tbl())
      pack_tbl_b_tables_from_conv(&ctx, lay.tbl_mode, s, input, b.k0, b.kc,
                                  b.n0, b.nc, block);
    else if (lay.sdot)
      pack_sdot_b_panels_from_conv(&ctx, s, input, b.k0, b.kc, b.n0, b.nc,
                                   block);
    else
      pack_b_panels_from_conv(&ctx, s, input, b.k0, b.kc, b.n0, b.nc, block);
    return Status();
  }

  void copy_tables(const BlockStep& b, i64 p) {
    const i64 tables = b.groups * 4;
    if (ctx.verifier != nullptr) {
      // The panel holds exactly what this copy writes, and the kernels may
      // read only that: re-registering clears its write record.
      const i32 bound = tbl_entry_bound(lay.tbl_mode);
      ctx.verifier->add_scratch_region(panel, tables * 16, "TBL table panel",
                                       -bound, bound);
    }
    copy_tbl_tables(ctx, lay.tbl_mode, ta->ids_panel(p) + b.g0 * 4, tables,
                    panel);
  }

  void micro(const BlockStep& b, const MicroStep& call) {
    // The packed-A K slice at depth k0 needs no repack: panel layout is
    // [K][kMr] (and [K4/4][kMr][4] for SDOT with k0 % 4 == 0, or
    // [groups][kMr] index bytes / [groups][4] tables for TBL with
    // k0 % group == 0), so the slice is a plain pointer offset.
    const i8* b_panel = block + call.q * b.kstride * lay.tile_cols();
    MicroOperands op;
    if (!lay.tbl()) {
      op.a = (lay.sdot ? sa->panel(call.p) : pa->panel(call.p)) + b.k0 * kMr;
      op.b = b_panel;
    } else if (!lay.tbl_weight_tables()) {
      // kActTables: weight indices from the offline pack, product tables
      // from the online block pack; a lane is a C row and a slot a C
      // column.
      const i64 idx_off = b.g0 * kMr;
      op.idx0 = ta->idx_panel(call.p) + idx_off;
      if (call.pair == 2) op.idx1 = ta->idx_panel(call.p + 1) + idx_off;
      op.b = b_panel;
    } else {
      // kWeightTables: activation indices from the block, the row quad's
      // tables from the offline pack (stored), the panel (built, copied) or
      // the dictionary its ids name (built, direct).
      const u8* idx = reinterpret_cast<const u8*>(b_panel);
      op.idx0 = idx;
      if (call.pair == 2) op.idx1 = idx + b.kstride * 16;
      if (lay.tbl_direct) {
        op.ids = ta->ids_panel(call.p) + b.g0 * 4;
        op.dict = tbl_dictionary(lay.tbl_mode);
      } else {
        op.b = lay.tbl_built() ? panel : ta->table_panel(call.p) + b.g0 * 64;
      }
    }
    run_micro(ctx, mk, b.kc, op, tile);
  }

  // Element (ii, jj) of the finished tile is tile[ii * rs + jj * cs]: the
  // column-major tile has rs = 1, cs = kMr, the weight-tables row-major
  // one rs = 16, cs = 1. After the last K block each row segment goes
  // straight on to the fused epilogue, if any, while it is cache-resident.
  void write_tile(const BlockStep& b, const TileStep& t) {
    const TileEpilogue* epi =
        b.kcb == lay.k_blocks - 1 ? opt.epilogue : nullptr;
    const BlockedSchedule schedule = opt.epilogue != nullptr
                                         ? BlockedSchedule::kFused
                                         : BlockedSchedule::kStandalone;
    const bool wt = lay.tbl_weight_tables();
    const i64 rs = wt ? 16 : 1, cs = wt ? 1 : kMr;
    const i32* src_tile = tile + t.h * kMr * kNr;
    alignas(64) i32 direct[16] = {};  // a tile row, when there is no C
    for (i64 ii = 0; ii < t.rows; ++ii) {
      const i64 row = t.row0 + ii;
      const i64 c_off = lay.c_offset(schedule, b.n0, row, t.col0);
      const i32* acc = direct;
      if (c_off >= 0) {
        i32* crow = c + c_off;
        ctx.mem(crow, static_cast<u64>(t.cols) * 4);
        for (i64 jj = 0; jj < t.cols; ++jj) {
          const i32 v = src_tile[ii * rs + jj * cs];
          crow[jj] = b.kcb == 0 ? v : crow[jj] + v;
        }
        acc = crow;
      } else if (epi != nullptr) {
        for (i64 jj = 0; jj < t.cols; ++jj)
          direct[jj] = src_tile[ii * rs + jj * cs];
      }
      if (epi != nullptr) {
        epi->fn(row, t.col0, t.cols, acc);
        if (epi->out_base != nullptr)
          ctx.mem(epi->out_base + row * epi->row_stride + t.col0,
                  static_cast<u64>(t.cols));
      }
    }
    tally_tile_writeback(ctx.counts, lay, opt.epilogue != nullptr, t.rows,
                         t.cols, b.kcb);
  }
};

// One worker's share of jc blocks. Stops at the first block the TBL index
// encoder rejects and returns its Status.
Status run_block_range(Ctx& ctx, const APanels* pa, const SdotAPanels* sa,
                       const TblAPanels* ta, const ConvShape& s,
                       const i8* input, i32* c, const BlockedLayout& lay,
                       const GemmOptions& opt, i8* buf, i64 jc0, i64 jc1) {
  const i32 qa = opt.a_max_abs > 0 ? opt.a_max_abs : qmax_for_bits(opt.bits);
  const i32 qb = opt.b_max_abs > 0 ? opt.b_max_abs : qmax_for_bits(opt.bits);
  Execute ex{ctx, pa, sa, ta, s, input, c, lay, opt,
             MicroKernel{opt.kernel, opt.bits, opt.flush_override,
                         lay.tbl_mode},
             qb, buf, buf + lay.tbl_panel_bytes()};
  if (ctx.verifier != nullptr) {
    // Tile values are partial dot products over at most K depth; the 32 x 4
    // TBL tile re-loads its own i32 sums after a second-level flush, and
    // the verifier seeds those loads from this bound.
    const i64 bound =
        std::min<i64>(lay.k * qa * qb, std::numeric_limits<i32>::max());
    ctx.verifier->add_region(ex.tile, sizeof(ex.tile), "gemm C tile", -bound,
                             bound);
  }
  return walk_blocked(lay, jc0, jc1, ex);
}

}  // namespace

GemmStats gemm_s8s32_conv_blocked(const KernelAPanels& a, const ConvShape& s,
                                  const i8* input, i32* c,
                                  const GemmOptions& opt) {
  LBC_CHECK_MSG(opt.blocking.enabled(),
                "blocked GEMM driver called with blocking disabled");
  const i64 m = s.gemm_m(), n = s.gemm_n(), k = s.gemm_k();
  LBC_CHECK_MSG(packed_a_fits(a, opt.kernel, m, k),
                "gemm_s8s32_conv_blocked: packed A is not the kernel's "
                "layout of the conv's weight matrix");
  const APanels* pa = std::get_if<APanels>(&a);
  const SdotAPanels* sa = std::get_if<SdotAPanels>(&a);
  const TblAPanels* ta = std::get_if<TblAPanels>(&a);
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
  // Per-thread B-block scratch: the caller's carved buffers, or drawn from
  // the arena up front (a Workspace is single-owner, so all draws happen
  // before the workers start).
  std::vector<AlignedVector<i8>> own(static_cast<size_t>(threads));
  std::vector<i8*> bufs(static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t)
    bufs[static_cast<size_t>(t)] =
        opt.block_buffers != nullptr
            ? opt.block_buffers + t * workspace_rounded(lay.block_elems())
            : gemm_scratch(opt, own[static_cast<size_t>(t)],
                           lay.block_elems());

  if (threads == 1) {
    Ctx ctx;
    ctx.verifier = opt.verifier;
    stats.status = run_block_range(ctx, pa, sa, ta, s, input, c, lay, opt,
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
                  ctxs[static_cast<size_t>(t)], pa, sa, ta, s, input,
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

}  // namespace lbc::armkern
