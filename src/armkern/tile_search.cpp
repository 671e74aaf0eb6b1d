#include "armkern/tile_search.h"

#include <algorithm>
#include <array>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <tuple>
#include <vector>

#include "armkern/conv_arm.h"
#include "armkern/gemm_blocked.h"
#include "armsim/cache.h"
#include "armsim/cost_model.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "serve/thread_pool.h"

namespace lbc::armkern {

using namespace armsim;

namespace {

// Guards the memo maps and the stats only: searches and replays run
// outside it, so independent searches proceed concurrently.
Mutex g_mu;
// Signalled whenever an in-flight search leaves g_searching.
CondVar g_searched;
TileSearchStats g_stats LBC_GUARDED_BY(g_mu);
std::map<std::string, GemmBlocking> g_winners LBC_GUARDED_BY(g_mu);
// Keys some thread is searching right now. A second caller of the same key
// waits for that winner instead of searching it again.
std::set<std::string> g_searching LBC_GUARDED_BY(g_mu);

// A search's claim on its key in g_searching, dropped however the search
// ends: a waiter then finds the winner, or searches the key itself if the
// search threw.
struct SearchClaim {
  const std::string& key;
  ~SearchClaim() {
    {
      MutexLock lock(g_mu);
      g_searching.erase(key);
    }
    g_searched.notify_all();
  }
};
// Per-(geometry, kc, nc, layout) replay result, shared across bits and
// schemes: the SMLAL/MLA/ncnn kernels issue an identical load pattern.
struct ReplayMisses {
  u64 l1 = 0, l2 = 0;
};
std::map<std::string, ReplayMisses> g_replays LBC_GUARDED_BY(g_mu);

std::string geometry_key(const ConvShape& s) {
  std::ostringstream os;
  os << s.batch << 'x' << s.in_c << 'x' << s.in_h << 'x' << s.in_w << ">"
     << s.out_c << "k" << s.kernel << "s" << s.stride << "p" << s.pad;
  return os.str();
}


// Instruction mix of ONE micro-kernel call at depth kc (the paired 32x4
// tile for a paired TBL call; `direct`: reading built weight tables from
// the dictionary by id), measured by running the emulated kernel on dummy
// zeroed buffers with the cache model off (issue cost only; stalls come
// from the replay). Both TBL orientations issue the identical pattern; the
// mode sets the byte-lane flush cadence. Memoized: a search prices the
// same few calls for every candidate.
using ProbeKey = std::tuple<int, int, int, size_t, i64, bool, bool>;
std::map<ProbeKey, Counters> g_probes LBC_GUARDED_BY(g_mu);

Counters probe_micro(const MicroKernel& mk, i64 kc, bool paired,
                     bool direct = false) LBC_EXCLUDES(g_mu) {
  // Depth steps: SDOT pads K to 4; TBL steps one index group at a time.
  const bool tbl = mk.kernel == ArmKernel::kTblGemm;
  const ProbeKey key{static_cast<int>(mk.kernel), mk.bits, mk.flush_override,
                     tbl ? tbl_mode_slot(mk.tbl_mode) : 0, kc, paired, direct};
  {
    MutexLock lock(g_mu);
    if (const auto it = g_probes.find(key); it != g_probes.end())
      return it->second;
  }
  const i64 steps = std::max<i64>(
      tbl ? ceil_div(kc, static_cast<i64>(tbl_group(mk.tbl_mode)))
          : round_up(kc, 4),
      1);
  AlignedVector<i8> a(static_cast<size_t>(steps * kMr));
  // A B panel, or four 16-entry tables per TBL group step.
  AlignedVector<i8> b(static_cast<size_t>(steps * (tbl ? 64 : kNr)));
  AlignedVector<u8> idx(static_cast<size_t>(tbl ? steps * 16 : 0));
  // One row quad's ids per group step, all naming the dictionary's table 0.
  AlignedVector<u8> ids(static_cast<size_t>(direct ? steps * 4 : 0));
  alignas(64) i32 tile[2 * kMr * kNr];
  Ctx ctx;
  ctx.model_cache = false;
  const MicroOperands op{a.data(),
                         b.data(),
                         idx.data(),
                         paired ? idx.data() : nullptr,
                         direct ? ids.data() : nullptr,
                         direct ? tbl_dictionary(mk.tbl_mode) : nullptr};
  run_micro(ctx, mk, kc, op, tile);
  MutexLock lock(g_mu);
  g_probes.emplace(key, ctx.counts);
  return ctx.counts;
}

// The TBL mode the search prices a conv in. Weight values are unseen, so
// it assumes non-ternary 3-bit weights (the conservative mode; 2-bit is
// always paired) — pack-time detection can only improve on the priced
// plan. The input range is the conv's own, and folds the weight-tables
// orientation's index side when non-negative.
TblMode priced_tbl_mode(i64 m, i64 n, i64 k, int bits, InputRange input,
                        TblOrientation* orient = nullptr) {
  const TblOrientation o = choose_tbl_orientation(m, n, k, bits, false, input);
  if (orient != nullptr) *orient = o;
  return tbl_mode_for(o, bits, false, input);
}

BlockedLayout layout_for(i64 m, i64 n, i64 k, const GemmBlocking& blocking,
                         ArmKernel kernel, int bits, InputRange input,
                         TblSource source) {
  if (kernel == ArmKernel::kTblGemm) {
    TblOrientation o = TblOrientation::kActTables;
    const TblMode mode = priced_tbl_mode(m, n, k, bits, input, &o);
    return tbl_blocked_layout(m, n, k, blocking, mode, o, source);
  }
  return blocked_layout(m, n, k, blocking, kernel == ArmKernel::kSdotExt);
}

// Line-granular trace replay of the blocked schedule into a fresh
// CacheSim. Synthetic disjoint region bases stand in for the real
// buffers; the model only keys on line identity (cache.h), so the miss
// counts match what the emulated run would see for the same schedule.
struct Replay {
  CacheSim sim;

  void touch(u64 addr, u64 bytes) {
    if (bytes == 0) return;
    const u64 first = addr / CacheSim::kLineBytes;
    const u64 last = (addr + bytes - 1) / CacheSim::kLineBytes;
    for (u64 ln = first; ln <= last; ++ln)
      sim.access(reinterpret_cast<const void*>(ln * CacheSim::kLineBytes), 1);
  }
};

constexpr u64 kBaseA = u64{1} << 40;
constexpr u64 kBaseB = u64{2} << 40;
constexpr u64 kBaseC = u64{3} << 40;
constexpr u64 kBaseIn = u64{4} << 40;
// The driver's per-thread i32 micro-kernel scratch tile: 256 B (4 L1
// lines) per 16x4 tile, both halves (512 B) for a paired TBL call. It is
// written through ST1 on every micro call, so those lines stay resident —
// near the L1 capacity cliff that residency decides whether a schedule's
// table/panel set survives between row panels, and omitting it made the
// replay optimistic exactly where reality thrashes.
constexpr u64 kBaseTile = u64{5} << 40;
constexpr u64 kTileBytes = kMr * kNr * 4;
// Per-layer spacing inside a region for the chained graph replay: layers
// get disjoint weight/activation sub-regions 16 GiB apart.
constexpr u64 kLayerStride = u64{1} << 34;
// The built TBL source's dictionaries: one per mode, shared by every layer
// and laid out like the real tbl_dictionary storage.
constexpr u64 kBaseDict = u64{6} << 40;
u64 dict_base(TblMode m) {
  return kBaseDict + tbl_mode_slot(m) * kTblDictBytes;
}

// Synthetic buffer bases one schedule replay runs against. The chained
// graph replay points layer i's `in` at layer i-1's `out` (the fused
// epilogue's i8 activations) and shares `b`/`c` across layers (the pack
// block and C scratch are recycled buffers).
struct ReplayBases {
  u64 a = kBaseA;
  u64 b = kBaseB;
  u64 c = kBaseC;
  u64 in = kBaseIn;
  u64 out = 0;  ///< fused-epilogue i8 output; 0 = not modeled
};

// GEMMs of at most this many MACs replay every column block; larger ones
// replay block 0 and one line period of blocks after it, and extrapolate.
// A small GEMM's misses are mostly first touches of input and output
// lines, which follow the band's position in the image rather than
// repeat: e.g. an 8x14x14 -> 8 3x3 conv at Nc = 32 misses 73, 12 and 4
// lines in its first three blocks and 103 over all seven, where block 1
// extrapolated gives 145. Extrapolation misprices large GEMMs too (the
// ResNet-50 256 -> 128 1x1 stride-2 conv at {64, 256, 128} scored 5% over
// its full replay), but the cut-off is set by the search's time:
// replaying every block of every conv made the
// perfbench ResNet-50 2-bit compile take 1.84-2.13 s against 1.02-1.34 s
// (three alternating runs on a 4-core x86-64 host), for a forward 1.5%
// faster (71.38 against 72.44 a53_ms). No fig07, fig09 or perfbench conv
// is at or below the cut-off.
constexpr i64 kFullReplayMacs = i64{1} << 22;

// Column blocks in one line period of a block's output rows: the least p
// for which p * Nc columns fill whole 64-byte lines of the fused i8 output
// (and so of the i32 C). A block narrower than a line shares its lines with
// its neighbours, so consecutive blocks miss differently: at Nc = 32 the
// odd blocks find the lines the even ones brought in, and the even ones go
// to DRAM. Nc is a multiple of kNr = 4, so the period never exceeds 16
// blocks.
constexpr i64 kMaxReplayPeriod = 16;
i64 replay_period(i64 nc) {
  i64 p = 1;
  while (p < kMaxReplayPeriod && (p * nc) % CacheSim::kLineBytes != 0) ++p;
  return p;
}

// The replay visitor of walk_blocked: the cache lines each event touches,
// in the driver's order, against the synthetic bases.
struct ReplayWalk {
  Replay& r;
  const ConvShape& s;
  const BlockedLayout& lay;
  const ReplayBases& bases;
  BlockedSchedule schedule;
  // Offline-A stride per panel: plain/SDOT i8 panels, TBL index panels (16
  // bytes per group step), TBL weight tables (64 per row-quad group step)
  // or their built-source ids (4).
  i64 a_panel_stride = 0;
  // The built source's table panel opens the block buffer; the packed
  // block follows it.
  u64 block = 0;

  ReplayWalk(Replay& r_, const ConvShape& s_, const BlockedLayout& l,
             const ReplayBases& b, BlockedSchedule sch)
      : r(r_), s(s_), lay(l), bases(b), schedule(sch),
        block(b.b + static_cast<u64>(l.tbl_panel_bytes())) {
    const i64 groups = l.tbl() ? ceil_div(l.k, static_cast<i64>(l.tbl_group))
                               : 0;
    a_panel_stride =
        l.tbl() ? groups * (l.tbl_weight_tables() ? (l.tbl_built() ? 4 : 64)
                                                  : 16)
                : (l.sdot ? round_up(l.k, 4) : l.k) * kMr;
  }

  Status pack(const BlockStep& b) {
    for_each_gather_span(s, b.k0, b.kc, b.n0, b.nc, [&](i64 off, i64 bytes) {
      r.touch(bases.in + static_cast<u64>(off), static_cast<u64>(bytes));
    });
    r.touch(block,
            static_cast<u64>(round_up(b.nc, lay.tile_cols()) * b.kstride));
    return Status();
  }

  // The quad's ids for the block's group steps and the dictionary (its
  // lines by id, which the replay cannot see: all of them).
  void touch_ids_and_dictionary(const BlockStep& b, i64 p) {
    r.touch(bases.a + static_cast<u64>(p * a_panel_stride + b.g0 * 4),
            static_cast<u64>(b.groups * 4));
    r.touch(dict_base(lay.tbl_mode),
            static_cast<u64>(tbl_dict_size(lay.tbl_mode) * 16));
  }

  // The copy reads the ids and the dictionary and writes the panel the
  // kernels then read.
  void copy_tables(const BlockStep& b, i64 p) {
    touch_ids_and_dictionary(b, p);
    r.touch(bases.b, static_cast<u64>(b.groups * 64));
  }

  void micro(const BlockStep& b, const MicroStep& call) {
    const u64 b_panel =
        block + static_cast<u64>(call.q * b.kstride * lay.tile_cols());
    if (lay.tbl()) {
      // Per group step: one 64-byte table line, and one 16-byte index
      // vector per panel (a line per four steps).
      u64 tables = b_panel;
      u64 idx = bases.a + static_cast<u64>(call.p * a_panel_stride + b.g0 * 16);
      u64 idx_stride = static_cast<u64>(a_panel_stride);
      if (lay.tbl_weight_tables()) {
        tables = lay.tbl_built()
                     ? bases.b
                     : bases.a + static_cast<u64>(call.p * a_panel_stride +
                                                  b.g0 * 64);
        idx = b_panel;
        idx_stride = static_cast<u64>(b.kstride * 16);
      }
      // Direct reads take every group step's tables from the dictionary by
      // the quad's ids instead of a table line per step.
      if (lay.tbl_direct) touch_ids_and_dictionary(b, call.p);
      for (i64 gs = 0; gs < b.groups; ++gs) {
        if (!lay.tbl_direct)
          r.touch(tables + static_cast<u64>(gs * 64), CacheSim::kLineBytes);
        if (gs % 4 == 0)
          for (i64 h = 0; h < call.pair; ++h)
            r.touch(idx + static_cast<u64>(h) * idx_stride +
                        static_cast<u64>(gs * 16),
                    CacheSim::kLineBytes);
      }
    } else {
      // The micro kernel's load pattern at line granularity: one A line per
      // four depth steps, one B line per sixteen.
      const u64 a_slice =
          bases.a + static_cast<u64>(call.p * a_panel_stride + b.k0 * kMr);
      for (i64 kk = 0; kk < b.kstride; kk += 4) {
        r.touch(a_slice + static_cast<u64>(kk * kMr), CacheSim::kLineBytes);
        if (kk % 16 == 0)
          r.touch(b_panel + static_cast<u64>(kk * kNr), CacheSim::kLineBytes);
      }
    }
    // micro ST1s into the tile
    r.touch(kBaseTile, static_cast<u64>(call.pair) * kTileBytes);
  }

  // Per row, the C row segment (unless there is no C), then on the last K
  // block the epilogue's i8 output row (when modeled): the lines the next
  // layer's gather finds warm.
  void write_tile(const BlockStep& b, const TileStep& t) {
    for (i64 ii = 0; ii < t.rows; ++ii) {
      const i64 c = lay.c_offset(schedule, b.n0, t.row0 + ii, t.col0);
      if (c >= 0)
        r.touch(bases.c + static_cast<u64>(c * 4),
                static_cast<u64>(t.cols * 4));
      if (b.kcb == lay.k_blocks - 1 && bases.out != 0)
        r.touch(bases.out + static_cast<u64>((t.row0 + ii) * lay.n + t.col0),
                static_cast<u64>(t.cols));
    }
  }
};

// Simulate the jc column blocks and sum their misses, or — past
// kFullReplayMacs — block 0 and the `period` blocks after it, and
// extrapolate: block 0 carries the cold misses, and block j of the period
// stands for every later block in its phase (j, j + period, ...). Blocks
// one line period apart miss alike, where neighbours need not (block 1
// alone counted 0 L2 misses for the perfbench ResNet-50 n3 at
// {64, 64, 32}, block 2 counted 320). `r` may carry state from earlier
// layers (the chained graph replay); the per-block deltas are measured
// against it.
ReplayMisses replay_schedule_at(Replay& r, const ConvShape& s,
                                const BlockedLayout& lay,
                                const ReplayBases& bases,
                                BlockedSchedule schedule) {
  ReplayWalk walk(r, s, lay, bases, schedule);
  const bool full = lay.m * lay.k * lay.n <= kFullReplayMacs;
  const i64 period = full ? std::max<i64>(lay.n_blocks - 1, 1)
                          : replay_period(lay.blk.nc);
  const i64 sim_blocks = std::min(lay.n_blocks, period + 1);
  ReplayMisses misses;
  for (i64 jc = 0; jc < sim_blocks; ++jc) {
    const u64 l1_before = r.sim.stats().l1_misses;
    const u64 l2_before = r.sim.stats().l2_misses;
    walk_blocked(lay, jc, jc + 1, walk);
    // The blocks in jc's phase: jc itself, then every period-th after it.
    const u64 times =
        jc == 0 ? 1
                : static_cast<u64>((lay.n_blocks - jc + period - 1) / period);
    misses.l1 += (r.sim.stats().l1_misses - l1_before) * times;
    misses.l2 += (r.sim.stats().l2_misses - l2_before) * times;
  }
  return misses;
}

// Cold-cache replay of one layer under `schedule` (the fused schedule
// also writes the epilogue's output), memoized. The replay runs outside the
// lock; two threads that miss the same key at once both replay it and
// store the same value.
ReplayMisses replay_memoized(const ConvShape& s, const BlockedLayout& lay,
                             BlockedSchedule schedule) LBC_EXCLUDES(g_mu) {
  const bool fused = schedule == BlockedSchedule::kFused;
  std::ostringstream os;
  os << geometry_key(s) << "|kc" << lay.blk.kc << "nc" << lay.blk.nc
     << (lay.sdot ? "|sdot" : "");
  if (lay.tbl())
    os << (lay.tbl_orient == TblOrientation::kActTables ? "|tblA" : "|tblB")
       << lay.tbl_group;
  // Act tables pair row panels inside each Mc block, so there the touch
  // sequence depends on Mc too.
  if (lay.tbl() && !lay.tbl_weight_tables()) os << "|mc" << lay.blk.mc;
  // The built source reads its mode's dictionary, whose size (and so its
  // lines) the group alone does not fix, by copy or directly.
  if (lay.tbl_built())
    os << "|built" << static_cast<int>(lay.tbl_mode.fold) << lay.tbl_mode.bits
       << (lay.tbl_direct ? "direct" : "");
  if (fused) os << "|fused";
  const std::string key = os.str();
  {
    MutexLock lock(g_mu);
    if (const auto it = g_replays.find(key); it != g_replays.end())
      return it->second;
  }
  // The fused replay writes the epilogue's output where a chain's layer 0
  // does, so the cold per-layer fused score equals a one-layer chained
  // score.
  ReplayBases bases;
  if (fused) bases.out = kBaseIn + kLayerStride;
  Replay r;
  const ReplayMisses m = replay_schedule_at(r, s, lay, bases, schedule);
  MutexLock lock(g_mu);
  g_replays.emplace(key, m);
  return m;
}

// The tally visitor of walk_blocked: micro calls counted per (K block
// depth, paired), and the pack, table-copy and writeback tallies the
// driver's events make.
struct Tally {
  const BlockedLayout& lay;
  bool epilogue;
  Ctx ctx;
  // [tail K block][paired]: every non-final K block is blk.kc deep, the
  // final one may be a tail.
  u64 calls[2][2] = {};

  Tally(const BlockedLayout& l, bool epi) : lay(l), epilogue(epi) {
    ctx.model_cache = false;
  }

  Status pack(const BlockStep& b) {
    // Fused gather (plain/SDOT), gather + online table build (TBL
    // kActTables), or index encode (TBL kWeightTables).
    const i64 cols = round_up(b.nc, lay.tile_cols());
    if (lay.tbl_weight_tables()) {
      tally_pack_im2col_gather(&ctx, cols * b.groups * lay.tbl_group);
    } else if (lay.tbl()) {
      tally_pack_tbl_tables(&ctx, cols * b.groups);
      tally_pack_im2col_gather(&ctx, cols * b.kc);
    } else {
      tally_pack_im2col_gather(&ctx, cols * b.kstride);
    }
    return Status();
  }
  void copy_tables(const BlockStep& b, i64) {
    tally_tbl_table_copy(ctx.counts, 4 * b.groups);
  }
  void micro(const BlockStep& b, const MicroStep& call) {
    ++calls[b.kc != lay.blk.kc ? 1 : 0][call.pair - 1];
  }
  void write_tile(const BlockStep& b, const TileStep& t) {
    tally_tile_writeback(ctx.counts, lay, epilogue, t.rows, t.cols, b.kcb);
  }
};

// Issue-side cost of one layer's blocked schedule: the walk's tallies plus
// one micro probe per (depth, paired) scaled by its calls. Every column
// block but the last is Nc wide and tallies the same, so the walk covers
// block 0, scaled by n_blocks - 1, and the last block — exactly the sum of
// a walk over all of them. Misses are NOT included — the caller adds them
// from a (cold or chained) replay. `fused_epilogue` adds the blocked
// driver's in-cache requantize hook.
Counters issue_counts(int bits, ArmKernel kernel, const BlockedLayout& lay,
                      bool fused_epilogue) LBC_EXCLUDES(g_mu) {
  Tally full(lay, fused_epilogue), last(lay, fused_epilogue);
  const u64 full_blocks = static_cast<u64>(lay.n_blocks - 1);
  if (full_blocks > 0) walk_blocked(lay, 0, 1, full);
  walk_blocked(lay, lay.n_blocks - 1, lay.n_blocks, last);
  Counters counts = last.ctx.counts;
  const MicroKernel mk{kernel, bits, 0, lay.tbl_mode};
  for (size_t i = 0; i < kNumOps; ++i)
    counts.n[i] += full.ctx.counts.n[i] * full_blocks;
  for (int tail = 0; tail < 2; ++tail)
    for (int paired = 0; paired < 2; ++paired) {
      const u64 calls = full.calls[tail][paired] * full_blocks +
                        last.calls[tail][paired];
      if (calls == 0) continue;
      const Counters per_call =
          probe_micro(mk, tail ? lay.kc_eff(lay.k_blocks - 1) : lay.blk.kc,
                      paired == 1, lay.tbl_direct);
      for (size_t i = 0; i < kNumOps; ++i) counts.n[i] += per_call.n[i] * calls;
    }
  return counts;
}

// One candidate priced up to its replay: the layout and issue counts, and
// their cycles. Misses only add stall cycles (CostModel::breakdown sums
// them after the issue terms), so `issue` is a lower bound on the full
// score, exact in floating point.
struct IssuePriced {
  BlockedLayout lay;
  Counters counts;
  double issue = 0;
};

IssuePriced price_issue(const ConvShape& s, int bits, ArmKernel kernel,
                        const GemmBlocking& blocking,
                        BlockedSchedule schedule, InputRange input,
                        TblSource source) {
  IssuePriced p;
  p.lay = layout_for(s.gemm_m(), s.gemm_n(), s.gemm_k(), blocking, kernel,
                     bits, input, source);
  p.counts =
      issue_counts(bits, kernel, p.lay, schedule == BlockedSchedule::kFused);
  p.issue = CostModel::cortex_a53().cycles_for(p.counts, /*interleaved=*/true);
  return p;
}

// The full score: the issue counts plus the misses of the cold replay.
double score_with_replay(const ConvShape& s, IssuePriced p,
                         BlockedSchedule schedule) {
  const ReplayMisses misses = replay_memoized(s, p.lay, schedule);
  p.counts[Op::kL1Miss] += misses.l1;
  p.counts[Op::kL2Miss] += misses.l2;
  return CostModel::cortex_a53().cycles_for(p.counts, /*interleaved=*/true);
}

// One layer of the chained whole-net objective: layer i's issue cycles
// under `blocking` plus the misses its replay sees starting from `r`'s
// state, which the replay advances to the state entering layer i + 1.
// Layer i reads its gather from the region layer i-1's epilogue wrote, and
// the pack-block / C scratch bases are shared across layers (recycled
// buffers). Both the plain scorer and the incremental search go through
// this one function.
double score_graph_layer(Replay& r, const std::vector<GraphSearchLayer>& layers,
                         size_t i, const GemmBlocking& blocking,
                         TblSource source, BlockedSchedule schedule) {
  const GraphSearchLayer& gl = layers[i];
  const BlockedLayout lay =
      layout_for(gl.shape.gemm_m(), gl.shape.gemm_n(), gl.shape.gemm_k(),
                 blocking, gl.kernel, gl.bits, gl.input, source);
  ReplayBases bases;
  bases.a = kBaseA + static_cast<u64>(i) * kLayerStride;
  bases.in = kBaseIn + static_cast<u64>(i) * kLayerStride;
  bases.out = kBaseIn + static_cast<u64>(i + 1) * kLayerStride;
  Counters counts =
      issue_counts(gl.bits, gl.kernel, lay, /*fused_epilogue=*/true);
  const ReplayMisses misses =
      replay_schedule_at(r, gl.shape, lay, bases, schedule);
  counts[Op::kL1Miss] += misses.l1;
  counts[Op::kL2Miss] += misses.l2;
  return CostModel::cortex_a53().cycles_for(counts, /*interleaved=*/true);
}

// The table source layer `gl` runs at `blocking`: tbl_source_at for TBL,
// what plan_conv packs for that blocking.
TblSource layer_source(const GraphSearchLayer& gl, const GemmBlocking& blocking,
                       BlockedSchedule schedule) {
  return gl.kernel == ArmKernel::kTblGemm
             ? tbl_source_at(gl.shape, gl.bits, blocking, schedule, gl.input)
             : TblSource::kStored;
}

// Per-layer scores summed left to right in layer order. Every objective
// value the search compares is this same sum, so the incremental search's
// values are bit-identical to score_graph's.
double sum_in_order(const std::vector<double>& cycles) {
  double total = 0;
  for (const double c : cycles) total += c;
  return total;
}

// Whole-net objective of a full assignment. No memoization — the misses
// depend on the whole assignment.
double score_graph(const std::vector<GraphSearchLayer>& layers,
                   const std::vector<GemmBlocking>& blocking,
                   BlockedSchedule schedule) {
  LBC_CHECK_MSG(layers.size() == blocking.size(),
                "score_graph: one blocking per layer required");
  Replay r;
  std::vector<double> cycles(layers.size());
  for (size_t i = 0; i < layers.size(); ++i)
    cycles[i] = score_graph_layer(
        r, layers, i, blocking[i],
        layer_source(layers[i], blocking[i], schedule), schedule);
  return sum_in_order(cycles);
}

// The chained replay of one full assignment, kept so a trial that changes
// one layer re-scores only what the change can reach: entry[i] is the
// replay state entering layer i, cycles[i] layer i's score.
struct ChainReplay {
  std::vector<Replay> entry;
  std::vector<double> cycles;
};

// Issue cycles of one group step of the paired 32x4 TBL tile (two index
// vectors against one table load, 128 * group MACs), flushes included:
// the difference of two probe_micro calls 8 byte-lane flushes apart, so
// the per-call tail (the i16 -> i32 widen and tile stores) cancels.
// Probed once per TblMode — two modes can share a group size (3-bit pairs
// and the 3-bit non-negative fold) yet flush at different cadences.
double tbl_pair_step_cycles(TblMode mode) {
  static const std::array<double, 2 * kTblFolds> steps = [] {
    std::array<double, 2 * kTblFolds> out{};
    const CostModel cm = CostModel::cortex_a53();
    for (int b = 2; b <= 3; ++b)
      for (int f = 0; f < kTblFolds; ++f) {
        const TblMode m{static_cast<TblFold>(f), b};
        const i64 lo = 8 * tbl_flush_interval(m);
        const auto cycles = [&](i64 groups) {
          return cm.cycles_for(
              probe_micro(MicroKernel{ArmKernel::kTblGemm, b, 0, m},
                          groups * tbl_group(m), /*paired=*/true),
              /*interleaved=*/true);
        };
        out[tbl_mode_slot(m)] =
            (cycles(2 * lo) - cycles(lo)) / static_cast<double>(lo);
      }
    return out;
  }();
  return steps[tbl_mode_slot(mode)];
}

// The built source's read mode per (GEMM, blocking, mode): the walk's
// issue counts decide it, so it is the same on every call.
using DirectKey = std::tuple<i64, i64, i64, i64, i64, i64, size_t>;
std::map<DirectKey, bool> g_direct LBC_GUARDED_BY(g_mu);

}  // namespace

bool tbl_direct_reads_pay(const BlockedLayout& lay) {
  const DirectKey key{lay.m,      lay.n,      lay.k,
                      lay.blk.mc, lay.blk.kc, lay.blk.nc,
                      tbl_mode_slot(lay.tbl_mode)};
  {
    MutexLock lock(g_mu);
    if (const auto it = g_direct.find(key); it != g_direct.end())
      return it->second;
  }
  const CostModel cm = CostModel::cortex_a53();
  const auto cycles = [&](bool direct) {
    BlockedLayout l = lay;
    l.tbl_direct = direct;
    return cm.cycles_for(issue_counts(lay.tbl_mode.bits, ArmKernel::kTblGemm,
                                      l, /*fused_epilogue=*/false),
                         /*interleaved=*/true);
  };
  const bool pays = cycles(true) < cycles(false);
  MutexLock lock(g_mu);
  g_direct.emplace(key, pays);
  return pays;
}

int blocking_scheme_id(ArmKernel kernel, int bits, InputRange input,
                       TblSource source) {
  // TBL's id is revised with its tile: 4 keyed rows searched for the 16x4
  // tile alone; they miss now and are re-searched for the paired schedule.
  // A non-negative input may fold more values per index, and built tables
  // change the schedule's loads, so both key apart.
  if (kernel == ArmKernel::kTblGemm)
    return (input == InputRange::kNonNegative ? 6 : 5) +
           (source == TblSource::kBuilt ? 2 : 0);
  if (kernel == ArmKernel::kSdotExt) return 3;
  if (kernel == ArmKernel::kNcnn) return 2;
  return bits <= 3 ? 1 : 0;
}

TblOrientation choose_tbl_orientation(i64 m, i64 n, i64 k, int bits,
                                      bool weights_ternary, InputRange input) {
  // Per-MAC issue cost: one group step of the paired tile (measured by
  // tbl_pair_step_cycles) serves 128*g MACs; both orientations pair, so at
  // equal group sizes the term is the same on both sides. kActTables adds
  // the online table build: ~10 cycles per (column, group) amortized over
  // the m rows sharing the tables. kWeightTables, in the conv's own mode,
  // reaches round_up(m,4)*ceil(k/g) weight tables once per column-block
  // pass, the cheaper of two ways: streaming the stored set (a miss per
  // 64-byte line, at L2 (8 cyc) while the set fits L2, else DRAM (58)), or
  // building each table from the dictionary (~7 cycles: LD1, ST1, id load
  // and address math).
  const TblMode ma =
      tbl_mode_for(TblOrientation::kActTables, bits, weights_ternary);
  const TblMode mb =
      tbl_mode_for(TblOrientation::kWeightTables, bits, weights_ternary, input);
  const int ga = tbl_group(ma);
  const int gb = tbl_group(mb);
  const double cost_a = tbl_pair_step_cycles(ma) / (128.0 * ga) +
                        10.0 / (double(ga) * double(m));
  const double tables =
      double(round_up(m, i64{4})) * double(ceil_div(k, i64{gb}));
  const double table_bytes = tables * 16.0;
  const double miss = table_bytes <= 384.0 * 1024.0 ? 8.0 : 58.0;
  const double passes = double(ceil_div(n, i64{256}));
  const double stored = miss * (table_bytes / 64.0) * passes;
  const double built = 7.0 * tables * passes;
  const double cost_b =
      tbl_pair_step_cycles(mb) / (128.0 * gb) +
      std::min(stored, built) / (double(m) * double(k) * double(n));
  return cost_a <= cost_b ? TblOrientation::kActTables
                          : TblOrientation::kWeightTables;
}

Counters blocking_issue_counts(const ConvShape& s, int bits, ArmKernel kernel,
                               const GemmBlocking& blocking,
                               BlockedSchedule schedule, InputRange input,
                               TblSource source) {
  return price_issue(s, bits, kernel, blocking, schedule, input, source)
      .counts;
}

double score_blocking(const ConvShape& s, int bits, ArmKernel kernel,
                      const GemmBlocking& blocking, BlockedSchedule schedule,
                      InputRange input, TblSource source) {
  return score_with_replay(
      s, price_issue(s, bits, kernel, blocking, schedule, input, source),
      schedule);
}

std::vector<GemmBlocking> blocking_candidates(const ConvShape& s, int bits,
                                              ArmKernel kernel,
                                              BlockedSchedule schedule,
                                              InputRange input) {
  const bool sdot = kernel == ArmKernel::kSdotExt;
  const i64 m = s.gemm_m(), n = s.gemm_n(), k = s.gemm_k();
  const int tblg =
      kernel == ArmKernel::kTblGemm
          ? tbl_group(priced_tbl_mode(m, n, k, bits, input))
          : 0;
  // Fixed candidate grid, clamped to the problem and de-duplicated.
  // Kc x Nc bounds the L1-resident B block (<= 32 KB for every candidate);
  // Mc bounds the A rows swept per L2 refill.
  std::vector<GemmBlocking> candidates;
  const auto add = [&](i64 mc, i64 kc, i64 nc) {
    const GemmBlocking cand =
        clamp_blocking(GemmBlocking{mc, kc, nc}, m, n, k, sdot, tblg);
    if (std::find(candidates.begin(), candidates.end(), cand) ==
        candidates.end())
      candidates.push_back(cand);
  };
  candidates.push_back(default_blocking(m, n, k, sdot));
  for (const i64 mc : {64, 128})
    for (const i64 kc : {64, 128, 256})
      for (const i64 nc : {32, 64, 128}) add(mc, kc, nc);
  if (tblg != 0) {
    // TBL-specific extensions. The weight-tables orientation streams its
    // offline table set once per column pass, so wide Nc (up to the full
    // column range) amortizes that traffic; the act-tables orientation
    // amortizes online table builds over the Mc rows sharing them and
    // prefers narrow Nc with a mid-size Kc. Neither regime sits inside the
    // shared grid above, and extending only the TBL search keeps the other
    // schemes' memoized winners (and the baselines built on them) stable.
    for (const i64 mc : {64, 128})
      for (const i64 kc : {96, 128, 192, 256})
        for (const i64 nc : {i64{32}, i64{256}, i64{512}, n}) add(mc, kc, nc);
  }
  if (schedule == BlockedSchedule::kFused) {
    // Deep Kc / narrow Nc. Under the standalone schedule these pay for an
    // m x n C matrix swept once per Kc block; the fused driver has no such
    // matrix — a single K block (Kc = K) skips C altogether, and a narrow
    // band keeps the partial sums of a deep Kc L1/L2-resident. A deep Kc
    // with a wider Nc outgrows the 32 KB L1; the replay prices that. Kc
    // stops at 4096, the largest block dimension a TuningCache row
    // accepts, so every joint pick persists.
    for (const i64 mc : {64, 128})
      for (const i64 kc : {std::min<i64>(k, 4096), i64{384}, i64{512}})
        for (const i64 nc : {4, 8, 16, 32, 64}) add(mc, kc, nc);
    // Deep Kc with wide Nc, TBL only (the other schemes' winners stay put):
    // a weight-tables conv streams its row quads' tables once per column
    // pass, so it wants the wide band of the TBL extensions above, and at
    // Kc = K it runs one K block and keeps no C band at all.
    if (tblg != 0)
      for (const i64 mc : {64, 128})
        for (const i64 kc : {std::min<i64>(k, 4096), i64{512}})
          for (const i64 nc : {i64{128}, i64{256}, i64{512}, n})
            add(mc, kc, nc);
  }
  return candidates;
}

GemmBlocking search_blocking(const ConvShape& s, int bits, ArmKernel kernel,
                             BlockedSchedule schedule, InputRange input,
                             TblSource source) {
  std::ostringstream os;
  os << geometry_key(s) << "|b" << bits << "|sch"
     << blocking_scheme_id(kernel, bits, input, source);
  if (schedule == BlockedSchedule::kFused) os << "|fused";
  const std::string key = os.str();

  {
    MutexLock lock(g_mu);
    // A key in flight is waited for, and then counts as a memo hit — the
    // stats come out as a sequential run of the same calls records them.
    while (g_searching.count(key) != 0) g_searched.wait(g_mu);
    if (const auto it = g_winners.find(key); it != g_winners.end()) {
      ++g_stats.memo_hits;
      return it->second;
    }
    ++g_stats.searches;
    g_searching.insert(key);
  }
  const SearchClaim claim{key};

  // The first strict minimum in grid order. A candidate whose issue-only
  // cycles already reach the best score cannot beat it (its replay could
  // only add stalls), so it is not replayed.
  const std::vector<GemmBlocking> candidates =
      blocking_candidates(s, bits, kernel, schedule, input);
  GemmBlocking best = candidates.front();
  double best_score = std::numeric_limits<double>::infinity();
  i64 skipped = 0;
  for (const GemmBlocking& cand : candidates) {
    const IssuePriced p =
        price_issue(s, bits, kernel, cand, schedule, input, source);
    if (p.issue >= best_score) {
      ++skipped;
      continue;
    }
    const double sc = score_with_replay(s, p, schedule);
    if (sc < best_score) {
      best_score = sc;
      best = cand;
    }
  }
  MutexLock lock(g_mu);
  g_stats.replays_skipped += skipped;
  g_winners.emplace(key, best);
  return best;
}

namespace {

// A TBL conv's priced pick: the table source and its winner's score.
struct TblPick {
  TblSource source = TblSource::kStored;
  double score = 0;
};

// Whether a TBL conv is priced in the weight-tables orientation, the one
// with a table source to choose.
bool priced_weight_tables(const ConvShape& s, int bits, InputRange input) {
  TblOrientation o = TblOrientation::kActTables;
  priced_tbl_mode(s.gemm_m(), s.gemm_n(), s.gemm_k(), bits, input, &o);
  return o == TblOrientation::kWeightTables;
}

// Weight tables search both sources and keep the built one unless the
// stored winner scores strictly less; act tables have one (stored).
TblPick price_tbl(const ConvShape& s, int bits, BlockedSchedule schedule,
                  InputRange input) {
  const auto winner_score = [&](TblSource src) {
    return score_blocking(
        s, bits, ArmKernel::kTblGemm,
        search_blocking(s, bits, ArmKernel::kTblGemm, schedule, input, src),
        schedule, input, src);
  };
  const double stored = winner_score(TblSource::kStored);
  if (!priced_weight_tables(s, bits, input))
    return {TblSource::kStored, stored};
  const double built = winner_score(TblSource::kBuilt);
  return stored < built ? TblPick{TblSource::kStored, stored}
                        : TblPick{TblSource::kBuilt, built};
}

}  // namespace

TblSource choose_tbl_source(const ConvShape& s, int bits,
                            BlockedSchedule schedule, InputRange input) {
  if (!tbl_eligible_for(bits) || !priced_weight_tables(s, bits, input))
    return TblSource::kStored;
  return price_tbl(s, bits, schedule, input).source;
}

TblSource tbl_source_at(const ConvShape& s, int bits,
                        const GemmBlocking& blocking, BlockedSchedule schedule,
                        InputRange input) {
  if (!tbl_eligible_for(bits) || !priced_weight_tables(s, bits, input))
    return TblSource::kStored;
  const auto at = [&](TblSource src) {
    return score_blocking(s, bits, ArmKernel::kTblGemm, blocking, schedule,
                          input, src);
  };
  return at(TblSource::kStored) < at(TblSource::kBuilt) ? TblSource::kStored
                                                        : TblSource::kBuilt;
}

ArmKernel choose_gemm_kernel(const ConvShape& s, int bits,
                             BlockedSchedule schedule, InputRange input,
                             TblSource* tbl_source) {
  if (!tbl_eligible_for(bits)) return ArmKernel::kOursGemm;
  const TblPick tbl = price_tbl(s, bits, schedule, input);
  if (tbl_source != nullptr) *tbl_source = tbl.source;
  const double tbl_score = tbl.score;
  // MLA's winner scores at least the least issue-only cycles over its grid
  // (a replay only adds stalls), so a TBL score under that floor wins
  // without searching MLA at all.
  double mla_floor = std::numeric_limits<double>::infinity();
  for (const GemmBlocking& cand :
       blocking_candidates(s, bits, ArmKernel::kOursGemm, schedule))
    mla_floor = std::min(
        mla_floor,
        price_issue(s, bits, ArmKernel::kOursGemm, cand, schedule,
                    InputRange::kSigned, TblSource::kStored)
            .issue);
  if (tbl_score < mla_floor) return ArmKernel::kTblGemm;
  const GemmBlocking mla =
      search_blocking(s, bits, ArmKernel::kOursGemm, schedule);
  return tbl_score < score_blocking(s, bits, ArmKernel::kOursGemm, mla, schedule)
             ? ArmKernel::kTblGemm
             : ArmKernel::kOursGemm;
}

TileSearchStats tile_search_stats() {
  MutexLock lock(g_mu);
  return g_stats;
}

double score_graph_blocking(const std::vector<GraphSearchLayer>& layers,
                            const std::vector<GemmBlocking>& blocking,
                            BlockedSchedule schedule) {
  return score_graph(layers, blocking, schedule);
}

u64 graph_blocking_hash(const std::vector<GraphSearchLayer>& layers) {
  u64 h = 1469598103934665603ull;  // FNV-1a
  const auto mix = [&h](i64 v) {
    for (int i = 0; i < 8; ++i) {
      h ^= static_cast<u64>(v >> (i * 8)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  // Revision of the fused schedule the joint rows are priced for: 2 since
  // the driver keeps per-worker C bands (or none) instead of the m x n C,
  // 3 since TBL pairs panels into the 32x4 tile, 4 since the TBL
  // orientation rule prices the fold and the table build, 5 since built
  // weight tables may be read straight from the dictionary and the fused
  // TBL grid has deep-Kc x wide-Nc candidates.
  constexpr i64 kFusedScheduleRevision = 5;
  mix(kFusedScheduleRevision);
  mix(static_cast<i64>(layers.size()));
  for (const GraphSearchLayer& gl : layers) {
    const ConvShape& s = gl.shape;
    for (const i64 v : {s.batch, s.in_c, s.in_h, s.in_w, s.out_c,
                        static_cast<i64>(s.kernel), static_cast<i64>(s.stride),
                        static_cast<i64>(s.pad)})
      mix(v);
    mix(gl.bits);
    mix(blocking_scheme_id(gl.kernel, gl.bits, gl.input, gl.source));
  }
  return h;
}

GraphSearchResult search_graph_blocking(
    const std::vector<GraphSearchLayer>& layers, BlockedSchedule schedule) {
  GraphSearchResult res;
  if (layers.empty()) return res;

  // Seed from the memoized per-layer greedy winners, and build each
  // layer's small candidate set around them, with the table source each
  // candidate is priced at. The layers are independent (their standalone
  // scores are memoized and thread-safe), so they run on the shared pool.
  std::vector<GemmBlocking> current(layers.size());
  std::vector<std::vector<GemmBlocking>> cands(layers.size());
  std::vector<TblSource> current_src(layers.size());
  std::vector<std::vector<TblSource>> cand_src(layers.size());
  const auto seed_layer = [&](size_t i) {
    const GraphSearchLayer& gl = layers[i];
    const bool sdot = gl.kernel == ArmKernel::kSdotExt;
    const i64 m = gl.shape.gemm_m(), n = gl.shape.gemm_n(),
              k = gl.shape.gemm_k();
    const int tblg =
        gl.kernel == ArmKernel::kTblGemm
            ? tbl_group(priced_tbl_mode(m, n, k, gl.bits, gl.input))
            : 0;
    const GemmBlocking greedy = search_blocking(gl.shape, gl.bits, gl.kernel,
                                                schedule, gl.input, gl.source);
    current[i] = greedy;
    std::vector<GemmBlocking>& cc = cands[i];
    cc.push_back(greedy);
    for (const GemmBlocking& raw :
         {default_blocking(m, n, k, sdot), GemmBlocking{128, 256, 32},
          GemmBlocking{128, 128, 64}, GemmBlocking{64, 128, 32},
          GemmBlocking{64, 256, 128}}) {
      const GemmBlocking cand = clamp_blocking(raw, m, n, k, sdot, tblg);
      if (std::find(cc.begin(), cc.end(), cand) == cc.end())
        cc.push_back(cand);
    }
    for (const GemmBlocking& cand : cc)
      cand_src[i].push_back(layer_source(gl, cand, schedule));
    current_src[i] = cand_src[i].front();
  };
  serve::ThreadPool::global().parallel_for(
      0, static_cast<i64>(layers.size()), 1, [&](i64 begin, i64 end) {
        for (i64 i = begin; i < end; ++i) seed_layer(static_cast<size_t>(i));
      });

  const size_t n_layers = layers.size();
  ChainReplay cur{std::vector<Replay>(n_layers),
                  std::vector<double>(n_layers)};
  {
    Replay r;
    for (size_t i = 0; i < n_layers; ++i) {
      cur.entry[i] = r;
      cur.cycles[i] = score_graph_layer(r, layers, i, current[i],
                                        current_src[i], schedule);
    }
  }
  res.greedy_cycles = sum_in_order(cur.cycles);
  double best = res.greedy_cycles;
  // Coordinate descent under the chained objective: two passes over the
  // layers, each trying the layer's candidates with the rest held fixed.
  // Monotone by construction, so the joint plan never loses to the seed.
  //
  // A trial that changes layer i resumes from the snapshot entering layer
  // i; layers before it score as stored. After each re-scored layer, once
  // the trial's cache state equals the current assignment's state at that
  // boundary, every later layer replays identically, so the trial stops
  // and takes their stored scores. The summed objective is the same value,
  // bit for bit, that a full score_graph of the trial returns.
  // Declared once: every resume copy-assigns into storage they already own.
  ChainReplay trial{std::vector<Replay>(n_layers),
                    std::vector<double>(n_layers)};
  Replay r;
  i64 early_exits = 0;
  // Every assignment scored so far. One scored before cannot win now: it
  // lost to (or was) the best of its time, and the best only falls. So the
  // second pass re-scores only the trials a first-pass move made new — the
  // layers before the last move — and picks exactly what re-scoring them
  // all would.
  std::set<std::vector<i64>> scored;
  const auto scored_before = [&scored](const std::vector<GemmBlocking>& a,
                                       size_t i, const GemmBlocking& c) {
    std::vector<i64> key;
    key.reserve(a.size() * 3);
    for (size_t l = 0; l < a.size(); ++l) {
      const GemmBlocking& b = l == i ? c : a[l];
      key.insert(key.end(), {b.mc, b.kc, b.nc});
    }
    return !scored.insert(std::move(key)).second;
  };
  scored_before(current, 0, current[0]);
  for (int pass = 0; pass < 2; ++pass) {
    bool improved = false;
    for (size_t i = 0; i < n_layers; ++i) {
      for (size_t c = 0; c < cands[i].size(); ++c) {
        const GemmBlocking& cand = cands[i][c];
        if (cand == current[i] || scored_before(current, i, cand)) continue;
        r = cur.entry[i];
        trial.cycles = cur.cycles;
        size_t j = i;
        while (true) {
          trial.cycles[j] =
              j == i ? score_graph_layer(r, layers, j, cand, cand_src[i][c],
                                         schedule)
                     : score_graph_layer(r, layers, j, current[j],
                                         current_src[j], schedule);
          if (++j == n_layers) break;
          if (r.sim.same_state(cur.entry[j].sim)) {
            ++early_exits;
            break;
          }
          trial.entry[j] = r;
        }
        const double sc = sum_in_order(trial.cycles);
        if (sc < best) {
          best = sc;
          current[i] = cand;
          current_src[i] = cand_src[i][c];
          std::swap(cur.cycles, trial.cycles);
          for (size_t b = i + 1; b < j; ++b)
            std::swap(cur.entry[b], trial.entry[b]);
          improved = true;
        }
      }
    }
    if (!improved) break;
  }
  {
    MutexLock lock(g_mu);
    g_stats.joint_early_exits += early_exits;
  }
  res.blocking = std::move(current);
  res.joint_cycles = best;
  return res;
}

}  // namespace lbc::armkern
