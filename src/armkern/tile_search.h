// ARM-side {Mc, Kc, Nc} block-size auto-search (paper Sec. 4 brings this
// discipline to the GPU tiling; this is the ARM counterpart for the
// blocked GEMM of blocking.h).
//
// Each candidate is priced with the same Cortex-A53 cost model the
// benches report: issue cycles come from probing the micro kernel once
// per distinct Kc depth (exact per-call instruction mix, scaled by call
// counts) plus the analytic pack/accumulate tallies, and stall cycles
// come from replaying the blocked schedule's memory trace at cache-line
// granularity into a fresh CacheSim. The replay feeds synthetic
// disjoint-region addresses — the cache model is address-identity based
// (cache.h), so line identities are all that matter and no host buffers
// are involved.
//
// Results are memoized per (conv geometry, bits, scheme) — "the optimal
// tiling parameters only need to be determined once per convolution
// shape" (Sec. 5.1) — and the replay trace is additionally shared across
// bits and schemes with the same packed layout, since the SMLAL / MLA /
// ncnn kernels issue an identical load pattern. gpukern::TuningCache v2
// persists winners across process runs (core::plan_arm_conv).
#pragma once

#include <vector>

#include "armkern/blocking.h"
#include "armkern/gemm_lowbit.h"
#include "common/conv_shape.h"

namespace lbc::armkern {

// Every TBL price and pick below takes the conv's InputRange: a
// non-negative input lets the weight-tables orientation fold more depth
// values per index (schemes.h tbl_mode_for), which changes the layout, the
// flush cadence and the instruction mix. A weight-tables TBL price also
// takes the table source (TblSource): the built source adds the per-pass
// copy of each row quad's tables from the dictionary into an L1 panel and
// replaces the stream of offline tables with the ids, the dictionary and
// the panel. Other kernels (and act tables) ignore both.

/// Modeled total cycles of one clamped blocking candidate for the
/// fused-pack conv GEMM under `schedule`, replayed against a cold cache
/// (exposed for tests and the ablation bench).
double score_blocking(const ConvShape& s, int bits, ArmKernel kernel,
                      const GemmBlocking& blocking,
                      BlockedSchedule schedule = BlockedSchedule::kStandalone,
                      InputRange input = InputRange::kSigned,
                      TblSource source = TblSource::kStored);

/// The issue side of score_blocking: the instruction counts (no cache
/// misses) the search charges the blocked schedule — micro-kernel probes
/// scaled by call counts, pack and C-accumulate tallies, and the
/// epilogue's under kFused. Exposed so tests can hold it to an executed
/// run's counts.
armsim::Counters blocking_issue_counts(
    const ConvShape& s, int bits, ArmKernel kernel,
    const GemmBlocking& blocking,
    BlockedSchedule schedule = BlockedSchedule::kStandalone,
    InputRange input = InputRange::kSigned,
    TblSource source = TblSource::kStored);

/// The fixed candidate grid search_blocking scores, clamped to the shape's
/// GEMM view and de-duplicated, in tie-break order: default_blocking
/// geometry first, then the shared grid, the TBL extensions (kTblGemm
/// only) and the fused deep-Kc / narrow-Nc extensions (kFused only).
std::vector<GemmBlocking> blocking_candidates(
    const ConvShape& s, int bits, ArmKernel kernel,
    BlockedSchedule schedule = BlockedSchedule::kStandalone,
    InputRange input = InputRange::kSigned);

/// Pick the best {Mc, Kc, Nc} for the shape's GEMM view: the first
/// candidate of blocking_candidates with the least score_blocking.
/// Deterministic. A candidate whose issue-only cycles already reach the
/// best score so far is not replayed — exact, since misses only add stall
/// cycles. Memoized per (geometry, bits, scheme id — which carries a TBL
/// conv's input range and table source — and schedule). Thread-safe,
/// and searches of different keys run concurrently: the lock guards only
/// the memo maps and the stats. A caller whose key another thread is
/// searching waits for that winner, so each key is searched once per
/// process, and the stats match a sequential run of the same calls.
GemmBlocking search_blocking(
    const ConvShape& s, int bits, ArmKernel kernel,
    BlockedSchedule schedule = BlockedSchedule::kStandalone,
    InputRange input = InputRange::kSigned,
    TblSource source = TblSource::kStored);

/// Stable scheme id of the micro kernel that would execute (0 = SMLAL,
/// 1 = MLA, 2 = ncnn, 3 = SDOT; TBL: 5 signed input, 6 non-negative, each
/// with stored tables, and 7 / 8 the same with built ones) — the
/// persistent tuning cache keys ARM entries by it
/// (gpukern::ArmTuningKey::scheme), so a row searched for one input range
/// or table source is never served to the other. TBL rows keyed 4 were
/// searched for its 16x4 tile alone and are no longer looked up.
int blocking_scheme_id(ArmKernel kernel, int bits,
                       InputRange input = InputRange::kSigned,
                       TblSource source = TblSource::kStored);

/// TBL orientation pricing (schemes.h TblOrientation), decided from
/// geometry and the conv's input range: kActTables pays the online table
/// build amortized over the m rows it serves; kWeightTables, priced in the
/// conv's own mode (folded when the input is non-negative), pays the
/// cheaper of two ways to reach its weight tables per C column-block pass:
/// streaming the stored set (misses at L2 or DRAM by its size) or building
/// each table from the dictionary (7 cycles a table). The per-MAC kernel
/// cost of each side is the paired 32x4 tile's step cost, probed once per
/// TblMode. Deterministic and cheap (no replay).
TblOrientation choose_tbl_orientation(i64 m, i64 n, i64 k, int bits,
                                      bool weights_ternary,
                                      InputRange input = InputRange::kSigned);

/// The table source a TBL conv should use under `schedule`, decided by
/// price: kBuilt unless the stored source's memoized per-layer winner
/// scores strictly below the built one's under score_blocking. kStored,
/// without a search, for a conv priced in the act-tables orientation (its
/// weights are indices) and above 3 bit. Deterministic; thread-safe;
/// memoized through search_blocking.
TblSource choose_tbl_source(
    const ConvShape& s, int bits,
    BlockedSchedule schedule = BlockedSchedule::kStandalone,
    InputRange input = InputRange::kSigned);

/// The table source a TBL conv runs at one given `blocking` under
/// `schedule`: kBuilt unless the stored source scores strictly less there
/// under score_blocking (two scores on memoized replays, no search);
/// kStored where choose_tbl_source is kStored without a search. plan_conv
/// packs it for an explicit blocking, and the joint search prices every
/// candidate at it. At the winner of search_blocking for the source
/// choose_tbl_source picks, it returns that source. Thread-safe.
TblSource tbl_source_at(const ConvShape& s, int bits,
                        const GemmBlocking& blocking,
                        BlockedSchedule schedule = BlockedSchedule::kStandalone,
                        InputRange input = InputRange::kSigned);

/// The blocked-GEMM kernel a conv at `bits` should run under `schedule`,
/// decided by price: kTblGemm when TBL's memoized per-layer winner (in the
/// source choose_tbl_source picks) scores below MLA's (kOursGemm at <= 3
/// bit) under score_blocking, else
/// kOursGemm — always kOursGemm above 3 bit, where TBL is ineligible. Both
/// sides are priced without weight values (non-ternary 3-bit TBL groups,
/// the conservative mode), so a ternary-weight pack can only beat the
/// price. When TBL's score is below the least issue-only cycles over MLA's
/// candidate grid, MLA cannot win and is not searched; the answer is the
/// same. Deterministic; thread-safe; the per-layer searches it runs are
/// memoized, and calls for different shapes run concurrently.
/// `tbl_source`, when set, receives the TBL source that was priced (the
/// one choose_tbl_source returns).
ArmKernel choose_gemm_kernel(
    const ConvShape& s, int bits,
    BlockedSchedule schedule = BlockedSchedule::kStandalone,
    InputRange input = InputRange::kSigned, TblSource* tbl_source = nullptr);

struct TileSearchStats {
  i64 searches = 0;   ///< cold searches (full candidate sweeps)
  i64 memo_hits = 0;  ///< served from the in-process memo
  /// Joint-search trials that stopped early because their replay state
  /// matched the current assignment's at a later layer boundary. Exists
  /// for tests, which use it to confirm a chain exercises the exit; the
  /// search adds its total once, under one lock, when it returns.
  i64 joint_early_exits = 0;
  /// search_blocking candidates decided without their cache replay,
  /// because their issue-only cycles already reached the best score.
  i64 replays_skipped = 0;
};
TileSearchStats tile_search_stats();

// ---- graph-level joint search -----------------------------------------
//
// The per-layer search above prices each conv against a COLD cache: its
// replay starts from an empty CacheSim, so the winner is blind to what the
// previous layer left behind. In a fused graph the layers chain — layer
// i's epilogue writes the i8 activations that layer i+1's im2col gather
// reads, and the C / pack-block scratch buffers are recycled across every
// layer — so the right objective is the whole net: one shared cache-sim
// replay walked through the layer sequence, per-layer issue cycles summed
// on top. search_graph_blocking seeds from the memoized per-layer winners
// of the same schedule and runs a small coordinate-descent over per-layer
// candidates under that chained objective; the result never scores worse
// than the greedy seed. GraphPlan searches the fused schedule; run_model,
// whose layers execute standalone, the standalone one.
// The search is incremental — a trial resumes from a snapshot of the
// replay state entering the layer it changes and stops once its state
// rejoins the current assignment's — yet every objective value it
// compares is bit-identical to score_graph_blocking of that assignment.
// A TBL layer's table source follows its blocking: every assignment prices
// each TBL layer at tbl_source_at of the layer's blocking, the source
// plan_conv packs for that blocking, so the search picks blocking and
// source together.

/// One conv layer of the chain, in execution order.
struct GraphSearchLayer {
  ConvShape shape;
  int bits = 8;
  ArmKernel kernel = ArmKernel::kOursGemm;
  InputRange input = InputRange::kSigned;
  /// A TBL layer's per-layer pick (choose_tbl_source): the search seeds
  /// from search_blocking's winner for it, and it keys the hash.
  TblSource source = TblSource::kStored;
};

struct GraphSearchResult {
  std::vector<GemmBlocking> blocking;  ///< per layer, same order as input
  /// Whole-net modeled cycles of the returned joint plan under the chained
  /// replay (issue + pack + misses, per-layer cost-model totals summed).
  double joint_cycles = 0;
  /// The per-layer greedy winners priced under the SAME chained objective —
  /// the margin (greedy - joint) is what graph-level planning buys.
  double greedy_cycles = 0;
};

/// Price a full per-layer blocking assignment under the chained whole-net
/// objective of `schedule` (exposed for tests and the e2e bench).
/// `blocking` must have one entry per layer.
double score_graph_blocking(const std::vector<GraphSearchLayer>& layers,
                            const std::vector<GemmBlocking>& blocking,
                            BlockedSchedule schedule);

/// Joint whole-net search under `schedule`, seeded from (and reporting
/// greedy_cycles for) search_blocking(..., schedule) winners. The seeds
/// and their candidates' table sources are priced concurrently on the
/// shared pool; the descent itself is sequential. Deterministic;
/// thread-safe. Degenerate inputs (empty layer list) return
/// an empty result.
GraphSearchResult search_graph_blocking(
    const std::vector<GraphSearchLayer>& layers, BlockedSchedule schedule);

/// Stable FNV-1a hash over the chain's (geometry, bits, scheme id — input
/// range and table source included) sequence and the fused schedule's
/// revision — the TuningCache v4 `graph` rows and
/// the serve-side graph-plan registry key joint results by it. Rows saved
/// under an earlier fused schedule hash differently, so they miss and are
/// re-searched instead of reusing picks tuned for that schedule.
u64 graph_blocking_hash(const std::vector<GraphSearchLayer>& layers);

}  // namespace lbc::armkern
