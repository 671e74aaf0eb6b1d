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

/// The blocked driver's two schedules (gemm_blocked.cpp), which a blocking
/// is priced for.
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

/// Modeled total cycles of one clamped blocking candidate for the
/// fused-pack conv GEMM under `schedule`, replayed against a cold cache
/// (exposed for tests and the ablation bench).
double score_blocking(const ConvShape& s, int bits, ArmKernel kernel,
                      const GemmBlocking& blocking,
                      BlockedSchedule schedule = BlockedSchedule::kStandalone);

/// The issue side of score_blocking: the instruction counts (no cache
/// misses) the search charges the blocked schedule — micro-kernel probes
/// scaled by call counts, pack and C-accumulate tallies, and the
/// epilogue's under kFused. Exposed so tests can hold it to an executed
/// run's counts.
armsim::Counters blocking_issue_counts(
    const ConvShape& s, int bits, ArmKernel kernel,
    const GemmBlocking& blocking,
    BlockedSchedule schedule = BlockedSchedule::kStandalone);

/// The fixed candidate grid search_blocking scores, clamped to the shape's
/// GEMM view and de-duplicated, in tie-break order: default_blocking
/// geometry first, then the shared grid, the TBL extensions (kTblGemm
/// only) and the fused deep-Kc / narrow-Nc extensions (kFused only).
std::vector<GemmBlocking> blocking_candidates(
    const ConvShape& s, int bits, ArmKernel kernel,
    BlockedSchedule schedule = BlockedSchedule::kStandalone);

/// Pick the best {Mc, Kc, Nc} for the shape's GEMM view: the first
/// candidate of blocking_candidates with the least score_blocking.
/// Deterministic. A candidate whose issue-only cycles already reach the
/// best score so far is not replayed — exact, since misses only add stall
/// cycles. Thread-safe; memoized per (geometry, bits, scheme, schedule).
GemmBlocking search_blocking(
    const ConvShape& s, int bits, ArmKernel kernel,
    BlockedSchedule schedule = BlockedSchedule::kStandalone);

/// Stable scheme id of the micro kernel that would execute (0 = SMLAL,
/// 1 = MLA, 2 = ncnn, 3 = SDOT, 5 = TBL) — the persistent tuning cache
/// keys ARM entries by it (gpukern::ArmTuningKey::scheme). TBL rows keyed
/// 4 were searched for its 16x4 tile alone and are no longer looked up.
int blocking_scheme_id(ArmKernel kernel, int bits);

/// TBL orientation pricing (schemes.h TblOrientation), decided from
/// geometry alone: kActTables pays the online table build amortized over
/// the m rows it serves; kWeightTables pays nothing online but streams an
/// 8x-inflated offline table set whose misses scale with the number of
/// C column-block passes. The per-MAC kernel cost of each side is the
/// paired 32x4 tile's step cost, probed once per mode. Deterministic and
/// cheap (no replay).
TblOrientation choose_tbl_orientation(i64 m, i64 n, i64 k, int bits,
                                      bool weights_ternary);

/// The blocked-GEMM kernel a conv at `bits` should run under `schedule`,
/// decided by price: kTblGemm when TBL's memoized per-layer winner scores
/// below MLA's (kOursGemm at <= 3 bit) under score_blocking, else
/// kOursGemm — always kOursGemm above 3 bit, where TBL is ineligible. Both
/// sides are priced without weight values (non-ternary 3-bit TBL groups,
/// the conservative mode), so a ternary-weight pack can only beat the
/// price. When TBL's score is below the least issue-only cycles over MLA's
/// candidate grid, MLA cannot win and is not searched; the answer is the
/// same. Deterministic; thread-safe; the per-layer searches it runs are
/// memoized.
ArmKernel choose_gemm_kernel(
    const ConvShape& s, int bits,
    BlockedSchedule schedule = BlockedSchedule::kStandalone);

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

/// One conv layer of the chain, in execution order.
struct GraphSearchLayer {
  ConvShape shape;
  int bits = 8;
  ArmKernel kernel = ArmKernel::kOursGemm;
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
/// greedy_cycles for) search_blocking(..., schedule) winners.
/// Deterministic; thread-safe. Degenerate inputs (empty layer list) return
/// an empty result.
GraphSearchResult search_graph_blocking(
    const std::vector<GraphSearchLayer>& layers, BlockedSchedule schedule);

/// Stable FNV-1a hash over the chain's (geometry, bits, scheme) sequence
/// and the fused schedule's revision — the TuningCache v4 `graph` rows and
/// the serve-side graph-plan registry key joint results by it. Rows saved
/// under an earlier fused schedule hash differently, so they miss and are
/// re-searched instead of reusing picks tuned for that schedule.
u64 graph_blocking_hash(const std::vector<GraphSearchLayer>& layers);

}  // namespace lbc::armkern
