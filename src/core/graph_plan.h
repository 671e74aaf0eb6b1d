// Whole-net graph compiler: compile a calibrated QnnGraph once, execute it
// many times against a caller-owned arena.
//
// The per-layer runtime (qnn_graph.cpp's original forward) planned and
// executed each conv in isolation: every layer materialized an i32
// accumulator tensor, requantized it in a separate pass, and handed the
// next layer a fresh int8 tensor. GraphPlan replaces that loop with a
// compiled program over the whole net:
//
//  * Fused epilogues — conv+ReLU+requant, and conv+residual-add, fold into
//    the blocked ARM GEMM's C writeback through armkern::TileEpilogue (the
//    ARM twin of gpukern/fusion's in-register epilogue, Sec. 4.3/4.4): the
//    requantized int8 activation is produced while the accumulator rows
//    are cache-resident, and no gemm_m x gemm_n i32 tensor exists — the
//    driver keeps partial-K sums in one gemm_m x Nc C band per worker, or
//    none when one K block covers K. A residual add fuses into its LATER
//    conv operand (the other operand's activation is already resident in
//    the arena), and the conv writes the add node's slot directly.
//    Bit-exact vs the unfused path: both run the same fixed-point requant
//    multipliers in the same order.
//  * Per-conv kernel pricing — a conv that resolves to the blocked GEMM
//    rung at <= 3 bit runs TBL or MLA, whichever scores cheaper at its
//    memoized per-layer winner (armkern::choose_gemm_kernel), priced for
//    the schedule it executes: a fused conv's kernel and blocking come
//    from the fused-schedule search (BlockedSchedule::kFused), an unfused
//    conv's from the standalone one. A conv whose producer clamps at
//    lo >= 0 (a conv or add with ReLU) is planned with a non-negative
//    input (ArmConvOptions::input_range), which lets weight-tables TBL
//    fold more activations per index; the fact keys every search and
//    joint row. Every conv is packed once, after the searches, and its
//    resolved kernel and mode pass the same static proof gate as
//    core::plan_arm_conv (core::prove_arm_plan).
//  * Joint whole-net blocking — armkern::search_graph_blocking picks every
//    fused layer's {Mc, Kc, Nc} under one chained cache-replay objective
//    of the fused schedule (seeded from the fused per-layer winners,
//    persisted as TuningCache v4 "graph" rows keyed by
//    graph_blocking_hash).
//  * One liveness-sized arena — every activation slot and every fused
//    conv's scratch (its C bands and its workers' pack blocks, live only
//    at its node) gets an offset in a single lbc::Workspace, placed
//    largest first, first-fit over [def, last-read] intervals. A residual
//    add writes over an operand whose last reader it is (not over its
//    fused conv's own input), so activations chain between layers with no
//    Tensor copies and a fused forward allocates nothing else.
//
// Non-fuseable rungs (winograd, bitserial, direct, reference, unblocked
// GEMM) still execute through the per-layer driver; their separate requant
// pass is charged an analytic epilogue cost so fused-vs-unfused modeled
// seconds compare the real difference (the elided i32 round trip), not a
// bookkeeping artifact.
#pragma once

#include <memory>
#include <vector>

#include "armkern/tile_search.h"
#include "check/plan_audit.h"
#include "common/workspace.h"
#include "core/qnn_graph.h"
#include "gpukern/tuning_cache.h"

namespace lbc::core {

/// Epilogue fusion switch: kOn folds conv+ReLU+requant (and eligible
/// residual adds) into the blocked GEMM's writeback; kOff runs every node
/// through the per-layer path (same arithmetic, same results — the modeled
/// time is what changes).
enum class FusionMode { kOn, kOff };

struct GraphPlanOptions {
  FusionMode fusion = FusionMode::kOn;
  armkern::ConvAlgo algo = armkern::ConvAlgo::kAuto;
  int threads = 1;
  /// Whole-net joint {Mc, Kc, Nc} search over the fused conv chain. Off,
  /// each conv keeps its per-layer memoized winner.
  bool joint_search = true;
  /// Optional persistent store for the joint search's winners (TuningCache
  /// v4 "graph" rows keyed by graph_blocking_hash).
  gpukern::TuningCache* tuning = nullptr;
};

class GraphPlan {
 public:
  /// Compile the whole graph: resolve every conv's plan (prepacked
  /// weights), run the joint blocking search, pair fusable epilogues, and
  /// lay out the arena by liveness. The graph must be calibrated. The plan
  /// snapshots the graph — later push()/calibrate() calls on `g` do not
  /// affect a compiled plan. The plan.compile_fail site is consulted once
  /// per conv, in node order, before any search: a conv whose compile
  /// faults takes armkern::fault_degraded_plan's reference-rung plan,
  /// joins no search and runs unfused. Errors: kInvalidArgument /
  /// kFailedPrecondition for a bad graph or options, kInvariantViolation
  /// naming the obligation when a conv's resolved kernel fails the static
  /// proof gate, and any plan_conv error.
  static StatusOr<GraphPlan> compile(const QnnGraph& g,
                                     const GraphPlanOptions& opt = {});

  /// Integer-only forward pass. `arena` holds the liveness-planned
  /// activation and fused-conv scratch slots: it is reset on entry and
  /// takes one arena_reserve_bytes() allocation. `scratch` serves the
  /// unfused per-layer executes (which reset it per node). Both reach
  /// steady-state capacity on the first call. Errors: kInvalidArgument
  /// when `x` does not match the input node's shape.
  StatusOr<QnnGraph::RunResult> forward(const Tensor<float>& x,
                                        Workspace& arena,
                                        Workspace& scratch) const;

  i64 node_count() const { return static_cast<i64>(nodes_.size()); }
  /// The resolved plan conv node `node` executes (kernel, blocking,
  /// prepacked weights); null for a non-conv node or an id out of range.
  const armkern::ArmConvPlan* conv_plan(i64 node) const;
  /// The arena's one allocation, and its exact high water after a
  /// forward: the extent of the placed activation and fused-conv scratch
  /// slots.
  i64 arena_reserve_bytes() const { return arena_reserve_bytes_; }
  /// armkern::graph_blocking_hash over the fused conv chain (0 when the
  /// chain is empty) — the TuningCache v4 key of the joint search.
  u64 graph_hash() const { return graph_hash_; }
  int conv_nodes() const { return conv_nodes_; }
  /// Sum of the conv plans' prepacked weight bytes — what a memory budget
  /// (serve::ModelRegistry) charges for a resident graph plan.
  i64 packed_weight_bytes() const { return packed_weight_bytes_; }
  /// Convs executing through the fused TileEpilogue writeback.
  int fused_convs() const { return fused_convs_; }
  /// Residual adds folded into a producer conv's epilogue.
  int fused_adds() const { return fused_adds_; }
  /// Whole-net modeled cycles of the joint vs per-layer-greedy blocking
  /// under the chained replay objective (both 0 when joint search did not
  /// run). greedy - joint is the modeled margin graph-level planning buys.
  double joint_cycles() const { return joint_cycles_; }
  double greedy_cycles() const { return greedy_cycles_; }
  /// What compile decided, as the plain data check::audit_plan checks on
  /// every compile.
  const check::PlanAuditInput& audit_input() const { return audit_input_; }

 private:
  enum class NodeKind { kInput, kConv, kAdd, kMaxPool2, kGlobalAvgPool };

  struct NodePlan {
    NodeKind kind = NodeKind::kInput;
    int src0 = -1, src1 = -1;
    Shape4 out_shape;
    int bits = 8;
    int act_bits = 8;
    bool relu = false;
    quant::QScheme scheme;

    // conv only
    std::shared_ptr<const armkern::ArmConvPlan> conv;
    std::vector<i32> bias_q;
    quant::RequantParams rq{};
    bool fused = false;   ///< executes via execute_conv_fused
    int fused_add = -1;   ///< add node folded into this conv's epilogue
    i64 gemm_m = 0, gemm_n = 0;

    // add only
    quant::FixedPointMultiplier ma{}, mb{};
    quant::ClampRange clamp{};
    int fused_into = -1;  ///< conv node that writes this add's slot

    // global avgpool only
    quant::FixedPointMultiplier gap_m{};

    // liveness-assigned arena slot (conv with fused_add >= 0 writes the
    // add node's slot instead and has none of its own; an in-place add
    // shares its operand's)
    i64 out_offset = -1;
    i64 out_bytes = 0;
    // fused conv only: its scratch slot, live at this node alone
    i64 scratch_offset = -1;
    i64 scratch_bytes = 0;
  };

  GraphPlan() = default;

  std::vector<NodePlan> nodes_;
  i64 arena_reserve_bytes_ = 0;
  u64 graph_hash_ = 0;
  i64 packed_weight_bytes_ = 0;
  int conv_nodes_ = 0;
  int fused_convs_ = 0;
  int fused_adds_ = 0;
  double joint_cycles_ = 0;
  double greedy_cycles_ = 0;
  check::PlanAuditInput audit_input_;
};

}  // namespace lbc::core
