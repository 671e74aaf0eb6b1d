#include "core/graph_plan.h"

#include <algorithm>
#include <cstring>
#include <optional>
#include <string>

#include "armsim/cost_model.h"
#include "check/plan_audit.h"
#include "common/status.h"
#include "core/conv_plan.h"
#include "serve/thread_pool.h"

namespace lbc::core {
namespace {

// Analytic cost of the separate requantize pass an UNFUSED conv pays: the
// i32 accumulator tensor is stored by the GEMM writeback, streamed back in,
// requantized, and the int8 result stored. The fused epilogue pays only
// the in-cache requant math + int8 store (tallied by the blocked driver),
// so this charge is exactly the round trip fusion elides.
double unfused_epilogue_seconds(i64 m, i64 n) {
  armsim::Counters c;
  const u64 elems = static_cast<u64>(m * n);
  c[armsim::Op::kLd1] += (elems + 3) / 4;    // reload i32 accumulators
  c[armsim::Op::kSt1] += (elems + 15) / 16;  // store int8 activations
  c[armsim::Op::kScalar] += 2 * elems;       // requant math (same as fused)
  // The accumulator tensor left L1 between writeback and requant for all
  // but the smallest layers; charge its line traffic once.
  c[armsim::Op::kL1Miss] += (elems * 4 + 63) / 64;
  return armsim::CostModel::cortex_a53().seconds_for(c,
                                                     /*interleaved=*/false);
}

// Mirror of execute_conv_fused's precondition: only the blocked fused-pack
// GEMM rung has the TileEpilogue hook.
bool fuse_eligible(const armkern::ArmConvPlan& p) {
  return p.algo == armkern::ConvAlgo::kGemm && p.blocking.enabled() &&
         p.kernel != armkern::ArmKernel::kTraditional && p.shape.batch == 1;
}

// Actual bytes backing a plan's prepacked weights (exactly one container
// is populated, per the resolved rung) — what the auditor checks the
// declared packed_weight_bytes accounting against.
i64 packed_backing_bytes(const armkern::ArmConvPlan& p) {
  switch (p.algo) {
    case armkern::ConvAlgo::kWinograd:
      return p.winograd.packed_bytes();
    case armkern::ConvAlgo::kBitserial:
      return p.bitplanes.packed_bytes();
    default:
      // GEMM family; kTraditional (and direct/reference) consume the raw
      // weight tensor, so every container is empty and this returns 0 —
      // matching the plan's packed_weight_bytes accounting.
      return static_cast<i64>(p.sdot_a.data.size()) +
             static_cast<i64>(p.gemm_a.data.size()) +
             static_cast<i64>(p.tbl_a.idx.size()) +
             static_cast<i64>(p.tbl_a.tables.size()) +
             static_cast<i64>(p.tbl_a.ids.size());
  }
}

}  // namespace

StatusOr<GraphPlan> GraphPlan::compile(const QnnGraph& g,
                                       const GraphPlanOptions& opt) {
  LBC_VALIDATE(!g.nodes_.empty(), kInvalidArgument, "compile: empty graph");
  LBC_VALIDATE(g.calibrated_, kFailedPrecondition,
               "compile: call calibrate() first");
  LBC_VALIDATE(opt.threads >= 1 && opt.threads <= 64, kInvalidArgument,
               "compile: threads " << opt.threads << " outside [1, 64]");

  GraphPlan plan;
  const size_t n_nodes = g.nodes_.size();
  plan.nodes_.resize(n_nodes);

  std::vector<std::vector<int>> consumers(n_nodes);
  for (size_t i = 0; i < n_nodes; ++i) {
    const QnnGraph::Node& n = g.nodes_[i];
    if (n.src0 >= 0) consumers[static_cast<size_t>(n.src0)].push_back(
        static_cast<int>(i));
    if (n.src1 >= 0) consumers[static_cast<size_t>(n.src1)].push_back(
        static_cast<int>(i));
  }

  // ---- per-node plans ----------------------------------------------------
  // Every conv is planned — its weights packed — exactly once. First each
  // conv's rung and input range are resolved (resolve_conv_rung: no pack,
  // no search). Then the kernel and blocking searches of the convs that
  // need one run concurrently, and the joint search over the fused chain
  // runs on their winners. Last, each conv is planned in node order with
  // what was found.
  const bool fusion = opt.fusion == FusionMode::kOn;
  constexpr armkern::BlockedSchedule kFused = armkern::BlockedSchedule::kFused;
  // A conv on the blocked GEMM rung: its kernel (TBL against MLA, at <= 3
  // bit) and, when it fuses, its blocking come from a search.
  struct ConvSearch {
    size_t node = 0;
    armkern::ConvRung rung;
    armkern::ArmConvOptions opt;
    bool fused = false;
    bool tbl = false;                ///< result: TBL won the pricing
    /// result: TBL's per-layer table source, which seeds the joint search
    /// and keys its hash (a plan packs the source of the blocking it runs)
    armkern::TblSource source = armkern::TblSource::kStored;
    armkern::GemmBlocking blocking;  ///< result: the fused-schedule winner
    armkern::ArmKernel kernel() const {
      return tbl ? armkern::ArmKernel::kTblGemm : rung.kernel;
    }
    armkern::BlockedSchedule schedule() const {
      return fused ? armkern::BlockedSchedule::kFused
                   : armkern::BlockedSchedule::kStandalone;
    }
  };
  std::vector<ConvSearch> convs;
  // Whether a node's output passes a clamp with lo >= 0: a conv's requant
  // or an add's rescale with ReLU, seen through any 2x2 max pools (a max
  // of values >= 0 is >= 0). Inputs do not clamp.
  const auto clamps_nonneg = [&plan](int node) {
    const NodePlan* p = &plan.nodes_[static_cast<size_t>(node)];
    while (p->kind == NodeKind::kMaxPool2)
      p = &plan.nodes_[static_cast<size_t>(p->src0)];
    return (p->kind == NodeKind::kConv && p->rq.clamp.lo >= 0) ||
           (p->kind == NodeKind::kAdd && p->clamp.lo >= 0);
  };
  for (size_t i = 0; i < n_nodes; ++i) {
    const QnnGraph::Node& n = g.nodes_[i];
    NodePlan& p = plan.nodes_[i];
    p.src0 = n.src0;
    p.src1 = n.src1;
    p.out_shape = n.out_shape;
    p.bits = n.bits;
    p.act_bits = n.act_bits;
    p.relu = n.relu;
    p.scheme = n.scheme;
    switch (n.kind) {
      case QnnGraph::Kind::kInput:
        p.kind = NodeKind::kInput;
        break;
      case QnnGraph::Kind::kConv: {
        p.kind = NodeKind::kConv;
        ++plan.conv_nodes_;
        const QnnGraph::Node& src = g.nodes_[static_cast<size_t>(n.src0)];
        p.rq = quant::make_requant(src.scheme, n.weight_scheme, n.scheme,
                                   n.relu);
        p.gemm_m = n.conv.gemm_m();
        p.gemm_n = n.conv.gemm_n();
        ConvSearch cs;
        cs.node = i;
        cs.opt.bits = n.bits;
        cs.opt.algo = opt.algo;
        cs.opt.threads = opt.threads;
        // The input-range fact comes from the producer's clamp, and only
        // from there (check::audit_plan re-checks it).
        if (clamps_nonneg(n.src0))
          cs.opt.input_range = armkern::InputRange::kNonNegative;
        // Under fusion a blocked GEMM conv takes its blocking from the
        // fused-schedule search, pinned as an explicit blocking.
        if (fusion) cs.opt.blocking = armkern::BlockingPolicy::kExplicit;
        cs.rung = armkern::resolve_conv_rung(n.conv, cs.opt);
        cs.fused = fusion && cs.rung.blocked && n.conv.batch == 1;
        convs.push_back(cs);
        break;
      }
      case QnnGraph::Kind::kAdd: {
        p.kind = NodeKind::kAdd;
        const QnnGraph::Node& a = g.nodes_[static_cast<size_t>(n.src0)];
        const QnnGraph::Node& b = g.nodes_[static_cast<size_t>(n.src1)];
        p.ma = quant::make_multiplier(static_cast<double>(a.scheme.scale) /
                                      n.scheme.scale);
        p.mb = quant::make_multiplier(static_cast<double>(b.scheme.scale) /
                                      n.scheme.scale);
        p.clamp = quant::clamp_for(n.act_bits, n.relu);
        break;
      }
      case QnnGraph::Kind::kMaxPool2:
        p.kind = NodeKind::kMaxPool2;
        break;
      case QnnGraph::Kind::kGlobalAvgPool: {
        p.kind = NodeKind::kGlobalAvgPool;
        const QnnGraph::Node& src = g.nodes_[static_cast<size_t>(n.src0)];
        const i64 hw = src.out_shape.h * src.out_shape.w;
        p.gap_m = quant::make_multiplier(
            static_cast<double>(src.scheme.scale) /
            (static_cast<double>(hw) * n.scheme.scale));
        break;
      }
    }
  }

  // The searches are independent, deterministic and memoized, so they run
  // on the shared pool; a key two nodes share is searched once (the second
  // waits for the first), and the tile search holds its lock only around
  // its memo maps.
  serve::ThreadPool::global().parallel_for(
      0, static_cast<i64>(convs.size()), 1, [&](i64 begin, i64 end) {
        for (i64 j = begin; j < end; ++j) {
          ConvSearch& cs = convs[static_cast<size_t>(j)];
          const QnnGraph::Node& n = g.nodes_[cs.node];
          const armkern::BlockedSchedule sched = cs.schedule();
          // The pricing reports the TBL source it priced (the per-layer
          // pick, which seeds the joint search and keys its hash).
          armkern::TblSource source = armkern::TblSource::kStored;
          cs.tbl = cs.rung.blocked &&
                   cs.rung.kernel == armkern::ArmKernel::kOursGemm &&
                   armkern::tbl_eligible_for(n.bits) &&
                   armkern::choose_gemm_kernel(n.conv, n.bits, sched,
                                               cs.opt.input_range, &source) ==
                       armkern::ArmKernel::kTblGemm;
          if (cs.tbl) cs.source = source;
          if (cs.fused)
            cs.blocking =
                armkern::search_blocking(n.conv, n.bits, cs.kernel(), sched,
                                         cs.opt.input_range, cs.source);
        }
      });

  // ---- joint whole-net blocking over the fused conv chain ---------------
  // The chain is every conv on the blocked GEMM rung, fused or not: its
  // hash keys the graph's TuningCache rows and registry plans either way.
  std::vector<ConvSearch*> chain;
  std::vector<armkern::GraphSearchLayer> layers;
  for (ConvSearch& cs : convs) {
    const QnnGraph::Node& n = g.nodes_[cs.node];
    if (cs.rung.blocked && n.conv.batch == 1) {
      chain.push_back(&cs);
      layers.push_back(armkern::GraphSearchLayer{
          n.conv, n.bits, cs.kernel(), cs.opt.input_range, cs.source});
    }
  }
  plan.graph_hash_ =
      layers.empty() ? 0 : armkern::graph_blocking_hash(layers);

  if (opt.joint_search && fusion && !layers.empty()) {
    std::vector<gpukern::ArmBlocking> rows;
    std::optional<armkern::GraphSearchResult> searched;
    const auto run_search = [&layers, &searched] {
      searched = armkern::search_graph_blocking(layers, kFused);
      std::vector<gpukern::ArmBlocking> out;
      out.reserve(searched->blocking.size());
      for (const armkern::GemmBlocking& b : searched->blocking)
        out.push_back(gpukern::ArmBlocking{b.mc, b.kc, b.nc});
      return out;
    };
    if (opt.tuning != nullptr)
      rows = opt.tuning->get_or_search_graph(
          plan.graph_hash_, static_cast<int>(layers.size()), run_search);
    else
      rows = run_search();
    LBC_VALIDATE(rows.size() == layers.size(), kInternal,
                 "joint search returned " << rows.size() << " layers, want "
                                          << layers.size());

    // Both assignments priced under the SAME chained objective, so
    // greedy - joint is exactly the margin graph-level planning buys. A
    // search has just priced both, bit-identical to score_graph_blocking;
    // rows served by the TuningCache are priced here.
    std::vector<armkern::GemmBlocking> joint;
    for (const gpukern::ArmBlocking& r : rows)
      joint.push_back(armkern::GemmBlocking{r.mc, r.kc, r.nc});
    if (searched) {
      plan.joint_cycles_ = searched->joint_cycles;
      plan.greedy_cycles_ = searched->greedy_cycles;
    } else {
      std::vector<armkern::GemmBlocking> greedy;
      for (const ConvSearch* cs : chain) greedy.push_back(cs->blocking);
      plan.joint_cycles_ =
          armkern::score_graph_blocking(layers, joint, kFused);
      plan.greedy_cycles_ =
          armkern::score_graph_blocking(layers, greedy, kFused);
    }
    for (size_t j = 0; j < chain.size(); ++j) chain[j]->blocking = joint[j];
  }

  // ---- one plan per conv --------------------------------------------------
  for (const ConvSearch& cs : convs) {
    const QnnGraph::Node& n = g.nodes_[cs.node];
    NodePlan& p = plan.nodes_[cs.node];
    armkern::ArmConvOptions copt = cs.opt;
    if (cs.tbl) copt.kernel = armkern::ArmKernel::kTblGemm;
    if (cs.fused) copt.explicit_blocking = cs.blocking;
    // A fused conv's explicit blocking packs the table source the joint
    // search priced at it (armkern::tbl_source_at).
    LBC_ASSIGN_OR_RETURN(
        armkern::ArmConvPlan cp,
        armkern::plan_conv(n.conv, n.weight_q, copt, cs.schedule()));
    p.conv = std::make_shared<const armkern::ArmConvPlan>(std::move(cp));
    // Same static proof gate as core::plan_arm_conv, on the kernel and
    // mode that will execute.
    LBC_RETURN_IF_ERROR(prove_arm_plan(*p.conv).with_context(
        "GraphPlan::compile conv node " + std::to_string(cs.node)));
    const QnnGraph::Node& src = g.nodes_[static_cast<size_t>(n.src0)];
    LBC_ASSIGN_OR_RETURN(
        p.bias_q, quant::quantize_bias(n.bias_f, n.conv.out_c, src.scheme,
                                       n.weight_scheme, n.conv.gemm_k()));
  }

  // ---- epilogue fusion pairing ------------------------------------------
  if (fusion) {
    for (NodePlan& p : plan.nodes_)
      if (p.kind == NodeKind::kConv && fuse_eligible(*p.conv)) {
        p.fused = true;
        ++plan.fused_convs_;
      }
    // A residual add folds into its LATER conv operand: at that conv's
    // execution the other operand's activation is already resident, so the
    // epilogue can rescale both into the add's scheme and write the add
    // node's slot directly. Requires the conv to feed only this add.
    for (size_t i = 0; i < n_nodes; ++i) {
      NodePlan& a = plan.nodes_[i];
      if (a.kind != NodeKind::kAdd || a.src0 == a.src1) continue;
      const int c = std::max(a.src0, a.src1);
      NodePlan& pc = plan.nodes_[static_cast<size_t>(c)];
      if (!(pc.kind == NodeKind::kConv && pc.fused && pc.fused_add < 0))
        continue;
      const auto& cons = consumers[static_cast<size_t>(c)];
      if (cons.size() != 1 || cons[0] != static_cast<int>(i)) continue;
      pc.fused_add = static_cast<int>(i);
      a.fused_into = c;
      ++plan.fused_adds_;
    }
  }

  // ---- liveness analysis + first-fit slot assignment --------------------
  // def[i] = when the slot is first written (the producing conv for a
  // fused add); last[i] = the last node that reads it. First-fit packs
  // slots whose lifetimes overlap into disjoint offsets.
  std::vector<int> def(n_nodes), last(n_nodes);
  for (size_t i = 0; i < n_nodes; ++i) {
    const NodePlan& p = plan.nodes_[i];
    def[i] = p.fused_into >= 0 ? p.fused_into : static_cast<int>(i);
    last[i] = static_cast<int>(i);
    for (int c : consumers[i]) last[i] = std::max(last[i], c);
  }
  struct Placed {
    i64 off, bytes;
    int def, last;
    int node;
  };
  std::vector<Placed> placed;
  for (size_t i = 0; i < n_nodes; ++i) {
    NodePlan& p = plan.nodes_[i];
    if (p.kind == NodeKind::kConv && p.fused_add >= 0) continue;  // no slot
    const i64 bytes = workspace_rounded(p.out_shape.elems());
    std::vector<const Placed*> live;
    for (const Placed& q : placed)
      if (def[i] <= q.last && q.def <= last[i]) live.push_back(&q);
    std::sort(live.begin(), live.end(),
              [](const Placed* a, const Placed* b) { return a->off < b->off; });
    i64 off = 0;
    for (const Placed* q : live) {
      if (off + bytes <= q->off) break;
      off = std::max(off, q->off + q->bytes);
    }
    p.out_offset = off;
    p.out_bytes = bytes;
    placed.push_back(Placed{off, bytes, def[i], last[i],
                            static_cast<int>(i)});
    plan.activation_bytes_ =
        std::max(plan.activation_bytes_, off + bytes);
  }

  // A fused conv's scratch: its C bands (none when one K block covers K),
  // then the driver's pack-block buffers — allocated in forward's order.
  i64 peak_scratch = 0;
  for (const NodePlan& p : plan.nodes_)
    if (p.kind == NodeKind::kConv && p.fused)
      peak_scratch = std::max(
          peak_scratch,
          workspace_rounded(p.conv->fused_band_elems() *
                            static_cast<i64>(sizeof(i32))) +
              p.conv->workspace_bytes(1));
  plan.arena_reserve_bytes_ = plan.activation_bytes_ + peak_scratch;
  for (const NodePlan& p : plan.nodes_)
    if (p.kind == NodeKind::kConv)
      plan.packed_weight_bytes_ += p.conv->packed_weight_bytes;

  // ---- post-compile audit ------------------------------------------------
  // Re-derive what the planner just decided — slot placement, epilogue
  // write extents, packed-weight accounting, resolved blockings, input
  // ranges — as plain data, kept on the plan. With opt.audit the auditor
  // checks it now: a finding fails the compile with the invariant named
  // rather than corrupting activations at execute time.
  check::PlanAuditInput& audit = plan.audit_input_;
  audit.activation_bytes = plan.activation_bytes_;
  for (const Placed& q : placed)
    audit.slots.push_back(
        check::SlotInterval{q.node, q.off, q.bytes, q.def, q.last});
  for (size_t i = 0; i < n_nodes; ++i) {
    const NodePlan& p = plan.nodes_[i];
    if (p.kind != NodeKind::kConv) continue;
    if (p.fused) {
      // The epilogue streams gemm_m x gemm_n int8 rows to its
      // destination slot: the conv's own, or the fused add's.
      const NodePlan& dst =
          p.fused_add >= 0 ? plan.nodes_[static_cast<size_t>(p.fused_add)]
                           : p;
      audit.epilogues.push_back(check::EpilogueWrite{
          static_cast<int>(i), dst.out_offset, dst.out_bytes,
          dst.out_offset, p.gemm_m * p.gemm_n});
    }
    audit.packed.push_back(check::PackedRegion{
        static_cast<int>(i), p.conv->packed_weight_bytes,
        packed_backing_bytes(*p.conv)});
    const bool tbl = p.conv->kernel == armkern::ArmKernel::kTblGemm;
    if (p.conv->blocking.enabled())
      audit.blockings.push_back(check::BlockingRecord{
          static_cast<int>(i), p.conv->blocking, p.conv->shape.gemm_m(),
          p.conv->shape.gemm_n(), p.conv->shape.gemm_k(),
          p.conv->kernel == armkern::ArmKernel::kSdotExt,
          tbl ? p.conv->tbl_a.group() : 0});
    // The conv's declared input range against its producer's clamp, each
    // read from its own node; a 2x2 max pool passes its source's range on,
    // so the producer is the first node past any pools.
    check::InputRangeRecord r{static_cast<int>(i), p.src0};
    const auto node = [&plan](int id) -> const NodePlan& {
      return plan.nodes_[static_cast<size_t>(id)];
    };
    if (node(p.src0).kind == NodeKind::kMaxPool2) r.pool = p.src0;
    while (node(r.producer).kind == NodeKind::kMaxPool2)
      r.producer = node(r.producer).src0;
    const NodePlan& src = node(r.producer);
    r.nonneg =
        p.conv->requested.input_range == armkern::InputRange::kNonNegative;
    if (src.kind == NodeKind::kConv || src.kind == NodeKind::kAdd) {
      r.producer_clamps = true;
      r.producer_lo =
          src.kind == NodeKind::kConv ? src.rq.clamp.lo : src.clamp.lo;
    }
    audit.input_ranges.push_back(r);
  }
  if (opt.audit)
    LBC_RETURN_IF_ERROR(check::audit_plan(audit).to_status().with_context(
        "GraphPlan::compile audit"));
  return plan;
}

const armkern::ArmConvPlan* GraphPlan::conv_plan(i64 node) const {
  if (node < 0 || node >= node_count()) return nullptr;
  const NodePlan& p = nodes_[static_cast<size_t>(node)];
  return p.kind == NodeKind::kConv ? p.conv.get() : nullptr;
}

StatusOr<QnnGraph::RunResult> GraphPlan::forward(const Tensor<float>& x,
                                                 Workspace& arena,
                                                 Workspace& scratch) const {
  QnnGraph::RunResult res;
  res.node_seconds.resize(nodes_.size(), 0.0);
  arena.reset();
  arena.reserve(arena_reserve_bytes_);
  i8* base = static_cast<i8*>(arena.alloc(activation_bytes_));

  for (size_t i = 0; i < nodes_.size(); ++i) {
    const NodePlan& n = nodes_[i];
    i8* out = n.out_offset >= 0 ? base + n.out_offset : nullptr;
    switch (n.kind) {
      case NodeKind::kInput: {
        LBC_VALIDATE(x.shape() == n.out_shape, kInvalidArgument,
                     "forward: input shape does not match input node");
        const Tensor<i8> q = quant::quantize(x, n.scheme);
        std::memcpy(out, q.data(), static_cast<size_t>(q.elems()));
        break;
      }
      case NodeKind::kConv: {
        const NodePlan& src = nodes_[static_cast<size_t>(n.src0)];
        const i8* in = base + src.out_offset;
        if (n.fused) {
          const Workspace::Mark m = arena.mark();
          const i64 band = n.conv->fused_band_elems();
          i32* c = band > 0 ? arena.alloc_n<i32>(band) : nullptr;
          i8* dst = out;
          const i8* other = nullptr;
          quant::FixedPointMultiplier m_self{}, m_other{};
          quant::ClampRange aclamp{};
          if (n.fused_add >= 0) {
            const NodePlan& a = nodes_[static_cast<size_t>(n.fused_add)];
            const bool self_is_a = a.src0 == static_cast<int>(i);
            const int o = self_is_a ? a.src1 : a.src0;
            dst = base + a.out_offset;
            other = base + nodes_[static_cast<size_t>(o)].out_offset;
            m_self = self_is_a ? a.ma : a.mb;
            m_other = self_is_a ? a.mb : a.ma;
            aclamp = a.clamp;
          }
          armkern::TileEpilogue epi;
          epi.out_base = dst;
          epi.row_stride = n.gemm_n;
          epi.out_rows = n.gemm_m;
          const i32* bias = n.bias_q.data();
          const quant::RequantParams rq = n.rq;
          const i64 nn = n.gemm_n;
          if (n.fused_add < 0) {
            epi.fn = [dst, bias, rq, nn](i64 row, i64 col0, i64 cols,
                                         const i32* acc) {
              i8* d = dst + row * nn + col0;
              const i32 b = bias[row];
              for (i64 j = 0; j < cols; ++j)
                d[j] = quant::requantize_one(acc[j] + b, rq);
            };
          } else {
            epi.fn = [dst, other, bias, rq, nn, m_self, m_other, aclamp](
                         i64 row, i64 col0, i64 cols, const i32* acc) {
              i8* d = dst + row * nn + col0;
              const i8* oth = other + row * nn + col0;
              const i32 b = bias[row];
              for (i64 j = 0; j < cols; ++j) {
                const i8 qs = quant::requantize_one(acc[j] + b, rq);
                const i32 v = quant::apply_multiplier(qs, m_self) +
                              quant::apply_multiplier(oth[j], m_other);
                d[j] = clamp_to<i8>(v, aclamp.lo, aclamp.hi);
              }
            };
          }
          LBC_ASSIGN_OR_RETURN(
              const armkern::FusedConvResult r,
              armkern::execute_conv_fused(*n.conv, in, c, band, epi, arena));
          res.node_seconds[i] = r.seconds;
          res.seconds += r.seconds;
          arena.rewind(m);
        } else {
          // Non-fuseable rung (winograd / bitserial / unblocked / fusion
          // off): per-layer execute against the separate scratch arena
          // (execute_conv resets it), then the standalone requant pass —
          // charged its analytic epilogue cost for a fair comparison.
          Tensor<i8> tin(src.out_shape);
          std::memcpy(tin.data(), in, static_cast<size_t>(tin.elems()));
          LBC_ASSIGN_OR_RETURN(const armkern::ArmConvResult r,
                               armkern::execute_conv(*n.conv, tin, scratch));
          const Tensor<i8> q = quant::requantize(r.out, n.bias_q, n.rq);
          std::memcpy(out, q.data(), static_cast<size_t>(q.elems()));
          const double s =
              r.seconds + unfused_epilogue_seconds(n.gemm_m, n.gemm_n);
          res.node_seconds[i] = s;
          res.seconds += s;
        }
        break;
      }
      case NodeKind::kAdd: {
        if (n.fused_into >= 0) break;  // producer conv wrote this slot
        const i8* a = base + nodes_[static_cast<size_t>(n.src0)].out_offset;
        const i8* b = base + nodes_[static_cast<size_t>(n.src1)].out_offset;
        const i64 elems = n.out_shape.elems();
        for (i64 j = 0; j < elems; ++j) {
          const i32 v = quant::apply_multiplier(a[j], n.ma) +
                        quant::apply_multiplier(b[j], n.mb);
          out[j] = clamp_to<i8>(v, n.clamp.lo, n.clamp.hi);
        }
        break;
      }
      case NodeKind::kMaxPool2: {
        const NodePlan& src = nodes_[static_cast<size_t>(n.src0)];
        const i8* a = base + src.out_offset;
        const i64 ih = src.out_shape.h, iw = src.out_shape.w;
        const i64 oh = n.out_shape.h, ow = n.out_shape.w;
        for (i64 ch = 0; ch < n.out_shape.c; ++ch)
          for (i64 h = 0; h < oh; ++h)
            for (i64 w = 0; w < ow; ++w) {
              const i8* r0 = a + (ch * ih + 2 * h) * iw + 2 * w;
              const i8* r1 = r0 + iw;
              out[(ch * oh + h) * ow + w] =
                  std::max(std::max(r0[0], r0[1]), std::max(r1[0], r1[1]));
            }
        break;
      }
      case NodeKind::kGlobalAvgPool: {
        const NodePlan& src = nodes_[static_cast<size_t>(n.src0)];
        const i8* a = base + src.out_offset;
        const i64 hw = src.out_shape.h * src.out_shape.w;
        for (i64 ch = 0; ch < n.out_shape.c; ++ch) {
          i32 sum = 0;
          for (i64 j = 0; j < hw; ++j) sum += a[ch * hw + j];
          out[ch] = clamp_to<i8>(quant::apply_multiplier(sum, n.gap_m),
                                 n.scheme.qmin(), n.scheme.qmax());
        }
        break;
      }
    }
  }

  const NodePlan& last = nodes_.back();
  Tensor<i8> qout(last.out_shape);
  std::memcpy(qout.data(), base + last.out_offset,
              static_cast<size_t>(qout.elems()));
  res.out = quant::dequantize(qout, last.scheme);
  return res;
}

}  // namespace lbc::core
