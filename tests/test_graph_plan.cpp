// Whole-net graph compiler tests: fused-vs-unfused bit-exactness, residual
// add fusion, joint-vs-greedy blocking (and the incremental search's
// exactness), per-conv TBL-vs-MLA pricing, the prover gate, arena steady
// state, TuningCache v4 persistence, concurrent per-layer searches (cold
// vs warm identity, each search key once across concurrent compiles), and
// the serve-tier graph-model surface (one resident plan per model, budget
// eviction, ModelServer submit_graph contract).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstring>
#include <future>
#include <latch>
#include <memory>
#include <map>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "check/plan_audit.h"
#include "common/fault_injection.h"
#include "common/rng.h"
#include "common/workspace.h"
#include "core/graph_plan.h"
#include "core/qnn_graph.h"
#include "gpukern/tuning_cache.h"
#include "serve/server.h"

namespace lbc::core {
namespace {

/// Bottleneck graph (three convs + projection shortcut + residual add):
/// the smallest topology exercising every fusion rule at once.
QnnGraph bottleneck_graph(int bits, u64 seed = 42) {
  QnnGraph g;
  const auto in = g.add_input(8, 8);
  add_bottleneck_block(g, in, 8, 4, 16, 1, bits, seed);
  return g;
}

/// Residual chain where every add's LATER operand is the producing conv —
/// the shape the add-fusion rule targets (DenseNet-style running sum).
QnnGraph residual_chain_graph(int bits) {
  QnnGraph g;
  auto s = g.add_input(8, 8);
  for (int l = 0; l < 2; ++l) {
    const Tensor<float> w = random_ftensor(Shape4{8, 8, 3, 3}, -0.3f, 0.3f,
                                           100 + static_cast<u64>(l));
    const auto c = g.add_conv(s, 8, 3, 1, 1, bits, w, {}, /*relu=*/true);
    s = g.add_add(s, c);
  }
  return g;
}

Tensor<float> graph_input(u64 seed = 7) {
  return random_ftensor(Shape4{1, 8, 8, 8}, -1.0f, 1.0f, seed);
}

GraphPlanOptions fused_options() {
  GraphPlanOptions o;
  o.fusion = FusionMode::kOn;
  o.algo = armkern::ConvAlgo::kGemm;
  return o;
}

GraphPlanOptions unfused_options() {
  GraphPlanOptions o;
  o.fusion = FusionMode::kOff;
  o.joint_search = false;
  o.algo = armkern::ConvAlgo::kGemm;
  return o;
}

bool same_bits(const Tensor<float>& a, const Tensor<float>& b) {
  return a.elems() == b.elems() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.elems()) * sizeof(float)) == 0;
}

TEST(GraphPlan, FusedMatchesUnfusedBitExact) {
  for (int bits : {2, 3, 4, 8}) {
    QnnGraph g = bottleneck_graph(bits);
    const Tensor<float> x = graph_input();
    ASSERT_TRUE(g.calibrate(x).ok());

    const GraphPlan fused = GraphPlan::compile(g, fused_options()).value();
    const GraphPlan plain = GraphPlan::compile(g, unfused_options()).value();
    EXPECT_GT(fused.fused_convs(), 0) << bits << " bits";

    Workspace a1, s1, a2, s2;
    const auto rf = fused.forward(x, a1, s1).value();
    const auto ru = plain.forward(x, a2, s2).value();
    EXPECT_TRUE(same_bits(rf.out, ru.out))
        << bits << " bits: fused output differs from the per-layer path";
  }
}

TEST(GraphPlan, ResidualAddFusesIntoLaterConv) {
  QnnGraph g = residual_chain_graph(4);
  ASSERT_TRUE(g.calibrate(graph_input()).ok());

  const GraphPlan fused = GraphPlan::compile(g, fused_options()).value();
  // Both adds have their conv as the later operand: both must fold into
  // the producing conv's epilogue (and the convs into the fused driver).
  EXPECT_EQ(fused.fused_adds(), 2);
  EXPECT_EQ(fused.fused_convs(), 2);

  const GraphPlan plain = GraphPlan::compile(g, unfused_options()).value();
  EXPECT_EQ(plain.fused_adds(), 0);
  EXPECT_EQ(plain.fused_convs(), 0);

  Workspace a1, s1, a2, s2;
  const Tensor<float> x = graph_input();
  EXPECT_TRUE(same_bits(fused.forward(x, a1, s1).value().out,
                        plain.forward(x, a2, s2).value().out));
}

TEST(GraphPlan, FusionOffMatchesGraphForward) {
  // QnnGraph::forward executes through a cached fused plan; a kOff plan
  // must reproduce it bit for bit (same arithmetic, different schedule).
  QnnGraph g = bottleneck_graph(8);
  const Tensor<float> x = graph_input();
  ASSERT_TRUE(g.calibrate(x).ok());

  const GraphPlan plain = GraphPlan::compile(g, unfused_options()).value();
  Workspace arena, scratch;
  const auto r = plain.forward(x, arena, scratch).value();
  const auto via_graph = g.forward(x, armkern::ConvAlgo::kGemm);
  EXPECT_TRUE(same_bits(r.out, via_graph.out));
  EXPECT_EQ(r.node_seconds.size(), via_graph.node_seconds.size());
}

TEST(GraphPlan, JointSearchNeverLosesToGreedy) {
  QnnGraph g = bottleneck_graph(4);
  ASSERT_TRUE(g.calibrate(graph_input()).ok());

  const GraphPlan plan = GraphPlan::compile(g, fused_options()).value();
  ASSERT_GT(plan.greedy_cycles(), 0) << "joint search did not run";
  EXPECT_LE(plan.joint_cycles(), plan.greedy_cycles() * (1 + 1e-9));
}

ConvShape conv_shape(i64 in_c, i64 hw, i64 out_c, int kernel) {
  ConvShape s;
  s.batch = 1;
  s.in_c = in_c;
  s.in_h = s.in_w = hw;
  s.out_c = out_c;
  s.kernel = kernel;
  s.stride = 1;
  s.pad = kernel / 2;
  return s;
}

TEST(GraphPlan, IncrementalJointSearchIsBitIdenticalToFullScoring) {
  // A 2-bit TBL bottleneck chain at 7x7 (512 -> 16 -> 16 -> 512, plus a
  // 512 -> 512 projection), its inner convs ReLU-fed and each conv's table
  // source priced as GraphPlan prices it, on which trials' cache states
  // rejoin the current assignment's at a later layer boundary, so the
  // search stops them early (checked below). The objective values it
  // reports must still equal full chained scoring of the same
  // assignments, bit for bit.
  using armkern::ArmKernel;
  using armkern::InputRange;
  std::vector<armkern::GraphSearchLayer> layers = {
      {conv_shape(512, 7, 16, 1), 2, ArmKernel::kTblGemm, InputRange::kSigned},
      {conv_shape(16, 7, 16, 3), 2, ArmKernel::kTblGemm,
       InputRange::kNonNegative},
      {conv_shape(16, 7, 512, 1), 2, ArmKernel::kTblGemm,
       InputRange::kNonNegative},
      {conv_shape(512, 7, 512, 1), 2, ArmKernel::kTblGemm, InputRange::kSigned},
  };
  for (armkern::GraphSearchLayer& gl : layers)
    gl.source = armkern::choose_tbl_source(
        gl.shape, gl.bits, armkern::BlockedSchedule::kFused, gl.input);
  constexpr armkern::BlockedSchedule kFused = armkern::BlockedSchedule::kFused;
  const i64 exits_before = armkern::tile_search_stats().joint_early_exits;
  const armkern::GraphSearchResult r =
      armkern::search_graph_blocking(layers, kFused);
  EXPECT_GT(armkern::tile_search_stats().joint_early_exits, exits_before)
      << "no trial stopped early; the chain does not exercise the exit";

  // The greedy reference is what GraphPlan seeds from: the per-layer
  // winners of the fused schedule.
  std::vector<armkern::GemmBlocking> greedy;
  for (const armkern::GraphSearchLayer& gl : layers)
    greedy.push_back(armkern::search_blocking(gl.shape, gl.bits, gl.kernel,
                                              kFused, gl.input, gl.source));
  EXPECT_EQ(std::bit_cast<u64>(r.joint_cycles),
            std::bit_cast<u64>(
                armkern::score_graph_blocking(layers, r.blocking, kFused)));
  EXPECT_EQ(std::bit_cast<u64>(r.greedy_cycles),
            std::bit_cast<u64>(
                armkern::score_graph_blocking(layers, greedy, kFused)));
  EXPECT_LT(r.joint_cycles, r.greedy_cycles) << "the search moved nothing";
}

/// One bottleneck block at a size where the kernel price is decisive.
QnnGraph sized_bottleneck(int bits, i64 c, i64 hw, const Tensor<float>& x) {
  QnnGraph g;
  const auto in = g.add_input(c, hw);
  add_bottleneck_block(g, in, c, c / 2, c * 2, 1, bits, 42);
  EXPECT_TRUE(g.calibrate(x).ok());
  return g;
}

// Default options. Every compile runs the post-compile audit, which checks
// each plan's declared packed-weight bytes against its containers (TBL's
// included).
GraphPlanOptions audited() {
  GraphPlanOptions o;
  return o;
}

std::vector<armkern::ArmKernel> conv_kernels(const GraphPlan& plan) {
  std::vector<armkern::ArmKernel> out;
  for (i64 i = 0; i < plan.node_count(); ++i)
    if (const armkern::ArmConvPlan* cp = plan.conv_plan(i))
      out.push_back(cp->kernel);
  return out;
}

// The compiled plan's output must memcmp-match a plan of the same graph
// with every conv on the scalar reference rung.
void expect_matches_reference(const QnnGraph& g, const GraphPlan& plan,
                              const Tensor<float>& x) {
  GraphPlanOptions ro;
  ro.fusion = FusionMode::kOff;
  ro.joint_search = false;
  ro.algo = armkern::ConvAlgo::kReference;
  const GraphPlan ref = GraphPlan::compile(g, ro).value();
  Workspace a1, s1, a2, s2;
  EXPECT_TRUE(same_bits(plan.forward(x, a1, s1).value().out,
                        ref.forward(x, a2, s2).value().out));
}

TEST(GraphPlan, TwoBitConvsPriceToTbl) {
  // 2-bit operands are always ternary, so TBL's pair path prices below
  // MLA on every conv of the block.
  const Tensor<float> x = random_ftensor(Shape4{1, 16, 14, 14}, -1, 1, 7);
  const QnnGraph g = sized_bottleneck(2, 16, 14, x);
  const GraphPlan plan = GraphPlan::compile(g, audited()).value();
  const std::vector<armkern::ArmKernel> kernels = conv_kernels(plan);
  ASSERT_EQ(kernels.size(), 4u);
  for (size_t i = 0; i < kernels.size(); ++i)
    EXPECT_EQ(kernels[i], armkern::ArmKernel::kTblGemm) << "conv " << i;
  EXPECT_EQ(plan.fused_convs(), 4);
  EXPECT_EQ(plan.conv_plan(0), nullptr) << "the input node is not a conv";
  EXPECT_EQ(plan.conv_plan(-1), nullptr);
  EXPECT_EQ(plan.conv_plan(plan.node_count()), nullptr);
  expect_matches_reference(g, plan, x);
}

TEST(GraphPlan, ThreeBitNonTernaryConvsKeepMla) {
  // Random 3-bit weights span -3..3, so on a signed input TBL runs its
  // one-value groups and loses to MLA: the block's first conv and its
  // projection shortcut (node 4), both fed by the input node. The two
  // ReLU-fed convs see only [0, 3], so weight tables fold two activations
  // per index, which prices below MLA.
  const Tensor<float> x = random_ftensor(Shape4{1, 32, 14, 14}, -1, 1, 7);
  const QnnGraph g = sized_bottleneck(3, 32, 14, x);
  const GraphPlan plan = GraphPlan::compile(g, audited()).value();
  const std::vector<armkern::ArmKernel> kernels = conv_kernels(plan);
  ASSERT_EQ(kernels.size(), 4u);
  EXPECT_EQ(kernels[0], armkern::ArmKernel::kOursGemm);
  EXPECT_EQ(kernels[3], armkern::ArmKernel::kOursGemm);
  for (const i64 node : {2, 3}) {
    const armkern::ArmConvPlan& cp = *plan.conv_plan(node);
    EXPECT_EQ(cp.kernel, armkern::ArmKernel::kTblGemm) << "node " << node;
    EXPECT_EQ(cp.tbl_a.mode, armkern::kTbl3NonNeg) << "node " << node;
  }
  expect_matches_reference(g, plan, x);
}

/// Three fused convs, a residual add and a pool, sized so that at 2 bit
/// every conv prices to TBL with weight tables: the two 14x14 convs (few
/// rows, many columns), and the 7x7 one, which reads a max pool of the
/// ReLU'd add and so folds four activations per index. Conv node ids: 1,
/// 2, 5.
QnnGraph band_graph(int bits, const Tensor<float>& x) {
  QnnGraph g;
  const auto in = g.add_input(16, 14);
  const auto c1 = g.add_conv(
      in, 32, 1, 1, 0, bits,
      random_ftensor(Shape4{32, 16, 1, 1}, -0.4f, 0.4f, 201), {}, true);
  const auto c2 = g.add_conv(
      c1, 32, 1, 1, 0, bits,
      random_ftensor(Shape4{32, 32, 1, 1}, -0.3f, 0.3f, 202), {}, false);
  const auto sum = g.add_add(c1, c2, /*relu=*/true);
  g.add_conv(g.add_maxpool2(sum), 176, 3, 1, 1, bits,
             random_ftensor(Shape4{176, 32, 3, 3}, -0.1f, 0.1f, 203), {},
             true);
  EXPECT_TRUE(g.calibrate(x).ok());
  return g;
}

TEST(GraphPlan, FusedBandsMatchUnfusedAndReference) {
  // The fused driver keeps no m x n C: one C band per worker when K is
  // split, none when one K block covers K. Pin each conv's blocking
  // through the joint search's TuningCache rows — split K with Nc = 12,
  // Kc = K, split K with Nc = 8, so the banded TBL convs' last 16-column
  // tiles end mid-band — and run three workers per conv.
  const Tensor<float> x = random_ftensor(Shape4{1, 16, 14, 14}, -1, 1, 204);
  using armkern::ArmKernel;
  using armkern::TblOrientation;
  // Per bit width, the kernel of each conv: node 2 reads node 1's ReLU
  // output, so at 3 bit its weight tables fold two activations per index
  // and price below MLA; node 1 reads the signed input. Node 5 reads a 2x2
  // max pool of node 3's ReLU'd add — a max of values >= 0 — so it is
  // planned non-negative too, and at 3 bit its 49 columns leave each row
  // quad's tables too few calls per pass to copy them, so reading them
  // straight from the dictionary prices TBL below MLA there as well.
  struct Case {
    int bits;
    ArmKernel kernel[3];
  };
  const std::vector<gpukern::ArmBlocking> pinned = {
      {16, 8, 12}, {16, 4096, 12}, {16, 40, 8}};
  const i64 conv_nodes[] = {1, 2, 5};
  constexpr ArmKernel kMla = ArmKernel::kOursGemm, kTbl = ArmKernel::kTblGemm;
  for (const Case c : {Case{8, {kMla, kMla, kMla}}, Case{3, {kMla, kTbl, kTbl}},
                       Case{2, {kTbl, kTbl, kTbl}}}) {
    const QnnGraph g = band_graph(c.bits, x);
    GraphPlanOptions opt = fused_options();
    opt.threads = 3;
    gpukern::TuningCache cache;
    opt.tuning = &cache;
    const u64 hash = GraphPlan::compile(g, opt).value().graph_hash();
    cache.put_graph(hash, pinned);
    const GraphPlan fused = GraphPlan::compile(g, opt).value();
    ASSERT_EQ(fused.graph_hash(), hash);
    ASSERT_EQ(fused.fused_convs(), 3);
    ASSERT_EQ(fused.fused_adds(), 1);
    for (size_t j = 0; j < pinned.size(); ++j) {
      const armkern::ArmConvPlan& cp = *fused.conv_plan(conv_nodes[j]);
      const bool banded = j != 1;
      EXPECT_EQ(cp.kernel, c.kernel[j]) << c.bits << " bits, conv " << j;
      EXPECT_EQ(cp.blocking.nc, pinned[j].nc) << c.bits << " bits, conv " << j;
      EXPECT_EQ(cp.blocking.kc < cp.shape.gemm_k(), banded)
          << c.bits << " bits, conv " << j;
      EXPECT_EQ(cp.fused_band_elems(),
                banded ? 3 * cp.shape.gemm_m() * cp.blocking.nc : 0)
          << c.bits << " bits, conv " << j;
    }
    EXPECT_EQ(fused.conv_plan(1)->requested.input_range,
              armkern::InputRange::kSigned);
    EXPECT_EQ(fused.conv_plan(5)->requested.input_range,
              armkern::InputRange::kNonNegative);
    if (c.bits == 2) {
      EXPECT_EQ(fused.conv_plan(1)->tbl_a.orient,
                TblOrientation::kWeightTables);
      EXPECT_EQ(fused.conv_plan(1)->tbl_a.mode, armkern::kTbl2Pair);
      EXPECT_EQ(fused.conv_plan(2)->tbl_a.orient,
                TblOrientation::kWeightTables);
      EXPECT_EQ(fused.conv_plan(2)->tbl_a.mode, armkern::kTbl2NonNeg);
      EXPECT_EQ(fused.conv_plan(5)->tbl_a.orient,
                TblOrientation::kWeightTables);
      EXPECT_EQ(fused.conv_plan(5)->tbl_a.mode, armkern::kTbl2NonNeg);
    }
    if (c.bits == 3) {
      EXPECT_EQ(fused.conv_plan(2)->tbl_a.mode, armkern::kTbl3NonNeg);
    }

    Workspace arena, scratch, a2, s2;
    const Tensor<float> out = fused.forward(x, arena, scratch).value().out;
    EXPECT_EQ(arena.high_water(), fused.arena_reserve_bytes())
        << c.bits << " bits: the reservation is not the exact high water";
    const GraphPlan plain = GraphPlan::compile(g, unfused_options()).value();
    EXPECT_TRUE(same_bits(out, plain.forward(x, a2, s2).value().out))
        << c.bits << " bits: fused output differs from the per-layer path";
    expect_matches_reference(g, fused, x);
  }
}

TEST(GraphPlan, CompileRunsTheProverGateOnEveryConv) {
  // An 8-bit 1x1 conv deep enough to break SMLAL's i32 depth headroom:
  // 127 * 127 * K > INT32_MAX once K > 133,144. core::plan_arm_conv rejects
  // the layer; a graph holding it must not compile either.
  constexpr i64 kDepth = 133'145;
  QnnGraph g;
  const auto in = g.add_input(kDepth, 1);
  const Tensor<float> w =
      random_ftensor(Shape4{4, kDepth, 1, 1}, -0.1f, 0.1f, 5);
  g.add_conv(in, 4, 1, 1, 0, 8, w, {}, /*relu=*/false);
  ASSERT_TRUE(
      g.calibrate(random_ftensor(Shape4{1, kDepth, 1, 1}, -1, 1, 6)).ok());
  const StatusOr<GraphPlan> plan = GraphPlan::compile(g);
  ASSERT_FALSE(plan.ok());
  EXPECT_EQ(plan.status().code(), StatusCode::kInvariantViolation);
  EXPECT_NE(plan.status().to_string().find("smlal.i32-depth-headroom"),
            std::string::npos)
      << plan.status().to_string();
}

TEST(GraphPlan, ArenaReachesSteadyStateAfterFirstForward) {
  QnnGraph g = bottleneck_graph(4);
  const Tensor<float> x = graph_input();
  ASSERT_TRUE(g.calibrate(x).ok());

  const GraphPlan plan = GraphPlan::compile(g, fused_options()).value();
  EXPECT_GT(plan.arena_reserve_bytes(), 0);

  // The arena takes its one reservation and never grows; the unfused
  // executes' scratch reaches steady state on the first forward.
  Workspace arena, scratch;
  const auto r1 = plan.forward(x, arena, scratch).value();
  EXPECT_EQ(arena.high_water(), plan.arena_reserve_bytes());
  EXPECT_EQ(arena.grow_count(), 0);
  const i64 grows_after_first = scratch.grow_count();
  const auto r2 = plan.forward(x, arena, scratch).value();
  EXPECT_EQ(arena.high_water(), plan.arena_reserve_bytes());
  EXPECT_EQ(arena.grow_count(), 0);
  EXPECT_EQ(scratch.grow_count(), grows_after_first)
      << "steady-state forward re-grew its arenas";
  EXPECT_TRUE(same_bits(r1.out, r2.out));
}

// The largest sum of slot bytes live at one node — activations and fused
// conv scratch, an in-place add and the operand it writes over counted
// once: no placement of the plan's slots fits in fewer bytes.
i64 liveness_bound(const GraphPlan& plan) {
  const check::PlanAuditInput& audit = plan.audit_input();
  const auto live = [](const check::SlotInterval& s, i64 t) {
    return s.def <= t && t <= s.last;
  };
  const auto slot = [&audit](int node) -> const check::SlotInterval& {
    for (const check::SlotInterval& s : audit.slots)
      if (s.node == node && !s.scratch) return s;
    ADD_FAILURE() << "node " << node << " has no slot";
    return audit.slots.front();
  };
  i64 bound = 0;
  for (i64 t = 0; t < plan.node_count(); ++t) {
    i64 bytes = 0;
    for (const check::SlotInterval& s : audit.slots)
      if (live(s, t)) bytes += s.bytes;
    for (const check::InPlaceWrite& w : audit.in_place)
      if (live(slot(w.operand), t) && live(slot(w.add), t))
        bytes -= slot(w.operand).bytes;
    bound = std::max(bound, bytes);
  }
  return bound;
}

TEST(GraphPlan, ArenaReachesTheLivenessBoundOnThePerfbenchNets) {
  // The perfbench topologies at their true sizes: a ResNet-50 bottleneck
  // per stage at 2 bit, and a DenseNet-121 block-2 stage at 8 bit. Every
  // residual add writes over its operand, and largest-first placement
  // packs activations and conv scratch into exactly the bound.
  QnnGraph resnet;
  {
    auto n = resnet.add_input(64, 56);
    n = add_bottleneck_block(resnet, n, 64, 64, 256, 1, 2, 11);
    n = add_bottleneck_block(resnet, n, 256, 128, 512, 2, 2, 12);
    n = add_bottleneck_block(resnet, n, 512, 256, 1024, 2, 2, 13);
    n = add_bottleneck_block(resnet, n, 1024, 512, 2048, 2, 2, 14);
    resnet.add_global_avgpool(n);
    ASSERT_TRUE(resnet.calibrate(random_ftensor(Shape4{1, 64, 56, 56}, -1, 1,
                                                15))
                    .ok());
  }
  QnnGraph densenet;
  {
    auto s = densenet.add_input(128, 28);
    for (int l = 0; l < 4; ++l) {
      const auto w = [l](i64 oc, i64 ic, i64 k, u64 seed) {
        return random_ftensor(Shape4{oc, ic, k, k}, -0.25f, 0.25f,
                              seed + 2 * static_cast<u64>(l));
      };
      const auto c1 =
          densenet.add_conv(s, 128, 1, 1, 0, 8, w(128, 128, 1, 21), {}, true);
      const auto c2 =
          densenet.add_conv(c1, 128, 3, 1, 1, 8, w(128, 128, 3, 22), {}, true);
      s = densenet.add_add(s, c2);
    }
    densenet.add_global_avgpool(s);
    ASSERT_TRUE(densenet
                    .calibrate(random_ftensor(Shape4{1, 128, 28, 28}, -1, 1,
                                              23))
                    .ok());
  }
  const struct {
    const char* name;
    const QnnGraph& g;
    i64 arena;
    int adds;
  } nets[] = {{"resnet", resnet, 1'331'712, 4},
              {"densenet", densenet, 229'376, 4}};
  for (const auto& net : nets) {
    GraphPlanOptions opt;
    const GraphPlan plan = GraphPlan::compile(net.g, opt).value();
    EXPECT_EQ(static_cast<int>(plan.audit_input().in_place.size()), net.adds)
        << net.name;
    EXPECT_EQ(plan.arena_reserve_bytes(), liveness_bound(plan)) << net.name;
    EXPECT_EQ(plan.arena_reserve_bytes(), net.arena) << net.name;
  }
}

TEST(GraphPlan, TuningCachePersistsJointPlanAcrossCompiles) {
  QnnGraph g = bottleneck_graph(4);
  ASSERT_TRUE(g.calibrate(graph_input()).ok());

  gpukern::TuningCache cache;
  GraphPlanOptions opt = fused_options();
  opt.tuning = &cache;
  const GraphPlan first = GraphPlan::compile(g, opt).value();
  ASSERT_NE(first.graph_hash(), 0u);
  EXPECT_GT(cache.graph_size(), 0u) << "joint winners not persisted";

  // Ship the cache as text: a fresh process's compile must hit the stored
  // rows (no re-search) and land on the identical joint objective.
  gpukern::TuningCache shipped;
  ASSERT_TRUE(shipped.deserialize(cache.serialize()).ok());
  GraphPlanOptions opt2 = fused_options();
  opt2.tuning = &shipped;
  const i64 misses_before = shipped.misses();
  const GraphPlan second = GraphPlan::compile(g, opt2).value();
  EXPECT_EQ(shipped.misses(), misses_before);
  EXPECT_GT(shipped.hits(), 0);
  EXPECT_DOUBLE_EQ(first.joint_cycles(), second.joint_cycles());
}

// The fused conv chain of a compiled plan, in node order — what
// GraphPlan::compile hands the joint search — and each layer's blocking.
struct FusedChain {
  std::vector<armkern::GraphSearchLayer> layers;
  std::vector<armkern::GemmBlocking> blocking;
};
FusedChain fused_chain(const GraphPlan& plan) {
  FusedChain chain;
  for (i64 i = 0; i < plan.node_count(); ++i)
    if (const armkern::ArmConvPlan* cp = plan.conv_plan(i))
      if (cp->algo == armkern::ConvAlgo::kGemm && cp->blocking.enabled() &&
          cp->kernel != armkern::ArmKernel::kTraditional &&
          cp->shape.batch == 1) {
        chain.layers.push_back({cp->shape, cp->requested.bits, cp->kernel,
                                cp->requested.input_range, cp->tbl_a.source});
        chain.blocking.push_back(cp->blocking);
      }
  return chain;
}

TEST(GraphPlan, JointCyclesMatchAReScoreWhetherSearchedOrCacheServed) {
  // A fresh compile takes both objective values from the joint search; a
  // compile served by the TuningCache re-scores them. Both must be the
  // chained score of the picks, bit for bit.
  QnnGraph g = bottleneck_graph(4);
  ASSERT_TRUE(g.calibrate(graph_input()).ok());
  gpukern::TuningCache cache;
  GraphPlanOptions opt = fused_options();
  opt.tuning = &cache;
  const i64 misses = cache.misses();
  const GraphPlan fresh = GraphPlan::compile(g, opt).value();
  ASSERT_EQ(cache.misses(), misses + 1) << "the fresh compile did not search";
  const i64 hits = cache.hits();
  const GraphPlan served = GraphPlan::compile(g, opt).value();
  ASSERT_EQ(cache.hits(), hits + 1) << "the second compile was not served";

  constexpr armkern::BlockedSchedule kFused = armkern::BlockedSchedule::kFused;
  const FusedChain chain = fused_chain(fresh);
  ASSERT_EQ(static_cast<int>(chain.layers.size()), fresh.fused_convs());
  std::vector<armkern::GemmBlocking> greedy;
  for (const armkern::GraphSearchLayer& gl : chain.layers)
    greedy.push_back(armkern::search_blocking(gl.shape, gl.bits, gl.kernel,
                                              kFused, gl.input, gl.source));
  const double joint_score =
      armkern::score_graph_blocking(chain.layers, chain.blocking, kFused);
  const double greedy_score =
      armkern::score_graph_blocking(chain.layers, greedy, kFused);
  for (const GraphPlan* p : {&fresh, &served}) {
    EXPECT_EQ(std::bit_cast<u64>(p->joint_cycles()),
              std::bit_cast<u64>(joint_score));
    EXPECT_EQ(std::bit_cast<u64>(p->greedy_cycles()),
              std::bit_cast<u64>(greedy_score));
  }
}

// Plan equality that matters at run time: per conv node the kernel, TBL
// orientation, blocking and packed bytes; the joint objective values; and
// one forward's output bytes and modeled seconds.
void expect_same_plan(const GraphPlan& a, const GraphPlan& b,
                      const Tensor<float>& x) {
  ASSERT_EQ(a.node_count(), b.node_count());
  for (i64 i = 0; i < a.node_count(); ++i) {
    const armkern::ArmConvPlan* pa = a.conv_plan(i);
    const armkern::ArmConvPlan* pb = b.conv_plan(i);
    ASSERT_EQ(pa == nullptr, pb == nullptr) << "node " << i;
    if (pa == nullptr) continue;
    EXPECT_EQ(pa->kernel, pb->kernel) << "node " << i;
    EXPECT_EQ(pa->tbl_a.orient, pb->tbl_a.orient) << "node " << i;
    EXPECT_EQ(pa->blocking, pb->blocking) << "node " << i;
    EXPECT_EQ(pa->packed_weight_bytes, pb->packed_weight_bytes) << "node " << i;
  }
  EXPECT_EQ(std::bit_cast<u64>(a.joint_cycles()),
            std::bit_cast<u64>(b.joint_cycles()));
  EXPECT_EQ(std::bit_cast<u64>(a.greedy_cycles()),
            std::bit_cast<u64>(b.greedy_cycles()));
  EXPECT_EQ(a.arena_reserve_bytes(), b.arena_reserve_bytes());
  Workspace a1, s1, a2, s2;
  const QnnGraph::RunResult ra = a.forward(x, a1, s1).value();
  const QnnGraph::RunResult rb = b.forward(x, a2, s2).value();
  EXPECT_TRUE(same_bits(ra.out, rb.out));
  EXPECT_EQ(std::bit_cast<u64>(ra.seconds), std::bit_cast<u64>(rb.seconds));
}

/// A chain whose 1x1 convs repeat one shape three times (and a 3x3 conv
/// in between), with residual adds over the repeats. The shapes are used
/// by no other test, so the first compile in a process searches them.
QnnGraph repeated_shape_graph(int bits, i64 c, i64 hw,
                              const Tensor<float>& x) {
  QnnGraph g;
  auto s = g.add_input(c, hw);
  s = g.add_conv(s, c, 3, 1, 1, bits,
                 random_ftensor(Shape4{c, c, 3, 3}, -0.2f, 0.2f, 301), {},
                 true);
  for (u64 l = 0; l < 3; ++l) {
    const auto conv = g.add_conv(
        s, c, 1, 1, 0, bits,
        random_ftensor(Shape4{c, c, 1, 1}, -0.4f, 0.4f, 302 + l), {}, true);
    s = g.add_add(s, conv, /*relu=*/true);
  }
  EXPECT_TRUE(g.calibrate(x).ok());
  return g;
}

TEST(GraphPlan, ColdCompileWithConcurrentSearchesEqualsWarmCompile) {
  // The cold compile runs the per-layer searches of its convs on the pool,
  // the three repeated 1x1 convs sharing one key; the warm one is served
  // entirely from the memo.
  const Tensor<float> x = random_ftensor(Shape4{1, 24, 11, 11}, -1, 1, 300);
  const QnnGraph g = repeated_shape_graph(2, 24, 11, x);
  const GraphPlan cold = GraphPlan::compile(g).value();
  const armkern::TileSearchStats before = armkern::tile_search_stats();
  const GraphPlan warm = GraphPlan::compile(g).value();
  EXPECT_EQ(armkern::tile_search_stats().searches, before.searches);
  EXPECT_EQ(cold.fused_convs(), 4);
  for (const armkern::ArmKernel k : conv_kernels(cold))
    EXPECT_EQ(k, armkern::ArmKernel::kTblGemm);
  expect_same_plan(cold, warm, x);
  expect_matches_reference(g, cold, x);
}

// What a cold compile of `plan`'s graph should have searched, for a graph
// of fused convs: `keys`, one per distinct conv shape (TBL's at <= 3 bit —
// two, one per table source, where TBL prices weight tables — else the
// GEMM kernel's) plus MLA's for each <= 3-bit shape whose kernel pricing
// could not rule MLA out; and `calls`, the search_blocking calls it made —
// per conv the pricing's TBL (one per source) and MLA searches, the fused
// blocking, and the joint search's seed (plan_conv picks an explicit
// blocking's table source by scoring it, without a search). Whether
// pricing searched MLA shows afterwards: a probe of MLA's key is then a
// memo hit.
struct KeyCount {
  i64 keys = 0;
  i64 calls = 0;
};
KeyCount count_keys(const GraphPlan& plan) {
  constexpr armkern::BlockedSchedule kFused = armkern::BlockedSchedule::kFused;
  KeyCount kc;
  std::map<std::tuple<i64, i64, i64, i64, i64, int>, bool> mla_searched;
  for (const armkern::GraphSearchLayer& gl : fused_chain(plan).layers) {
    const ConvShape& s = gl.shape;
    const bool priced = armkern::tbl_eligible_for(gl.bits);
    const auto [it, first] = mla_searched.emplace(
        std::make_tuple(s.in_c, s.in_h, s.out_c, s.kernel, s.stride, gl.bits),
        false);
    if (first && priced) {
      const i64 searches = armkern::tile_search_stats().searches;
      armkern::search_blocking(s, gl.bits, armkern::ArmKernel::kOursGemm,
                               kFused);
      it->second = armkern::tile_search_stats().searches == searches;
    }
    const bool weight_tables =
        priced && armkern::choose_tbl_orientation(
                      s.gemm_m(), s.gemm_n(), s.gemm_k(), gl.bits, false,
                      gl.input) == armkern::TblOrientation::kWeightTables;
    const i64 tbl_keys = priced ? (weight_tables ? 2 : 1) : 0;
    if (first) kc.keys += (priced ? tbl_keys : 1) + (it->second ? 1 : 0);
    kc.calls += tbl_keys + (it->second ? 1 : 0) + 1 + 1;
  }
  return kc;
}

TEST(GraphPlanConcurrency, TwoThreadsCompileAtOnceAndSearchEachKeyOnce) {
  // Two different graphs compiled from two threads at once, each running
  // its own searches on the shared pool; both start with a conv of the
  // same shape (64 -> 64, 3x3 at 14x14), so one compile waits for the
  // other's search of it. Then a 2-bit graph with a shape repeated three
  // times. The shapes are large enough that searches of one key overlap
  // in time. Every key is searched exactly once, the stats come out as a
  // sequential run of the same calls records them, and each plan equals
  // a sequential recompile.
  const Tensor<float> x8 = random_ftensor(Shape4{1, 64, 14, 14}, -1, 1, 310);
  const Tensor<float> x2 = random_ftensor(Shape4{1, 48, 12, 12}, -1, 1, 311);
  const QnnGraph a = repeated_shape_graph(8, 64, 14, x8);
  QnnGraph b;
  {
    auto s = b.add_input(64, 14);
    s = b.add_conv(s, 64, 3, 1, 1, 8,
                   random_ftensor(Shape4{64, 64, 3, 3}, -0.1f, 0.1f, 312), {},
                   true);
    b.add_conv(s, 96, 1, 1, 0, 8,
               random_ftensor(Shape4{96, 64, 1, 1}, -0.2f, 0.2f, 313), {},
               true);
    ASSERT_TRUE(b.calibrate(x8).ok());
  }
  const QnnGraph c = repeated_shape_graph(2, 48, 12, x2);

  const armkern::TileSearchStats s0 = armkern::tile_search_stats();
  std::promise<void> go;
  std::shared_future<void> start = go.get_future().share();
  auto compile_on_thread = [&start](const QnnGraph& g) {
    return std::async(std::launch::async, [&g, start] {
      start.wait();
      return GraphPlan::compile(g).value();
    });
  };
  std::future<GraphPlan> fa = compile_on_thread(a);
  std::future<GraphPlan> fb = compile_on_thread(b);
  go.set_value();
  const GraphPlan pa = fa.get();
  const GraphPlan pb = fb.get();
  const armkern::TileSearchStats s1 = armkern::tile_search_stats();
  const GraphPlan pc = GraphPlan::compile(c).value();
  const armkern::TileSearchStats s2 = armkern::tile_search_stats();

  // 8 bit: one SMLAL key per distinct shape — the 3x3, the 1x1 repeated
  // three times, and b's 64 -> 96 1x1; a's 3x3 is b's first conv.
  const KeyCount ka = count_keys(pa), kb = count_keys(pb);
  EXPECT_EQ(s1.searches - s0.searches, 3);
  EXPECT_EQ((s1.searches + s1.memo_hits) - (s0.searches + s0.memo_hits),
            ka.calls + kb.calls);
  const KeyCount kcnt = count_keys(pc);
  EXPECT_EQ(s2.searches - s1.searches, kcnt.keys);
  EXPECT_EQ((s2.searches + s2.memo_hits) - (s1.searches + s1.memo_hits),
            kcnt.calls);

  // Sequential recompiles, served from the memo, give the same plans.
  const armkern::TileSearchStats s3 = armkern::tile_search_stats();
  expect_same_plan(pa, GraphPlan::compile(a).value(), x8);
  expect_same_plan(pb, GraphPlan::compile(b).value(), x8);
  expect_same_plan(pc, GraphPlan::compile(c).value(), x2);
  EXPECT_EQ(armkern::tile_search_stats().searches, s3.searches);
}

/// A chain of small ReLU-fed convs whose GEMM depths cover K % 4 = 0..3:
/// n1 reads the signed input (K = 6), n2 (K = 5), n3 (K = 7), n4 (3x3,
/// K = 54) and n5 (K = 8) read ReLU'd convs, n6 (K = 5) reads n1, and n8
/// (3x3, K = 72) reads the ReLU'd add of n5 and n6. Few output channels
/// over 144 columns: every conv runs TBL with weight tables, so the
/// ReLU-fed ones fold their activation indices.
QnnGraph relu_chain_graph(int bits, const Tensor<float>& x) {
  QnnGraph g;
  const auto conv = [&g, bits](int src, i64 in_c, i64 out_c, i64 k,
                               bool relu, u64 seed) {
    return g.add_conv(src, out_c, k, 1, k / 2, bits,
                      random_ftensor(Shape4{out_c, in_c, k, k}, -0.4f, 0.4f,
                                     seed),
                      {}, relu);
  };
  const auto in = g.add_input(6, 12);
  const auto n1 = conv(in, 6, 5, 1, true, 401);
  const auto n2 = conv(n1, 5, 7, 1, true, 402);
  const auto n3 = conv(n2, 7, 6, 1, true, 403);
  const auto n4 = conv(n3, 6, 8, 3, true, 404);
  const auto n5 = conv(n4, 8, 8, 1, false, 405);
  const auto n6 = conv(n1, 5, 8, 1, false, 406);
  const auto sum = g.add_add(n5, n6, /*relu=*/true);
  conv(sum, 8, 8, 3, true, 408);
  EXPECT_TRUE(g.calibrate(x).ok());
  return g;
}

TEST(GraphPlan, ReluFedConvsFoldAndMatchReference) {
  // 2 and 3 bit, fused and unfused, one and three workers, every compile
  // audited: each ReLU-fed conv runs the non-negative fold, and every
  // forward memcmp-matches the kReference plan. The fused compiles run
  // twice more with pinned joint rows: a split K (Kc = 3, clamped to the
  // fold's group) with Nc = 12, and Kc = K with Nc = 20.
  const Tensor<float> x = random_ftensor(Shape4{1, 6, 12, 12}, -1, 1, 409);
  const i64 conv_nodes[] = {1, 2, 3, 4, 5, 6, 8};
  for (const int bits : {2, 3}) {
    const QnnGraph g = relu_chain_graph(bits, x);
    for (const FusionMode fusion : {FusionMode::kOn, FusionMode::kOff})
      for (const int threads : {1, 3}) {
        const std::string where = std::to_string(bits) + " bits, " +
                                  (fusion == FusionMode::kOn ? "fused"
                                                             : "unfused") +
                                  ", threads " + std::to_string(threads);
        GraphPlanOptions opt;
        opt.fusion = fusion;
        opt.threads = threads;
        gpukern::TuningCache cache;
        opt.tuning = &cache;
        const GraphPlan plan = GraphPlan::compile(g, opt).value();
        for (const i64 node : conv_nodes) {
          const armkern::ArmConvPlan& cp = *plan.conv_plan(node);
          ASSERT_EQ(cp.kernel, armkern::ArmKernel::kTblGemm)
              << where << ", node " << node;
          ASSERT_EQ(cp.tbl_a.orient, armkern::TblOrientation::kWeightTables)
              << where << ", node " << node;
          const bool relu_fed = node != 1;
          EXPECT_EQ(cp.tbl_a.mode.fold == armkern::TblFold::kNonNegative,
                    relu_fed)
              << where << ", node " << node;
        }
        expect_matches_reference(g, plan, x);
        if (fusion == FusionMode::kOff) continue;
        for (const gpukern::ArmBlocking pin :
             {gpukern::ArmBlocking{16, 3, 12},
              gpukern::ArmBlocking{16, 4096, 20}}) {
          cache.put_graph(plan.graph_hash(),
                          std::vector<gpukern::ArmBlocking>(7, pin));
          const GraphPlan pinned = GraphPlan::compile(g, opt).value();
          for (const i64 node : conv_nodes) {
            const armkern::ArmConvPlan& cp = *pinned.conv_plan(node);
            EXPECT_EQ(cp.blocking.nc, pin.nc) << where << ", node " << node;
            EXPECT_EQ(cp.blocking.kc < cp.shape.gemm_k(), pin.kc == 3)
                << where << ", node " << node;
            EXPECT_EQ(cp.executed_layout(1).blk, cp.blocking)
                << where << ", node " << node;
          }
          expect_matches_reference(g, pinned, x);
        }
      }
  }
}

TEST(GraphPlan, EachConvIsPlannedOnce) {
  // Fused (with the joint search) and unfused compiles consult the plan
  // compile site exactly once per conv — rung resolution and the searches
  // pack nothing — and each conv's plan is exactly what one plan_conv of
  // its recorded request builds.
  const Tensor<float> x = random_ftensor(Shape4{1, 6, 12, 12}, -1, 1, 410);
  const QnnGraph g = relu_chain_graph(2, x);
  const ScopedFault armed(FaultSite::kPlanCompileFail, /*fire_count=*/0);
  for (const FusionMode fusion : {FusionMode::kOn, FusionMode::kOff}) {
    GraphPlanOptions opt;
    opt.fusion = fusion;
    const i64 before =
        FaultInjector::instance().consults(FaultSite::kPlanCompileFail);
    const GraphPlan plan = GraphPlan::compile(g, opt).value();
    EXPECT_EQ(FaultInjector::instance().consults(FaultSite::kPlanCompileFail) -
                  before,
              plan.conv_nodes());
    for (i64 i = 0; i < plan.node_count(); ++i) {
      const armkern::ArmConvPlan* cp = plan.conv_plan(i);
      if (cp == nullptr) continue;
      const armkern::ArmConvPlan again =
          armkern::plan_conv(cp->shape, cp->weight, cp->requested).value();
      EXPECT_EQ(again.kernel, cp->kernel) << "node " << i;
      EXPECT_EQ(again.blocking, cp->blocking) << "node " << i;
      EXPECT_EQ(again.tbl_a.mode, cp->tbl_a.mode) << "node " << i;
      EXPECT_EQ(again.tbl_a.idx, cp->tbl_a.idx) << "node " << i;
      EXPECT_EQ(again.tbl_a.tables, cp->tbl_a.tables) << "node " << i;
    }
  }
}

TEST(GraphPlan, PersistentCompileFaultRunsEveryConvUnfusedOnReference) {
  // Every conv's compile faults: the graph still compiles (audited) without
  // a kernel, blocking or joint search, each conv runs unfused on the
  // reference rung with the fault recorded, and the forward memcmp-matches
  // the kReference plan and the healthy fused plan.
  const Tensor<float> x = random_ftensor(Shape4{1, 16, 8, 8}, -1, 1, 411);
  const QnnGraph g = sized_bottleneck(2, 16, 8, x);
  const GraphPlan healthy = GraphPlan::compile(g, audited()).value();
  ASSERT_GT(healthy.fused_convs(), 0);
  Workspace a1, s1;
  const Tensor<float> want = healthy.forward(x, a1, s1).value().out;

  ScopedFault fault(FaultSite::kPlanCompileFail);  // persistent
  const armkern::TileSearchStats before = armkern::tile_search_stats();
  const StatusOr<GraphPlan> plan = GraphPlan::compile(g, audited());
  const armkern::TileSearchStats after = armkern::tile_search_stats();
  ASSERT_TRUE(plan.ok()) << plan.status().to_string();
  EXPECT_EQ(after.searches, before.searches);
  EXPECT_EQ(after.memo_hits, before.memo_hits);
  EXPECT_EQ(after.joint_early_exits, before.joint_early_exits);
  EXPECT_EQ(after.replays_skipped, before.replays_skipped);
  EXPECT_EQ(plan->joint_cycles(), 0);
  EXPECT_EQ(plan->fused_convs(), 0);
  EXPECT_EQ(plan->fused_adds(), 0);
  EXPECT_EQ(plan->packed_weight_bytes(), 0);
  for (i64 i = 0; i < plan->node_count(); ++i) {
    const armkern::ArmConvPlan* cp = plan->conv_plan(i);
    if (cp == nullptr) continue;
    EXPECT_EQ(cp->algo, armkern::ConvAlgo::kReference) << "node " << i;
    EXPECT_TRUE(cp->fault_degraded) << "node " << i;
    EXPECT_TRUE(cp->planned_fallback.fell_back) << "node " << i;
  }
  expect_matches_reference(g, *plan, x);
  Workspace a2, s2;
  EXPECT_TRUE(same_bits(plan->forward(x, a2, s2).value().out, want));
}

TEST(GraphPlanConcurrency, SameShapeConvsWithDifferentInputRangesSearchApart) {
  // Like n3 and n4 of the perfbench ResNet: two 1x1 24 -> 40 convs of one
  // shape, node 2 fed by a ReLU'd conv and node 3 by the signed input. One
  // cold compile searches both keys concurrently; each conv gets its own
  // winner and mode. The graph's joint rows are keyed apart too: the same
  // topology without the ReLU hashes differently, so a row pinned for one
  // is never served to the other.
  const Tensor<float> x = random_ftensor(Shape4{1, 24, 13, 13}, -1, 1, 420);
  const auto make = [&x](bool relu) {
    QnnGraph g;
    const auto in = g.add_input(24, 13);
    const auto c1 = g.add_conv(
        in, 24, 1, 1, 0, 2,
        random_ftensor(Shape4{24, 24, 1, 1}, -0.3f, 0.3f, 421), {}, relu);
    const auto c2 = g.add_conv(
        c1, 40, 1, 1, 0, 2,
        random_ftensor(Shape4{40, 24, 1, 1}, -0.3f, 0.3f, 422), {}, false);
    const auto c3 = g.add_conv(
        in, 40, 1, 1, 0, 2,
        random_ftensor(Shape4{40, 24, 1, 1}, -0.3f, 0.3f, 423), {}, false);
    g.add_add(c2, c3, /*relu=*/true);
    EXPECT_TRUE(g.calibrate(x).ok());
    return g;
  };
  const QnnGraph g = make(true);
  constexpr armkern::BlockedSchedule kFused = armkern::BlockedSchedule::kFused;
  const i64 searches_before = armkern::tile_search_stats().searches;
  const GraphPlan plan = GraphPlan::compile(g).value();
  const i64 compile_searches =
      armkern::tile_search_stats().searches - searches_before;
  const armkern::ArmConvPlan& fed_relu = *plan.conv_plan(2);
  const armkern::ArmConvPlan& fed_input = *plan.conv_plan(3);
  const ConvShape& s = fed_relu.shape;
  ASSERT_EQ(std::make_tuple(s.in_c, s.in_h, s.out_c, s.kernel, s.stride),
            std::make_tuple(fed_input.shape.in_c, fed_input.shape.in_h,
                            fed_input.shape.out_c, fed_input.shape.kernel,
                            fed_input.shape.stride));
  ASSERT_EQ(fed_relu.kernel, armkern::ArmKernel::kTblGemm);
  ASSERT_EQ(fed_input.kernel, armkern::ArmKernel::kTblGemm);
  EXPECT_EQ(fed_relu.requested.input_range, armkern::InputRange::kNonNegative);
  EXPECT_EQ(fed_input.requested.input_range, armkern::InputRange::kSigned);
  EXPECT_EQ(fed_relu.tbl_a.mode, armkern::kTbl2NonNeg);
  EXPECT_EQ(fed_input.tbl_a.mode, armkern::kTbl2Pair);
  // Both keys were searched by the compile: probing them now is two memo
  // hits and no search.
  const armkern::TileSearchStats before = armkern::tile_search_stats();
  const armkern::GemmBlocking nonneg = armkern::search_blocking(
      s, 2, armkern::ArmKernel::kTblGemm, kFused,
      armkern::InputRange::kNonNegative);
  armkern::search_blocking(s, 2, armkern::ArmKernel::kTblGemm, kFused,
                           armkern::InputRange::kSigned);
  EXPECT_EQ(armkern::tile_search_stats().searches, before.searches);
  EXPECT_EQ(armkern::tile_search_stats().memo_hits, before.memo_hits + 2);
  EXPECT_TRUE(nonneg.kc % 4 == 0 || nonneg.kc == s.gemm_k()) << nonneg.kc;
  // The compile priced TBL for three (shape, range) pairs — 24 -> 24 on the
  // signed input, and the 24 -> 40 shape once per range — searching one
  // key each, or two (one per table source) where TBL prices weight
  // tables; plus each shape's MLA key that the kernel pricing could not
  // rule out (a probe of it is then a memo hit).
  i64 tbl_keys = 0;
  for (const armkern::ArmConvPlan* cp :
       {plan.conv_plan(1), &fed_relu, &fed_input}) {
    const ConvShape& cs = cp->shape;
    tbl_keys += armkern::choose_tbl_orientation(
                    cs.gemm_m(), cs.gemm_n(), cs.gemm_k(), 2, false,
                    cp->requested.input_range) ==
                        armkern::TblOrientation::kWeightTables
                    ? 2
                    : 1;
  }
  i64 mla_keys = 0;
  for (const armkern::ArmConvPlan* cp : {plan.conv_plan(1), &fed_relu}) {
    const i64 n = armkern::tile_search_stats().searches;
    armkern::search_blocking(cp->shape, 2, armkern::ArmKernel::kOursGemm,
                             kFused);
    if (armkern::tile_search_stats().searches == n) ++mla_keys;
  }
  EXPECT_EQ(compile_searches, tbl_keys + mla_keys);

  const QnnGraph plain = make(false);
  gpukern::TuningCache cache;
  GraphPlanOptions opt;
  opt.tuning = &cache;
  const u64 relu_hash = GraphPlan::compile(g, opt).value().graph_hash();
  EXPECT_EQ(relu_hash, plan.graph_hash());
  const i64 misses = cache.misses();
  const GraphPlan other = GraphPlan::compile(plain, opt).value();
  EXPECT_NE(other.graph_hash(), relu_hash);
  EXPECT_EQ(cache.misses(), misses + 1)
      << "the signed graph was served the ReLU graph's joint row";
  EXPECT_EQ(other.conv_plan(2)->tbl_a.mode, armkern::kTbl2Pair);
}

TEST(GraphPlan, GraphHashKeysTopologyAndBits) {
  QnnGraph a = bottleneck_graph(4), b = bottleneck_graph(4, /*seed=*/43);
  QnnGraph c = bottleneck_graph(8);
  const Tensor<float> x = graph_input();
  ASSERT_TRUE(a.calibrate(x).ok());
  ASSERT_TRUE(b.calibrate(x).ok());
  ASSERT_TRUE(c.calibrate(x).ok());
  const GraphPlan pa = GraphPlan::compile(a, fused_options()).value();
  const GraphPlan pb = GraphPlan::compile(b, fused_options()).value();
  const GraphPlan pc = GraphPlan::compile(c, fused_options()).value();
  ASSERT_NE(pa.graph_hash(), 0u);
  // Same topology + bits hash alike regardless of weights; a different
  // bit width is a different joint-search problem.
  EXPECT_EQ(pa.graph_hash(), pb.graph_hash());
  EXPECT_NE(pa.graph_hash(), pc.graph_hash());
}

TEST(GraphPlan, CompileValidatesGraphAndOptions) {
  QnnGraph empty;
  EXPECT_EQ(GraphPlan::compile(empty).status().code(),
            StatusCode::kInvalidArgument);

  QnnGraph uncal = bottleneck_graph(8);
  EXPECT_EQ(GraphPlan::compile(uncal).status().code(),
            StatusCode::kFailedPrecondition);

  QnnGraph g = bottleneck_graph(8);
  ASSERT_TRUE(g.calibrate(graph_input()).ok());
  GraphPlanOptions bad = fused_options();
  bad.threads = 0;
  EXPECT_EQ(GraphPlan::compile(g, bad).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(GraphPlan, ForwardRejectsMismatchedInput) {
  QnnGraph g = bottleneck_graph(8);
  ASSERT_TRUE(g.calibrate(graph_input()).ok());
  const GraphPlan plan = GraphPlan::compile(g, fused_options()).value();
  Workspace arena, scratch;
  const Tensor<float> wrong = random_ftensor(Shape4{1, 8, 6, 6}, -1, 1, 9);
  EXPECT_EQ(plan.forward(wrong, arena, scratch).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace lbc::core

namespace lbc::serve {
namespace {

using core::FusionMode;
using core::GraphPlan;
using core::GraphPlanOptions;
using core::QnnGraph;

std::shared_ptr<const QnnGraph> make_graph(int bits, i64 channels = 8,
                                           u64 seed = 42) {
  auto g = std::make_shared<QnnGraph>();
  const auto in = g->add_input(channels, 8);
  core::add_bottleneck_block(*g, in, channels, 4, 16, 1, bits, seed);
  const Tensor<float> x =
      random_ftensor(Shape4{1, channels, 8, 8}, -1.0f, 1.0f, 7);
  EXPECT_TRUE(g->calibrate(x).ok());
  return g;
}

GraphModelSpec make_graph_spec(int bits, i64 channels = 8, u64 seed = 42) {
  GraphModelSpec spec;
  spec.graph = make_graph(bits, channels, seed);
  spec.options.algo = armkern::ConvAlgo::kGemm;
  return spec;
}

TEST(RegistryGraphModels, RegisterValidatesAndAcquireHits) {
  ModelRegistry reg;
  EXPECT_EQ(reg.register_graph_model("", make_graph_spec(4)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(reg.register_graph_model("g", GraphModelSpec{}).code(),
            StatusCode::kInvalidArgument);
  GraphModelSpec uncal;
  uncal.graph = std::make_shared<QnnGraph>();
  EXPECT_EQ(reg.register_graph_model("g", std::move(uncal)).code(),
            StatusCode::kInvalidArgument);

  ASSERT_TRUE(reg.register_graph_model("g", make_graph_spec(4)).ok());
  EXPECT_EQ(reg.register_graph_model("g", make_graph_spec(4)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(reg.contains("g"));
  EXPECT_EQ(reg.acquire_plan("g").status().code(), StatusCode::kNotFound)
      << "g is a graph model, not a conv model";

  auto p1 = reg.acquire_graph_plan("g");
  ASSERT_TRUE(p1.ok()) << p1.status().to_string();
  EXPECT_GT(p1.value()->packed_weight_bytes(), 0);
  auto p2 = reg.acquire_graph_plan("g");
  ASSERT_TRUE(p2.ok());
  EXPECT_EQ(p1.value().get(), p2.value().get()) << "second acquire must hit";
  EXPECT_TRUE(reg.plan_resident("g"));

  const RegistryStats st = reg.stats();
  EXPECT_EQ(st.graph_models, 1);
  EXPECT_EQ(st.graph_acquires, 2);
  EXPECT_EQ(st.resident_graph_bytes, p1.value()->packed_weight_bytes());

  EXPECT_EQ(reg.acquire_graph_plan("ghost").status().code(),
            StatusCode::kNotFound);
  ASSERT_TRUE(reg.unregister_model("g").ok());
  EXPECT_EQ(reg.stats().resident_graph_bytes, 0);
  EXPECT_EQ(reg.unregister_model("g").code(), StatusCode::kNotFound);
}

// Two threads acquire one graph model at once: the loser of the compile
// race serves the winner's plan, so one plan stays resident, and both
// answers are bit-exact with a direct compile.
TEST(RegistryGraphModels, ConcurrentAcquiresKeepOneResidentPlan) {
  ModelRegistry reg;
  GraphModelSpec spec = make_graph_spec(4);
  const auto graph = spec.graph;
  const GraphPlanOptions options = spec.options;
  ASSERT_TRUE(reg.register_graph_model("g", std::move(spec)).ok());

  std::promise<void> go;
  const std::shared_future<void> start = go.get_future().share();
  std::shared_ptr<const GraphPlan> got[2];
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t)
    threads.emplace_back([&, t] {
      start.wait();
      auto p = reg.acquire_graph_plan("g");
      if (p.ok()) got[t] = std::move(p).value();
    });
  go.set_value();
  for (std::thread& th : threads) th.join();
  ASSERT_NE(got[0], nullptr);
  ASSERT_NE(got[1], nullptr);
  EXPECT_EQ(got[0].get(), got[1].get());
  EXPECT_TRUE(reg.plan_resident("g"));
  EXPECT_EQ(reg.stats().graph_acquires, 2);
  EXPECT_EQ(reg.stats().resident_graph_bytes, got[0]->packed_weight_bytes());

  const Tensor<float> x = random_ftensor(Shape4{1, 8, 8, 8}, -1.0f, 1.0f, 7);
  Workspace arena, scratch;
  const Tensor<float> want = GraphPlan::compile(*graph, options)
                                 .value()
                                 .forward(x, arena, scratch)
                                 .value()
                                 .out;
  for (const auto& plan : got)
    EXPECT_TRUE(core::same_bits(plan->forward(x, arena, scratch).value().out,
                                want));
}

TEST(RegistryGraphModels, BudgetEvictsAcrossConvAndGraphPlans) {
  // Measure footprints unbudgeted first.
  i64 graph_bytes = 0, conv_bytes = 0;
  {
    ModelRegistry probe;
    ASSERT_TRUE(probe.register_graph_model("g", make_graph_spec(4)).ok());
    graph_bytes = probe.acquire_graph_plan("g").value()->packed_weight_bytes();
    ModelSpec conv;
    conv.shape.name = "budget-conv";
    conv.shape.batch = 1;
    conv.shape.in_c = 8;
    conv.shape.in_h = 6;
    conv.shape.in_w = 6;
    conv.shape.out_c = 16;
    conv.shape.kernel = 3;
    conv.shape.stride = 1;
    conv.shape.pad = 1;
    conv.weight = random_qtensor(Shape4{16, 8, 3, 3}, 8, 5);
    ASSERT_TRUE(probe.register_model("c", conv).ok());
    conv_bytes = probe.acquire_plan("c").value()->packed_weight_bytes();
  }
  ASSERT_GT(graph_bytes, 0);
  ASSERT_GT(conv_bytes, 0);

  // Budget fits the larger plan alone: acquiring the second plan must
  // evict the first (LRU across BOTH kinds), and re-acquiring recompiles.
  RegistryOptions opt;
  opt.plan_budget_bytes = std::max(graph_bytes, conv_bytes);
  ModelRegistry reg(opt);
  ASSERT_TRUE(reg.register_graph_model("g", make_graph_spec(4)).ok());
  ModelSpec conv;
  conv.shape.name = "budget-conv";
  conv.shape.batch = 1;
  conv.shape.in_c = 8;
  conv.shape.in_h = 6;
  conv.shape.in_w = 6;
  conv.shape.out_c = 16;
  conv.shape.kernel = 3;
  conv.shape.stride = 1;
  conv.shape.pad = 1;
  conv.weight = random_qtensor(Shape4{16, 8, 3, 3}, 8, 5);
  ASSERT_TRUE(reg.register_model("c", conv).ok());

  ASSERT_TRUE(reg.acquire_graph_plan("g").ok());
  EXPECT_TRUE(reg.plan_resident("g"));
  ASSERT_TRUE(reg.acquire_plan("c").ok());
  EXPECT_TRUE(reg.plan_resident("c"));
  EXPECT_FALSE(reg.plan_resident("g"))
      << "older graph plan must yield to the budget";
  EXPECT_GE(reg.stats().graph_evictions, 1);

  // The evicted model recompiles on demand (weights stayed pinned).
  ASSERT_TRUE(reg.acquire_graph_plan("g").ok());
  EXPECT_TRUE(reg.plan_resident("g"));
}

TEST(ServerGraphModels, SubmitGraphServesBitExact) {
  ModelServer server;
  const auto graph = make_graph(4);
  GraphModelOptions opt;
  opt.plan.algo = armkern::ConvAlgo::kGemm;
  ASSERT_TRUE(server.add_graph_model("net", graph, opt).ok());
  EXPECT_EQ(server.add_graph_model("net", graph, opt).code(),
            StatusCode::kInvalidArgument);

  const Tensor<float> x = random_ftensor(Shape4{1, 8, 8, 8}, -1.0f, 1.0f, 7);
  auto fut = server.submit_graph("net", x);
  ASSERT_TRUE(fut.ok()) << fut.status().to_string();
  const GraphInferResponse resp = std::move(fut).value().get();
  ASSERT_TRUE(resp.status.ok()) << resp.status.to_string();
  EXPECT_EQ(resp.batch_size, 1);
  EXPECT_GT(resp.model_seconds, 0);
  EXPECT_GT(resp.fused_convs, 0);

  // Bit-exact against a directly compiled plan over the same graph.
  GraphPlanOptions direct;
  direct.algo = armkern::ConvAlgo::kGemm;
  const GraphPlan plan = GraphPlan::compile(*graph, direct).value();
  Workspace arena, scratch;
  const auto want = plan.forward(x, arena, scratch).value();
  ASSERT_EQ(resp.output.elems(), want.out.elems());
  EXPECT_EQ(std::memcmp(resp.output.data(), want.out.data(),
                        static_cast<size_t>(want.out.elems()) * sizeof(float)),
            0);

  ASSERT_NE(server.metrics("net"), nullptr);
  const MetricsSnapshot ms = server.metrics("net")->snapshot();
  EXPECT_EQ(ms.completed, 1);
  const auto health = server.health_snapshot();
  bool found = false;
  for (const auto& h : health) found = found || h.name == "net";
  EXPECT_TRUE(found) << "graph model missing from the health snapshot";

  EXPECT_EQ(server.submit_graph("ghost", x).status().code(),
            StatusCode::kNotFound);
}

// Two graph models over same-shaped nets with different weights: each
// answers from its own compiled plan, and the budget charges both plans.
// A model over the same graph object as another compiles its own plan too.
TEST(ServerGraphModels, SameShapedGraphsServeTheirOwnPlans) {
  ModelServer server;
  GraphModelOptions opt;
  opt.plan.algo = armkern::ConvAlgo::kGemm;
  const std::shared_ptr<const QnnGraph> graphs[2] = {make_graph(4, 8, 42),
                                                     make_graph(4, 8, 43)};
  const char* names[2] = {"a", "b"};
  const Tensor<float> x = random_ftensor(Shape4{1, 8, 8, 8}, -1.0f, 1.0f, 7);
  i64 plan_bytes = 0;
  for (int m = 0; m < 2; ++m)
    ASSERT_TRUE(server.add_graph_model(names[m], graphs[m], opt).ok());
  for (int m = 0; m < 2; ++m) {
    auto fut = server.submit_graph(names[m], x);
    ASSERT_TRUE(fut.ok()) << fut.status().to_string();
    const GraphInferResponse resp = std::move(fut).value().get();
    ASSERT_TRUE(resp.status.ok()) << resp.status.to_string();
    Workspace arena, scratch;
    const Tensor<float> want = GraphPlan::compile(*graphs[m], opt.plan)
                                   .value()
                                   .forward(x, arena, scratch)
                                   .value()
                                   .out;
    EXPECT_TRUE(core::same_bits(resp.output, want))
        << names[m] << " must answer from its own plan";
    plan_bytes += server.registry()
                      .acquire_graph_plan(names[m])
                      .value()
                      ->packed_weight_bytes();
  }
  EXPECT_EQ(server.registry().stats().resident_graph_bytes, plan_bytes);

  ASSERT_TRUE(server.add_graph_model("a-twin", graphs[0], opt).ok());
  const auto twin = server.registry().acquire_graph_plan("a-twin").value();
  EXPECT_NE(twin.get(), server.registry().acquire_graph_plan("a").value().get());
  EXPECT_EQ(server.registry().stats().resident_graph_bytes,
            plan_bytes + twin->packed_weight_bytes());
}

TEST(ServerGraphModels, CompileFaultServesReferenceAndKeepsNoPlan) {
  // A graph model registered under a persistent compile fault answers
  // bit-exact from its reference-rung convs, unfused, and the registry
  // keeps no graph plan; once the fault clears, the next acquire compiles
  // and keeps the fused plan.
  ModelServer server;
  const auto graph = make_graph(2);
  const Tensor<float> x = random_ftensor(Shape4{1, 8, 8, 8}, -1.0f, 1.0f, 7);
  GraphPlanOptions ro;
  ro.fusion = FusionMode::kOff;
  ro.joint_search = false;
  ro.algo = armkern::ConvAlgo::kReference;
  Workspace arena, scratch;
  const Tensor<float> want =
      GraphPlan::compile(*graph, ro).value().forward(x, arena, scratch)
          .value()
          .out;
  const auto same_as_want = [&want](const Tensor<float>& got) {
    return got.elems() == want.elems() &&
           std::memcmp(got.data(), want.data(),
                       static_cast<size_t>(want.elems()) * sizeof(float)) ==
               0;
  };
  {
    ScopedFault fault(FaultSite::kPlanCompileFail);  // persistent
    ASSERT_TRUE(server.add_graph_model("net", graph, GraphModelOptions{}).ok());
    EXPECT_FALSE(server.registry().plan_resident("net"));
    auto fut = server.submit_graph("net", x);
    ASSERT_TRUE(fut.ok()) << fut.status().to_string();
    const GraphInferResponse resp = std::move(fut).value().get();
    ASSERT_TRUE(resp.status.ok()) << resp.status.to_string();
    EXPECT_TRUE(same_as_want(resp.output));
    EXPECT_EQ(resp.fused_convs, 0);
    EXPECT_TRUE(resp.fallback.fell_back);
    EXPECT_FALSE(server.registry().plan_resident("net"));
    EXPECT_EQ(server.breaker("net")->state(), BreakerState::kClosed);
  }
  const auto healed = server.registry().acquire_graph_plan("net");
  ASSERT_TRUE(healed.ok()) << healed.status().to_string();
  EXPECT_GT((*healed)->fused_convs(), 0);
  EXPECT_TRUE(server.registry().plan_resident("net"));
  auto fut = server.submit_graph("net", x);
  ASSERT_TRUE(fut.ok());
  const GraphInferResponse resp = std::move(fut).value().get();
  ASSERT_TRUE(resp.status.ok()) << resp.status.to_string();
  EXPECT_TRUE(same_as_want(resp.output));
  EXPECT_GT(resp.fused_convs, 0);
  EXPECT_FALSE(resp.fallback.fell_back);
}

TEST(ServerGraphModels, OpenBreakerFastFailsAndShutdownRejects) {
  ModelServer server;
  GraphModelOptions opt;
  opt.plan.algo = armkern::ConvAlgo::kGemm;
  opt.breaker.consecutive_failures = 3;
  ASSERT_TRUE(server.add_graph_model("net", make_graph(4), opt).ok());

  CircuitBreaker* breaker = server.breaker("net");
  ASSERT_NE(breaker, nullptr) << "breaker() must resolve graph models";
  for (int i = 0; i < 3; ++i)
    breaker->record(CircuitBreaker::Outcome::kFailure);
  ASSERT_EQ(breaker->state(), BreakerState::kOpen);

  const Tensor<float> x = random_ftensor(Shape4{1, 8, 8, 8}, -1.0f, 1.0f, 7);
  EXPECT_EQ(server.submit_graph("net", x).status().code(),
            StatusCode::kUnavailable);
  EXPECT_GE(server.metrics("net")->snapshot().unavailable, 1);

  server.shutdown();
  EXPECT_EQ(server.submit_graph("net", x).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(server.add_graph_model("late", make_graph(4), opt).code(),
            StatusCode::kFailedPrecondition);
}

// A server on a one-worker pool whose worker is held by a latch task until
// release(), so a graph execution submitted meanwhile stays in flight. The
// constructor waits until the worker runs the latch task, and the
// destructor releases the worker before the server shuts down, since
// shutdown waits for the held executions.
struct HeldPoolServer {
  std::latch running{1};
  std::latch hold{1};
  ThreadPool pool{1};
  ModelServer server{ServerOptions{.registry = {}, .pool = &pool}};
  bool released = false;

  HeldPoolServer() {
    pool.submit([this] {
      running.count_down();
      hold.wait();
    });
    running.wait();
  }
  ~HeldPoolServer() { release(); }
  void release() {
    if (!released) hold.count_down();
    released = true;
  }
};

GraphModelOptions capped_options() {
  GraphModelOptions opt;
  opt.plan.algo = armkern::ConvAlgo::kGemm;
  opt.max_inflight = 1;
  opt.breaker.consecutive_failures = 3;
  opt.breaker.cooldown = std::chrono::milliseconds(20);
  opt.breaker.probe_successes = 1;
  return opt;
}

TEST(ServerGraphModels, InflightCapShedsOverloadedAndCountsQueueFull) {
  HeldPoolServer held;
  ModelServer& server = held.server;
  ASSERT_TRUE(server.add_graph_model("net", make_graph(4), capped_options())
                  .ok());
  const Tensor<float> x = random_ftensor(Shape4{1, 8, 8, 8}, -1.0f, 1.0f, 7);

  auto first = server.submit_graph("net", x);
  ASSERT_TRUE(first.ok()) << first.status().to_string();
  EXPECT_EQ(server.submit_graph("net", x).status().code(),
            StatusCode::kOverloaded);
  const MetricsSnapshot ms = server.metrics("net")->snapshot();
  EXPECT_EQ(ms.sheds[static_cast<size_t>(ShedReason::kQueueFull)], 1);
  EXPECT_EQ(ms.rejected, 1);

  held.release();
  EXPECT_TRUE(std::move(first).value().get().status.ok());
  auto next = server.submit_graph("net", x);
  ASSERT_TRUE(next.ok()) << "the completed execution freed its slot";
  EXPECT_TRUE(std::move(next).value().get().status.ok());
  EXPECT_EQ(server.breaker("net")->state(), BreakerState::kClosed)
      << "a shed request is not a breaker failure";
}

TEST(ServerGraphModels, ProbeShedAtTheCapReleasesItsSlot) {
  HeldPoolServer held;
  ModelServer& server = held.server;
  ASSERT_TRUE(server.add_graph_model("net", make_graph(4), capped_options())
                  .ok());
  const Tensor<float> x = random_ftensor(Shape4{1, 8, 8, 8}, -1.0f, 1.0f, 7);

  // One execution holds the cap; then the breaker opens and cools down.
  auto first = server.submit_graph("net", x);
  ASSERT_TRUE(first.ok()) << first.status().to_string();
  CircuitBreaker* breaker = server.breaker("net");
  for (int i = 0; i < 3; ++i)
    breaker->record(CircuitBreaker::Outcome::kFailure);
  ASSERT_EQ(breaker->state(), BreakerState::kOpen);
  std::this_thread::sleep_for(std::chrono::milliseconds(40));

  // A half-open probe at the cap is shed, and frees its probe slot: the
  // next arrival probes too (a lost slot would fast-fail it kUnavailable).
  EXPECT_EQ(server.submit_graph("net", x).status().code(),
            StatusCode::kOverloaded);
  EXPECT_EQ(server.submit_graph("net", x).status().code(),
            StatusCode::kOverloaded);
  EXPECT_EQ(breaker->probes(), 2);

  held.release();
  EXPECT_TRUE(std::move(first).value().get().status.ok());
  auto probe = server.submit_graph("net", x);
  ASSERT_TRUE(probe.ok()) << probe.status().to_string();
  const GraphInferResponse resp = std::move(probe).value().get();
  EXPECT_TRUE(resp.status.ok()) << resp.status.to_string();
  EXPECT_TRUE(resp.probe);
  EXPECT_EQ(breaker->state(), BreakerState::kClosed);
}

TEST(ServerGraphModels, ReferenceFallbackServesThePinnedPlanWhileOpen) {
  ModelServer server;
  const auto graph = make_graph(4);
  GraphModelOptions opt;
  opt.plan.algo = armkern::ConvAlgo::kGemm;
  opt.breaker.consecutive_failures = 3;
  opt.breaker.cooldown = std::chrono::seconds(10);  // stays open
  opt.breaker_mode = BreakerMode::kReferenceFallback;
  ASSERT_TRUE(server.add_graph_model("net", graph, opt).ok());
  CircuitBreaker* breaker = server.breaker("net");
  for (int i = 0; i < 3; ++i)
    breaker->record(CircuitBreaker::Outcome::kFailure);
  ASSERT_EQ(breaker->state(), BreakerState::kOpen);

  const Tensor<float> x = random_ftensor(Shape4{1, 8, 8, 8}, -1.0f, 1.0f, 7);
  auto fut = server.submit_graph("net", x);
  ASSERT_TRUE(fut.ok()) << fut.status().to_string();
  const GraphInferResponse resp = std::move(fut).value().get();
  ASSERT_TRUE(resp.status.ok()) << resp.status.to_string();
  EXPECT_EQ(resp.fused_convs, 0) << "the fallback plan is unfused";

  Workspace arena, scratch;
  const Tensor<float> want = GraphPlan::compile(*graph, opt.plan)
                                 .value()
                                 .forward(x, arena, scratch)
                                 .value()
                                 .out;
  ASSERT_EQ(resp.output.elems(), want.elems());
  EXPECT_EQ(std::memcmp(resp.output.data(), want.data(),
                        static_cast<size_t>(want.elems()) * sizeof(float)),
            0);
  EXPECT_EQ(server.metrics("net")->snapshot().fallback_served, 1);
  EXPECT_EQ(breaker->state(), BreakerState::kOpen)
      << "fallback service must not close the breaker";
}

}  // namespace
}  // namespace lbc::serve
