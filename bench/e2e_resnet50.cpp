// End-to-end graph-compiler bench: whole-net GraphPlan (fused epilogues +
// joint blocking) vs the per-layer unfused path on a shrunk ResNet-50
// bottleneck stack and a DenseNet-style block graph, bits 2-8.
//
// Four things are checked per (graph, bits) row:
//
//   * bit-exactness — the fused forward (FusionMode::kOn) must produce the
//     IDENTICAL dequantized output as the unfused per-layer path
//     (FusionMode::kOff): both run the same fixed-point requant arithmetic
//     in the same order, so any difference is a fusion bug, not noise. The
//     bench exits nonzero on the first mismatch.
//   * fused <= unfused — fusion elides the i32 accumulator round trip, so
//     the fused forward's modeled time must not exceed the per-layer
//     path's.
//   * joint-vs-greedy margin — the whole-net joint {Mc, Kc, Nc} search must
//     never be worse than the per-layer-greedy seed under the chained
//     cache-replay objective, and the aggregate margin is reported.
//   * exact regression gate — every modeled quantity is deterministic, so
//     each row (fused/unfused seconds, fusion counts, the fused plan's
//     arena and packed-weight bytes, joint/greedy cycles) must match the
//     committed bench/baselines/BENCH_e2e.json exactly, as printed there.
//     Refresh after a deliberate change with:
//       LBC_BENCH_JSON=bench/baselines/BENCH_e2e.json build/bench/e2e_resnet50
#include <cstdio>
#include <cstring>
#include <string>

#include "bench_common.h"
#include "common/workspace.h"
#include "core/graph_plan.h"
#include "core/qnn_graph.h"

using namespace lbc;

namespace {

/// Shrunk ResNet-50: three bottleneck stages (reduce -> 3x3 -> expand with
/// projection shortcuts, one strided) over a 14x14 input, global-avgpool
/// head. Same topology as the paper's network at sizes the joint search
/// sweeps quickly.
core::QnnGraph build_resnet_stack(int bits) {
  core::QnnGraph g;
  auto n = g.add_input(16, 14);
  n = core::add_bottleneck_block(g, n, 16, 8, 32, 1, bits, 21);
  n = core::add_bottleneck_block(g, n, 32, 8, 32, 1, bits, 22);
  n = core::add_bottleneck_block(g, n, 32, 16, 64, 2, bits, 23);
  g.add_global_avgpool(n);
  return g;
}

/// DenseNet-style block: each 3x3 growth conv reads the running feature
/// sum and its (ReLU'd) output folds back in through a residual add — the
/// graph runtime has no concat node, so dense connectivity is approximated
/// with running sums. Every add is fusable into its producing conv.
core::QnnGraph build_densenet_block(int bits) {
  core::QnnGraph g;
  auto s = g.add_input(24, 12);
  for (int l = 0; l < 4; ++l) {
    const Tensor<float> w = random_ftensor(Shape4{24, 24, 3, 3}, -0.25f,
                                           0.25f, 31 + static_cast<u64>(l));
    const auto c = g.add_conv(s, 24, 3, 1, 1, bits, w, {}, /*relu=*/true);
    s = g.add_add(s, c);
  }
  g.add_global_avgpool(s);
  return g;
}

constexpr const char* kRefreshCommand =
    "LBC_BENCH_JSON=bench/baselines/BENCH_e2e.json build/bench/e2e_resnet50";

}  // namespace

int main() {
  core::print_environment_banner();
  std::printf("== whole-net GraphPlan: fused + joint blocking vs per-layer "
              "unfused, bits 2-8 ==\n\n");

  struct GraphCase {
    const char* name;
    core::QnnGraph (*build)(int);
    Shape4 in_shape;
  };
  const GraphCase cases[] = {
      {"resnet50-stack", build_resnet_stack, Shape4{1, 16, 14, 14}},
      {"densenet-block", build_densenet_block, Shape4{1, 24, 12, 12}},
  };

  std::printf("%-15s %4s %11s %11s %8s %6s %5s %13s %13s %9s\n", "graph",
              "bits", "fused ms", "unfused ms", "speedup", "fconv", "fadd",
              "joint Mcyc", "greedy Mcyc", "margin%");
  bench::Document doc{
      "e2e_resnet50", "modeled-cycles",
      std::string("Whole-net GraphPlan: fused epilogues + joint blocking vs "
                  "the unfused per-layer path, bits 2-8. Gate: every record "
                  "must match exactly. Refresh: ") +
          kRefreshCommand,
      {}, {}};
  double joint_total = 0, greedy_total = 0;
  int rc = 0;
  for (const GraphCase& gc : cases) {
    for (int bits = 2; bits <= 8; ++bits) {
      core::QnnGraph g = gc.build(bits);
      const Tensor<float> x = random_ftensor(gc.in_shape, -1.0f, 1.0f, 77);
      const Status cal = g.calibrate(x);
      if (!cal.ok()) {
        std::fprintf(stderr, "calibrate(%s, %d bits): %s\n", gc.name, bits,
                     cal.message().c_str());
        return 1;
      }

      core::GraphPlanOptions fused_opt;
      fused_opt.fusion = core::FusionMode::kOn;
      fused_opt.algo = armkern::ConvAlgo::kGemm;
      core::GraphPlanOptions unfused_opt;
      unfused_opt.fusion = core::FusionMode::kOff;
      unfused_opt.joint_search = false;
      unfused_opt.algo = armkern::ConvAlgo::kGemm;

      const core::GraphPlan fused =
          core::GraphPlan::compile(g, fused_opt).value();
      const core::GraphPlan unfused =
          core::GraphPlan::compile(g, unfused_opt).value();
      Workspace a1, s1, a2, s2;
      const core::QnnGraph::RunResult rf = fused.forward(x, a1, s1).value();
      const core::QnnGraph::RunResult ru = unfused.forward(x, a2, s2).value();

      const double joint = fused.joint_cycles();
      const double greedy = fused.greedy_cycles();
      const bool bitexact =
          rf.out.elems() == ru.out.elems() &&
          std::memcmp(rf.out.data(), ru.out.data(),
                      static_cast<size_t>(rf.out.elems()) * sizeof(float)) ==
              0;
      if (!bitexact) {
        std::fprintf(stderr,
                     "BIT-EXACT FAIL: %s at %d bits — fused output differs "
                     "from the unfused per-layer path\n",
                     gc.name, bits);
        rc = 1;
      }
      if (rf.seconds > ru.seconds) {
        std::fprintf(stderr,
                     "FUSION FAIL: %s at %d bits — fused %.9f s slower than "
                     "unfused %.9f s\n",
                     gc.name, bits, rf.seconds, ru.seconds);
        rc = 1;
      }
      if (joint > greedy * (1 + 1e-9)) {
        std::fprintf(stderr,
                     "JOINT SEARCH FAIL: %s at %d bits — joint %.0f cycles "
                     "worse than greedy %.0f\n",
                     gc.name, bits, joint, greedy);
        rc = 1;
      }
      joint_total += joint;
      greedy_total += greedy;

      const double margin =
          greedy > 0 ? (greedy - joint) / greedy * 100.0 : 0.0;
      std::printf("%-15s %4d %11.4f %11.4f %7.3fx %6d %5d %13.3f %13.3f "
                  "%8.3f%%\n",
                  gc.name, bits, rf.seconds * 1e3, ru.seconds * 1e3,
                  rf.seconds > 0 ? ru.seconds / rf.seconds : 0.0,
                  fused.fused_convs(), fused.fused_adds(), joint / 1e6,
                  greedy / 1e6, margin);
      // Every field is modeled, so the gate matches each one exactly.
      doc.records.push_back(
          {bench::quoted("graph", gc.name), bench::integer("bits", bits),
           bench::fixed("fused_seconds", rf.seconds, 9),
           bench::fixed("unfused_seconds", ru.seconds, 9),
           bench::integer("fused_convs", fused.fused_convs()),
           bench::integer("fused_adds", fused.fused_adds()),
           bench::integer("arena_reserve_bytes", fused.arena_reserve_bytes()),
           bench::integer("packed_weight_bytes", fused.packed_weight_bytes()),
           bench::fixed("joint_cycles", joint, 1),
           bench::fixed("greedy_cycles", greedy, 1),
           bench::boolean("bitexact", bitexact)});
    }
  }

  const double margin_pct =
      greedy_total > 0 ? (greedy_total - joint_total) / greedy_total * 100.0
                       : 0.0;
  std::printf("\ne2e_joint_cycles: %.0f   greedy: %.0f   joint margin: "
              "%.3f%%\n",
              joint_total, greedy_total, margin_pct);
  doc.totals = {bench::fixed("e2e_joint_cycles", joint_total, 1),
                bench::fixed("e2e_greedy_cycles", greedy_total, 1),
                bench::fixed("joint_margin_pct", margin_pct, 4)};
  const int gate_rc = bench::publish(doc, kRefreshCommand);
  return rc != 0 ? rc : gate_rc;
}
