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
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/workspace.h"
#include "core/graph_plan.h"
#include "core/qnn_graph.h"

using namespace lbc;

namespace {

struct E2eRecord {
  std::string graph;
  int bits = 0;
  double fused_s = 0;    ///< modeled seconds, fused GraphPlan forward
  double unfused_s = 0;  ///< modeled seconds, per-layer path (kOff)
  int fused_convs = 0;
  int fused_adds = 0;
  i64 arena_bytes = 0;   ///< fused plan's arena_reserve_bytes()
  i64 packed_bytes = 0;  ///< fused plan's packed_weight_bytes()
  double joint_cycles = 0;   ///< whole-net chained-replay objective (joint)
  double greedy_cycles = 0;  ///< same objective, per-layer-greedy blocking
  bool bitexact = false;
};

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

/// One record as BENCH_e2e.json stores it — the writer and the exact gate
/// share this text, so "matches the baseline" means "prints identically".
std::string record_json(const E2eRecord& r) {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{\"graph\": \"%s\", \"bits\": %d, "
                "\"fused_seconds\": %.9f, \"unfused_seconds\": %.9f, "
                "\"fused_convs\": %d, \"fused_adds\": %d, "
                "\"arena_reserve_bytes\": %lld, "
                "\"packed_weight_bytes\": %lld, "
                "\"joint_cycles\": %.1f, \"greedy_cycles\": %.1f, "
                "\"bitexact\": %s}",
                r.graph.c_str(), r.bits, r.fused_s, r.unfused_s,
                r.fused_convs, r.fused_adds,
                static_cast<long long>(r.arena_bytes),
                static_cast<long long>(r.packed_bytes), r.joint_cycles,
                r.greedy_cycles, r.bitexact ? "true" : "false");
  return buf;
}

bool write_e2e_json(const std::string& path,
                    const std::vector<E2eRecord>& records,
                    double joint_total, double greedy_total,
                    double margin_pct) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "json: cannot open %s for writing\n", path.c_str());
    return false;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"e2e_resnet50\",\n"
               "  \"unit\": \"modeled-cycles\",\n"
               "  \"note\": \"Whole-net GraphPlan: fused epilogues + joint "
               "blocking vs the unfused per-layer path, bits 2-8. Gate: every "
               "record must match exactly. Refresh: %s\",\n"
               "  \"records\": [\n",
               kRefreshCommand);
  for (size_t i = 0; i < records.size(); ++i)
    std::fprintf(f, "    %s%s\n", record_json(records[i]).c_str(),
                 i + 1 < records.size() ? "," : "");
  std::fprintf(f,
               "  ],\n  \"totals\": {\"e2e_joint_cycles\": %.1f, "
               "\"e2e_greedy_cycles\": %.1f, \"joint_margin_pct\": %.4f}\n}\n",
               joint_total, greedy_total, margin_pct);
  std::fclose(f);
  std::fprintf(stderr, "wrote %s (%zu records)\n", path.c_str(),
               records.size());
  return true;
}

/// Exact gate: every record must appear in the baseline verbatim (keyed by
/// graph and bits). Modeled cycles are deterministic, so any difference is
/// a behaviour change — either a regression or a deliberate change whose
/// baseline needs the refresh command.
int run_e2e_gate(const std::vector<E2eRecord>& records) {
  const char* baseline_path = std::getenv("LBC_BENCH_BASELINE");
  if (baseline_path == nullptr || baseline_path[0] == '\0') return 0;
  const std::optional<std::string> file = bench::read_text_file(baseline_path);
  if (!file) {
    std::fprintf(stderr, "e2e gate: cannot read %s\n", baseline_path);
    return 1;
  }
  const std::string& text = *file;

  int mismatches = 0;
  for (const E2eRecord& r : records) {
    const std::string want = record_json(r);
    const std::string key =
        want.substr(0, want.find(", \"fused_seconds\"") + 1);
    const size_t pos = text.find(key);
    const std::string have =
        pos == std::string::npos
            ? std::string("(no row)")
            : text.substr(pos, text.find('}', pos) + 1 - pos);
    if (have == want) continue;
    ++mismatches;
    std::fprintf(stderr, "e2e gate: %s at %d bits differs\n  baseline %s\n"
                 "  this run %s\n",
                 r.graph.c_str(), r.bits, have.c_str(), want.c_str());
  }
  if (mismatches > 0) {
    std::fprintf(stderr,
                 "e2e gate FAIL: %d of %zu rows differ from %s. If the change "
                 "is deliberate, refresh with:\n  %s\n",
                 mismatches, records.size(), baseline_path, kRefreshCommand);
    return 1;
  }
  std::fprintf(stderr, "e2e gate PASS: all %zu rows match %s exactly\n",
               records.size(), baseline_path);
  return 0;
}

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
  std::vector<E2eRecord> records;
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

      E2eRecord rec;
      rec.graph = gc.name;
      rec.bits = bits;
      rec.fused_s = rf.seconds;
      rec.unfused_s = ru.seconds;
      rec.fused_convs = fused.fused_convs();
      rec.fused_adds = fused.fused_adds();
      rec.arena_bytes = fused.arena_reserve_bytes();
      rec.packed_bytes = fused.packed_weight_bytes();
      rec.joint_cycles = fused.joint_cycles();
      rec.greedy_cycles = fused.greedy_cycles();
      rec.bitexact =
          rf.out.elems() == ru.out.elems() &&
          std::memcmp(rf.out.data(), ru.out.data(),
                      static_cast<size_t>(rf.out.elems()) * sizeof(float)) ==
              0;
      if (!rec.bitexact) {
        std::fprintf(stderr,
                     "BIT-EXACT FAIL: %s at %d bits — fused output differs "
                     "from the unfused per-layer path\n",
                     gc.name, bits);
        rc = 1;
      }
      if (rec.fused_s > rec.unfused_s) {
        std::fprintf(stderr,
                     "FUSION FAIL: %s at %d bits — fused %.9f s slower than "
                     "unfused %.9f s\n",
                     gc.name, bits, rec.fused_s, rec.unfused_s);
        rc = 1;
      }
      if (rec.joint_cycles > rec.greedy_cycles * (1 + 1e-9)) {
        std::fprintf(stderr,
                     "JOINT SEARCH FAIL: %s at %d bits — joint %.0f cycles "
                     "worse than greedy %.0f\n",
                     gc.name, bits, rec.joint_cycles, rec.greedy_cycles);
        rc = 1;
      }
      joint_total += rec.joint_cycles;
      greedy_total += rec.greedy_cycles;

      const double margin =
          rec.greedy_cycles > 0
              ? (rec.greedy_cycles - rec.joint_cycles) / rec.greedy_cycles *
                    100.0
              : 0.0;
      std::printf("%-15s %4d %11.4f %11.4f %7.3fx %6d %5d %13.3f %13.3f "
                  "%8.3f%%\n",
                  gc.name, bits, rec.fused_s * 1e3, rec.unfused_s * 1e3,
                  rec.fused_s > 0 ? rec.unfused_s / rec.fused_s : 0.0,
                  rec.fused_convs, rec.fused_adds, rec.joint_cycles / 1e6,
                  rec.greedy_cycles / 1e6, margin);
      records.push_back(std::move(rec));
    }
  }

  const double margin_pct =
      greedy_total > 0 ? (greedy_total - joint_total) / greedy_total * 100.0
                       : 0.0;
  std::printf("\ne2e_joint_cycles: %.0f   greedy: %.0f   joint margin: "
              "%.3f%%\n",
              joint_total, greedy_total, margin_pct);

  const char* json_path = std::getenv("LBC_BENCH_JSON");
  if (json_path != nullptr && json_path[0] != '\0' &&
      !write_e2e_json(json_path, records, joint_total, greedy_total,
                      margin_pct))
    return 1;
  const int gate_rc = run_e2e_gate(records);
  return rc != 0 ? rc : gate_rc;
}
