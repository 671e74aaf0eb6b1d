// Ablation bench for the ARM design choices called out in DESIGN.md Sec. 6:
//  1. re-designed GEMM vs traditional GEMM — the Eq. 1-4 CAL/LD claim,
//     measured from real dynamic instruction counts;
//  2. SADDW flush-interval sweep — why 8-bit gains little and 4-bit a lot;
//  3. interleaved {LD1,LD4R}/SMLAL issue (the Alg. 1 prefetching) on/off;
//  4. per-bit flush operating points;
//  5. convolution algorithms;
//  6. Mc/Kc/Nc cache blocking + fused im2col packing vs the legacy
//     materialized unblocked sweep (DESIGN.md Sec. 11) — also emitted as
//     BENCH_arm_gemm_ablation.json where env LBC_BENCH_JSON points, and
//     gated exactly against env LBC_BENCH_BASELINE when set.
#include <cstdio>
#include <vector>

#include "armkern/gemm_lowbit.h"
#include "armkern/micro.h"
#include "armkern/pack.h"
#include "armkern/tile_search.h"
#include "bench_common.h"

using namespace lbc;
using namespace lbc::armkern;

namespace {

void ablate_redesign() {
  std::printf("\n-- ablation 1: re-designed vs traditional GEMM (Eq. 1-4) --\n");
  std::printf("%-14s %12s %12s %10s\n", "kernel", "loads", "mac instrs",
              "CAL/LD");
  const i64 m = 64, n = 64, k = 512;
  const Tensor<i8> a = random_qtensor(Shape4{1, 1, m, k}, 8, 1);
  const Tensor<i8> b = random_qtensor(Shape4{1, 1, k, n}, 8, 2);
  std::vector<i32> c(static_cast<size_t>(m * n));
  double ratios[2] = {0, 0};
  int idx = 0;
  for (ArmKernel kern : {ArmKernel::kTraditional, ArmKernel::kOursGemm}) {
    GemmOptions opt;
    opt.bits = 8;
    opt.kernel = kern;
    const GemmStats st = gemm_s8s32(a.data(), b.data(), c.data(), m, n, k, opt);
    const double ratio = static_cast<double>(st.counts.macs_instrs()) /
                         static_cast<double>(st.counts.loads());
    ratios[idx++] = ratio;
    std::printf("%-14s %12llu %12llu %9.2f\n",
                kern == ArmKernel::kTraditional ? "traditional" : "re-designed",
                static_cast<unsigned long long>(st.counts.loads()),
                static_cast<unsigned long long>(st.counts.macs_instrs()),
                ratio);
  }
  std::printf("CAL/LD improvement: %.2fx (paper Eq. 3-4: ~4x)\n",
              ratios[1] / ratios[0]);
}

void ablate_flush_interval() {
  std::printf(
      "\n-- ablation 2: SADDW flush-interval sweep (16x4 micro tile, K=512) "
      "--\n");
  std::printf("%-8s %14s %16s\n", "flush", "cycles/MAC", "note");
  const i64 kc = 512;
  std::vector<i8> ap(static_cast<size_t>(kc * kMr), 1),
      bp(static_cast<size_t>(kc * kNr), 1);
  alignas(64) i32 tile[kMr * kNr];
  const armsim::CostModel cm = armsim::CostModel::cortex_a53();
  for (int flush : {1, 2, 8, 16, 24, 32}) {
    armsim::Ctx ctx;
    micro_smlal_16x4(ctx, ap.data(), bp.data(), kc, flush, tile);
    const double cpm = cm.cycles_for(ctx.counts, true) /
                       static_cast<double>(kc * kMr * kNr);
    const char* note = flush == 2    ? "<- 8-bit operating point"
                       : flush == 32 ? "<- 4-bit operating point"
                                     : "";
    std::printf("%-8d %14.4f %16s\n", flush, cpm, note);
  }
}

void ablate_interleaving() {
  std::printf("\n-- ablation 3: LD/SMLAL interleaving (software pipelining) --\n");
  const i64 kc = 512;
  std::vector<i8> ap(static_cast<size_t>(kc * kMr), 1),
      bp(static_cast<size_t>(kc * kNr), 1);
  alignas(64) i32 tile[kMr * kNr];
  armsim::Ctx ctx;
  micro_smlal_16x4(ctx, ap.data(), bp.data(), kc, 32, tile);
  const armsim::CostModel cm = armsim::CostModel::cortex_a53();
  const double on = cm.cycles_for(ctx.counts, true);
  const double off = cm.cycles_for(ctx.counts, false);
  std::printf("interleaved: %.0f cycles | sequential: %.0f cycles | gain %.2fx\n",
              on, off, off / on);
}

void ablate_unrolling() {
  std::printf(
      "\n-- ablation 4: per-bit operating points (flush = unroll table) --\n");
  std::printf("%-6s %10s %14s\n", "bits", "flush", "cycles/MAC");
  const i64 kc = 480;  // multiple of every interval
  std::vector<i8> ap(static_cast<size_t>(kc * kMr), 1),
      bp(static_cast<size_t>(kc * kNr), 1);
  alignas(64) i32 tile[kMr * kNr];
  const armsim::CostModel cm = armsim::CostModel::cortex_a53();
  for (int bits = 2; bits <= 8; ++bits) {
    armsim::Ctx ctx;
    if (bits <= 3)
      micro_mla_16x4(ctx, ap.data(), bp.data(), kc, mla_flush_interval(bits),
                     tile);
    else
      micro_smlal_16x4(ctx, ap.data(), bp.data(), kc,
                       smlal_flush_interval(bits), tile);
    const double cpm = cm.cycles_for(ctx.counts, true) /
                       static_cast<double>(kc * kMr * kNr);
    std::printf("%-6d %10d %14.4f\n", bits,
                bits <= 3 ? mla_flush_interval(bits)
                          : smlal_flush_interval(bits),
                cpm);
  }
}

void ablate_algorithms() {
  std::printf(
      "\n-- ablation 5: convolution algorithms (Sec. 2.2) on a ResNet 3x3 "
      "layer, 4-bit --\n");
  ConvShape s = nets::resnet50_winograd_layers()[2];  // conv11: 14x14x256
  std::printf("layer: %s\n", describe(s).c_str());
  std::printf("%-12s %12s %14s\n", "algorithm", "time (ms)", "space ovh");
  for (auto [algo, name] :
       {std::pair{armkern::ConvAlgo::kDirect, "direct"},
        {armkern::ConvAlgo::kGemm, "gemm"},
        {armkern::ConvAlgo::kWinograd, "winograd"}}) {
    const Tensor<i8> in =
        random_qtensor(Shape4{1, s.in_c, s.in_h, s.in_w}, 4, 1);
    const Tensor<i8> w =
        random_qtensor(Shape4{s.out_c, s.in_c, 3, 3}, 4, 2);
    armkern::ArmConvOptions opt;
    opt.bits = 4;
    opt.algo = algo;
    const armkern::ArmConvResult r = armkern::conv2d_s32(s, in, w, opt).value();
    std::printf("%-12s %12.3f %13.3fx\n", name, r.seconds * 1e3,
                r.space.total_overhead());
  }
  std::printf(
      "direct trades all space overhead for time (16-bit multiply path, "
      "per-tap reloads); the paper picks GEMM, and winograd on top where "
      "eligible.\n");
}

void ablate_blocking(std::vector<bench::ArmGemmRecord>& records) {
  std::printf(
      "\n-- ablation 6: Mc/Kc/Nc blocking + fused im2col pack vs "
      "materialized unblocked sweep --\n");
  std::printf("%-9s %-6s %12s %14s %12s %12s %10s\n", "layer", "bits",
              "cycles", "stall cycles", "L2 misses", "scratch KB", "speedup");
  // The L2-bound shapes the blocking exists for, plus a small layer where
  // the working set already fits (blocking must not regress it).
  std::vector<ConvShape> shapes;
  for (const ConvShape& s : nets::resnet50_layers())
    if (s.name == "conv2" || s.name == "conv5" || s.name == "conv18")
      shapes.push_back(s);
  const armsim::CostModel cm = armsim::CostModel::cortex_a53();
  for (const ConvShape& s : shapes) {
    for (int bits : {2, 4, 8}) {
      const Tensor<i8> in =
          random_qtensor(Shape4{1, s.in_c, s.in_h, s.in_w}, bits, 1);
      const Tensor<i8> w = random_qtensor(
          Shape4{s.out_c, s.in_c, s.kernel, s.kernel}, bits, 2);
      armkern::ArmConvOptions opt;
      opt.bits = bits;
      opt.blocking = armkern::BlockingPolicy::kOff;
      const armkern::ArmConvResult off =
          armkern::conv2d_s32(s, in, w, opt).value();
      opt.blocking = armkern::BlockingPolicy::kAuto;
      const armkern::ArmConvResult on =
          armkern::conv2d_s32(s, in, w, opt).value();
      for (const auto* r : {&off, &on}) {
        const bool blocked = r == &on;
        std::printf("%-9s %-6d %12.0f %14.0f %12llu %12.1f %9s\n",
                    s.name.c_str(), bits, r->cycles,
                    cm.breakdown(r->counts, true).stall_cycles,
                    static_cast<unsigned long long>(
                        r->counts[armsim::Op::kL2Miss]),
                    static_cast<double>(r->space.im2col_elems) / 1024.0,
                    blocked ? "" : "-");
        if (blocked)
          std::printf("%62s %.2fx blocked/unblocked\n", "",
                      off.cycles / on.cycles);
        records.push_back(bench::make_arm_gemm_record(
            s.name, bits, blocked ? "ours" : "ours-unblocked", *r));
      }
    }
  }
}

}  // namespace

int main() {
  core::print_environment_banner();
  std::printf("\n== Ablation: ARM GEMM design choices ==\n");
  ablate_redesign();
  ablate_flush_interval();
  ablate_interleaving();
  ablate_unrolling();
  ablate_algorithms();
  std::vector<bench::ArmGemmRecord> records;
  ablate_blocking(records);
  return bench::publish(
      bench::arm_gemm_document("ablation_arm_gemm", records),
      "LBC_BENCH_JSON=bench/baselines/BENCH_arm_gemm_ablation.json "
      "build/bench/ablation_arm_gemm");
}
