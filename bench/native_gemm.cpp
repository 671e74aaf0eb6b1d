// Native x86 backend bench: real wall-clock nanoseconds next to the modeled
// Cortex-A53 cycles, per layer and bit width, on representative ResNet-50
// shapes. Three numbers per row:
//
//   * modeled   — the emulated ARM path (plan_arm_conv + execute), priced by
//                 the A53 cycle model. Machine-independent.
//   * avx2 ns   — the HAL's native path on this machine's vector units
//                 (pshufb-LUT for 2-4 bit, maddubs dp for 5-8 bit).
//   * scalar ns — the same native plan forced onto the portable scalar
//                 kernels (hal::force_cpu_features), the in-process
//                 calibration reference.
//
// The regression gate (bench/json_out.h) has two parts. The modeled
// columns (layer, bits, scheme, modeled_cycles, modeled_ms) must print
// exactly as in the committed BENCH_native.json on every host. The
// wall-clock part works in calibrated units so it tracks vectorization
// quality, not machine speed: norm = avx2_ns / scalar_ns per row (both
// measured back-to-back on the same box), and the baseline carries
// native_norm_total = sum(norm). It fails when a fresh run's total exceeds
// 1.25x the baseline — generous headroom because wall-clock on a busy
// 1-core CI box is noisy, while a real vectorization regression (e.g. the
// LUT kernel silently falling to scalar) moves the ratio by ~5-10x.
// Refresh deliberately with:
//   LBC_BENCH_JSON=bench/baselines/BENCH_native.json build/bench/native_gemm
// On a machine without AVX2 the bench reports scalar-only and the ratio
// part is skipped (there is no ratio to compare).
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/conv_plan.h"
#include "hal/cpu_features.h"
#include "hal/native_gemm.h"

using namespace lbc;

namespace {

constexpr const char* kRefreshCommand =
    "LBC_BENCH_JSON=bench/baselines/BENCH_native.json build/bench/native_gemm";

/// Best-of-3 native execution (plan is fixed; only the clock varies).
StatusOr<core::ArmLayerResult> run_native_best(const core::ConvPlan& plan,
                                               const Tensor<i8>& in,
                                               Workspace& ws) {
  StatusOr<core::ArmLayerResult> best = core::execute_arm_conv(plan, in, ws);
  if (!best.ok()) return best;
  for (int rep = 1; rep < 3; ++rep) {
    StatusOr<core::ArmLayerResult> r = core::execute_arm_conv(plan, in, ws);
    if (r.ok() && r->measured_ns < best->measured_ns) best = std::move(r);
  }
  return best;
}

ConvShape make_square_3x3(const std::string& name, i64 channels, i64 hw) {
  ConvShape s;
  s.name = name;
  s.batch = 1;
  s.in_c = channels;
  s.in_h = hw;
  s.in_w = hw;
  s.out_c = channels;
  s.kernel = 3;
  s.stride = 1;
  s.pad = 1;
  return s;
}

/// Best-of-3 avx2-over-scalar speedup of the native plan on one layer.
double native_speedup(const ConvShape& s, int bits) {
  const Tensor<i8> w = random_qtensor(
      Shape4{s.out_c, s.in_c, s.kernel, s.kernel}, bits, 17);
  const Tensor<i8> in = random_qtensor(
      Shape4{s.batch, s.in_c, s.in_h, s.in_w}, bits, 19);
  const core::ConvPlan plan = core::plan_native_conv(s, w, bits).value();
  Workspace ws;
  const double avx2_ns = run_native_best(plan, in, ws).value().measured_ns;
  hal::CpuFeatures scalar_only = hal::cpu_features();
  scalar_only.avx2 = false;
  hal::force_cpu_features(scalar_only);
  const double scalar_ns = run_native_best(plan, in, ws).value().measured_ns;
  hal::clear_cpu_feature_override();
  return avx2_ns > 0 ? scalar_ns / avx2_ns : 0;
}

/// Column-tail coverage: layers whose GEMM N is not a multiple of the
/// 32-wide vector groups (conv18's 7x7 output gives N = 49) must not fall
/// off the vector path. Gate: the tail shape's avx2-over-scalar speedup
/// recovers at least 55% of an aligned shape's (N = 64) — before the
/// staged tail path, 17 of 49 columns ran scalar and this ratio sat far
/// below the bar for the LUT scheme.
int run_tail_section() {
  std::printf("\n== column-tail vectorization (N %% 32 != 0) ==\n");
  std::printf("%-6s %10s %12s %14s %10s\n", "bits", "scheme", "tail(N=49)",
              "aligned(N=64)", "tail eff");
  const ConvShape tail = make_square_3x3("tail7x7", 256, 7);     // N = 49
  const ConvShape aligned = make_square_3x3("align8x8", 256, 8); // N = 64
  int rc = 0;
  for (const int bits : {2, 8}) {  // one LUT row, one dot row
    const double sp_tail = native_speedup(tail, bits);
    const double sp_aligned = native_speedup(aligned, bits);
    const double eff = sp_aligned > 0 ? sp_tail / sp_aligned : 0;
    const char* scheme =
        hal::native_scheme_for(bits) == hal::NativeScheme::kLut ? "lut"
                                                                : "dot";
    std::printf("%-6d %10s %11.2fx %13.2fx %10.3f\n", bits, scheme, sp_tail,
                sp_aligned, eff);
    if (eff < 0.55) {
      std::fprintf(stderr,
                   "tail vectorization FAIL: %d-bit %s tail speedup %.2fx "
                   "is %.3f of the aligned shape's %.2fx (< 0.55) — the "
                   "N %% 32 tail likely fell back to scalar\n",
                   bits, scheme, sp_tail, eff, sp_aligned);
      rc = 1;
    }
  }
  return rc;
}

}  // namespace

int main() {
  core::print_environment_banner();
  std::printf("== native x86 backend: measured wall clock vs modeled "
              "Cortex-A53 cycles ==\n");
  std::printf("host: %s\n\n", hal::cpu_features_describe());
  const bool have_avx2 = hal::cpu_features().avx2;

  // Four shape classes of the ResNet-50 table: the big early 3x3, a 1x1
  // reduce, a mid-network 3x3, and a late small-spatial 3x3.
  const std::span<const ConvShape> all = nets::resnet50_layers();
  const std::vector<ConvShape> layers = {all[1], all[2], all[6],
                                         all[all.size() - 2]};
  const int bit_sweep[] = {2, 3, 4, 6, 8};

  std::printf("%-10s %4s %6s %12s %11s %11s %11s %8s\n", "layer", "bits",
              "scheme", "modeled Mcyc", "modeled ms", "avx2 us", "scalar us",
              "norm");
  bench::Document doc{
      "native_gemm", "calibrated-avx2-over-scalar",
      "norm = avx2_us / scalar_us measured back-to-back in-process, so the "
      "gate tracks vectorization quality, not machine speed. Gate: "
      "native_norm_total <= 1.25x baseline (wall-clock headroom; a real "
      "kernel regression moves it 5-10x). Refresh: " +
          std::string(kRefreshCommand),
      {}, {}};
  double norm_total = 0;
  for (const ConvShape& s : layers) {
    for (const int bits : bit_sweep) {
      const Tensor<i8> w = random_qtensor(
          Shape4{s.out_c, s.in_c, s.kernel, s.kernel}, bits, 11);
      const Tensor<i8> inq = random_qtensor(
          Shape4{s.batch, s.in_c, s.in_h, s.in_w}, bits, 13);
      const char* scheme =
          hal::native_scheme_for(bits) == hal::NativeScheme::kLut ? "lut"
                                                                  : "dot";

      // Modeled reference: the emulated ARM path on the same layer.
      const core::ArmLayerResult modeled =
          bench::arm_layer_run(s, bits, core::ArmImpl::kOurs);

      StatusOr<core::ConvPlan> plan = core::plan_native_conv(s, w, bits);
      if (!plan.ok()) {
        std::fprintf(stderr, "plan_native_conv(%s, %d bits): %s\n",
                     s.name.c_str(), bits, plan.status().message().c_str());
        return 1;
      }
      Workspace ws;
      std::string kernel;   // executed_algo of the avx2 run (or scalar)
      double avx2_us = 0;   // 0 when the machine has no AVX2
      if (have_avx2) {
        const core::ArmLayerResult r =
            run_native_best(*plan, inq, ws).value();
        avx2_us = r.measured_ns * 1e-3;
        kernel = r.executed_algo;
      }
      hal::CpuFeatures scalar_only = hal::cpu_features();
      scalar_only.avx2 = false;
      hal::force_cpu_features(scalar_only);
      const core::ArmLayerResult rs = run_native_best(*plan, inq, ws).value();
      hal::clear_cpu_feature_override();
      const double scalar_us = rs.measured_ns * 1e-3;
      if (!have_avx2) kernel = rs.executed_algo;
      // avx2 / scalar wall time; 0 when the machine has no AVX2.
      const double norm =
          have_avx2 && scalar_us > 0 ? avx2_us / scalar_us : 0.0;
      norm_total += norm;

      std::printf("%-10s %4d %6s %12.2f %11.3f %11.2f %11.2f %8.3f\n",
                  s.name.c_str(), bits, scheme, modeled.cycles / 1e6,
                  modeled.seconds * 1e3, avx2_us, scalar_us, norm);
      doc.records.push_back(
          {bench::quoted("layer", s.name), bench::integer("bits", bits),
           bench::quoted("scheme", scheme),
           bench::quoted("kernel", kernel, /*exact=*/false),
           bench::fixed("modeled_cycles", modeled.cycles, 1),
           bench::fixed("modeled_ms", modeled.seconds * 1e3, 4),
           bench::fixed("avx2_us", avx2_us, 2, false),
           bench::fixed("scalar_us", scalar_us, 2, false),
           bench::fixed("norm", norm, 4, false)});
    }
  }
  std::printf("\nnative_norm_total (sum avx2/scalar): %.4f%s\n", norm_total,
              have_avx2 ? "" : "  [no AVX2: scalar only, ratio gate skipped]");
  doc.totals = {bench::fixed("native_norm_total", norm_total, 4, false)};

  const int rc = have_avx2 ? run_tail_section() : 0;
  // Without AVX2 there is no ratio to bound; the exact rule still runs.
  const bench::RatioRule norm_rule[] = {{"native_norm_total", 1.25}};
  const int gate_rc = bench::publish(doc, kRefreshCommand,
                                     std::span(norm_rule).first(have_avx2 ? 1 : 0));
  return rc != 0 ? rc : gate_rc;
}
