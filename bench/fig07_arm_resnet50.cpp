// Fig. 7: our optimized 2-8-bit convolution kernels vs the ncnn 8-bit
// baseline on all 19 representative ResNet-50 layers, batch 1, Cortex-A53.
//
// Paper reference points: highest speedups 2.13x/2.06x/1.76x/1.73x/1.69x/
// 1.54x for 2-7-bit (all at conv14), 1.04x for 8-bit (conv9); our kernels
// beat ncnn in 17/17/16/15/15/14/2 of 19 layers; average speedups among
// winning layers 1.60/1.54/1.38/1.38/1.34/1.27/1.03.
//
// Also emits BENCH_arm_gemm.json (where env LBC_BENCH_JSON points) with
// modeled cycles, the cost-model stall breakdown, and cache miss rates per
// (layer, bits, impl), and, when env LBC_BENCH_BASELINE names a committed
// baseline JSON, gates the run: exit 1 unless every record and total
// prints exactly as in the baseline (bench/json_out.h).
#include "bench_common.h"

int main() {
  using namespace lbc;
  std::vector<bench::ArmGemmRecord> records;
  bench::run_arm_bits_figure(
      "Fig. 7 - ARM 2~8-bit conv vs ncnn 8-bit, ResNet-50, batch 1",
      nets::resnet50_layers(), &records);
  return bench::publish(
      bench::arm_gemm_document("fig07_arm_resnet50", records),
      "LBC_BENCH_JSON=bench/baselines/BENCH_arm_gemm.json "
      "build/bench/fig07_arm_resnet50");
}
