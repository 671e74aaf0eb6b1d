// Fig. 9: 2-bit conv (A2W2) across the ResNet-50 layers — the TVM-style
// popcount bit-serial baseline vs our MLA blocked GEMM vs the TBL
// lookup-table scheme (DESIGN.md Sec. 16).
//
// Paper reference points: ours wins 16/19 layers vs TVM, highest speedup
// 2.11x (conv11), average 1.78x among winning layers.
//
// TBL ablation: the run asserts that at EVERY layer the 2-bit TBL kernel's
// modeled cycles are <= both the MLA path and the TVM popcount baseline
// (exit 1 otherwise), emits BENCH_tbl.json (where env LBC_BENCH_JSON
// points) with the per-layer cycle/stall/miss records for all three impls,
// and, when env LBC_BENCH_BASELINE names the committed
// bench/baselines/BENCH_tbl.json, exits nonzero unless every record (TVM,
// MLA and TBL) and both totals print exactly as in the baseline.
#include "bench_common.h"

int main() {
  using namespace lbc;
  core::print_environment_banner();

  core::SpeedupTable tab;
  tab.title = "Fig. 9 - 2-bit conv (A2W2): ours vs TVM popcount, ResNet-50";
  tab.baseline_name = "TVM popcount bit-serial 2-bit conv";
  tab.time_unit = "ms";
  tab.add_series("ours-2b");
  tab.add_series("tbl-2b");

  std::vector<bench::ArmGemmRecord> records;
  int tbl_losses = 0;
  for (const ConvShape& s : nets::resnet50_layers()) {
    std::fprintf(stderr, "  %s ...\n", describe(s).c_str());
    tab.layer_names.push_back(s.name);
    const core::ArmLayerResult tvm = bench::arm_layer_run(
        s, 2, core::ArmImpl::kTvmBitserial, armkern::ConvAlgo::kBitserial);
    const core::ArmLayerResult mla =
        bench::arm_layer_run(s, 2, core::ArmImpl::kOurs);
    const core::ArmLayerResult tbl =
        bench::arm_layer_run(s, 2, core::ArmImpl::kTblLut);
    tab.baseline_seconds.push_back(tvm.seconds);
    tab.series[0].seconds.push_back(mla.seconds);
    tab.series[1].seconds.push_back(tbl.seconds);
    records.push_back(
        bench::make_arm_gemm_record(s.name, 2, "tvm-popcount", tvm));
    records.push_back(bench::make_arm_gemm_record(s.name, 2, "mla", mla));
    // "ours" is the impl tag arm_gemm_document sums into the totals.
    records.push_back(bench::make_arm_gemm_record(s.name, 2, "ours", tbl));
    if (tbl.cycles > mla.cycles || tbl.cycles > tvm.cycles) {
      ++tbl_losses;
      std::fprintf(stderr,
                   "TBL ablation FAIL at %s: tbl %.0f cycles vs mla %.0f / "
                   "tvm %.0f\n",
                   s.name.c_str(), tbl.cycles, mla.cycles, tvm.cycles);
    }
  }
  tab.print();

  const int gate_rc = bench::publish(
      bench::arm_gemm_document("fig09_arm_bitserial", records),
      "LBC_BENCH_JSON=bench/baselines/BENCH_tbl.json "
      "build/bench/fig09_arm_bitserial");
  if (tbl_losses > 0) {
    std::fprintf(stderr,
                 "TBL ablation: %d layer(s) where TBL is not fastest\n",
                 tbl_losses);
    return 1;
  }
  return gate_rc;
}
