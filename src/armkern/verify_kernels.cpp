#include "armkern/verify_kernels.h"

#include <sstream>

#include "common/rng.h"
#include "common/workspace.h"

namespace lbc::armkern {

namespace {

// Representative geometries: a classic 3x3 s1 p1 block (winograd-eligible),
// a 1x1 pointwise layer, and a strided 5x5 stem. Small enough that the full
// sweep stays fast, large enough that every kernel runs multiple panels and
// hits the edge-clipping paths.
std::vector<ConvShape> sweep_shapes() {
  std::vector<ConvShape> shapes;
  {
    ConvShape s;
    s.name = "block3x3";
    s.in_c = 8, s.in_h = 12, s.in_w = 12;
    s.out_c = 20;
    s.kernel = 3, s.stride = 1, s.pad = 1;
    shapes.push_back(s);
  }
  {
    ConvShape s;
    s.name = "pointwise";
    s.in_c = 16, s.in_h = 10, s.in_w = 10;
    s.out_c = 17;
    s.kernel = 1, s.stride = 1, s.pad = 0;
    shapes.push_back(s);
  }
  {
    ConvShape s;
    s.name = "stem5x5";
    s.in_c = 3, s.in_h = 16, s.in_w = 16;
    s.out_c = 9;
    s.kernel = 5, s.stride = 2, s.pad = 2;
    shapes.push_back(s);
  }
  return shapes;
}

// (kernel, algo) combinations worth sweeping per bit width. Ineligible
// requests would just silently degrade along the driver's fallback ladder,
// re-verifying a rung already covered — skip those up front.
struct Combo {
  ArmKernel kernel;
  ConvAlgo algo;
  BlockingPolicy blocking = BlockingPolicy::kAuto;
  GemmBlocking explicit_blocking{};  ///< consulted under kExplicit
  InputRange input = InputRange::kSigned;
  /// TBL: pack the plan's weights as weight tables from the built source,
  /// whatever its shape prices (the source is a per-conv priced choice, so
  /// the small sweep shapes alone would not reach every mode).
  bool tbl_built = false;
};

std::vector<Combo> combos_for_bits(int bits) {
  std::vector<Combo> cs;
  // The GEMM combos run cache-blocked with fused im2col packing (kAuto,
  // the default) AND as the legacy unblocked sweep (kOff) — both schedules
  // must hold every kernel invariant.
  cs.push_back({ArmKernel::kOursGemm, ConvAlgo::kGemm});
  cs.push_back({ArmKernel::kOursGemm, ConvAlgo::kGemm, BlockingPolicy::kOff});
  cs.push_back({ArmKernel::kOursGemm, ConvAlgo::kDirect});
  cs.push_back({ArmKernel::kOursGemm, ConvAlgo::kReference});
  if (bits >= 4 && bits <= 6)  // winograd bit-range rung of the ladder
    cs.push_back({ArmKernel::kOursGemm, ConvAlgo::kWinograd});
  if (bitserial_eligible_for(bits))
    cs.push_back({ArmKernel::kOursGemm, ConvAlgo::kBitserial});
  cs.push_back({ArmKernel::kNcnn, ConvAlgo::kGemm});
  cs.push_back({ArmKernel::kNcnn, ConvAlgo::kGemm, BlockingPolicy::kOff});
  cs.push_back({ArmKernel::kTraditional, ConvAlgo::kGemm});
  if (sdot_eligible_for(bits)) {
    cs.push_back({ArmKernel::kSdotExt, ConvAlgo::kGemm});
    cs.push_back(
        {ArmKernel::kSdotExt, ConvAlgo::kGemm, BlockingPolicy::kOff});
  }
  // TBL ships blocked-only (kOff degrades to kOursGemm at plan time, a
  // rung already swept above). Besides the searched blocking, an explicit
  // Mc = Nc = 32 holds two row panels per Mc block and two 16-column index
  // panels per band, so the 32x4 tile (micro_tbl_32x4, its own KernelSpec)
  // runs in either orientation, next to the 16x4 tile of odd panels.
  // Both again on a non-negative input (a ReLU'd producer), where the
  // weight-tables orientation folds tbl_nonneg_group(bits) activations
  // into each index.
  // A third and a fourth run per input pack weight tables from the built
  // source, so every weight-tables mode (2-bit pairs and 4-value fold,
  // 3-bit values and 2-value fold) reaches its tables in the dictionary at
  // run time under the verifier: at Nc = 32 each column pass is one paired
  // call, which reads them straight from the dictionary; at Nc = n the
  // block3x3 shape's nine panels per pass copy them into the panel first.
  // Kc = 64 is a multiple of every group.
  if (tbl_eligible_for(bits))
    for (const InputRange in :
         {InputRange::kSigned, InputRange::kNonNegative}) {
      cs.push_back({ArmKernel::kTblGemm, ConvAlgo::kGemm,
                    BlockingPolicy::kAuto, GemmBlocking{}, in});
      cs.push_back({ArmKernel::kTblGemm, ConvAlgo::kGemm,
                    BlockingPolicy::kExplicit, GemmBlocking{32, 64, 32}, in});
      for (const i64 nc : {i64{32}, i64{1} << 20})
        cs.push_back({ArmKernel::kTblGemm, ConvAlgo::kGemm,
                      BlockingPolicy::kExplicit, GemmBlocking{32, 64, nc}, in,
                      /*tbl_built=*/true});
    }
  return cs;
}

}  // namespace

int kernel_verify_expected_entries() {
  const std::vector<ConvShape> shapes = sweep_shapes();
  int n = 0;
  for (int bits = 2; bits <= 8; ++bits)
    for (const Combo& c : combos_for_bits(bits))
      for (const ConvShape& s : shapes)
        if (!(c.algo == ConvAlgo::kWinograd && !s.winograd_eligible())) ++n;
  return n;
}

std::string KernelVerifyReport::failure_summary() const {
  std::ostringstream os;
  for (const KernelVerifyEntry& e : entries) {
    if (e.status.ok()) continue;
    os << "bits=" << e.bits << " kernel=" << static_cast<int>(e.kernel)
       << " algo=" << algo_name(e.algo) << " (ran " << e.executed_algo
       << ") shape=" << e.shape << ": " << e.status.to_string() << "\n";
  }
  return os.str();
}

KernelVerifyReport verify_all_kernels() {
  KernelVerifyReport report;
  const std::vector<ConvShape> shapes = sweep_shapes();
  Workspace ws;
  u64 seed = 0x5eed;
  for (int bits = 2; bits <= 8; ++bits) {
    for (const Combo& combo : combos_for_bits(bits)) {
      for (const ConvShape& s : shapes) {
        // Winograd only runs on 3x3 stride-1 — sweeping it over the other
        // shapes would just re-verify the GEMM fallback rung.
        if (combo.algo == ConvAlgo::kWinograd && !s.winograd_eligible())
          continue;
        // Adversarial inputs: alternating +/- qmax maximizes accumulator
        // growth, the exact case the flush-interval analysis must survive;
        // a non-negative input's worst case is qmax everywhere.
        Tensor<i8> input = extreme_qtensor(
            Shape4{s.batch, s.in_c, s.in_h, s.in_w}, bits, ++seed);
        if (combo.input == InputRange::kNonNegative)
          for (i8& v : input.span()) v = static_cast<i8>(v < 0 ? -v : v);
        const Tensor<i8> weight = extreme_qtensor(
            Shape4{s.out_c, s.in_c, s.kernel, s.kernel}, bits, ++seed);

        ArmConvOptions opt;
        opt.bits = bits;
        opt.algo = combo.algo;
        opt.kernel = combo.kernel;
        opt.blocking = combo.blocking;
        opt.explicit_blocking = combo.explicit_blocking;
        opt.input_range = combo.input;
        opt.verify = true;

        KernelVerifyEntry entry;
        entry.bits = bits;
        entry.kernel = combo.kernel;
        entry.algo = combo.algo;
        entry.shape = describe(s);

        StatusOr<ArmConvResult> r = [&]() -> StatusOr<ArmConvResult> {
          LBC_ASSIGN_OR_RETURN(ArmConvPlan plan, plan_conv(s, weight, opt));
          if (combo.tbl_built) {
            plan.tbl_a = pack_tbl_a(weight.data(), s.gemm_m(), s.gemm_k(),
                                    bits, TblOrientation::kWeightTables,
                                    combo.input, TblSource::kBuilt);
            plan.blocking = clamp_blocking(plan.blocking, s.gemm_m(),
                                           s.gemm_n(), s.gemm_k(), false,
                                           plan.tbl_a.group());
          }
          return execute_conv(plan, input, ws);
        }();
        if (r.ok()) {
          entry.executed_algo = r.value().executed_algo;
          entry.status = Status();
        } else {
          entry.status = r.status();
        }
        if (!entry.status.ok()) ++report.failures;
        report.entries.push_back(std::move(entry));
      }
    }
  }
  return report;
}

}  // namespace lbc::armkern
