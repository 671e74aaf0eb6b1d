#include "core/model_runner.h"

#include <optional>

#include "common/fault_injection.h"
#include "common/rng.h"
#include "common/workspace.h"
#include "core/conv_plan.h"
#include "refconv/conv_ref.h"

namespace lbc::core {

namespace {

// One layer's compiled state between the plan pass and the execute pass.
struct PlannedLayer {
  ConvShape s;
  LayerRun run;
  Tensor<i8> input;
  Tensor<i8> weight;
  std::optional<ConvPlan> plan;         // ARM and native
  std::optional<GpuConvPlan> gpu_plan;  // GPU
  bool errored = false;
};

}  // namespace

StatusOr<ModelRunReport> run_model(std::span<const ConvShape> layers,
                                   const ModelRunOptions& opt) {
  LBC_VALIDATE(opt.bits >= 2 && opt.bits <= 8, kInvalidArgument,
               "bits must be in [2, 8], got " << opt.bits);
  LBC_VALIDATE(opt.threads >= 1 && opt.threads <= 64, kInvalidArgument,
               "threads must be in [1, 64], got " << opt.threads);
  LBC_VALIDATE(opt.batch >= 1 && opt.batch <= 64, kInvalidArgument,
               "batch must be in [1, 64], got " << opt.batch);
  LBC_VALIDATE(
      opt.backend != Backend::kGpuTU102 || opt.bits == 4 || opt.bits == 8,
      kInvalidArgument, "GPU backend supports 4- or 8-bit, got " << opt.bits);

  const gpusim::DeviceSpec dev = gpusim::DeviceSpec::rtx2080ti();
  u64 seed = opt.seed;
  auto& fi = FaultInjector::instance();

  // Phase 1 — compile: generate each layer's tensors and resolve its plan
  // (fallback ladder + weight prepack / tiling search) before any layer
  // executes, the deployment shape: all packing cost is front-loaded here.
  // A compile fault degrades inside planning, like every other rung.
  std::vector<PlannedLayer> planned;
  planned.reserve(layers.size());
  for (const ConvShape& table_shape : layers) {
    // The serving path batches whole-model runs: each layer executes once
    // with the micro-batch folded into N, amortizing packing per layer.
    const ConvShape s =
        opt.batch == 1 ? table_shape : table_shape.with_batch(opt.batch);
    PlannedLayer pl;
    pl.s = s;
    pl.run.name = s.name;
    pl.run.requested_impl = opt.backend == Backend::kArmCortexA53
                                ? arm_impl_name(opt.arm_impl)
                                : gpu_impl_name(opt.gpu_impl);
    const u64 layer_seed = seed;
    seed += 2;

    // A layer that cannot compile costs one report row, not the model.
    Status st = [&]() -> Status {
      LBC_VALIDATE(!fi.should_fire(FaultSite::kAllocFail), kResourceExhausted,
                   "synthetic tensor allocation failed (injected fault)");
      pl.input = random_qtensor(Shape4{s.batch, s.in_c, s.in_h, s.in_w},
                                opt.bits, layer_seed);
      pl.weight = random_qtensor(Shape4{s.out_c, s.in_c, s.kernel, s.kernel},
                                 opt.bits, layer_seed + 1);
      if (opt.backend == Backend::kGpuTU102) {
        LBC_ASSIGN_OR_RETURN(pl.gpu_plan,
                             plan_gpu_conv(dev, s, opt.bits, opt.gpu_impl));
      } else {
        LBC_ASSIGN_OR_RETURN(
            pl.plan, opt.backend == Backend::kNativeHost
                         ? plan_native_conv(s, pl.weight, opt.bits,
                                            opt.threads)
                         : plan_arm_conv(s, pl.weight, opt.bits, opt.arm_impl,
                                         opt.arm_algo, opt.threads));
      }
      return Status();
    }();

    if (!st.ok()) {
      pl.run.error = st.with_context("layer " + pl.run.name).to_string();
      pl.errored = true;
    }
    planned.push_back(std::move(pl));
  }

  // Phase 2 — execute: one Workspace serves every layer; the arena grows to
  // the largest layer's requirement once and is reset (not freed) between
  // layers.
  ModelRunReport rep;
  Workspace ws;
  for (PlannedLayer& pl : planned) {
    const ConvShape& s = pl.s;
    if (pl.errored) {
      ++rep.error_layers;
      rep.layers.push_back(std::move(pl.run));
      continue;
    }

    LayerRun& run = pl.run;
    Status st = [&]() -> Status {
      if (pl.plan.has_value()) {
        LBC_ASSIGN_OR_RETURN(const ArmLayerResult r,
                             execute_arm_conv(*pl.plan, pl.input, ws));
        run.seconds = r.seconds;
        run.measured_ns = r.measured_ns;
        run.executed_algo = r.executed_algo;
        run.fallback = r.fallback;
        if (opt.verify) {
          const Tensor<i32> ref = ref::conv2d_s32(s, pl.input, pl.weight);
          // Winograd uses winograd-domain rounded weights; its oracle is the
          // winograd reference, checked by dedicated tests, not here. A
          // degraded layer executed GEMM or reference, which are exact.
          const bool winograd_ran =
              opt.arm_algo == armkern::ConvAlgo::kWinograd &&
              r.executed_algo == "winograd";
          run.verified = !winograd_ran && count_mismatches(ref, r.out) == 0;
        }
      } else {
        LBC_ASSIGN_OR_RETURN(const GpuLayerResult r,
                             execute_gpu_conv(*pl.gpu_plan));
        run.seconds = r.seconds;
        run.fallback = r.fallback;
        run.verified = false;  // GPU functional checks live in the test suite
      }
      return Status();
    }();

    if (!st.ok()) {
      run.error = st.with_context("layer " + run.name).to_string();
      ++rep.error_layers;
    } else {
      if (run.fallback.fell_back) ++rep.fallback_layers;
      rep.total_seconds += run.seconds;
      rep.total_measured_ns += run.measured_ns;
      rep.total_macs += s.macs();
    }
    rep.layers.push_back(std::move(run));
  }
  return rep;
}

}  // namespace lbc::core
