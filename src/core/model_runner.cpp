#include "core/model_runner.h"

#include <optional>

#include "armkern/tile_search.h"
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
  std::shared_ptr<const ConvPlan> plan;  // ARM; null -> unplanned path
  std::optional<GpuConvPlan> gpu_plan;   // GPU; nullopt -> unplanned path
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

  // Whole-net joint blocking (ARM backend): the layer table is a chain —
  // in deployment layer i's output feeds layer i+1's im2col gather — so
  // the blocked-GEMM winners are searched jointly under the chained
  // cache-replay objective instead of per layer against a cold cache.
  std::vector<armkern::GemmBlocking> joint;
  if (opt.joint_blocking && opt.backend == Backend::kArmCortexA53) {
    const armkern::ArmConvOptions aopt =
        arm_conv_options(opt.bits, opt.arm_impl, opt.arm_algo, opt.threads);
    if (aopt.algo == armkern::ConvAlgo::kGemm &&
        aopt.kernel != armkern::ArmKernel::kTraditional) {
      armkern::ArmKernel kern = aopt.kernel;
      if (kern == armkern::ArmKernel::kSdotExt &&
          !armkern::sdot_eligible_for(aopt.bits))
        kern = armkern::ArmKernel::kOursGemm;
      std::vector<armkern::GraphSearchLayer> gs;
      for (const ConvShape& table_shape : layers) {
        const ConvShape s = opt.batch == 1
                                ? table_shape
                                : table_shape.with_batch(opt.batch);
        if (!s.valid()) {
          gs.clear();  // a bad row falls back to per-layer winners
          break;
        }
        // A TBL layer seeds from the winner for its per-layer table source.
        gs.push_back(armkern::GraphSearchLayer{
            s, aopt.bits, kern, armkern::InputRange::kSigned,
            kern == armkern::ArmKernel::kTblGemm
                ? armkern::choose_tbl_source(s, aopt.bits)
                : armkern::TblSource::kStored});
      }
      if (!gs.empty())
        joint = armkern::search_graph_blocking(
                    gs, armkern::BlockedSchedule::kStandalone)
                    .blocking;
    }
  }

  // Phase 1 — compile: generate each layer's tensors and resolve its plan
  // (fallback ladder + weight prepack / tiling search) before any layer
  // executes, the deployment shape: all packing cost is front-loaded here.
  std::vector<PlannedLayer> planned;
  planned.reserve(layers.size());
  size_t layer_idx = 0;
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
      if (opt.backend == Backend::kArmCortexA53) {
        const armkern::GemmBlocking* pin =
            layer_idx < joint.size() ? &joint[layer_idx] : nullptr;
        StatusOr<ConvPlan> p = plan_arm_conv(s, pl.weight, opt.bits,
                                             opt.arm_impl, opt.arm_algo,
                                             opt.threads, /*verify=*/false,
                                             /*tuning=*/nullptr, pin);
        if (p.ok()) {
          pl.plan = std::make_shared<const ConvPlan>(std::move(p).value());
        } else if (p.status().code() != StatusCode::kResourceExhausted) {
          return p.status();
        }
        // kResourceExhausted: plan compilation failed — the layer runs
        // unplanned in phase 2 (which degrades further if the fault
        // persists).
      } else if (opt.backend == Backend::kNativeHost) {
        StatusOr<ConvPlan> p =
            plan_native_conv(s, pl.weight, opt.bits, opt.threads);
        if (p.ok()) {
          pl.plan = std::make_shared<const ConvPlan>(std::move(p).value());
        } else if (p.status().code() != StatusCode::kResourceExhausted) {
          return p.status();
        }
      } else {
        StatusOr<GpuConvPlan> p = plan_gpu_conv(dev, s, opt.bits,
                                                opt.gpu_impl);
        if (p.ok()) {
          pl.gpu_plan = std::move(p).value();
        } else if (p.status().code() != StatusCode::kResourceExhausted) {
          return p.status();
        }
      }
      return Status();
    }();

    if (!st.ok()) {
      pl.run.error = st.with_context("layer " + pl.run.name).to_string();
      pl.errored = true;
    }
    planned.push_back(std::move(pl));
    ++layer_idx;
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
      if (opt.backend != Backend::kGpuTU102) {
        if (pl.plan == nullptr && opt.backend == Backend::kNativeHost) {
          // The native backend has no unplanned one-shot path; retry the
          // plan (the compile fault may have been transient) and surface
          // the error as this layer's row if it persists.
          LBC_ASSIGN_OR_RETURN(
              ConvPlan np,
              plan_native_conv(s, pl.weight, opt.bits, opt.threads));
          pl.plan = std::make_shared<const ConvPlan>(std::move(np));
        }
        StatusOr<ArmLayerResult> r_or =
            pl.plan != nullptr
                ? execute_arm_conv(*pl.plan, pl.input, ws)
                : run_arm_conv(s, pl.input, pl.weight, opt.bits, opt.arm_impl,
                               opt.arm_algo, opt.threads);
        LBC_RETURN_IF_ERROR(r_or.status());
        const ArmLayerResult& r = *r_or;
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
        StatusOr<GpuLayerResult> r_or =
            pl.gpu_plan.has_value()
                ? execute_gpu_conv(*pl.gpu_plan)
                : time_gpu_conv(dev, s, opt.bits, opt.gpu_impl);
        LBC_RETURN_IF_ERROR(r_or.status());
        run.seconds = r_or->seconds;
        run.fallback = r_or->fallback;
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
