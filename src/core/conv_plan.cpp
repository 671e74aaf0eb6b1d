#include "core/conv_plan.h"

#include <cstring>

#include "armkern/tile_search.h"
#include "check/kernel_prover.h"
#include "common/fault_injection.h"
#include "core/hal_backends.h"
#include "hal/native_conv.h"

namespace lbc::core {

i64 ConvPlan::workspace_bytes(i64 batch) const {
  return native_ != nullptr ? native_->workspace_bytes(batch)
                            : plan_.workspace_bytes(batch);
}

armkern::ArmConvOptions arm_conv_options(int bits, ArmImpl impl,
                                         armkern::ConvAlgo algo, int threads,
                                         bool verify) {
  armkern::ArmConvOptions opt;
  opt.bits = bits;
  opt.threads = threads;
  opt.verify = verify;
  switch (impl) {
    case ArmImpl::kOurs:
      opt.kernel = armkern::ArmKernel::kOursGemm;
      opt.algo = algo;
      break;
    case ArmImpl::kNcnn8bit:
      // ncnn's baseline runs everything through its 8-bit path.
      opt.kernel = armkern::ArmKernel::kNcnn;
      opt.bits = 8;
      opt.algo = armkern::ConvAlgo::kGemm;
      break;
    case ArmImpl::kTvmBitserial:
      // > 2 bit degrades inside the driver (bitserial -> gemm), recorded
      // in the fallback chain rather than asserted here.
      opt.algo = armkern::ConvAlgo::kBitserial;
      break;
    case ArmImpl::kTraditionalGemm:
      opt.kernel = armkern::ArmKernel::kTraditional;
      opt.algo = armkern::ConvAlgo::kGemm;
      break;
    case ArmImpl::kSdotExt:
      opt.kernel = armkern::ArmKernel::kSdotExt;
      opt.algo = armkern::ConvAlgo::kGemm;
      break;
    case ArmImpl::kTblLut:
      // > 3 bit degrades inside the driver (tbl -> ours), recorded in the
      // fallback chain rather than asserted here.
      opt.kernel = armkern::ArmKernel::kTblGemm;
      opt.algo = armkern::ConvAlgo::kGemm;
      break;
  }
  return opt;
}

StatusOr<ConvPlan> plan_arm_conv(const ConvShape& s, const Tensor<i8>& weight,
                                 int bits, ArmImpl impl,
                                 armkern::ConvAlgo algo, int threads,
                                 bool verify, gpukern::TuningCache* tuning,
                                 const armkern::GemmBlocking* blocking) {
  armkern::ArmConvOptions opt =
      arm_conv_options(bits, impl, algo, threads, verify);
  if (blocking != nullptr &&
      opt.blocking == armkern::BlockingPolicy::kAuto &&
      opt.algo != armkern::ConvAlgo::kBitserial &&
      opt.kernel != armkern::ArmKernel::kTraditional) {
    // Caller-pinned blocking (the whole-net joint search's winner for this
    // layer) replaces the per-layer auto search.
    opt.blocking = armkern::BlockingPolicy::kExplicit;
    opt.explicit_blocking = *blocking;
  }
  if (tuning != nullptr && opt.blocking == armkern::BlockingPolicy::kAuto &&
      opt.algo == armkern::ConvAlgo::kGemm &&
      opt.kernel != armkern::ArmKernel::kTraditional) {
    // Persist the ARM tile search through the shared tuning cache. The key
    // mirrors the planner's SDOT eligibility degrade so a cache entry maps
    // to the kernel that will actually execute. (Rungs that only *degrade*
    // into GEMM — bitserial > 2 bit, auto — still search in-process; their
    // winners just aren't persisted.)
    armkern::ArmKernel kern = opt.kernel;
    if (kern == armkern::ArmKernel::kSdotExt &&
        !armkern::sdot_eligible_for(opt.bits))
      kern = armkern::ArmKernel::kOursGemm;
    if (kern == armkern::ArmKernel::kTblGemm &&
        !armkern::tbl_eligible_for(opt.bits))
      kern = armkern::ArmKernel::kOursGemm;
    // A TBL row is keyed by its table source.
    const auto row = [&](armkern::TblSource source) {
      const gpukern::ArmTuningKey key{
          s.gemm_m(), s.gemm_n(), s.gemm_k(), opt.bits,
          armkern::blocking_scheme_id(kern, opt.bits,
                                      armkern::InputRange::kSigned, source)};
      const gpukern::ArmBlocking b = tuning->get_or_search_arm(key, [&] {
        const armkern::GemmBlocking w = armkern::search_blocking(
            s, opt.bits, kern, armkern::BlockedSchedule::kStandalone,
            armkern::InputRange::kSigned, source);
        return gpukern::ArmBlocking{w.mc, w.kc, w.nc};
      });
      return armkern::GemmBlocking{b.mc, b.kc, b.nc};
    };
    armkern::GemmBlocking blk = row(armkern::TblSource::kStored);
    // Weight tables keep a row per source and run the row that scores less
    // in its source — choose_tbl_source's pick, found without a search once
    // both rows are cached; plan_conv then packs the source that scores
    // less at that blocking.
    if (kern == armkern::ArmKernel::kTblGemm &&
        armkern::choose_tbl_orientation(s.gemm_m(), s.gemm_n(), s.gemm_k(),
                                        opt.bits, /*weights_ternary=*/false) ==
            armkern::TblOrientation::kWeightTables) {
      const armkern::GemmBlocking built = row(armkern::TblSource::kBuilt);
      const auto score = [&](const armkern::GemmBlocking& b,
                             armkern::TblSource source) {
        return armkern::score_blocking(s, opt.bits, kern, b,
                                       armkern::BlockedSchedule::kStandalone,
                                       armkern::InputRange::kSigned, source);
      };
      if (!(score(blk, armkern::TblSource::kStored) <
            score(built, armkern::TblSource::kBuilt)))
        blk = built;
    }
    opt.blocking = armkern::BlockingPolicy::kExplicit;
    opt.explicit_blocking = blk;
  }
  LBC_ASSIGN_OR_RETURN(armkern::ArmConvPlan plan,
                       armkern::plan_conv(s, weight, opt));
  // A failed proof rejects the configuration before anything executes.
  LBC_RETURN_IF_ERROR(prove_arm_plan(plan));
  return ConvPlan(impl, std::move(plan));
}

Status prove_arm_plan(const armkern::ArmConvPlan& plan) {
  if (plan.algo != armkern::ConvAlgo::kGemm) return Status();
  // A TBL plan proves the one mode and table source it packed and
  // executes.
  if (plan.kernel == armkern::ArmKernel::kTblGemm)
    return check::prove_tbl_mode(plan.tbl_a.mode, plan.shape.gemm_k(),
                                 plan.tbl_a.source);
  return check::prove_arm_kernel(plan.kernel, plan.requested.bits,
                                 plan.shape.gemm_k());
}

StatusOr<ConvPlan> plan_native_conv(const ConvShape& s,
                                    const Tensor<i8>& weight, int bits,
                                    int threads,
                                    gpukern::TuningCache* tuning) {
  ensure_hal_backends_registered();
  LBC_VALIDATE(threads >= 1 && threads <= 64, kInvalidArgument,
               "threads must be in [1, 64], got " << threads);
  LBC_VALIDATE(
      !FaultInjector::instance().should_fire(FaultSite::kPlanCompileFail),
      kResourceExhausted,
      "conv plan compilation failed: native prepack resources exhausted "
      "(injected fault)");

  // Resolve the {rb, cb} blocking through the shared tuning cache when one
  // is given — the measured-ns search runs once per (GEMM view, bits,
  // scheme) across process runs, same discipline as the ARM tile search.
  hal::NativeBlocking blk;
  bool have_blocking = false;
  if (tuning != nullptr) {
    const gpukern::X86TuningKey key{s.gemm_m(), s.gemm_n(), s.gemm_k(), bits,
                                    hal::native_scheme_id(bits)};
    const gpukern::X86Blocking b = tuning->get_or_search_x86(key, [&] {
      const hal::NativeBlocking w = hal::search_native_blocking(
          s.gemm_m(), s.gemm_n(), s.gemm_k(), bits);
      return gpukern::X86Blocking{w.rb, w.cb};
    });
    blk = hal::NativeBlocking{b.rb, b.cb};
    have_blocking = true;
  }
  LBC_ASSIGN_OR_RETURN(
      hal::NativeConvPlan np,
      hal::plan_native_conv(s, weight, bits,
                            have_blocking ? &blk : nullptr));
  // Static proof gate for the native scheme (and its scalar fallback — the
  // dispatch layer can route to either at execute time) at the packed
  // reduction depth, k_pad: pad lanes count as accumulation steps.
  LBC_RETURN_IF_ERROR(check::prove_native_scheme(bits, np.packed_a.k_pad));

  // Mirror the plan metadata into the ArmConvPlan shell so the shared
  // ConvPlan accessors (shape, bits, threads, algo) read one place.
  armkern::ArmConvPlan meta;
  meta.shape = s;
  meta.requested.bits = bits;
  meta.requested.threads = threads;
  meta.requested.algo = armkern::ConvAlgo::kGemm;
  meta.algo = armkern::ConvAlgo::kGemm;
  meta.kernel = armkern::ArmKernel::kOursGemm;
  meta.packed_weight_bytes = np.packed_weight_bytes();
  return ConvPlan(Backend::kNativeHost, ArmImpl::kOurs, std::move(meta),
                  std::make_shared<const hal::NativeConvPlan>(std::move(np)));
}

StatusOr<ArmLayerResult> execute_arm_conv(const ConvPlan& plan,
                                          const Tensor<i8>& input,
                                          Workspace& ws) {
  if (plan.backend() == Backend::kNativeHost) {
    LBC_ASSIGN_OR_RETURN(
        hal::NativeConvResult r,
        hal::execute_native_conv(*plan.native_plan(), input, ws));
    ArmLayerResult res;
    res.out = std::move(r.out);
    res.measured_ns = r.ns;
    res.seconds = r.ns * 1e-9;  // measured, not modeled
    res.executed_algo = r.kernel;
    return res;
  }
  LBC_ASSIGN_OR_RETURN(armkern::ArmConvResult r,
                       armkern::execute_conv(plan.impl_plan(), input, ws));
  ArmLayerResult res;
  res.out = std::move(r.out);
  res.seconds = r.seconds;
  res.cycles = r.cycles;
  res.counts = r.counts;
  res.space = r.space;
  res.executed_algo = std::move(r.executed_algo);
  res.fallback = std::move(r.fallback);
  return res;
}

Tensor<i8> concat_batch(const ConvShape& s,
                        std::span<const Tensor<i8>> inputs) {
  // One contiguous NCHW batch: images are concatenated along N, which is
  // exactly how the im2col GEMM view columns-blocks them.
  const Shape4 want_in{1, s.in_c, s.in_h, s.in_w};
  const i64 k = static_cast<i64>(inputs.size());
  Tensor<i8> batched(Shape4{k, s.in_c, s.in_h, s.in_w});
  const i64 per_image = want_in.elems();
  for (i64 i = 0; i < k; ++i) {
    LBC_CHECK_MSG(inputs[static_cast<size_t>(i)].shape() == want_in,
                  "concat_batch: input does not match the layer shape");
    std::memcpy(batched.data() + i * per_image,
                inputs[static_cast<size_t>(i)].data(),
                static_cast<size_t>(per_image) * sizeof(i8));
  }
  return batched;
}

std::vector<Tensor<i32>> split_batch(const ConvShape& s, i64 k,
                                     const Tensor<i32>& out) {
  const Shape4 out_one{1, s.out_c, s.out_h(), s.out_w()};
  const i64 per_out = out_one.elems();
  std::vector<Tensor<i32>> outputs;
  outputs.reserve(static_cast<size_t>(k));
  for (i64 i = 0; i < k; ++i) {
    Tensor<i32> one(out_one);
    std::memcpy(one.data(), out.data() + i * per_out,
                static_cast<size_t>(per_out) * sizeof(i32));
    outputs.push_back(std::move(one));
  }
  return outputs;
}

StatusOr<BatchedArmResult> execute_arm_conv_batched(
    const ConvPlan& plan, std::span<const Tensor<i8>> inputs, Workspace& ws) {
  LBC_VALIDATE(!inputs.empty(), kInvalidArgument,
               "batched conv needs at least one input");
  const ConvShape& s = plan.shape();
  LBC_VALIDATE(s.batch == 1, kInvalidArgument,
               "batched conv takes a batch-1 plan, got batch " << s.batch);
  const Shape4 want_in{1, s.in_c, s.in_h, s.in_w};
  for (size_t i = 0; i < inputs.size(); ++i)
    LBC_VALIDATE(inputs[i].shape() == want_in, kInvalidArgument,
                 "batched input " << i << " does not match the layer shape "
                                  << describe(s));

  const i64 k = static_cast<i64>(inputs.size());
  const Tensor<i8> batched = concat_batch(s, inputs);
  LBC_ASSIGN_OR_RETURN(ArmLayerResult r,
                       execute_arm_conv(plan, batched, ws));

  BatchedArmResult res;
  res.seconds = r.seconds;
  res.cycles = r.cycles;
  res.measured_ns = r.measured_ns;
  res.executed_algo = std::move(r.executed_algo);
  res.fallback = std::move(r.fallback);
  res.outputs = split_batch(s, k, r.out);
  return res;
}

StatusOr<GpuConvPlan> plan_gpu_conv(const gpusim::DeviceSpec& dev,
                                    const ConvShape& s, int bits, GpuImpl impl,
                                    gpukern::TuningCache* cache) {
  LBC_VALIDATE(s.valid(), kInvalidArgument,
               "invalid conv shape: " << describe(s));
  LBC_VALIDATE(bits == 4 || bits == 8, kInvalidArgument,
               "GPU backend supports 4- or 8-bit, got " << bits);
  LBC_VALIDATE(
      !FaultInjector::instance().should_fire(FaultSite::kPlanCompileFail),
      kResourceExhausted,
      "conv plan compilation failed: precomp buffer resources exhausted "
      "(injected fault)");

  GpuConvPlan plan{dev, s, bits, impl, gpukern::GpuConvOptions{},
                   gpukern::PrecompBuffer(s), FallbackRecord{}};
  switch (impl) {
    case GpuImpl::kOurs: {
      plan.options = gpukern::ours_options(dev, s, bits,
                                           /*profile_runs=*/false);
      if (cache != nullptr) {
        // The profile search runs once per shape and ships in the cache
        // (Sec. 5.1); the plan just reads the resolved winner.
        plan.options.tiling = cache->get_or_search(dev, s, bits,
                                                   /*use_tc=*/true);
      } else {
        const gpukern::AutotuneResult r =
            gpukern::autotune_tiling(dev, s, bits, /*use_tc=*/true);
        plan.options.tiling = r.best;
        plan.planned_fallback = r.fallback;
      }
      break;
    }
    case GpuImpl::kOursDefaultTiling:
      plan.options = gpukern::ours_options(dev, s, bits,
                                           /*profile_runs=*/false);
      break;
    case GpuImpl::kCudnnDp4a:
      plan.options = gpukern::cudnn_dp4a_options();
      break;
    case GpuImpl::kTensorRT:
      plan.options = gpukern::tensorrt_options();
      break;
  }
  return plan;
}

StatusOr<GpuLayerResult> execute_gpu_conv(const GpuConvPlan& plan) {
  const gpukern::GpuConvOptions& opt = plan.options;
  const gpusim::KernelShape ks = [&] {
    gpusim::KernelShape k =
        gpukern::make_kernel_shape(plan.shape, opt.bits, opt.tiling);
    k.use_tc = opt.use_tc;
    k.reorder_smem = opt.reorder_smem;
    k.double_buffer = opt.double_buffer;
    k.coalesce_eff = opt.coalesce_eff;
    k.compute_eff = opt.compute_eff;
    k.launch_overhead_s = opt.launch_overhead_s;
    return k;
  }();
  GpuLayerResult res;
  res.cost = gpusim::estimate_kernel(plan.dev, ks);
  LBC_VALIDATE(res.cost.valid, kUnimplemented,
               "no legal kernel configuration for "
                   << describe(plan.shape) << ": " << res.cost.why_invalid);
  res.seconds = res.cost.seconds;
  res.tiling = opt.tiling;
  res.fallback = plan.planned_fallback;
  return res;
}

namespace {

// FNV-1a over the weight bytes: the cache key must distinguish two layers
// with identical geometry but different weights.
u64 fnv1a64(const void* data, size_t n) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  u64 h = 1469598103934665603ULL;
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace

size_t PlanCache::KeyHash::operator()(const Key& k) const {
  // Mix the fields through the same FNV stream; the struct is plain i64/int
  // fields so hashing its canonical tuple bytes directly would be fragile —
  // hash each member instead.
  u64 h = 1469598103934665603ULL;
  const auto mix = [&h](u64 v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  mix(static_cast<u64>(k.batch));
  mix(static_cast<u64>(k.in_c));
  mix(static_cast<u64>(k.in_h));
  mix(static_cast<u64>(k.in_w));
  mix(static_cast<u64>(k.out_c));
  mix(static_cast<u64>(k.kernel));
  mix(static_cast<u64>(k.stride));
  mix(static_cast<u64>(k.pad));
  mix(static_cast<u64>(k.bits));
  mix(static_cast<u64>(k.impl));
  mix(static_cast<u64>(k.algo));
  mix(static_cast<u64>(k.threads));
  mix(static_cast<u64>(k.backend));
  mix(k.weight_hash);
  return static_cast<size_t>(h);
}

PlanCache::Key PlanCache::make_key(const ConvShape& s, const Tensor<i8>& weight,
                                   int bits, ArmImpl impl,
                                   armkern::ConvAlgo algo, int threads,
                                   Backend backend) {
  return Key{s.batch,
             s.in_c,
             s.in_h,
             s.in_w,
             s.out_c,
             s.kernel,
             s.stride,
             s.pad,
             bits,
             static_cast<int>(impl),
             static_cast<int>(algo),
             threads,
             static_cast<int>(backend),
             fnv1a64(weight.data(), static_cast<size_t>(weight.elems()))};
}

StatusOr<std::shared_ptr<const ConvPlan>> PlanCache::get_or_compile(
    const ConvShape& s, const Tensor<i8>& weight, int bits, ArmImpl impl,
    armkern::ConvAlgo algo, int threads, Backend backend) {
  const Key key = make_key(s, weight, bits, impl, algo, threads, backend);
  {
    MutexLock lock(mu_);
    auto it = map_.find(key);
    if (it != map_.end()) {
      ++hits_;
      return it->second;
    }
  }
  // Compile outside the lock: weight prepack is the expensive part and
  // concurrent misses for different layers should not serialize. A racing
  // duplicate compile of the same key is benign — last writer wins and
  // both plans are valid.
  LBC_VALIDATE(backend != Backend::kGpuTU102, kInvalidArgument,
               "PlanCache caches CPU plans; GPU plans live in GpuConvPlan");
  StatusOr<ConvPlan> plan_or =
      backend == Backend::kNativeHost
          ? plan_native_conv(s, weight, bits, threads)
          : plan_arm_conv(s, weight, bits, impl, algo, threads);
  LBC_ASSIGN_OR_RETURN(ConvPlan plan, std::move(plan_or));
  auto shared = std::make_shared<const ConvPlan>(std::move(plan));
  MutexLock lock(mu_);
  ++misses_;
  map_[key] = shared;
  return shared;
}

bool PlanCache::evict(const ConvShape& s, const Tensor<i8>& weight, int bits,
                      ArmImpl impl, armkern::ConvAlgo algo, int threads,
                      Backend backend) {
  const Key key = make_key(s, weight, bits, impl, algo, threads, backend);
  MutexLock lock(mu_);
  const auto it = map_.find(key);
  if (it == map_.end()) return false;
  map_.erase(it);
  ++evictions_;
  return true;
}

bool PlanCache::resident(const ConvShape& s, const Tensor<i8>& weight,
                         int bits, ArmImpl impl, armkern::ConvAlgo algo,
                         int threads, Backend backend) const {
  const Key key = make_key(s, weight, bits, impl, algo, threads, backend);
  MutexLock lock(mu_);
  return map_.find(key) != map_.end();
}

i64 PlanCache::hits() const {
  MutexLock lock(mu_);
  return hits_;
}

i64 PlanCache::misses() const {
  MutexLock lock(mu_);
  return misses_;
}

i64 PlanCache::size() const {
  MutexLock lock(mu_);
  return static_cast<i64>(map_.size());
}

i64 PlanCache::evictions() const {
  MutexLock lock(mu_);
  return evictions_;
}

i64 PlanCache::resident_packed_bytes() const {
  MutexLock lock(mu_);
  i64 total = 0;
  for (const auto& [key, plan] : map_) total += plan->packed_weight_bytes();
  return total;
}

void PlanCache::clear() {
  MutexLock lock(mu_);
  map_.clear();
  hits_ = 0;
  misses_ = 0;
}

}  // namespace lbc::core
