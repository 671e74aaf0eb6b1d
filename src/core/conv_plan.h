// Compiled convolution plans — the plan/execute split at the engine level
// (the cuDNN descriptor-plus-workspace / TVM build-then-run shape).
//
// plan_arm_conv resolves the impl/algo fallback ladder once and prepacks
// the weights in the chosen micro-kernel's layout; execute_arm_conv runs
// any number of inputs against the immutable plan with all activation
// scratch drawn from a caller-owned Workspace. plan_gpu_conv resolves the
// tiling (autotune or tuning cache) and the precomputed offset buffer
// once; execute_gpu_conv prices kernel launches against it.
//
// Thread-safety contract: a ConvPlan / GpuConvPlan is immutable after
// planning and safe to share across threads; a Workspace is single-owner
// (one per executing worker). PlanCache is thread-safe and hands out
// shared_ptr<const ConvPlan> so cached plans outlive eviction.
#pragma once

#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "armkern/conv_arm.h"
#include "common/status.h"
#include "common/tensor.h"
#include "common/thread_annotations.h"
#include "common/workspace.h"
#include "core/engine.h"
#include "gpukern/precomp.h"
#include "gpukern/tuning_cache.h"

namespace lbc::hal {
struct NativeConvPlan;  // hal/native_conv.h
}  // namespace lbc::hal

namespace lbc::core {

/// Translate the engine-level (bits, impl, algo, threads) selection into
/// the ARM driver's options — the one place the ArmImpl dispatch lives.
/// `verify` enables checked execution (armsim/verifier.h) on every execute
/// against the resulting plan.
armkern::ArmConvOptions arm_conv_options(int bits, ArmImpl impl,
                                         armkern::ConvAlgo algo, int threads,
                                         bool verify = false);

/// Immutable compiled plan for one CPU conv layer — emulated ARM
/// (kArmCortexA53) or native host (kNativeHost). The native variant keeps
/// the ArmConvPlan populated with shape/options metadata so the shared
/// accessors read one place; its kernels and packed weights live in the
/// attached hal::NativeConvPlan.
class ConvPlan {
 public:
  const ConvShape& shape() const { return plan_.shape; }
  int bits() const { return plan_.requested.bits; }
  /// Which backend executes this plan (registry-driven at plan time).
  Backend backend() const { return backend_; }
  /// The native plan when backend() == kNativeHost, else nullptr.
  const hal::NativeConvPlan* native_plan() const { return native_.get(); }
  ArmImpl impl() const { return impl_; }
  int threads() const { return plan_.requested.threads; }
  /// Checked execution requested at plan time (kernel invariant verifier).
  bool verify() const { return plan_.requested.verify; }
  armkern::ConvAlgo planned_algo() const { return plan_.algo; }
  armkern::ArmKernel planned_kernel() const { return plan_.kernel; }
  const FallbackRecord& planned_fallback() const {
    return plan_.planned_fallback;
  }
  /// Bytes of weights held prepacked in the executing kernel's layout.
  i64 packed_weight_bytes() const { return plan_.packed_weight_bytes; }
  /// Modeled cycles the weight pack would cost per call — what one
  /// compiled plan amortizes away across executes.
  double pack_cycles() const { return plan_.pack_cycles; }
  /// Exact Workspace bytes one execute at batch `batch` consumes.
  i64 workspace_bytes(i64 batch) const;

  const armkern::ArmConvPlan& impl_plan() const { return plan_; }

 private:
  friend StatusOr<ConvPlan> plan_arm_conv(const ConvShape&, const Tensor<i8>&,
                                          int, ArmImpl, armkern::ConvAlgo,
                                          int, bool, gpukern::TuningCache*,
                                          const armkern::GemmBlocking*);
  friend StatusOr<ConvPlan> plan_native_conv(const ConvShape&,
                                             const Tensor<i8>&, int, int,
                                             gpukern::TuningCache*);
  ConvPlan(ArmImpl impl, armkern::ArmConvPlan plan)
      : impl_(impl), plan_(std::move(plan)) {}
  ConvPlan(Backend backend, ArmImpl impl, armkern::ArmConvPlan meta,
           std::shared_ptr<const hal::NativeConvPlan> native)
      : backend_(backend),
        impl_(impl),
        plan_(std::move(meta)),
        native_(std::move(native)) {}

  Backend backend_ = Backend::kArmCortexA53;
  ArmImpl impl_;
  armkern::ArmConvPlan plan_;
  std::shared_ptr<const hal::NativeConvPlan> native_;  ///< kNativeHost only
};

/// Compile a plan: resolve the ladder, prepack weights, size the workspace.
/// With a `tuning` cache, the blocked-GEMM {Mc, Kc, Nc} auto-search result
/// is persisted per (GEMM view, bits, scheme) through
/// TuningCache::get_or_search_arm — "determined once per convolution
/// shape" (Sec. 5.1) across process runs, same as the GPU tilings. A
/// weight-tables TBL conv keeps one row per table source and runs the row
/// that scores less in its source, so a cache holding both runs no search.
/// Errors: kInvalidArgument (bad shape/bits/dims/threads) or
/// kResourceExhausted (plan compilation failed — the plan.compile_fail
/// fault site; callers fall back to the unplanned one-shot path).
/// A non-null `blocking` pins the blocked-GEMM {Mc, Kc, Nc} instead of the
/// per-layer auto search (clamped to the shape) — how the whole-net joint
/// search (armkern::search_graph_blocking) drives per-layer plans. Ignored
/// by non-GEMM rungs and kTraditional; takes precedence over `tuning`.
StatusOr<ConvPlan> plan_arm_conv(const ConvShape& s, const Tensor<i8>& weight,
                                 int bits, ArmImpl impl = ArmImpl::kOurs,
                                 armkern::ConvAlgo algo =
                                     armkern::ConvAlgo::kGemm,
                                 int threads = 1, bool verify = false,
                                 gpukern::TuningCache* tuning = nullptr,
                                 const armkern::GemmBlocking* blocking =
                                     nullptr);

/// Static proof gate (check/kernel_prover.h) for a resolved ARM plan: on
/// the GEMM rung, the instruction scheme the RESOLVED kernel dispatches to
/// (the planner may have degraded the request) — for TBL, the mode and
/// table source the plan packed — must discharge its overflow obligations
/// at the plan's reduction depth. Non-GEMM rungs pass — they
/// stay under the dynamic verifier. Errors: kInvariantViolation naming the
/// failed obligation. plan_arm_conv and GraphPlan::compile both apply it.
Status prove_arm_plan(const armkern::ArmConvPlan& plan);

/// Compile a native-host plan (hal/): registry-selected backend (AVX2 or
/// scalar), weights prepacked in the scheme's layout, {rb, cb} blocking
/// from the measured-ns search — persisted per (GEMM view, bits, scheme)
/// through TuningCache::get_or_search_x86 when a `tuning` cache is given.
/// Executes through the same execute_arm_conv/execute_arm_conv_batched
/// entry points, which dispatch on ConvPlan::backend(). Errors:
/// kInvalidArgument, kUnavailable (LBC_HAL_DISABLE=native), or
/// kResourceExhausted (plan.compile_fail fault site).
StatusOr<ConvPlan> plan_native_conv(const ConvShape& s,
                                    const Tensor<i8>& weight, int bits,
                                    int threads = 1,
                                    gpukern::TuningCache* tuning = nullptr);

/// Execute a plan against one input (batch may differ from the planned
/// batch). Bit-exact — including modeled cycles — with the one-shot
/// run_arm_conv for the same (shape, weights, options). `ws` is reset on
/// entry.
StatusOr<ArmLayerResult> execute_arm_conv(const ConvPlan& plan,
                                          const Tensor<i8>& input,
                                          Workspace& ws);

/// Micro-batched execution: concatenates K batch-1 inputs along N, runs
/// ONE batched execute against the shared plan, splits the output back per
/// request. Requires the plan to hold batch-1 geometry. Bit-exact per
/// output vs executing each input alone.
StatusOr<BatchedArmResult> execute_arm_conv_batched(
    const ConvPlan& plan, std::span<const Tensor<i8>> inputs, Workspace& ws);

/// Concatenate K batch-1 NCHW inputs into one batch-K tensor (shared by
/// the planned and unplanned batched paths). Inputs must match `s`.
Tensor<i8> concat_batch(const ConvShape& s, std::span<const Tensor<i8>> inputs);

/// Split a batch-K NCHW output into K batch-1 tensors.
std::vector<Tensor<i32>> split_batch(const ConvShape& s, i64 k,
                                     const Tensor<i32>& out);

/// Immutable compiled plan for one GPU conv layer: resolved options
/// (tiling from the tuning cache or a fresh autotune) plus the precomputed
/// offset buffer the implicit-precomp kernel reads.
struct GpuConvPlan {
  gpusim::DeviceSpec dev;
  ConvShape shape;
  int bits = 8;
  GpuImpl impl = GpuImpl::kOurs;
  gpukern::GpuConvOptions options;   ///< tiling resolved at plan time
  gpukern::PrecompBuffer precomp;    ///< offset buffer ("once per shape")
  FallbackRecord planned_fallback;   ///< autotune degradation, if any

  i64 precomp_bytes() const { return precomp.bytes(); }
};

/// Compile a GPU plan. With a `cache`, the tiling comes from
/// TuningCache::get_or_search (amortized across shapes and process runs);
/// without one, kOurs runs a fresh autotune. Errors: kInvalidArgument or
/// kResourceExhausted (plan.compile_fail fault site).
StatusOr<GpuConvPlan> plan_gpu_conv(const gpusim::DeviceSpec& dev,
                                    const ConvShape& s, int bits, GpuImpl impl,
                                    gpukern::TuningCache* cache = nullptr);

/// Price one kernel launch against the compiled plan.
StatusOr<GpuLayerResult> execute_gpu_conv(const GpuConvPlan& plan);

/// Thread-safe cache of compiled CPU plans (emulated ARM or native host),
/// keyed by backend, geometry, bits, impl, algo, threads, AND a hash of
/// the weight bytes — two layers with the
/// same shape but different weights must not share a plan (and two models
/// with identical weights DO share one immutable entry — the registry's
/// memory-budget accounting counts the plan once). The serving scheduler
/// compiles each layer once and every batch reuses the plan.
class PlanCache {
 public:
  /// Cached plan for the request, compiling on a miss. Returns the cache's
  /// shared, immutable plan — callers may execute it concurrently.
  StatusOr<std::shared_ptr<const ConvPlan>> get_or_compile(
      const ConvShape& s, const Tensor<i8>& weight, int bits,
      ArmImpl impl = ArmImpl::kOurs,
      armkern::ConvAlgo algo = armkern::ConvAlgo::kGemm, int threads = 1,
      Backend backend = Backend::kArmCortexA53);

  /// Eviction hook for memory-budgeted owners (serve::ModelRegistry): drop
  /// the cache's reference to the entry matching the request. Returns true
  /// when an entry was resident. In-flight executions are never raced: the
  /// cache hands out shared_ptr<const ConvPlan>, so an executing batch
  /// keeps its plan alive until it finishes; eviction only drops the
  /// cache's own reference.
  bool evict(const ConvShape& s, const Tensor<i8>& weight, int bits,
             ArmImpl impl = ArmImpl::kOurs,
             armkern::ConvAlgo algo = armkern::ConvAlgo::kGemm,
             int threads = 1, Backend backend = Backend::kArmCortexA53);

  /// Whether an entry for the request is resident (a read-only probe; never
  /// compiles, never counts as a hit or miss).
  bool resident(const ConvShape& s, const Tensor<i8>& weight, int bits,
                ArmImpl impl = ArmImpl::kOurs,
                armkern::ConvAlgo algo = armkern::ConvAlgo::kGemm,
                int threads = 1,
                Backend backend = Backend::kArmCortexA53) const;

  i64 hits() const;
  i64 misses() const;
  i64 size() const;
  i64 evictions() const;
  /// Sum of packed_weight_bytes over resident entries — what a memory
  /// budget charges for the cache's prepacked working set.
  i64 resident_packed_bytes() const;
  void clear();

 private:
  struct Key {
    i64 batch, in_c, in_h, in_w, out_c, kernel, stride, pad;
    int bits;
    int impl;
    int algo;
    int threads;
    int backend;
    u64 weight_hash;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    size_t operator()(const Key& k) const;
  };

  static Key make_key(const ConvShape& s, const Tensor<i8>& weight, int bits,
                      ArmImpl impl, armkern::ConvAlgo algo, int threads,
                      Backend backend);

  mutable Mutex mu_;
  std::unordered_map<Key, std::shared_ptr<const ConvPlan>, KeyHash> map_
      LBC_GUARDED_BY(mu_);
  i64 hits_ LBC_GUARDED_BY(mu_) = 0;
  i64 misses_ LBC_GUARDED_BY(mu_) = 0;
  i64 evictions_ LBC_GUARDED_BY(mu_) = 0;
};

}  // namespace lbc::core
