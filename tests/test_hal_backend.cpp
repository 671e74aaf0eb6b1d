// HAL subsystem: CPU feature probing + overrides, the native-backend rule
// (a plan's backend name matches the kernel family its execute runs), the
// native x86 GEMM/conv kernels, and the cross-backend bit-exactness sweep
// the native backend ships under — native AVX2, native forced-scalar, the
// emulated ARM path, and the reference conv must all agree byte-for-byte
// on the verify_all_kernels shape grid across bits 2-8. Under
// LBC_HAL_DISABLE=native the native tests check the degrade to the
// emulated plan instead.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/fault_injection.h"
#include "common/rng.h"
#include "common/workspace.h"
#include "core/conv_plan.h"
#include "core/engine.h"
#include "gpukern/tuning_cache.h"
#include "hal/cpu_features.h"
#include "hal/native_conv.h"
#include "hal/native_gemm.h"
#include "refconv/conv_ref.h"
#include "refconv/gemm_ref.h"

namespace lbc::hal {
namespace {

/// Restore the real CPU features when a test body returns or throws.
struct ScopedCpuOverride {
  explicit ScopedCpuOverride(const CpuFeatures& f) { force_cpu_features(f); }
  ~ScopedCpuOverride() { clear_cpu_feature_override(); }
};

CpuFeatures scalar_only() {
  CpuFeatures f = cpu_features();
  f.avx2 = false;
  return f;
}

// Same grid as armkern/verify_kernels.cpp sweep_shapes(): a 3x3 block, a
// pointwise layer with a ragged output channel count, and a strided 5x5
// stem — together they hit tail columns, padding taps, and stride clipping.
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

// Under LBC_HAL_DISABLE=native no native plan compiles:
// hal::plan_native_conv reports kUnavailable, and core::plan_native_conv
// answers with the emulated plan — not fault-marked, and bit-exact with the
// reference conv on `in` (whose batch may differ from the shape's).
void expect_native_disabled_degrade(const ConvShape& s, const Tensor<i8>& in,
                                    const Tensor<i8>& w, int bits) {
  EXPECT_EQ(plan_native_conv(s, w, bits).status().code(),
            StatusCode::kUnavailable);
  const StatusOr<core::ConvPlan> plan = core::plan_native_conv(s, w, bits);
  ASSERT_TRUE(plan.ok()) << plan.status().to_string();
  EXPECT_EQ(plan->backend(), core::Backend::kArmCortexA53);
  EXPECT_EQ(plan->planned_fallback().requested, "native");
  EXPECT_FALSE(plan->impl_plan().fault_degraded);
  Workspace ws;
  const StatusOr<core::ArmLayerResult> r =
      core::execute_arm_conv(*plan, in, ws);
  ASSERT_TRUE(r.ok()) << r.status().to_string();
  EXPECT_TRUE(r->out == ref::conv2d_s32(s.with_batch(in.shape().n), in, w))
      << s.name << " bits=" << bits;
}

TEST(CpuFeatures, ProbeAndOverride) {
  const CpuFeatures probed = cpu_features();
#if defined(__x86_64__) || defined(_M_X64)
  EXPECT_TRUE(probed.x86_64);
#endif
  EXPECT_NE(cpu_features_describe(), nullptr);

  CpuFeatures forced;  // everything off
  {
    ScopedCpuOverride ovr(forced);
    EXPECT_FALSE(cpu_features().avx2);
    EXPECT_FALSE(avx2_enabled());
  }
  // Cleared: back to the probed truth.
  EXPECT_EQ(cpu_features().avx2, probed.avx2);
}

// The one native-backend rule, under the probed features, with AVX2 forced
// off, and with native disabled: a plan's backend_name names the kernel
// family (avx2-* or scalar-*) its execute runs; with native disabled no
// native plan compiles and the engine-level planner degrades to the
// emulated plan without marking a fault.
TEST(NativeBackendName, PlanLabelMatchesTheKernelItsExecuteRuns) {
  const ConvShape s = sweep_shapes()[0];
  CpuFeatures disabled = cpu_features();
  disabled.native_disabled = true;
  for (const CpuFeatures& f : {cpu_features(), scalar_only(), disabled}) {
    ScopedCpuOverride ovr(f);
    for (const int bits : {3, 6}) {  // one LUT-scheme and one DOT-scheme width
      const Tensor<i8> in = random_qtensor(
          Shape4{s.batch, s.in_c, s.in_h, s.in_w}, bits, 1100 + bits);
      const Tensor<i8> w = random_qtensor(
          Shape4{s.out_c, s.in_c, s.kernel, s.kernel}, bits, 1200 + bits);
      const StatusOr<core::ConvPlan> plan = core::plan_native_conv(s, w, bits);
      ASSERT_TRUE(plan.ok()) << plan.status().to_string();
      if (f.native_disabled) {
        EXPECT_EQ(native_backend_name(), nullptr);
        EXPECT_EQ(plan_native_conv(s, w, bits).status().code(),
                  StatusCode::kUnavailable);
        EXPECT_EQ(plan->backend(), core::Backend::kArmCortexA53);
        EXPECT_FALSE(plan->impl_plan().fault_degraded);
        continue;
      }
      ASSERT_EQ(plan->backend(), core::Backend::kNativeHost);
      const std::string& label = plan->native_plan()->backend_name;
      EXPECT_EQ(label, f.avx2 ? "x86-avx2" : "x86-scalar");
      Workspace ws;
      const StatusOr<core::ArmLayerResult> r =
          core::execute_arm_conv(*plan, in, ws);
      ASSERT_TRUE(r.ok()) << r.status().to_string();
      const std::string family = label.substr(label.find('-') + 1) + "-";
      EXPECT_EQ(r->executed_algo.rfind(family, 0), 0u)
          << label << " ran " << r->executed_algo;
    }
  }
}

TEST(NativeGemm, SchemeSelectionAndPackValidation) {
  for (int bits = 2; bits <= 4; ++bits)
    EXPECT_EQ(native_scheme_for(bits), NativeScheme::kLut) << bits;
  for (int bits = 5; bits <= 8; ++bits)
    EXPECT_EQ(native_scheme_for(bits), NativeScheme::kDot) << bits;

  // A 2-bit weight outside the adjusted range [-1, 1] must be rejected —
  // it would index outside the product table.
  const i8 bad[4] = {1, -1, 2, 0};
  EXPECT_EQ(native_pack_a(bad, 2, 2, 2).status().code(),
            StatusCode::kInvalidArgument);
  const i8 good[4] = {1, -1, 0, 1};
  ASSERT_TRUE(native_pack_a(good, 2, 2, 2).ok());
}

TEST(NativeGemm, ProductLutMatchesArithmetic) {
  for (int bits = 2; bits <= 4; ++bits) {
    const int q = (1 << (bits - 1)) - 1;
    const i8* lut = native_product_lut(bits);
    for (int w = -q; w <= q; ++w)
      for (int a = -q; a <= q; ++a)
        EXPECT_EQ(lut[(w + q) * 16 + (a + q)], static_cast<i8>(w * a))
            << "bits=" << bits << " w=" << w << " a=" << a;
  }
}

// Scalar and AVX2 kernels vs the reference GEMM on ragged shapes that
// exercise row/col block tails and the K zero-padding.
TEST(NativeGemm, KernelsMatchReferenceAcrossBits) {
  struct Dims {
    i64 m, n, k;
  };
  const Dims dims[] = {{1, 1, 1}, {3, 5, 7}, {16, 33, 31}, {20, 49, 100}};
  for (const Dims& d : dims) {
    for (int bits = 2; bits <= 8; ++bits) {
      const Tensor<i8> a =
          random_qtensor(Shape4{1, 1, d.m, d.k}, bits, 100 + bits);
      const Tensor<i8> b =
          random_qtensor(Shape4{1, 1, d.k, d.n}, bits, 200 + bits);
      const Tensor<i32> want = ref::gemm_s8s32(a, b);

      const auto pa = native_pack_a(a.data(), d.m, d.k, bits);
      ASSERT_TRUE(pa.ok()) << pa.status().to_string();
      const size_t c_elems = static_cast<size_t>(d.m * d.n);
      const size_t pb_bytes =
          static_cast<size_t>(native_packed_b_bytes(d.k, d.n, bits));
      std::vector<i8> pb(pb_bytes);
      native_pack_b(b.data(), d.k, d.n, bits, pb.data());

      for (const NativeBlocking blocking :
           {NativeBlocking{1, 1}, NativeBlocking{8, 256},
            default_native_blocking(d.m, d.n, d.k, bits)}) {
        std::vector<i32> got(c_elems);
        {
          ScopedCpuOverride ovr(scalar_only());
          const NativeGemmResult r = native_gemm_packed_b(
              *pa, pb.data(), got.data(), d.n, blocking);
          EXPECT_TRUE(std::strncmp(r.kernel, "scalar", 6) == 0) << r.kernel;
        }
        EXPECT_EQ(std::memcmp(got.data(), want.data(), c_elems * 4), 0)
            << "scalar m=" << d.m << " n=" << d.n << " k=" << d.k
            << " bits=" << bits << " rb=" << blocking.rb
            << " cb=" << blocking.cb;

        if (cpu_features().avx2) {
          std::vector<i32> got2(c_elems);
          const NativeGemmResult r = native_gemm_packed_b(
              *pa, pb.data(), got2.data(), d.n, blocking);
          EXPECT_TRUE(std::strncmp(r.kernel, "avx2", 4) == 0) << r.kernel;
          EXPECT_EQ(std::memcmp(got2.data(), want.data(), c_elems * 4), 0)
              << "avx2 m=" << d.m << " n=" << d.n << " k=" << d.k
              << " bits=" << bits << " rb=" << blocking.rb
              << " cb=" << blocking.cb;
        }
      }
    }
  }
}

TEST(NativeGemm, FusedConvPackMatchesMaterializedIm2col) {
  for (const ConvShape& s : sweep_shapes()) {
    for (const int bits : {2, 8}) {
      const Tensor<i8> in = random_qtensor(
          Shape4{s.batch, s.in_c, s.in_h, s.in_w}, bits, 300 + bits);
      const i64 k = s.gemm_k(), n = s.gemm_n();
      // Materialize im2col, then pack it.
      Tensor<i8> im2col(Shape4{1, 1, k, n});
      for (i64 kr = 0; kr < k; ++kr) {
        const i64 c = kr / (s.kernel * s.kernel);
        const i64 ky = (kr / s.kernel) % s.kernel;
        const i64 kx = kr % s.kernel;
        for (i64 col = 0; col < n; ++col) {
          const i64 oy = col / s.out_w(), ox = col % s.out_w();
          const i64 iy = oy * s.stride - s.pad + ky;
          const i64 ix = ox * s.stride - s.pad + kx;
          im2col.at(0, 0, kr, col) =
              (iy < 0 || iy >= s.in_h || ix < 0 || ix >= s.in_w)
                  ? i8{0}
                  : in.at(0, c, iy, ix);
        }
      }
      const size_t pb_bytes =
          static_cast<size_t>(native_packed_b_bytes(k, n, bits));
      std::vector<i8> pb_mat(pb_bytes), pb_fused(pb_bytes);
      native_pack_b(im2col.data(), k, n, bits, pb_mat.data());
      native_pack_b_from_conv(s, in, bits, pb_fused.data());
      EXPECT_EQ(std::memcmp(pb_mat.data(), pb_fused.data(), pb_bytes), 0)
          << s.name << " bits=" << bits;
    }
  }
}

TEST(NativeGemm, BlockingSearchIsMemoizedAndValid) {
  const NativeSearchStats before = native_search_stats();
  const NativeBlocking b1 = search_native_blocking(24, 80, 72, 3);
  const NativeBlocking b2 = search_native_blocking(24, 80, 72, 3);
  EXPECT_EQ(b1, b2);
  EXPECT_GT(b1.rb, 0);
  EXPECT_GT(b1.cb, 0);
  const NativeSearchStats after = native_search_stats();
  EXPECT_GE(after.searches, before.searches + 1);
  EXPECT_GE(after.memo_hits, before.memo_hits + 1);
}

// The tentpole acceptance sweep: native AVX2, native forced-scalar, the
// emulated ARM backend, and the reference conv agree bit-for-bit on the
// verify_all_kernels shape grid across every bit width.
TEST(CrossBackend, NativeMatchesEmulatedAndReferenceAcrossBits) {
  for (const ConvShape& s : sweep_shapes()) {
    for (int bits = 2; bits <= 8; ++bits) {
      const Tensor<i8> in = random_qtensor(
          Shape4{s.batch, s.in_c, s.in_h, s.in_w}, bits, 400 + bits);
      const Tensor<i8> w = random_qtensor(
          Shape4{s.out_c, s.in_c, s.kernel, s.kernel}, bits, 500 + bits);

      const Tensor<i32> ref = ref::conv2d_s32(s, in, w);
      const StatusOr<core::ArmLayerResult> arm =
          core::run_arm_conv(s, in, w, bits);
      ASSERT_TRUE(arm.ok()) << arm.status().to_string();
      ASSERT_EQ(arm->out.shape(), ref.shape());
      EXPECT_EQ(std::memcmp(arm->out.data(), ref.data(),
                            static_cast<size_t>(ref.shape().elems()) * 4),
                0)
          << "emulated " << s.name << " bits=" << bits;

      if (native_backend_name() == nullptr) {
        expect_native_disabled_degrade(s, in, w, bits);
        continue;
      }
      const StatusOr<NativeConvPlan> plan = plan_native_conv(s, w, bits);
      ASSERT_TRUE(plan.ok()) << plan.status().to_string();
      Workspace ws;
      if (cpu_features().avx2) {
        const StatusOr<NativeConvResult> r =
            execute_native_conv(*plan, in, ws);
        ASSERT_TRUE(r.ok()) << r.status().to_string();
        EXPECT_EQ(std::memcmp(r->out.data(), ref.data(),
                              static_cast<size_t>(ref.shape().elems()) * 4),
                  0)
            << "native-avx2 " << s.name << " bits=" << bits;
        EXPECT_GT(r->ns, 0);
      }
      {
        ScopedCpuOverride ovr(scalar_only());
        const StatusOr<NativeConvResult> r =
            execute_native_conv(*plan, in, ws);
        ASSERT_TRUE(r.ok()) << r.status().to_string();
        EXPECT_TRUE(std::strncmp(r->kernel, "scalar", 6) == 0) << r->kernel;
        EXPECT_EQ(std::memcmp(r->out.data(), ref.data(),
                              static_cast<size_t>(ref.shape().elems()) * 4),
                  0)
            << "native-scalar " << s.name << " bits=" << bits;
      }
    }
  }
}

TEST(NativeConv, BatchedExecuteMatchesPerImage) {
  ConvShape s = sweep_shapes()[0];
  const int bits = 4;
  const Tensor<i8> w = random_qtensor(
      Shape4{s.out_c, s.in_c, s.kernel, s.kernel}, bits, 600);
  const i64 batch = 3;
  const Tensor<i8> in = random_qtensor(
      Shape4{batch, s.in_c, s.in_h, s.in_w}, bits, 601);
  if (native_backend_name() == nullptr) {
    expect_native_disabled_degrade(s, in, w, bits);
    return;
  }
  const StatusOr<NativeConvPlan> plan = plan_native_conv(s, w, bits);
  ASSERT_TRUE(plan.ok()) << plan.status().to_string();

  Workspace ws;
  const StatusOr<NativeConvResult> got = execute_native_conv(*plan, in, ws);
  ASSERT_TRUE(got.ok()) << got.status().to_string();
  ASSERT_EQ(got->out.shape().n, batch);

  for (i64 img = 0; img < batch; ++img) {
    Tensor<i8> one(Shape4{1, s.in_c, s.in_h, s.in_w});
    std::memcpy(one.data(), in.data() + img * one.shape().elems(),
                static_cast<size_t>(one.shape().elems()));
    const Tensor<i32> ref = ref::conv2d_s32(s, one, w);
    EXPECT_EQ(std::memcmp(got->out.data() + img * ref.shape().elems(),
                          ref.data(),
                          static_cast<size_t>(ref.shape().elems()) * 4),
              0)
        << "img " << img;
  }
}

TEST(NativeConv, PlanReportsUnavailableWhenNativeDisabled) {
  const ConvShape s = sweep_shapes()[1];
  const Tensor<i8> w = random_qtensor(
      Shape4{s.out_c, s.in_c, s.kernel, s.kernel}, 4, 700);
  CpuFeatures off = cpu_features();
  off.native_disabled = true;
  ScopedCpuOverride ovr(off);
  EXPECT_EQ(plan_native_conv(s, w, 4).status().code(),
            StatusCode::kUnavailable);
  // The engine-level planner degrades to the emulated plan instead.
  const StatusOr<core::ConvPlan> emulated = core::plan_native_conv(s, w, 4);
  ASSERT_TRUE(emulated.ok()) << emulated.status().to_string();
  EXPECT_EQ(emulated->backend(), core::Backend::kArmCortexA53);
  EXPECT_TRUE(emulated->planned_fallback().fell_back);
  EXPECT_EQ(emulated->planned_fallback().requested, "native");
  EXPECT_FALSE(emulated->impl_plan().fault_degraded)
      << "a disabled backend is not a transient fault";
}

TEST(NativeConv, CorePlanCarriesMeasuredNanoseconds) {
  const ConvShape s = sweep_shapes()[0];
  const int bits = 8;
  const Tensor<i8> in = random_qtensor(
      Shape4{s.batch, s.in_c, s.in_h, s.in_w}, bits, 800);
  const Tensor<i8> w = random_qtensor(
      Shape4{s.out_c, s.in_c, s.kernel, s.kernel}, bits, 801);
  if (native_backend_name() == nullptr) {
    expect_native_disabled_degrade(s, in, w, bits);
    return;
  }

  const StatusOr<core::ConvPlan> plan = core::plan_native_conv(s, w, bits);
  ASSERT_TRUE(plan.ok()) << plan.status().to_string();
  EXPECT_EQ(plan->backend(), core::Backend::kNativeHost);
  EXPECT_GT(plan->packed_weight_bytes(), 0);
  EXPECT_GT(plan->workspace_bytes(1), 0);

  Workspace ws;
  const StatusOr<core::ArmLayerResult> r =
      core::execute_arm_conv(*plan, in, ws);
  ASSERT_TRUE(r.ok()) << r.status().to_string();
  EXPECT_GT(r->measured_ns, 0);
  EXPECT_NEAR(r->seconds, r->measured_ns * 1e-9, 1e-12);
  const Tensor<i32> ref = ref::conv2d_s32(s, in, w);
  EXPECT_EQ(std::memcmp(r->out.data(), ref.data(),
                        static_cast<size_t>(ref.shape().elems()) * 4),
            0);
}

TEST(NativeConv, CorePlanResolvesBlockingThroughTuningCache) {
  const ConvShape s = sweep_shapes()[0];
  const int bits = 3;
  const Tensor<i8> w = random_qtensor(
      Shape4{s.out_c, s.in_c, s.kernel, s.kernel}, bits, 900);

  gpukern::TuningCache cache;
  const StatusOr<core::ConvPlan> p1 =
      core::plan_native_conv(s, w, bits, /*threads=*/1, &cache);
  ASSERT_TRUE(p1.ok()) << p1.status().to_string();
  if (native_backend_name() == nullptr) {
    // The emulated plan resolves no native blocking: no x86 row is read or
    // written.
    EXPECT_EQ(p1->backend(), core::Backend::kArmCortexA53);
    EXPECT_EQ(cache.x86_size(), 0u);
    EXPECT_EQ(cache.misses(), 0);
    const Tensor<i8> in = random_qtensor(
        Shape4{s.batch, s.in_c, s.in_h, s.in_w}, bits, 901);
    expect_native_disabled_degrade(s, in, w, bits);
    return;
  }
  EXPECT_EQ(cache.x86_size(), 1u);
  EXPECT_EQ(cache.misses(), 1);
  const StatusOr<core::ConvPlan> p2 =
      core::plan_native_conv(s, w, bits, /*threads=*/1, &cache);
  ASSERT_TRUE(p2.ok());
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_EQ(p1->native_plan()->blocking, p2->native_plan()->blocking);
}

// A compile fault degrades the native plan to the emulated GEMM plan,
// bit-exact and marked as fault-degraded; the next plan is native.
TEST(NativeConv, CompileFaultDegradesToEmulatedPlan) {
  const ConvShape s = sweep_shapes()[2];
  const Tensor<i8> w = random_qtensor(
      Shape4{s.out_c, s.in_c, s.kernel, s.kernel}, 8, 1000);
  const Tensor<i8> in = random_qtensor(
      Shape4{s.batch, s.in_c, s.in_h, s.in_w}, 8, 1001);
  {
    ScopedFault fault(FaultSite::kPlanCompileFail, /*fire_count=*/1);
    const StatusOr<core::ConvPlan> p = core::plan_native_conv(s, w, 8);
    ASSERT_TRUE(p.ok()) << p.status().to_string();
    EXPECT_EQ(p->backend(), core::Backend::kArmCortexA53);
    EXPECT_EQ(p->planned_algo(), armkern::ConvAlgo::kGemm);
    EXPECT_TRUE(p->impl_plan().fault_degraded);
    EXPECT_EQ(p->planned_fallback().requested, "native");
    Workspace ws;
    const StatusOr<core::ArmLayerResult> r =
        core::execute_arm_conv(*p, in, ws);
    ASSERT_TRUE(r.ok()) << r.status().to_string();
    EXPECT_EQ(count_mismatches(ref::conv2d_s32(s, in, w), r->out), 0);
    EXPECT_TRUE(r->fallback.fell_back);
  }
  {
    // A persistent fault is consulted once: the floor compiles without a
    // second consult, so it is the emulated GEMM plan, not the reference
    // rung a second fault would give.
    ScopedFault fault(FaultSite::kPlanCompileFail);  // persistent
    const StatusOr<core::ConvPlan> p = core::plan_native_conv(s, w, 8);
    ASSERT_TRUE(p.ok()) << p.status().to_string();
    EXPECT_EQ(FaultInjector::instance().consults(FaultSite::kPlanCompileFail),
              1);
    EXPECT_EQ(p->planned_algo(), armkern::ConvAlgo::kGemm);
    EXPECT_TRUE(p->impl_plan().fault_degraded);
  }
  if (native_backend_name() == nullptr) {
    expect_native_disabled_degrade(s, in, w, 8);
    return;
  }
  const StatusOr<core::ConvPlan> native = core::plan_native_conv(s, w, 8);
  ASSERT_TRUE(native.ok());
  EXPECT_EQ(native->backend(), core::Backend::kNativeHost);
}

}  // namespace
}  // namespace lbc::hal
