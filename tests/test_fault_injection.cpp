// Fault-injection harness: determinism of the injector itself, and
// end-to-end recovery at every named site — the engine must survive the
// fault, produce bit-exact output (where output exists), and record the
// degradation in the run report.
#include <gtest/gtest.h>

#include "armkern/tile_search.h"
#include "common/fault_injection.h"
#include "common/rng.h"
#include "common/workspace.h"
#include "core/conv_plan.h"
#include "core/engine.h"
#include "core/model_runner.h"
#include "gpukern/autotune.h"
#include "gpukern/tuning_cache.h"
#include "nets/nets.h"
#include "refconv/conv_ref.h"

namespace lbc {
namespace {

using armkern::ArmConvOptions;
using armkern::ConvAlgo;

ConvShape small_shape() {
  ConvShape s;
  s.name = "fi-3x3";
  s.batch = 1;
  s.in_c = 8;
  s.in_h = 10;
  s.in_w = 10;
  s.out_c = 12;
  s.kernel = 3;
  s.stride = 1;
  s.pad = 1;
  return s;
}

struct ConvData {
  Tensor<i8> in, w;
  Tensor<i32> ref;
  explicit ConvData(const ConvShape& s, int bits, u64 seed) {
    in = random_qtensor(Shape4{s.batch, s.in_c, s.in_h, s.in_w}, bits, seed);
    w = random_qtensor(Shape4{s.out_c, s.in_c, s.kernel, s.kernel}, bits,
                       seed + 1);
    ref = ref::conv2d_s32(s, in, w);
  }
};

TEST(FaultInjector, DisarmedSitesNeverFire) {
  FaultInjector& fi = FaultInjector::instance();
  for (int i = 0; i < static_cast<int>(FaultSite::kSiteCount); ++i) {
    const FaultSite site = static_cast<FaultSite>(i);
    EXPECT_FALSE(fi.armed(site)) << fault_site_name(site);
    EXPECT_FALSE(fi.should_fire(site)) << fault_site_name(site);
  }
}

TEST(FaultInjector, FireCountBudgetIsExact) {
  FaultInjector& fi = FaultInjector::instance();
  ScopedFault fault(FaultSite::kAllocFail, /*fire_count=*/2);
  EXPECT_TRUE(fi.should_fire(FaultSite::kAllocFail));
  EXPECT_TRUE(fi.should_fire(FaultSite::kAllocFail));
  EXPECT_FALSE(fi.should_fire(FaultSite::kAllocFail));
  EXPECT_EQ(fi.fires(FaultSite::kAllocFail), 2);
}

TEST(FaultInjector, ProbabilityDrawsAreDeterministicPerSeed) {
  FaultInjector& fi = FaultInjector::instance();
  auto draw_pattern = [&](u64 seed) {
    std::vector<bool> pattern;
    ScopedFault fault(FaultSite::kKernelOverflow, /*fire_count=*/-1,
                      /*probability=*/0.5, seed);
    for (int i = 0; i < 64; ++i)
      pattern.push_back(fi.should_fire(FaultSite::kKernelOverflow));
    return pattern;
  };
  const auto a1 = draw_pattern(7);
  const auto a2 = draw_pattern(7);
  const auto b = draw_pattern(8);
  EXPECT_EQ(a1, a2) << "same seed must reproduce the same firing pattern";
  EXPECT_NE(a1, b) << "different seeds must diverge (with high probability)";
  // ~50% firing rate: loose bounds, but fixed seeds make this exact-stable.
  const int fires_a = static_cast<int>(std::count(a1.begin(), a1.end(), true));
  EXPECT_GT(fires_a, 16);
  EXPECT_LT(fires_a, 48);
}

TEST(FaultInjector, ScopedFaultDisarmsOnExit) {
  FaultInjector& fi = FaultInjector::instance();
  {
    ScopedFault fault(FaultSite::kPackMisalign);
    EXPECT_TRUE(fi.armed(FaultSite::kPackMisalign));
  }
  EXPECT_FALSE(fi.armed(FaultSite::kPackMisalign));
  EXPECT_FALSE(fi.should_fire(FaultSite::kPackMisalign));
}

// --- Site 1: kAllocFail — im2col scratch allocation fails in the GEMM
// path; the driver degrades to the scratch-free reference rung.
TEST(FaultRecovery, AllocFailDegradesGemmToReferenceBitExact) {
  const ConvShape s = small_shape();
  const ConvData d(s, 8, 101);
  ArmConvOptions opt;
  opt.bits = 8;
  opt.algo = ConvAlgo::kGemm;

  ScopedFault fault(FaultSite::kAllocFail, /*fire_count=*/1);
  const auto r = armkern::conv2d_s32(s, d.in, d.w, opt);
  ASSERT_TRUE(r.ok()) << r.status().to_string();
  EXPECT_EQ(count_mismatches(d.ref, r.value().out), 0);
  EXPECT_EQ(r.value().executed_algo, "reference");
  EXPECT_TRUE(r.value().fallback.fell_back);
  EXPECT_EQ(r.value().fallback.requested, "gemm");
  EXPECT_EQ(r.value().fallback.executed, "reference");
  EXPECT_NE(r.value().fallback.reason.find("allocation"), std::string::npos);
}

// --- Site 2: kPackMisalign — packed panels fail the alignment check right
// before the micro kernel; recovery recomputes on the reference rung.
TEST(FaultRecovery, PackMisalignDegradesToReferenceBitExact) {
  const ConvShape s = small_shape();
  const ConvData d(s, 4, 202);
  ArmConvOptions opt;
  opt.bits = 4;
  opt.algo = ConvAlgo::kGemm;

  ScopedFault fault(FaultSite::kPackMisalign, /*fire_count=*/1);
  const auto r = armkern::conv2d_s32(s, d.in, d.w, opt);
  ASSERT_TRUE(r.ok()) << r.status().to_string();
  EXPECT_EQ(count_mismatches(d.ref, r.value().out), 0);
  EXPECT_EQ(r.value().executed_algo, "reference");
  EXPECT_TRUE(r.value().fallback.fell_back);
  EXPECT_NE(r.value().fallback.reason.find("alignment"), std::string::npos);
}

// --- Site 3: kKernelOverflow — the post-run self-check reports untrusted
// accumulators; output is recomputed on the reference rung, and the wasted
// optimized attempt stays charged (degradation costs time, never silence).
TEST(FaultRecovery, KernelOverflowRecomputesOnReference) {
  const ConvShape s = small_shape();
  const ConvData d(s, 6, 303);
  ArmConvOptions opt;
  opt.bits = 6;
  opt.algo = ConvAlgo::kGemm;

  const auto clean = armkern::conv2d_s32(s, d.in, d.w, opt).value();

  ScopedFault fault(FaultSite::kKernelOverflow, /*fire_count=*/1);
  const auto r = armkern::conv2d_s32(s, d.in, d.w, opt);
  ASSERT_TRUE(r.ok()) << r.status().to_string();
  EXPECT_EQ(count_mismatches(d.ref, r.value().out), 0);
  EXPECT_EQ(r.value().executed_algo, "reference");
  EXPECT_NE(r.value().fallback.reason.find("overflow"), std::string::npos);
  // The recovery run pays for both the wasted kernel and the recompute.
  EXPECT_GT(r.value().cycles, clean.cycles);
}

// --- Site 4: kTuningCacheCorrupt — a poisoned cache hit is detected by
// hit-time validation, evicted, and replaced by a fresh search.
TEST(FaultRecovery, TuningCacheCorruptionSelfHeals) {
  const auto dev = gpusim::DeviceSpec::rtx2080ti();
  const ConvShape s = nets::resnet50_layers()[2];
  gpukern::TuningCache cache;
  const gpukern::Tiling clean = cache.get_or_search(dev, s, 8, true);

  ScopedFault fault(FaultSite::kTuningCacheCorrupt, /*fire_count=*/1);
  const gpukern::Tiling healed = cache.get_or_search(dev, s, 8, true);
  EXPECT_EQ(healed, clean);
  EXPECT_EQ(cache.corrupt_evictions(), 1);
  EXPECT_TRUE(gpukern::validate_tiling(healed).ok());
}

// --- Site 5: kAutotuneInvalid — the profile search reports every
// candidate illegal; the autotuner degrades to the default tiling and
// records why instead of returning garbage.
TEST(FaultRecovery, AutotuneInvalidFallsBackToDefaultTiling) {
  const auto dev = gpusim::DeviceSpec::rtx2080ti();
  const ConvShape s = nets::resnet50_layers()[2];

  ScopedFault fault(FaultSite::kAutotuneInvalid, /*fire_count=*/1);
  const gpukern::AutotuneResult r = gpukern::autotune_tiling(dev, s, 8, true);
  EXPECT_EQ(r.best, gpukern::default_tiling(8));
  EXPECT_EQ(r.evaluated, 0);
  EXPECT_TRUE(r.fallback.fell_back);
  EXPECT_NE(r.fallback.reason.find("injected"), std::string::npos);

  // And the degraded tiling flows through the public timing API.
  const auto timed =
      core::time_gpu_conv(dev, s, 8, core::GpuImpl::kOurs).value();
  EXPECT_TRUE(timed.cost.valid);
}

// --- Site: kPlanCompileFail — ConvPlan compilation (weight prepack) runs
// out of resources. The one-shot driver degrades to the reference rung,
// bit-exact, with the failure recorded in the fallback chain.
TEST(FaultRecovery, PlanCompileFailDegradesOneShotToReference) {
  const ConvShape s = small_shape();
  const ConvData d(s, 8, 404);
  ArmConvOptions opt;
  opt.bits = 8;
  opt.algo = ConvAlgo::kGemm;

  ScopedFault fault(FaultSite::kPlanCompileFail);  // persistent
  const armkern::TileSearchStats before = armkern::tile_search_stats();
  const auto r = armkern::conv2d_s32(s, d.in, d.w, opt);
  ASSERT_TRUE(r.ok()) << r.status().to_string();
  // The site is consulted before the blocking search, so none ran.
  EXPECT_EQ(armkern::tile_search_stats().searches, before.searches);
  EXPECT_EQ(armkern::tile_search_stats().memo_hits, before.memo_hits);
  EXPECT_EQ(count_mismatches(d.ref, r.value().out), 0);
  EXPECT_EQ(r.value().executed_algo, "reference");
  EXPECT_TRUE(r.value().fallback.fell_back);
  EXPECT_EQ(r.value().fallback.requested, "gemm");
  EXPECT_EQ(r.value().fallback.executed, "reference");
  EXPECT_NE(r.value().fallback.reason.find("plan compilation"),
            std::string::npos);
}

// plan_arm_conv absorbs the fault: it returns a reference-rung plan —
// unblocked, nothing prepacked — that records the fault and executes
// bit-exact.
TEST(FaultRecovery, PlanCompileFailPlansTheReferenceRung) {
  const ConvShape s = small_shape();
  const ConvData d(s, 8, 405);
  ScopedFault fault(FaultSite::kPlanCompileFail, /*fire_count=*/1);
  const auto plan = core::plan_arm_conv(s, d.w, 8);
  ASSERT_TRUE(plan.ok()) << plan.status().to_string();
  EXPECT_EQ(plan->planned_algo(), ConvAlgo::kReference);
  EXPECT_TRUE(plan->impl_plan().fault_degraded);
  EXPECT_FALSE(plan->impl_plan().blocking.enabled());
  EXPECT_EQ(plan->packed_weight_bytes(), 0);
  EXPECT_TRUE(plan->planned_fallback().fell_back);
  EXPECT_EQ(plan->planned_fallback().executed, "reference");
  EXPECT_NE(plan->planned_fallback().reason.find("injected"),
            std::string::npos);

  Workspace ws;
  const auto r = core::execute_arm_conv(*plan, d.in, ws);
  ASSERT_TRUE(r.ok()) << r.status().to_string();
  EXPECT_EQ(count_mismatches(d.ref, r->out), 0);
  EXPECT_EQ(r->executed_algo, "reference");
  EXPECT_TRUE(r->fallback.fell_back);
}

// The site is consulted once, before the TuningCache-backed search: a
// faulted plan runs no tile search and stores no cache row.
TEST(FaultRecovery, PlanCompileFailRunsNoSearchAndStoresNoTuningRow) {
  ConvShape s = small_shape();
  s.in_c = 24;
  s.in_h = 9;
  s.in_w = 9;
  s.out_c = 40;
  const ConvData d(s, 4, 408);
  gpukern::TuningCache cache;
  ScopedFault fault(FaultSite::kPlanCompileFail);  // persistent
  const armkern::TileSearchStats before = armkern::tile_search_stats();
  const auto plan = core::plan_arm_conv(s, d.w, 4, core::ArmImpl::kOurs,
                                        ConvAlgo::kGemm, /*threads=*/1,
                                        /*verify=*/false, &cache);
  ASSERT_TRUE(plan.ok()) << plan.status().to_string();
  EXPECT_EQ(plan->planned_algo(), ConvAlgo::kReference);
  EXPECT_EQ(FaultInjector::instance().consults(FaultSite::kPlanCompileFail),
            1);
  EXPECT_EQ(armkern::tile_search_stats().searches, before.searches);
  EXPECT_EQ(armkern::tile_search_stats().memo_hits, before.memo_hits);
  EXPECT_EQ(cache.arm_size(), 0u) << "a degraded plan writes no cache row";
  EXPECT_EQ(cache.misses(), 0);
}

// A one-shot compile fault answers that one request from the reference
// rung (there is no retry); the next request compiles the GEMM rung.
TEST(FaultRecovery, PlanCompileFailOneShotAnswersFromReference) {
  const ConvShape s = small_shape();
  const ConvData d(s, 8, 406);

  ScopedFault fault(FaultSite::kPlanCompileFail, /*fire_count=*/1);
  const auto r = core::run_arm_conv(s, d.in, d.w, 8);
  ASSERT_TRUE(r.ok()) << r.status().to_string();
  EXPECT_EQ(count_mismatches(d.ref, r.value().out), 0);
  EXPECT_EQ(r.value().executed_algo, "reference");
  EXPECT_TRUE(r.value().fallback.fell_back);

  const auto next = core::run_arm_conv(s, d.in, d.w, 8);
  ASSERT_TRUE(next.ok()) << next.status().to_string();
  EXPECT_EQ(count_mismatches(d.ref, next.value().out), 0);
  EXPECT_EQ(next.value().executed_algo, "gemm");
  EXPECT_FALSE(next.value().fallback.fell_back);
}

// Persistent compile failure: run_arm_conv still answers, from the
// reference floor, with the degradation recorded.
TEST(FaultRecovery, PlanCompileFailPersistentStillAnswersBitExact) {
  const ConvShape s = small_shape();
  const ConvData d(s, 4, 407);

  ScopedFault fault(FaultSite::kPlanCompileFail);  // persistent
  const auto r = core::run_arm_conv(s, d.in, d.w, 4);
  ASSERT_TRUE(r.ok()) << r.status().to_string();
  EXPECT_EQ(count_mismatches(d.ref, r.value().out), 0);
  EXPECT_EQ(r.value().executed_algo, "reference");
  EXPECT_TRUE(r.value().fallback.fell_back);
}

// GPU plans consult the same site: the tiling search stays at its floor,
// the default tiling, records why, and writes no TuningCache row.
TEST(FaultRecovery, PlanCompileFailGpuKeepsDefaultTiling) {
  const auto dev = gpusim::DeviceSpec::rtx2080ti();
  const ConvShape s = nets::resnet50_layers()[2];
  gpukern::TuningCache cache;
  {
    ScopedFault fault(FaultSite::kPlanCompileFail, /*fire_count=*/1);
    const auto plan =
        core::plan_gpu_conv(dev, s, 8, core::GpuImpl::kOurs, &cache);
    ASSERT_TRUE(plan.ok()) << plan.status().to_string();
    EXPECT_EQ(plan->options.tiling, gpukern::default_tiling(8));
    EXPECT_TRUE(plan->planned_fallback.fell_back);
    EXPECT_NE(plan->planned_fallback.reason.find("injected"),
              std::string::npos);
    EXPECT_EQ(cache.size(), 0u) << "a degraded plan writes no cache row";
    const auto timed = core::execute_gpu_conv(*plan);
    ASSERT_TRUE(timed.ok()) << timed.status().to_string();
    EXPECT_TRUE(timed->fallback.fell_back);
  }
  // Exhausted fault: the next plan searches and caches its tiling.
  const auto plan =
      core::plan_gpu_conv(dev, s, 8, core::GpuImpl::kOurs, &cache);
  ASSERT_TRUE(plan.ok());
  EXPECT_FALSE(plan->planned_fallback.fell_back);
  EXPECT_EQ(cache.size(), 1u);
}

// The PlanCache keeps no fault-degraded plan: a transient compile fault
// answers one lookup from the reference rung, then the next lookup
// compiles the GEMM plan and every later lookup hits.
TEST(FaultRecovery, PlanCacheRetriesAfterTransientCompileFault) {
  const ConvShape s = small_shape();
  const ConvData d(s, 8, 408);
  core::PlanCache cache;
  {
    ScopedFault fault(FaultSite::kPlanCompileFail, /*fire_count=*/1);
    const auto degraded = cache.get_or_compile(s, d.w, 8);
    ASSERT_TRUE(degraded.ok()) << degraded.status().to_string();
    EXPECT_EQ((*degraded)->planned_algo(), ConvAlgo::kReference);
    EXPECT_FALSE(cache.resident(s, d.w, 8));
  }
  const auto plan = cache.get_or_compile(s, d.w, 8);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ((*plan)->planned_algo(), ConvAlgo::kGemm);
  EXPECT_TRUE(cache.resident(s, d.w, 8));
  EXPECT_TRUE(cache.get_or_compile(s, d.w, 8).ok());
  EXPECT_EQ(cache.hits(), 1);
  Workspace ws;
  const auto r = core::execute_arm_conv(*plan.value(), d.in, ws);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->executed_algo, "gemm");
}

// QuantizedConv2d on every backend: under a persistent compile fault the
// layer still compiles, and its forward is bit-exact with a healthy
// layer's while last_fallback() names the degradation.
TEST(FaultRecovery, PlanCompileFailQuantizedConv2dDegradesOnEveryBackend) {
  ConvShape s = small_shape();
  s.in_c = 16;
  s.out_c = 16;
  Tensor<float> w(Shape4{s.out_c, s.in_c, s.kernel, s.kernel});
  Tensor<float> x(Shape4{s.batch, s.in_c, s.in_h, s.in_w});
  Rng rng(409);
  for (float& v : w.span()) v = rng.uniform_f(-1.0f, 1.0f);
  for (float& v : x.span()) v = rng.uniform_f(-1.0f, 1.0f);

  for (const core::Backend backend :
       {core::Backend::kArmCortexA53, core::Backend::kNativeHost,
        core::Backend::kGpuTU102}) {
    SCOPED_TRACE(core::backend_name(backend));
    core::QuantizedConv2d healthy(s, 8, backend);
    ASSERT_TRUE(healthy.set_weights(w).ok());
    const auto want = healthy.forward(x);
    ASSERT_TRUE(want.ok()) << want.status().to_string();

    ScopedFault fault(FaultSite::kPlanCompileFail);  // persistent
    core::QuantizedConv2d layer(s, 8, backend);
    ASSERT_TRUE(layer.set_weights(w).ok());
    const auto got = layer.forward(x);
    ASSERT_TRUE(got.ok()) << got.status().to_string();
    EXPECT_EQ(count_mismatches(*want, *got), 0);
    EXPECT_TRUE(layer.last_fallback().fell_back);
    EXPECT_NE(layer.last_fallback().reason.find("plan compilation failed"),
              std::string::npos);
  }
}

// run_model under a persistent compile fault: every layer runs, verified
// bit-exact against the reference conv, and reports the degradation. The
// emulated ladder's floor is the reference rung; the native ladder's is the
// emulated GEMM plan, compiled without a second consult of the site.
TEST(FaultRecovery, PlanCompileFailModelRunnerAnswersBitExact) {
  const auto layers = nets::shrink_for_tests(nets::resnet50_layers(), 6, 8);
  for (const core::Backend backend :
       {core::Backend::kArmCortexA53, core::Backend::kNativeHost}) {
    SCOPED_TRACE(core::backend_name(backend));
    core::ModelRunOptions opt;
    opt.bits = 4;
    opt.backend = backend;
    opt.verify = true;
    ScopedFault fault(FaultSite::kPlanCompileFail);  // persistent
    const auto rep = core::run_model(layers, opt);
    ASSERT_TRUE(rep.ok()) << rep.status().to_string();
    EXPECT_EQ(rep->error_layers, 0);
    EXPECT_EQ(rep->fallback_layers, static_cast<int>(layers.size()));
    for (const core::LayerRun& l : rep->layers) {
      EXPECT_TRUE(l.verified) << l.name;
      EXPECT_EQ(l.executed_algo, backend == core::Backend::kNativeHost
                                     ? "gemm"
                                     : "reference")
          << l.name;
    }
  }
}

// --- Model-runner site: an injected allocation failure costs exactly the
// faulted layers; the rest of the model still runs and is verified.
TEST(FaultRecovery, ModelRunnerRecordsErrorLayersAndContinues) {
  const auto all = nets::resnet50_layers();
  const std::span<const ConvShape> layers(all.data(), 4);
  core::ModelRunOptions opt;
  opt.bits = 8;
  opt.verify = true;

  ScopedFault fault(FaultSite::kAllocFail, /*fire_count=*/1);
  const auto rep = core::run_model(layers, opt);
  ASSERT_TRUE(rep.ok()) << rep.status().to_string();
  EXPECT_EQ(rep.value().error_layers, 1);
  EXPECT_EQ(rep.value().layers.size(), 4u);
  EXPECT_FALSE(rep.value().layers[0].error.empty());
  EXPECT_NE(rep.value().layers[0].error.find("injected"), std::string::npos);
  for (size_t i = 1; i < 4; ++i) {
    EXPECT_TRUE(rep.value().layers[i].error.empty()) << i;
    EXPECT_TRUE(rep.value().layers[i].verified) << i;
  }
}

// Deterministic end-to-end: with a fixed seed and probability < 1, two
// identical model runs fault on exactly the same layers.
TEST(FaultRecovery, ProbabilisticFaultsReproduceAcrossRuns) {
  const auto all = nets::resnet50_layers();
  const std::span<const ConvShape> layers(all.data(), 6);
  core::ModelRunOptions opt;
  opt.bits = 8;

  auto error_pattern = [&] {
    ScopedFault fault(FaultSite::kAllocFail, /*fire_count=*/-1,
                      /*probability=*/0.5, /*seed=*/1234);
    std::vector<bool> pattern;
    const auto rep = core::run_model(layers, opt).value();
    for (const auto& l : rep.layers) pattern.push_back(!l.error.empty());
    return pattern;
  };
  const auto p1 = error_pattern();
  const auto p2 = error_pattern();
  EXPECT_EQ(p1, p2);
  EXPECT_GT(std::count(p1.begin(), p1.end(), true), 0);
}

}  // namespace
}  // namespace lbc
