// Plan/execute split tests: a compiled ConvPlan reused across many inputs
// and both entry points (single + batched) must be bit-exact — values AND
// modeled cycles — with the one-shot API, for every bit width and ARM
// implementation; the workspace sizing the plan reports must be exact; and
// a shared plan must be safe to execute concurrently (tsan preset).
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/workspace.h"
#include "core/conv_plan.h"
#include "nets/nets.h"

namespace lbc::core {
namespace {

ConvShape plan_shape() {
  ConvShape s;
  s.name = "plan-3x3";
  s.batch = 1;
  s.in_c = 6;
  s.in_h = 9;
  s.in_w = 9;
  s.out_c = 10;
  s.kernel = 3;
  s.stride = 1;
  s.pad = 1;
  return s;
}

Tensor<i8> rand_input(const ConvShape& s, int bits, u64 seed) {
  return random_qtensor(Shape4{s.batch, s.in_c, s.in_h, s.in_w}, bits, seed);
}

Tensor<i8> rand_weight(const ConvShape& s, int bits, u64 seed) {
  return random_qtensor(Shape4{s.out_c, s.in_c, s.kernel, s.kernel}, bits,
                        seed);
}

// One plan, >= 3 distinct inputs, bit-exact (output + modeled cycles +
// executed rung + fallback trace) vs the one-shot API, across every bit
// width and ARM implementation.
TEST(ConvPlan, ReusedPlanMatchesOneShotForAllBitsAndImpls) {
  const ConvShape s = plan_shape();
  const ArmImpl impls[] = {ArmImpl::kOurs, ArmImpl::kNcnn8bit,
                           ArmImpl::kTvmBitserial, ArmImpl::kTraditionalGemm,
                           ArmImpl::kSdotExt};
  for (int bits = 2; bits <= 8; ++bits) {
    const Tensor<i8> w = rand_weight(s, bits, 900 + static_cast<u64>(bits));
    for (ArmImpl impl : impls) {
      SCOPED_TRACE(std::string(arm_impl_name(impl)) + " bits=" +
                   std::to_string(bits));
      const auto plan_or = plan_arm_conv(s, w, bits, impl);
      ASSERT_TRUE(plan_or.ok()) << plan_or.status().to_string();
      const ConvPlan& plan = *plan_or;

      Workspace ws;
      for (u64 i = 0; i < 3; ++i) {
        const Tensor<i8> in = rand_input(s, bits, 100 * i + 7);
        const auto planned = execute_arm_conv(plan, in, ws);
        ASSERT_TRUE(planned.ok()) << planned.status().to_string();
        const auto oneshot = run_arm_conv(s, in, w, bits, impl);
        ASSERT_TRUE(oneshot.ok()) << oneshot.status().to_string();

        EXPECT_EQ(count_mismatches(oneshot->out, planned->out), 0);
        EXPECT_DOUBLE_EQ(planned->cycles, oneshot->cycles);
        EXPECT_DOUBLE_EQ(planned->seconds, oneshot->seconds);
        EXPECT_EQ(planned->executed_algo, oneshot->executed_algo);
        EXPECT_EQ(planned->fallback.fell_back, oneshot->fallback.fell_back);
        EXPECT_EQ(planned->fallback.reason, oneshot->fallback.reason);
        EXPECT_EQ(planned->space.im2col_elems, oneshot->space.im2col_elems);
        EXPECT_EQ(planned->space.pack_extra_elems,
                  oneshot->space.pack_extra_elems);
      }
    }
  }
}

// Every specialized algo rung, planned vs one-shot, including kAuto's
// winograd pick at 4-6 bit and the bitserial rung at 2 bit.
TEST(ConvPlan, ReusedPlanMatchesOneShotAcrossAlgos) {
  const ConvShape s = plan_shape();
  struct Case {
    armkern::ConvAlgo algo;
    int bits;
  };
  const Case cases[] = {{armkern::ConvAlgo::kAuto, 4},
                        {armkern::ConvAlgo::kWinograd, 5},
                        {armkern::ConvAlgo::kBitserial, 2},
                        {armkern::ConvAlgo::kDirect, 8},
                        {armkern::ConvAlgo::kReference, 8},
                        {armkern::ConvAlgo::kGemm, 7}};
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(armkern::algo_name(c.algo)) + " bits=" +
                 std::to_string(c.bits));
    const Tensor<i8> w = rand_weight(s, c.bits, 55);
    const auto plan_or = plan_arm_conv(s, w, c.bits, ArmImpl::kOurs, c.algo);
    ASSERT_TRUE(plan_or.ok()) << plan_or.status().to_string();
    Workspace ws;
    for (u64 i = 0; i < 3; ++i) {
      const Tensor<i8> in = rand_input(s, c.bits, 300 + i);
      const auto planned = execute_arm_conv(*plan_or, in, ws);
      const auto oneshot = run_arm_conv(s, in, w, c.bits, ArmImpl::kOurs,
                                        c.algo);
      ASSERT_TRUE(planned.ok() && oneshot.ok());
      EXPECT_EQ(count_mismatches(oneshot->out, planned->out), 0);
      EXPECT_DOUBLE_EQ(planned->cycles, oneshot->cycles);
      EXPECT_EQ(planned->executed_algo, oneshot->executed_algo);
    }
  }
}

// A batch-1 plan executes any batch: the batched entry point against the
// same plan matches each input executed alone, request for request.
TEST(ConvPlan, BatchedExecutionSharesThePlanAndMatchesOneShot) {
  const ConvShape s = plan_shape();
  const int bits = 4;
  const Tensor<i8> w = rand_weight(s, bits, 77);
  const auto plan_or = plan_arm_conv(s, w, bits);
  ASSERT_TRUE(plan_or.ok()) << plan_or.status().to_string();

  std::vector<Tensor<i8>> inputs;
  for (u64 i = 0; i < 5; ++i) inputs.push_back(rand_input(s, bits, 40 + i));

  Workspace ws;
  const auto planned = execute_arm_conv_batched(*plan_or, inputs, ws);
  ASSERT_TRUE(planned.ok()) << planned.status().to_string();
  ASSERT_EQ(planned->outputs.size(), inputs.size());

  // Each batched output equals that input executed alone on the SAME
  // plan — the batch is a pure concatenation.
  for (size_t i = 0; i < inputs.size(); ++i) {
    const auto solo = execute_arm_conv(*plan_or, inputs[i], ws);
    ASSERT_TRUE(solo.ok());
    EXPECT_EQ(count_mismatches(solo->out, planned->outputs[i]), 0) << i;
  }
}

// The plan's workspace accounting is exact: one execute never draws more
// than workspace_bytes(batch), and the second execute never grows.
TEST(ConvPlan, WorkspaceSizingIsExactAndSteadyStateIsAllocFree) {
  const ConvShape s = plan_shape();
  struct Case {
    armkern::ConvAlgo algo;
    int bits;
  };
  const Case cases[] = {{armkern::ConvAlgo::kGemm, 8},
                        {armkern::ConvAlgo::kWinograd, 4},
                        {armkern::ConvAlgo::kBitserial, 2},
                        {armkern::ConvAlgo::kReference, 8}};
  for (const Case& c : cases) {
    SCOPED_TRACE(armkern::algo_name(c.algo));
    const Tensor<i8> w = rand_weight(s, c.bits, 11);
    const auto plan_or = plan_arm_conv(s, w, c.bits, ArmImpl::kOurs, c.algo);
    ASSERT_TRUE(plan_or.ok()) << plan_or.status().to_string();

    Workspace ws;
    ASSERT_TRUE(execute_arm_conv(*plan_or, rand_input(s, c.bits, 1), ws).ok());
    EXPECT_LE(ws.high_water(), plan_or->workspace_bytes(1));

    const i64 grows = ws.grow_count();
    ASSERT_TRUE(execute_arm_conv(*plan_or, rand_input(s, c.bits, 2), ws).ok());
    EXPECT_EQ(ws.grow_count(), grows) << "second execute must not grow";
  }

  // Pre-sizing from the plan's declared requirement means even the FIRST
  // execute performs no growth beyond the reserve.
  const Tensor<i8> w = rand_weight(s, 8, 12);
  const auto plan_or = plan_arm_conv(s, w, 8);
  ASSERT_TRUE(plan_or.ok());
  Workspace sized(plan_or->workspace_bytes(4));
  ASSERT_TRUE(
      execute_arm_conv(*plan_or, rand_input(s.with_batch(4), 8, 3), sized)
          .ok());
  EXPECT_EQ(sized.grow_count(), 0);
}

// Thread-safety contract: one immutable plan, many executors, each with
// its own Workspace. Run under the tsan preset.
TEST(ConvPlan, SharedPlanExecutesConcurrently) {
  const ConvShape s = plan_shape();
  const int bits = 8;
  const Tensor<i8> w = rand_weight(s, bits, 21);
  const auto plan_or = plan_arm_conv(s, w, bits);
  ASSERT_TRUE(plan_or.ok());
  const ConvPlan& plan = *plan_or;

  const Tensor<i8> in = rand_input(s, bits, 22);
  Tensor<i32> expect;
  {
    Workspace ws0;
    expect = execute_arm_conv(plan, in, ws0).value().out;
  }

  constexpr int kThreads = 4;
  std::vector<int> mismatches(kThreads, -1);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      Workspace ws;
      int bad = 0;
      for (int i = 0; i < 8; ++i) {
        const auto r = execute_arm_conv(plan, in, ws);
        if (!r.ok() || count_mismatches(expect, r->out) != 0) ++bad;
      }
      mismatches[static_cast<size_t>(t)] = bad;
    });
  for (auto& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0) << t;
}

// PlanCache: same request hits, different geometry/bits/impl/weights miss.
TEST(PlanCache, HitsMissesAndWeightHashDiscrimination) {
  const ConvShape s = plan_shape();
  const Tensor<i8> w1 = rand_weight(s, 8, 31);
  Tensor<i8> w2 = w1;
  w2.data()[0] = static_cast<i8>(w2.data()[0] == 3 ? 4 : 3);

  PlanCache cache;
  const auto a = cache.get_or_compile(s, w1, 8);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(cache.misses(), 1);
  EXPECT_EQ(cache.hits(), 0);

  const auto b = cache.get_or_compile(s, w1, 8);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_EQ(a.value().get(), b.value().get()) << "hit must share the plan";

  // Same geometry, different weight bytes -> distinct plan.
  const auto c = cache.get_or_compile(s, w2, 8);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(cache.misses(), 2);
  EXPECT_NE(a.value().get(), c.value().get());

  // Different bits / impl -> distinct entries too.
  ASSERT_TRUE(cache.get_or_compile(s, w1, 4).ok());
  ASSERT_TRUE(
      cache.get_or_compile(s, w1, 8, ArmImpl::kTraditionalGemm).ok());
  EXPECT_EQ(cache.misses(), 4);
  EXPECT_EQ(cache.size(), 4);

  cache.clear();
  EXPECT_EQ(cache.size(), 0);
  EXPECT_EQ(cache.hits(), 0);
}

// The backend is part of the cache key: an emulated and a native plan for
// identical (shape, weights, bits) are distinct entries with distinct
// prepack layouts, and evict() only drops the entry of its backend.
TEST(PlanCache, BackendIsPartOfTheKey) {
  const ConvShape s = plan_shape();
  const Tensor<i8> w = rand_weight(s, 8, 51);
  PlanCache cache;
  const auto arm = cache.get_or_compile(s, w, 8);
  ASSERT_TRUE(arm.ok());
  const auto native = cache.get_or_compile(s, w, 8, ArmImpl::kOurs,
                                           armkern::ConvAlgo::kGemm, 1,
                                           Backend::kNativeHost);
  ASSERT_TRUE(native.ok()) << native.status().to_string();
  EXPECT_EQ(cache.misses(), 2);
  EXPECT_NE(arm.value().get(), native.value().get());
  EXPECT_EQ((*native.value()).backend(), Backend::kNativeHost);

  // Hits stay per-backend.
  ASSERT_TRUE(cache.get_or_compile(s, w, 8, ArmImpl::kOurs,
                                   armkern::ConvAlgo::kGemm, 1,
                                   Backend::kNativeHost)
                  .ok());
  EXPECT_EQ(cache.hits(), 1);

  // Eviction is backend-scoped: dropping the native entry leaves the
  // emulated one resident.
  EXPECT_TRUE(cache.evict(s, w, 8, ArmImpl::kOurs, armkern::ConvAlgo::kGemm,
                          1, Backend::kNativeHost));
  EXPECT_TRUE(cache.resident(s, w, 8));
  EXPECT_FALSE(cache.resident(s, w, 8, ArmImpl::kOurs,
                              armkern::ConvAlgo::kGemm, 1,
                              Backend::kNativeHost));
}

// The cached plan outlives the cache (shared ownership), so an eviction or
// clear() can never invalidate a plan an executor still holds.
TEST(PlanCache, CachedPlanSurvivesClear) {
  const ConvShape s = plan_shape();
  const Tensor<i8> w = rand_weight(s, 8, 41);
  PlanCache cache;
  auto plan = cache.get_or_compile(s, w, 8).value();
  cache.clear();
  Workspace ws;
  const Tensor<i8> in = rand_input(s, 8, 42);
  EXPECT_TRUE(execute_arm_conv(*plan, in, ws).ok());
}

// GPU plan/execute: identical timing + tiling as the one-shot API, with
// the precomputed offset buffer resolved once at plan time.
TEST(GpuConvPlan, PlannedTimingMatchesOneShot) {
  const auto dev = gpusim::DeviceSpec::rtx2080ti();
  const ConvShape s = nets::resnet50_layers()[2];
  for (GpuImpl impl : {GpuImpl::kOurs, GpuImpl::kOursDefaultTiling,
                       GpuImpl::kCudnnDp4a, GpuImpl::kTensorRT}) {
    SCOPED_TRACE(gpu_impl_name(impl));
    const auto plan_or = plan_gpu_conv(dev, s, 8, impl);
    ASSERT_TRUE(plan_or.ok()) << plan_or.status().to_string();
    EXPECT_GT(plan_or->precomp_bytes(), 0);
    const auto planned = execute_gpu_conv(*plan_or);
    ASSERT_TRUE(planned.ok());
    const auto oneshot = time_gpu_conv(dev, s, 8, impl);
    ASSERT_TRUE(oneshot.ok());
    EXPECT_DOUBLE_EQ(planned->seconds, oneshot->seconds);
    EXPECT_EQ(planned->tiling, oneshot->tiling);
    // Executing the same plan twice is deterministic and free of re-tuning.
    EXPECT_DOUBLE_EQ(execute_gpu_conv(*plan_or)->seconds, planned->seconds);
  }
}

// A GPU plan built against a TuningCache reuses the cached tiling.
TEST(GpuConvPlan, PlanUsesTheTuningCache) {
  const auto dev = gpusim::DeviceSpec::rtx2080ti();
  const ConvShape s = nets::resnet50_layers()[2];
  gpukern::TuningCache cache;
  const auto p1 = plan_gpu_conv(dev, s, 8, GpuImpl::kOurs, &cache);
  ASSERT_TRUE(p1.ok());
  EXPECT_EQ(cache.misses(), 1);
  const auto p2 = plan_gpu_conv(dev, s, 8, GpuImpl::kOurs, &cache);
  ASSERT_TRUE(p2.ok());
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_EQ(p1->options.tiling, p2->options.tiling);
}

// The plan reports what it amortizes: prepacked weight bytes and the
// modeled pack cycles a per-call pack would have cost.
TEST(ConvPlan, ReportsPackedBytesAndPackCycles) {
  const ConvShape s = plan_shape();
  const Tensor<i8> w = rand_weight(s, 8, 51);
  const auto plan = plan_arm_conv(s, w, 8);
  ASSERT_TRUE(plan.ok());
  EXPECT_GT(plan->packed_weight_bytes(), 0);
  EXPECT_GT(plan->pack_cycles(), 0);
  EXPECT_GT(plan->workspace_bytes(1), 0);
  EXPECT_GT(plan->workspace_bytes(4), plan->workspace_bytes(1));
}

}  // namespace
}  // namespace lbc::core
