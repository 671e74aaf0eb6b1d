// ModelRegistry: spec validation, shared-plan-cache compilation, LRU-by-
// bytes budget eviction, eviction safety for in-flight executions, and
// shared entries for byte-identical models.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/fault_injection.h"
#include "common/rng.h"
#include "common/workspace.h"
#include "serve/model_registry.h"

namespace lbc::serve {
namespace {

ConvShape registry_shape() {
  ConvShape s;
  s.name = "registry-test";
  s.batch = 1;
  s.in_c = 8;
  s.in_h = 6;
  s.in_w = 6;
  s.out_c = 16;
  s.kernel = 3;
  s.stride = 1;
  s.pad = 1;
  return s;
}

ModelSpec make_spec(u64 weight_seed) {
  ModelSpec spec;
  spec.shape = registry_shape();
  spec.weight = random_qtensor(
      Shape4{spec.shape.out_c, spec.shape.in_c, spec.shape.kernel,
             spec.shape.kernel},
      8, weight_seed);
  return spec;
}

TEST(ModelRegistry, RegisterValidatesSpecAndRejectsDuplicates) {
  ModelRegistry reg;
  EXPECT_EQ(reg.register_model("", make_spec(1)).code(),
            StatusCode::kInvalidArgument);

  ModelSpec bad_bits = make_spec(1);
  bad_bits.bits = 1;
  EXPECT_EQ(reg.register_model("m", std::move(bad_bits)).code(),
            StatusCode::kInvalidArgument);

  ModelSpec bad_weight = make_spec(1);
  bad_weight.weight = Tensor<i8>(Shape4{1, 1, 3, 3});
  EXPECT_EQ(reg.register_model("m", std::move(bad_weight)).code(),
            StatusCode::kInvalidArgument);

  ASSERT_TRUE(reg.register_model("m", make_spec(1)).ok());
  EXPECT_EQ(reg.register_model("m", make_spec(2)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(reg.contains("m"));
  EXPECT_FALSE(reg.contains("other"));
}

TEST(ModelRegistry, AcquireCompilesOnceThenHits) {
  ModelRegistry reg;
  ASSERT_TRUE(reg.register_model("m", make_spec(3)).ok());

  auto p1 = reg.acquire_plan("m");
  ASSERT_TRUE(p1.ok()) << p1.status().to_string();
  EXPECT_GT(p1.value()->packed_weight_bytes(), 0);
  EXPECT_EQ(reg.plan_cache().misses(), 1);

  auto p2 = reg.acquire_plan("m");
  ASSERT_TRUE(p2.ok());
  EXPECT_EQ(p1.value().get(), p2.value().get()) << "same shared entry";
  EXPECT_EQ(reg.plan_cache().hits(), 1);
  EXPECT_TRUE(reg.plan_resident("m"));

  const RegistryStats st = reg.stats();
  EXPECT_EQ(st.models, 1);
  EXPECT_EQ(st.acquires, 2);
  EXPECT_EQ(st.resident_plan_bytes, p1.value()->packed_weight_bytes());

  EXPECT_EQ(reg.acquire_plan("ghost").status().code(), StatusCode::kNotFound);
}

TEST(ModelRegistry, UnregisterEvictsThePlan) {
  ModelRegistry reg;
  ASSERT_TRUE(reg.register_model("m", make_spec(4)).ok());
  ASSERT_TRUE(reg.acquire_plan("m").ok());
  ASSERT_TRUE(reg.plan_resident("m"));

  ASSERT_TRUE(reg.unregister_model("m").ok());
  EXPECT_FALSE(reg.contains("m"));
  EXPECT_EQ(reg.stats().resident_plan_bytes, 0);
  EXPECT_EQ(reg.unregister_model("m").code(), StatusCode::kNotFound);
  EXPECT_EQ(reg.find("m").status().code(), StatusCode::kNotFound);
}

TEST(ModelRegistry, BudgetEvictsLeastRecentlyUsedPlan) {
  // Measure one plan's packed footprint first (same shape for all models,
  // so every plan costs the same).
  i64 plan_bytes = 0;
  {
    ModelRegistry probe;
    ASSERT_TRUE(probe.register_model("p", make_spec(10)).ok());
    ASSERT_TRUE(probe.acquire_plan("p").ok());
    plan_bytes = probe.stats().resident_plan_bytes;
    ASSERT_GT(plan_bytes, 0);
  }

  RegistryOptions opt;
  opt.plan_budget_bytes = 2 * plan_bytes;  // room for exactly two plans
  ModelRegistry reg(opt);
  ASSERT_TRUE(reg.register_model("a", make_spec(11)).ok());
  ASSERT_TRUE(reg.register_model("b", make_spec(12)).ok());
  ASSERT_TRUE(reg.register_model("c", make_spec(13)).ok());

  auto plan_a = reg.acquire_plan("a");
  ASSERT_TRUE(plan_a.ok());
  ASSERT_TRUE(reg.acquire_plan("b").ok());
  EXPECT_EQ(reg.stats().resident_plan_bytes, 2 * plan_bytes);

  // Third plan exceeds the budget: 'a' is the LRU and is evicted.
  ASSERT_TRUE(reg.acquire_plan("c").ok());
  EXPECT_FALSE(reg.plan_resident("a"));
  EXPECT_TRUE(reg.plan_resident("b"));
  EXPECT_TRUE(reg.plan_resident("c"));
  EXPECT_EQ(reg.stats().resident_plan_bytes, 2 * plan_bytes);
  EXPECT_EQ(reg.stats().plan_evictions, 1);

  // The in-flight shared_ptr from before the eviction still executes —
  // eviction dropped only the cache's reference.
  const ConvShape s = registry_shape();
  const Tensor<i8> input =
      random_qtensor(Shape4{1, s.in_c, s.in_h, s.in_w}, 8, 99);
  Workspace ws;
  auto r = core::execute_arm_conv(*plan_a.value(), input, ws);
  ASSERT_TRUE(r.ok()) << r.status().to_string();
  EXPECT_GT(r.value().out.elems(), 0);

  // Re-acquiring 'a' recompiles and evicts the current LRU ('b').
  ASSERT_TRUE(reg.acquire_plan("a").ok());
  EXPECT_TRUE(reg.plan_resident("a"));
  EXPECT_FALSE(reg.plan_resident("b"));
  EXPECT_TRUE(reg.plan_resident("c"));
  EXPECT_EQ(reg.stats().plan_evictions, 2);
}

TEST(ModelRegistry, IdenticalSpecsShareOneEntryAndItsBytes) {
  ModelRegistry reg;
  ModelSpec twin1 = make_spec(20);
  ModelSpec twin2 = twin1;  // byte-identical weights
  ASSERT_TRUE(reg.register_model("twin1", std::move(twin1)).ok());
  ASSERT_TRUE(reg.register_model("twin2", std::move(twin2)).ok());

  auto p1 = reg.acquire_plan("twin1");
  auto p2 = reg.acquire_plan("twin2");
  ASSERT_TRUE(p1.ok());
  ASSERT_TRUE(p2.ok());
  EXPECT_EQ(p1.value().get(), p2.value().get())
      << "identical specs must share one immutable entry";
  EXPECT_EQ(reg.plan_cache().misses(), 1);
  EXPECT_EQ(reg.plan_cache().hits(), 1);
  EXPECT_EQ(reg.stats().resident_plan_bytes,
            p1.value()->packed_weight_bytes())
      << "the budget charges a shared entry once";
}

// A compile fault answers the acquire with the reference-rung plan but
// keeps nothing; the first acquire after the fault clears compiles and
// keeps the GEMM plan.
TEST(ModelRegistry, CompileFaultServesADegradedPlanWithoutKeepingIt) {
  ModelRegistry reg;
  ASSERT_TRUE(reg.register_model("m", make_spec(30)).ok());
  {
    ScopedFault fault(FaultSite::kPlanCompileFail);
    const auto r = reg.acquire_plan("m");
    ASSERT_TRUE(r.ok()) << r.status().to_string();
    EXPECT_EQ((*r)->planned_algo(), armkern::ConvAlgo::kReference);
    EXPECT_TRUE((*r)->planned_fallback().fell_back);
    EXPECT_FALSE(reg.plan_resident("m"));
  }
  const auto healed = reg.acquire_plan("m");
  ASSERT_TRUE(healed.ok()) << healed.status().to_string();
  EXPECT_EQ((*healed)->planned_algo(), armkern::ConvAlgo::kGemm);
  EXPECT_FALSE((*healed)->planned_fallback().fell_back);
  EXPECT_TRUE(reg.plan_resident("m"));
}

}  // namespace
}  // namespace lbc::serve
