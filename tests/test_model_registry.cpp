// ModelRegistry: spec validation, one namespace of names across conv and
// graph models, shared-plan-cache compilation, LRU-by-bytes budget
// eviction, eviction safety for in-flight executions, and shared entries
// for byte-identical models.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/fault_injection.h"
#include "common/rng.h"
#include "common/workspace.h"
#include "core/qnn_graph.h"
#include "serve/model_registry.h"
#include "serve/server.h"

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

/// A calibrated one-conv graph over the registry shape's input.
std::shared_ptr<const core::QnnGraph> one_conv_graph() {
  auto g = std::make_shared<core::QnnGraph>();
  const auto in = g->add_input(8, 6);
  g->add_conv(in, 8, 3, 1, 1, 8,
              random_ftensor(Shape4{8, 8, 3, 3}, -0.3f, 0.3f, 3));
  EXPECT_TRUE(
      g->calibrate(random_ftensor(Shape4{1, 8, 6, 6}, -1.0f, 1.0f, 4)).ok());
  return g;
}

// A name names one model of either kind: the server's breaker() and
// health_snapshot() look models up by name alone, so a conv model and a
// graph model under one name would shadow each other.
TEST(ModelRegistry, ConvAndGraphModelsShareOneNamespace) {
  ModelRegistry reg;
  GraphModelSpec graph;
  graph.graph = one_conv_graph();
  ASSERT_TRUE(reg.register_model("conv", make_spec(5)).ok());
  ASSERT_TRUE(reg.register_graph_model("graph", graph).ok());
  EXPECT_EQ(reg.register_graph_model("conv", graph).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(reg.register_model("graph", make_spec(6)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(reg.contains("conv"));
  EXPECT_EQ(reg.acquire_graph_plan("conv").status().code(),
            StatusCode::kNotFound);
  EXPECT_TRUE(reg.contains("graph"));
  EXPECT_EQ(reg.acquire_plan("graph").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(reg.stats().models, 1);
  EXPECT_EQ(reg.stats().graph_models, 1);

  // The server inherits the check: the second kind under a held name is
  // refused, and the health snapshot lists the name once.
  ModelServer server;
  const ConvShape shape = registry_shape();
  ASSERT_TRUE(server.add_model("x", shape, make_spec(7).weight).ok());
  EXPECT_EQ(server.add_graph_model("x", one_conv_graph()).code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(server.add_graph_model("y", one_conv_graph()).ok());
  EXPECT_EQ(server.add_model("y", shape, make_spec(8).weight).code(),
            StatusCode::kInvalidArgument);
  const std::vector<ModelHealth> health = server.health_snapshot();
  ASSERT_EQ(health.size(), 2u);
  EXPECT_EQ(health[0].name, "x");
  EXPECT_EQ(health[1].name, "y");
  EXPECT_EQ(server.scheduler("y"), nullptr) << "y stays a graph model";
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
  EXPECT_EQ(reg.acquire_plan("m").status().code(), StatusCode::kNotFound);
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

// Twins share one cache entry, so a budget pass that picked the acquiring
// model's twin as its victim would evict the plan just acquired: with room
// for one plan, 'b' (a twin of 'a') is the least recently used model when
// 'a' is acquired, and the unrelated 'c' must go instead. Every request of
// a served model looks its plan up, so an acquire that dropped its own plan
// would recompile on every batch.
TEST(ModelRegistry, AcquireNeverEvictsItsOwnSharedPlan) {
  i64 plan_bytes = 0;
  {
    ModelRegistry probe;
    ASSERT_TRUE(probe.register_model("p", make_spec(40)).ok());
    ASSERT_TRUE(probe.acquire_plan("p").ok());
    plan_bytes = probe.stats().resident_plan_bytes;
    ASSERT_GT(plan_bytes, 0);
  }
  RegistryOptions opt;
  opt.plan_budget_bytes = 2 * plan_bytes - 1;  // room for one plan
  ModelRegistry reg(opt);
  ModelSpec a = make_spec(41);
  ModelSpec b = a;  // byte-identical: one shared cache entry
  ASSERT_TRUE(reg.register_model("a", std::move(a)).ok());
  ASSERT_TRUE(reg.register_model("b", std::move(b)).ok());
  ASSERT_TRUE(reg.register_model("c", make_spec(42)).ok());

  ASSERT_TRUE(reg.acquire_plan("b").ok());
  ASSERT_TRUE(reg.acquire_plan("c").ok());
  EXPECT_FALSE(reg.plan_resident("b"));
  EXPECT_TRUE(reg.plan_resident("c"));

  ASSERT_TRUE(reg.acquire_plan("a").ok());
  EXPECT_TRUE(reg.plan_resident("a"));
  EXPECT_TRUE(reg.plan_resident("b")) << "the twin reads the same entry";
  EXPECT_FALSE(reg.plan_resident("c"));
  const i64 misses = reg.plan_cache().misses();
  const i64 hits = reg.plan_cache().hits();
  ASSERT_TRUE(reg.acquire_plan("a").ok());
  EXPECT_EQ(reg.plan_cache().misses(), misses);
  EXPECT_EQ(reg.plan_cache().hits(), hits + 1) << "the second acquire hits";
  EXPECT_TRUE(reg.plan_resident("a"));

  // Unregistering a twin still drops the shared entry.
  ASSERT_TRUE(reg.unregister_model("b").ok());
  EXPECT_FALSE(reg.plan_resident("a"));
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
