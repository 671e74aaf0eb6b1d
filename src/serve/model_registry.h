// Multi-model registry: the serving tier's catalog of quantized nets, all
// compiling into ONE shared core::PlanCache under a memory budget.
//
// Each registered model is a (shape, weights, bits, impl, algo, threads)
// spec. acquire_plan(name) returns the model's compiled ConvPlan — a cache
// hit when resident, a compile on a miss — and bumps the model in the
// registry's LRU order. When the cache's resident prepacked bytes exceed
// plan_budget_bytes after an acquire, the registry evicts plans of the
// least-recently-used *other* models until back under budget (the plan just
// acquired is never evicted by its own acquire). A plan bigger than the
// whole budget is allowed to stand alone over budget — refusing to serve
// would be worse than exceeding a soft cap.
//
// Safety properties (the reasons this layer exists):
//  * Eviction never races an in-flight execution. The cache hands out
//    shared_ptr<const ConvPlan>; eviction drops only the cache's own
//    reference, so a batch mid-execute keeps its plan alive until done.
//  * Model weights stay pinned in the registry regardless of plan
//    eviction — an evicted model recompiles on its next acquire, and the
//    reference fallback chain (breaker degradation) always has the raw
//    weights to run against.
//  * Two models with byte-identical specs share one immutable cache entry
//    (PlanCache keys include a weight hash); the budget charges the entry
//    once, and evicting either model's plan evicts the shared entry — the
//    other model simply recompiles into it on next use. The budget pass of
//    an acquire never picks a twin of the acquiring model, since that
//    would evict the plan just acquired.
//
// Thread-safety: all methods are safe to call concurrently; the registry
// mutex is NOT held across plan compilation (a slow compile of one model
// never blocks lookups of another).
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/conv_shape.h"
#include "common/status.h"
#include "common/tensor.h"
#include "common/thread_annotations.h"
#include "core/conv_plan.h"
#include "core/engine.h"
#include "core/graph_plan.h"

namespace lbc::serve {

/// Immutable description of one registered model (a single quantized conv
/// layer, same granularity as a BatchScheduler instance).
struct ModelSpec {
  ConvShape shape;
  Tensor<i8> weight;
  int bits = 8;
  /// Backend the model compiles and serves on (part of the plan-cache key:
  /// an emulated and a native model with identical weights do NOT share an
  /// entry — their prepack layouts differ).
  core::Backend backend = core::Backend::kArmCortexA53;
  core::ArmImpl impl = core::ArmImpl::kOurs;
  armkern::ConvAlgo algo = armkern::ConvAlgo::kGemm;
  int threads = 1;
};

/// A registered whole-net model: a calibrated QnnGraph plus the
/// GraphPlanOptions its plan compiles with. The graph is pinned by
/// shared_ptr (weights survive plan eviction — an evicted graph plan
/// recompiles on the next acquire, exactly like the conv plans).
struct GraphModelSpec {
  std::shared_ptr<const core::QnnGraph> graph;
  core::GraphPlanOptions options;
};

struct RegistryOptions {
  /// Budget over the resident prepacked plan bytes — conv plans in the
  /// shared cache PLUS compiled whole-net graph plans; 0 = unlimited (no
  /// eviction).
  i64 plan_budget_bytes = 0;
};

struct RegistryStats {
  int models = 0;
  int graph_models = 0;
  i64 acquires = 0;        ///< acquire_plan calls that returned a plan
  i64 graph_acquires = 0;  ///< acquire_graph_plan calls that returned a plan
  i64 plan_evictions = 0;  ///< cache entries dropped by budget enforcement
  i64 graph_evictions = 0; ///< graph plans dropped by budget enforcement
  i64 resident_plan_bytes = 0;   ///< conv-plan prepacked bytes
  i64 resident_graph_bytes = 0;  ///< graph-plan prepacked bytes
  i64 budget_bytes = 0;
};

class ModelRegistry {
 public:
  explicit ModelRegistry(const RegistryOptions& opt = RegistryOptions{});

  /// Register a model under a unique name. kInvalidArgument on a bad spec,
  /// an empty name, or a name another model — conv or graph — holds.
  Status register_model(const std::string& name, ModelSpec spec);

  /// Drop a model and evict its plan from the shared cache. kNotFound when
  /// the name is unknown. In-flight executions against the plan finish
  /// normally (they hold their own shared_ptr).
  Status unregister_model(const std::string& name);

  /// The model's compiled plan: cache hit or compile, then LRU bump and
  /// budget enforcement. A compile fault (plan.compile_fail) returns the
  /// degraded reference-rung plan without keeping it, so the next acquire
  /// compiles again. Errors: kNotFound (unknown model) or the plan compile
  /// error.
  StatusOr<std::shared_ptr<const core::ConvPlan>> acquire_plan(
      const std::string& name);

  /// The registered spec (weights pinned; valid until unregister_model).
  /// kNotFound when the name is unknown.
  StatusOr<const ModelSpec*> find(const std::string& name) const;

  bool contains(const std::string& name) const;
  /// Registered names in registration order.
  std::vector<std::string> model_names() const;

  /// Whether the model's plan is currently resident in the shared cache
  /// (false after a budget eviction, before the next acquire).
  bool plan_resident(const std::string& name) const;

  // ---- whole-net graph models (core::GraphPlan) -------------------------
  // Graph models share the conv models' names (one name, one model of
  // either kind) and the registry's plan-bytes budget: eviction picks the
  // LRU resident plan across BOTH kinds. Each graph model holds its own
  // compiled plan — two models never share one, not even over one graph
  // object — and the budget charges each.

  /// Register a whole-net model. kInvalidArgument on an empty name, a null
  /// or empty graph, an uncalibrated graph, or a name another model — conv
  /// or graph — holds.
  Status register_graph_model(const std::string& name, GraphModelSpec spec);

  /// Drop a graph model and its compiled plan. kNotFound when the name is
  /// unknown.
  Status unregister_graph_model(const std::string& name);

  /// The model's compiled whole-net plan: the resident plan, or
  /// GraphPlan::compile when none is, then LRU bump and budget enforcement
  /// across both plan kinds. An acquire that loses a compile race serves
  /// the plan the winner made resident. A plan with a fault-degraded conv
  /// is returned but not kept. Errors: kNotFound (unknown model) or the
  /// compile error.
  StatusOr<std::shared_ptr<const core::GraphPlan>> acquire_graph_plan(
      const std::string& name);

  bool contains_graph(const std::string& name) const;

  /// Whether the model's compiled graph plan is currently resident.
  bool graph_plan_resident(const std::string& name) const;

  RegistryStats stats() const;
  core::PlanCache& plan_cache() { return cache_; }
  const core::PlanCache& plan_cache() const { return cache_; }

 private:
  struct Entry {
    ModelSpec spec;
    u64 last_used = 0;  ///< LRU tick of the latest acquire (0 = never)
    u64 order = 0;      ///< registration order
  };

  struct GraphEntry {
    GraphModelSpec spec;
    /// The resident compiled plan; null before the first kept compile and
    /// after a budget eviction. Guarded by the registry's mu_.
    std::shared_ptr<const core::GraphPlan> plan;
    u64 last_used = 0;
  };

  /// Evict LRU resident plans — conv or graph, whichever model is
  /// least-recently used — excluding `keep`/`keep_graph`, until resident
  /// bytes fit the budget. Caller holds mu_.
  void enforce_budget_locked(const Entry* keep, const GraphEntry* keep_graph)
      LBC_REQUIRES(mu_);

  i64 resident_graph_bytes_locked() const LBC_REQUIRES(mu_);

  /// Whether a conv or a graph model holds `name`: both kinds share one
  /// namespace, since health_snapshot() and breaker() look models up by
  /// name alone.
  bool name_taken_locked(const std::string& name) const LBC_REQUIRES(mu_);

  RegistryOptions opt_;
  mutable Mutex mu_;
  std::map<std::string, std::unique_ptr<Entry>> models_ LBC_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<GraphEntry>> graph_models_
      LBC_GUARDED_BY(mu_);
  u64 tick_ LBC_GUARDED_BY(mu_) = 0;
  u64 next_order_ LBC_GUARDED_BY(mu_) = 0;
  i64 acquires_ LBC_GUARDED_BY(mu_) = 0;
  i64 graph_acquires_ LBC_GUARDED_BY(mu_) = 0;
  i64 graph_evictions_ LBC_GUARDED_BY(mu_) = 0;
  core::PlanCache cache_;  ///< shared across all models; own internal mutex
};

}  // namespace lbc::serve
