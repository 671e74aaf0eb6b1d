// Multi-model registry: the serving tier's catalog of quantized models, one
// entry per name, of either kind:
//  * a conv model — a (shape, weights, bits, impl, algo, threads, backend)
//    spec whose compiled ConvPlan lives in ONE shared core::PlanCache;
//  * a graph model — a calibrated QnnGraph whose compiled core::GraphPlan
//    the entry itself holds.
//
// acquire_plan / acquire_graph_plan return the model's plan — resident, or
// compiled on a miss — and bump the entry in the registry's LRU order. When
// the resident prepacked bytes (the cache's plus every held graph plan's)
// exceed plan_budget_bytes after an acquire, the registry evicts the plans
// of the least-recently-used *other* entries, of either kind, until back
// under budget (the plan just acquired is never evicted by its own
// acquire). A plan bigger than the whole budget is allowed to stand alone
// over budget — refusing to serve would be worse than exceeding a soft cap.
//
// Safety properties (the reasons this layer exists):
//  * Eviction never races an in-flight execution. Plans are handed out as
//    shared_ptr<const ...>; eviction drops only the registry's (or the
//    cache's) reference, so a request mid-execute keeps its plan alive.
//  * Model weights stay pinned regardless of plan eviction — an evicted
//    model recompiles on its next acquire.
//  * Two conv models with byte-identical specs share one immutable cache
//    entry (PlanCache keys include a weight hash); the budget charges the
//    entry once, and evicting either model's plan evicts the shared entry —
//    the other model simply recompiles into it on next use. The budget pass
//    of an acquire never picks a twin of the acquiring model, since that
//    would evict the plan just acquired. Graph models never share a plan,
//    not even over one graph object, and the budget charges each.
//
// Thread-safety: all methods are safe to call concurrently; the registry
// mutex is NOT held across plan compilation (a slow compile of one model
// never blocks lookups of another).
#pragma once

#include <map>
#include <memory>
#include <string>
#include <variant>

#include "common/conv_shape.h"
#include "common/status.h"
#include "common/tensor.h"
#include "common/thread_annotations.h"
#include "core/conv_plan.h"
#include "core/engine.h"
#include "core/graph_plan.h"

namespace lbc::serve {

/// Immutable description of one registered conv model (a single quantized
/// conv layer, same granularity as a BatchScheduler instance).
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

  /// Register a conv model under a unique name. kInvalidArgument on a bad
  /// spec, an empty name, or a name another model of either kind holds.
  Status register_model(const std::string& name, ModelSpec spec);

  /// Register a whole-net model. kInvalidArgument on an empty name, a null
  /// or empty graph, an uncalibrated graph, or a name another model of
  /// either kind holds.
  Status register_graph_model(const std::string& name, GraphModelSpec spec);

  /// Drop a model of either kind and evict its plan. kNotFound when the
  /// name is unknown. In-flight executions against the plan finish
  /// normally (they hold their own shared_ptr).
  Status unregister_model(const std::string& name);

  /// A conv model's compiled plan: cache hit or compile, then LRU bump and
  /// budget enforcement. A compile fault (plan.compile_fail) returns the
  /// degraded reference-rung plan without keeping it, so the next acquire
  /// compiles again. Errors: kNotFound (no conv model of that name) or the
  /// plan compile error.
  StatusOr<std::shared_ptr<const core::ConvPlan>> acquire_plan(
      const std::string& name);

  /// A graph model's compiled plan: the resident plan, or
  /// GraphPlan::compile when none is, then LRU bump and budget enforcement.
  /// An acquire that loses a compile race serves the plan the winner made
  /// resident. A plan with a fault-degraded conv is returned but not kept.
  /// Errors: kNotFound (no graph model of that name) or the compile error.
  StatusOr<std::shared_ptr<const core::GraphPlan>> acquire_graph_plan(
      const std::string& name);

  /// Whether a model of either kind holds the name.
  bool contains(const std::string& name) const;

  /// Whether the model's plan is currently resident (false after a budget
  /// eviction, before the next acquire).
  bool plan_resident(const std::string& name) const;

  RegistryStats stats() const;
  core::PlanCache& plan_cache() { return cache_; }
  const core::PlanCache& plan_cache() const { return cache_; }

 private:
  struct Entry {
    /// A conv model's spec (its plan lives in cache_) or a graph model's.
    std::variant<ModelSpec, GraphModelSpec> spec;
    /// A graph model's resident plan; null before the first kept compile
    /// and after an eviction. Guarded by the registry's mu_ (a nested
    /// struct cannot name the outer member in GUARDED_BY).
    std::shared_ptr<const core::GraphPlan> graph_plan;
    u64 last_used = 0;  ///< LRU tick of the latest acquire (0 = never)
  };

  Status insert(const std::string& name,
                std::variant<ModelSpec, GraphModelSpec> spec);
  /// The entry of the given kind under `name`; kNotFound otherwise.
  StatusOr<Entry*> find_locked(const std::string& name, bool graph)
      LBC_REQUIRES(mu_);
  bool resident_locked(const Entry& e) const LBC_REQUIRES(mu_);
  /// Drop the entry's resident plan (a conv model's cache entry, shared
  /// with its twins).
  void evict_locked(Entry& e) LBC_REQUIRES(mu_);
  /// LRU bump, then evict the least-recently-used resident plans of other
  /// entries until resident bytes fit the budget.
  void touch_locked(Entry& keep) LBC_REQUIRES(mu_);

  RegistryOptions opt_;
  mutable Mutex mu_;
  std::map<std::string, std::unique_ptr<Entry>> entries_ LBC_GUARDED_BY(mu_);
  u64 tick_ LBC_GUARDED_BY(mu_) = 0;
  i64 acquires_ LBC_GUARDED_BY(mu_) = 0;
  i64 graph_acquires_ LBC_GUARDED_BY(mu_) = 0;
  i64 graph_evictions_ LBC_GUARDED_BY(mu_) = 0;
  i64 graph_bytes_ LBC_GUARDED_BY(mu_) = 0;  ///< held graph plans' bytes
  core::PlanCache cache_;  ///< shared across all models; own internal mutex
};

}  // namespace lbc::serve
