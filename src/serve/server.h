// ModelServer: the overload-hardened front end of the serving tier. One
// server owns a memory-budgeted ModelRegistry and one record per served
// model, of either kind, each with a CircuitBreaker:
//  * a conv model — one quantized layer, executed by a micro-batching
//    BatchScheduler over the registry's shared PlanCache;
//  * a graph model — a whole quantized net, executed as its registry-held
//    GraphPlan on the pool, at most GraphModelOptions::max_inflight at once.
//
// Both kinds pass one gate per request:
//
//   breaker.admit() ──kAllow──> primary path (the scheduler's WFQ admission
//                 │             and micro-batching, or the in-flight cap)
//                 └──kProbe──> primary path, marked probe; its outcome
//                 │            drives half-open recovery (a probe the path
//                 │            sheds releases the probe slot instead)
//                 └──kReject─> BreakerMode::kFastFail: kUnavailable now,
//                              counted shed (breaker_open);
//                              BreakerMode::kReferenceFallback: execute on
//                              the pool the plan pinned at add time — a conv
//                              model's reference rung, a graph model's
//                              unfused plan — degraded but correct service
//
// Breakers learn exclusively from requests that reached the model: the
// scheduler's on_complete hook, and the pool task of a graph request, map
// each response Status to a breaker outcome (OK -> success,
// kDeadlineExceeded -> deadline miss, execution errors -> failure) and
// ignore admission-control statuses (kOverloaded / kShuttingDown /
// kUnavailable never touched the model). Fallback executions do not feed
// the breaker either — recovery is earned by probes through the primary
// path only.
//
// Liveness contract (the soak harness gates on this): every submission
// either returns an error Status from submit() (kNotFound, kOverloaded,
// kUnavailable, kFailedPrecondition) or yields a future that IS resolved —
// by the scheduler (which asserts admitted == resolved at shutdown) or by
// its pool task (shutdown() waits for in-flight pool executions).
#pragma once

#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_annotations.h"
#include "serve/circuit_breaker.h"
#include "serve/model_registry.h"
#include "serve/scheduler.h"

namespace lbc::serve {

struct ModelOptions {
  /// Scheduler knobs, including the model's bits/impl/algo/conv_threads
  /// (the registry spec is derived from these).
  SchedulerOptions sched;
  BreakerOptions breaker;
  BreakerMode breaker_mode = BreakerMode::kFastFail;
};

/// Options for a whole-net graph model (served through a compiled
/// core::GraphPlan instead of a per-layer BatchScheduler).
struct GraphModelOptions {
  /// Compile options for the registry's cached plan (fusion, algo, threads,
  /// joint search, tuning cache).
  core::GraphPlanOptions plan;
  BreakerOptions breaker;
  /// kReferenceFallback serves tripped-breaker requests through a pinned
  /// UNFUSED plan (FusionMode::kOff, no joint search) — degraded but
  /// bit-exact service, the graph twin of the conv reference rung.
  BreakerMode breaker_mode = BreakerMode::kFastFail;
  /// Concurrent graph executions; arrivals past the cap shed kOverloaded
  /// (the graph path's admission bound — there is no coalescing queue).
  int max_inflight = 4;
};

/// Response to a whole-net submission (submit_graph). The output is the
/// dequantized final activation of the graph.
struct GraphInferResponse {
  Status status;
  Tensor<float> output;      ///< set iff status.ok()
  double model_seconds = 0;  ///< modeled device time of the forward pass
  double latency_s = 0;      ///< admission -> response completion
  int batch_size = 0;        ///< 1 on success (no graph-level coalescing)
  int fused_convs = 0;       ///< convs that ran the fused epilogue path
  FallbackRecord fallback;   ///< the plan's conv degradations, if any
  int tenant = 0;
  Priority priority = Priority::kStandard;
  bool probe = false;
};

struct ServerOptions {
  RegistryOptions registry;
  /// Pool for batch execution, fallback serving and graph executions;
  /// defaults to ThreadPool::global().
  ThreadPool* pool = nullptr;
};

/// One model's health as seen by an operator: which backend it serves on,
/// where its breaker stands (and when it last moved), and the model's full
/// metrics snapshot. Produced by ModelServer::health_snapshot().
struct ModelHealth {
  std::string name;
  core::Backend backend = core::Backend::kArmCortexA53;
  BreakerState breaker_state = BreakerState::kClosed;
  i64 breaker_trips = 0;
  /// Last breaker state change; default (epoch) = never transitioned.
  Clock::time_point last_transition{};
  MetricsSnapshot metrics;
};

class ModelServer {
 public:
  explicit ModelServer(const ServerOptions& opt = ServerOptions{});
  ~ModelServer();  ///< runs shutdown()

  ModelServer(const ModelServer&) = delete;
  ModelServer& operator=(const ModelServer&) = delete;

  /// Register a conv model and spin up its scheduler + breaker; a
  /// kReferenceFallback model also pins its reference-rung plan here.
  /// Errors: kInvalidArgument (bad spec/options, or a name a conv or graph
  /// model already holds), kFailedPrecondition after shutdown().
  Status add_model(const std::string& name, const ConvShape& shape,
                   Tensor<i8> weight,
                   const ModelOptions& opt = ModelOptions{});

  /// Route one request through the model's breaker and scheduler (or the
  /// fallback path). Errors: kNotFound (unknown conv model), kUnavailable
  /// (breaker open, fast-fail mode — also when a half-open probe is forced
  /// down by the serve.probe_fail fault), kOverloaded (scheduler admission),
  /// kFailedPrecondition (after shutdown), kInvalidArgument (bad input).
  StatusOr<std::future<InferResponse>> submit(
      const std::string& name, Tensor<i8> input,
      const SubmitOptions& sub = SubmitOptions{});

  /// Register a whole-net graph model: the registry holds its compiled
  /// GraphPlan (charged against the plan budget) and the server fronts it
  /// with a breaker + in-flight cap. The plan compiles eagerly here so
  /// registration surfaces compile errors; a kReferenceFallback model also
  /// pins its unfused plan here. Errors: kInvalidArgument (bad spec, or a
  /// name a conv or graph model already holds), the compile error, or
  /// kFailedPrecondition after shutdown().
  Status add_graph_model(const std::string& name,
                         std::shared_ptr<const core::QnnGraph> graph,
                         const GraphModelOptions& opt = GraphModelOptions{});

  /// Route one whole-net request through the model's breaker and in-flight
  /// cap, then execute the fused GraphPlan on the pool. Same overload
  /// contract as submit(): kNotFound (unknown graph model), kUnavailable
  /// (breaker open, fast-fail mode), kOverloaded (in-flight cap),
  /// kFailedPrecondition (after shutdown). Every returned future IS
  /// resolved.
  StatusOr<std::future<GraphInferResponse>> submit_graph(
      const std::string& name, Tensor<float> input,
      const SubmitOptions& sub = SubmitOptions{});

  /// Stop all schedulers (draining per their shutdown_policy) and wait for
  /// in-flight pool executions (fallbacks and graph forwards). Idempotent.
  void shutdown();

  ModelRegistry& registry() { return registry_; }
  const ModelRegistry& registry() const { return registry_; }

  /// Per-model components, for tests and the bench report. nullptr when the
  /// name is unknown. Pointers stay valid until the server is destroyed
  /// (models cannot be removed while serving). breaker() and metrics()
  /// answer for either kind; scheduler() is conv-only.
  CircuitBreaker* breaker(const std::string& name);
  BatchScheduler* scheduler(const std::string& name);
  ServeMetrics* metrics(const std::string& name);

  /// Health of every served model, sorted by name: breaker state +
  /// last-transition tick and the model's metrics snapshot. Safe to call
  /// concurrently with serving (each component snapshots under its own
  /// lock); usable after shutdown() for a final report.
  std::vector<ModelHealth> health_snapshot() const;

 private:
  /// One served model of either kind. A conv model executes through its
  /// BatchScheduler (which owns its metrics); a graph model through its
  /// registry-cached GraphPlan on the pool. Each kReferenceFallback model
  /// pins the plan its degraded path runs: no re-plan per request, and no
  /// dependence on the budgeted registry.
  struct Model {
    std::string name;
    core::Backend backend = core::Backend::kArmCortexA53;
    BreakerMode mode = BreakerMode::kFastFail;
    std::unique_ptr<CircuitBreaker> breaker;
    std::unique_ptr<BatchScheduler> sched;  ///< null for a graph model
    ServeMetrics own_metrics;  ///< a graph model's metrics
    std::shared_ptr<const core::ConvPlan> conv_fallback;
    std::shared_ptr<const core::GraphPlan> graph_fallback;
    /// Cap on pool executions in flight: a graph model's max_inflight; a
    /// conv model's fallbacks are uncapped (its scheduler bounds the rest).
    int max_inflight = std::numeric_limits<int>::max();
    Mutex mu;
    int inflight LBC_GUARDED_BY(mu) = 0;

    bool graph() const { return sched == nullptr; }
    ServeMetrics& metrics() {
      return sched != nullptr ? sched->metrics() : own_metrics;
    }
  };

  /// Fails with kFailedPrecondition once shutdown() has begun.
  Status check_open() const;
  /// Serve a built model, or unregister its name when building it failed
  /// or the server shut down meanwhile.
  Status commit(std::unique_ptr<Model> model, Status built);
  /// The served model of the given kind, for a submission.
  StatusOr<Model*> serving(const std::string& name, bool graph);
  Model* find(const std::string& name) const;
  std::vector<Model*> all_models() const;

  /// The one breaker gate: kAllow routes to the primary path, kProbe to the
  /// primary path marked probe (serve.probe_fail may fail it first; a probe
  /// the route sheds releases its slot), kReject to kUnavailable
  /// (kFastFail) or to the fallback path. `route(sub, fallback)` submits.
  template <class Response, class Route>
  StatusOr<std::future<Response>> gate(Model& m, const SubmitOptions& sub,
                                       Route route);
  /// Execute one admitted request on the pool, under the model's in-flight
  /// cap: deadline expiry, latency and completion metrics, the breaker feed
  /// (primary path only), the promise and the shutdown drain count.
  /// `exec(resp, arena, scratch)` fills the response's output.
  template <class Response, class Exec>
  StatusOr<std::future<Response>> run_on_pool(Model& m,
                                              const SubmitOptions& sub,
                                              bool fallback, Exec exec);
  /// Map a response Status to a breaker outcome.
  static void feed_breaker(CircuitBreaker& breaker, const Status& status,
                           bool probe);

  ThreadPool* pool_;
  ModelRegistry registry_;

  /// Guards models_ and stopping_.
  mutable Mutex mu_;
  std::map<std::string, std::unique_ptr<Model>> models_ LBC_GUARDED_BY(mu_);
  bool stopping_ LBC_GUARDED_BY(mu_) = false;

  Mutex pool_mu_;
  CondVar pool_idle_;
  i64 pool_tasks_ LBC_GUARDED_BY(pool_mu_) = 0;
};

}  // namespace lbc::serve
