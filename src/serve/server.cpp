#include "serve/server.h"

#include <optional>
#include <utility>

#include "common/fault_injection.h"

namespace lbc::serve {

namespace {

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

}  // namespace

ModelServer::ModelServer(const ServerOptions& opt)
    : pool_(opt.pool != nullptr ? opt.pool : &ThreadPool::global()),
      registry_(opt.registry) {}

ModelServer::~ModelServer() { shutdown(); }

Status ModelServer::check_open() const {
  MutexLock lock(mu_);
  LBC_VALIDATE(!stopping_, kFailedPrecondition,
               "cannot add a model to a shut-down server");
  return Status();
}

Status ModelServer::commit(std::unique_ptr<Model> model, Status built) {
  if (built.ok()) {
    MutexLock lock(mu_);
    if (!stopping_) {
      const std::string name = model->name;
      models_.emplace(name, std::move(model));
      return Status();
    }
    built = Status::failed_precondition(
        "server shut down while adding model '" + model->name + "'");
  }
  (void)registry_.unregister_model(model->name);
  return built;
}

Status ModelServer::add_model(const std::string& name, const ConvShape& shape,
                              Tensor<i8> weight, const ModelOptions& opt) {
  LBC_RETURN_IF_ERROR(check_open());
  ModelSpec spec;
  spec.shape = shape;
  spec.weight = weight;  // the registry pins a copy for recompiles
  spec.bits = opt.sched.bits;
  spec.backend = opt.sched.backend;
  spec.impl = opt.sched.impl;
  spec.algo = opt.sched.algo;
  spec.threads = opt.sched.conv_threads;
  LBC_RETURN_IF_ERROR(registry_.register_model(name, std::move(spec)));

  auto model = std::make_unique<Model>();
  model->name = name;
  model->backend = opt.sched.backend;
  model->mode = opt.breaker_mode;
  model->breaker = std::make_unique<CircuitBreaker>(opt.breaker);

  SchedulerOptions sched_opt = opt.sched;
  sched_opt.plan_source = [this, name] { return registry_.acquire_plan(name); };
  CircuitBreaker* breaker = model->breaker.get();
  std::function<void(const InferResponse&)> user_hook = opt.sched.on_complete;
  sched_opt.on_complete = [breaker,
                           user_hook = std::move(user_hook)](
                              const InferResponse& resp) {
    feed_breaker(*breaker, resp.status, resp.probe);
    if (user_hook) user_hook(resp);
  };
  Status built = [&]() -> Status {
    if (opt.breaker_mode == BreakerMode::kReferenceFallback) {
      // The always-works rung: no prepacked weights, no specialized kernel.
      LBC_ASSIGN_OR_RETURN(
          core::ConvPlan plan,
          core::plan_arm_conv(shape, weight, opt.sched.bits, opt.sched.impl,
                              armkern::ConvAlgo::kReference,
                              opt.sched.conv_threads));
      model->conv_fallback =
          std::make_shared<const core::ConvPlan>(std::move(plan));
    }
    LBC_ASSIGN_OR_RETURN(model->sched,
                         BatchScheduler::create(shape, std::move(weight),
                                                sched_opt, pool_));
    return Status();
  }();
  return commit(std::move(model), std::move(built));
}

Status ModelServer::add_graph_model(const std::string& name,
                                    std::shared_ptr<const core::QnnGraph> graph,
                                    const GraphModelOptions& opt) {
  LBC_VALIDATE(opt.max_inflight >= 1 && opt.max_inflight <= 1024,
               kInvalidArgument, "graph model '"
                                     << name
                                     << "' max_inflight must be in [1, 1024]"
                                     << ", got " << opt.max_inflight);
  LBC_RETURN_IF_ERROR(check_open());
  GraphModelSpec spec;
  spec.graph = graph;  // registry validates null/empty/uncalibrated
  spec.options = opt.plan;
  LBC_RETURN_IF_ERROR(registry_.register_graph_model(name, std::move(spec)));

  auto model = std::make_unique<Model>();
  model->name = name;
  model->mode = opt.breaker_mode;
  model->breaker = std::make_unique<CircuitBreaker>(opt.breaker);
  model->max_inflight = opt.max_inflight;
  Status built = [&]() -> Status {
    // Eager compile: registration surfaces plan errors and the first request
    // never pays the whole-net compile (joint search + weight prepack).
    LBC_RETURN_IF_ERROR(registry_.acquire_graph_plan(name).status());
    if (opt.breaker_mode == BreakerMode::kReferenceFallback) {
      // Same arithmetic, per-layer execution.
      core::GraphPlanOptions fb = opt.plan;
      fb.fusion = core::FusionMode::kOff;
      fb.joint_search = false;
      fb.tuning = nullptr;
      LBC_ASSIGN_OR_RETURN(core::GraphPlan plan,
                           core::GraphPlan::compile(*graph, fb));
      model->graph_fallback =
          std::make_shared<const core::GraphPlan>(std::move(plan));
    }
    return Status();
  }();
  return commit(std::move(model), std::move(built));
}

void ModelServer::feed_breaker(CircuitBreaker& breaker, const Status& status,
                               bool probe) {
  std::optional<CircuitBreaker::Outcome> outcome;
  switch (status.code()) {
    case StatusCode::kOk:
      outcome = CircuitBreaker::Outcome::kSuccess;
      break;
    case StatusCode::kDeadlineExceeded:
      outcome = CircuitBreaker::Outcome::kDeadlineMiss;
      break;
    case StatusCode::kOverloaded:
    case StatusCode::kShuttingDown:
    case StatusCode::kUnavailable:
    case StatusCode::kFailedPrecondition:
      // Admission-control outcomes: the request never touched the model.
      break;
    default:
      outcome = CircuitBreaker::Outcome::kFailure;
      break;
  }
  if (probe) {
    if (outcome.has_value())
      breaker.record_probe(*outcome);
    else
      breaker.cancel_probe();  // probe shed before executing; free the slot
  } else if (outcome.has_value()) {
    breaker.record(*outcome);
  }
}

StatusOr<ModelServer::Model*> ModelServer::serving(const std::string& name,
                                                   bool graph) {
  MutexLock lock(mu_);
  LBC_VALIDATE(!stopping_, kFailedPrecondition,
               "server is shut down; no new submissions");
  auto it = models_.find(name);
  LBC_VALIDATE(it != models_.end() && it->second->graph() == graph, kNotFound,
               (graph ? "graph model '" : "model '") << name
                                                     << "' is not served");
  return it->second.get();
}

template <class Response, class Route>
StatusOr<std::future<Response>> ModelServer::gate(Model& m,
                                                  const SubmitOptions& sub,
                                                  Route route) {
  using Decision = CircuitBreaker::Decision;
  const Decision d = m.breaker->admit(Clock::now());
  if (d == Decision::kProbe &&
      FaultInjector::instance().should_fire(FaultSite::kServeProbeFail)) {
    // Recovery-flapping fault: the probe dies before reaching the model,
    // which re-opens the breaker (cooldown restarts).
    m.breaker->record_probe(CircuitBreaker::Outcome::kFailure);
    m.metrics().record_shed(ShedReason::kBreakerOpen, sub.priority);
    return Status::unavailable("model '" + m.name +
                               "' half-open probe failed (serve.probe_fail)");
  }
  if (d == Decision::kReject && m.mode == BreakerMode::kFastFail) {
    m.metrics().record_shed(ShedReason::kBreakerOpen, sub.priority);
    return Status::unavailable("model '" + m.name + "' is unavailable (" +
                               m.breaker->describe() + ")");
  }
  SubmitOptions s = sub;
  s.probe = d == Decision::kProbe;  // probe marking is the server's
  StatusOr<std::future<Response>> r = route(s, d == Decision::kReject);
  // A probe shed at admission never executed: release its slot so the next
  // arrival can probe instead of waiting on a lost outcome.
  if (s.probe && !r.ok()) m.breaker->cancel_probe();
  return r;
}

template <class Response, class Exec>
StatusOr<std::future<Response>> ModelServer::run_on_pool(
    Model& m, const SubmitOptions& sub, bool fallback, Exec exec) {
  bool has_slot = false;
  {
    MutexLock lock(m.mu);
    has_slot = m.inflight < m.max_inflight;
    if (has_slot) ++m.inflight;
  }
  if (!has_slot) {
    m.metrics().record_shed(ShedReason::kQueueFull, sub.priority);
    return Status::overloaded("model '" + m.name +
                              "' is at its in-flight cap");
  }
  {
    MutexLock lock(pool_mu_);
    ++pool_tasks_;
  }
  const Clock::time_point admitted = Clock::now();
  m.metrics().record_admitted(admitted);
  auto promise = std::make_shared<std::promise<Response>>();
  std::future<Response> fut = promise->get_future();
  Model* model = &m;
  pool_->submit([this, model, promise, sub, fallback, admitted,
                 exec = std::move(exec)]() mutable {
    Response resp;
    resp.tenant = sub.tenant;
    resp.priority = sub.priority;
    resp.probe = sub.probe;
    ServeMetrics& metrics = model->metrics();
    const Clock::time_point start = Clock::now();
    if (sub.deadline != kNoDeadline && start >= sub.deadline) {
      resp.status = Status::deadline_exceeded("expired before execution");
      resp.latency_s = seconds_between(admitted, start);
      metrics.record_expired(sub.priority);
    } else {
      // One workspace pair per pool worker: the pool runs one task at a
      // time per thread, so thread_local reuse keeps the single-owner
      // contract with zero steady-state allocations.
      thread_local Workspace arena;
      thread_local Workspace scratch;
      resp.status = exec(resp, arena, scratch);
      if (resp.status.ok()) {
        resp.batch_size = 1;
        if (fallback) metrics.record_fallback_served();
      }
      const Clock::time_point done = Clock::now();
      resp.latency_s = seconds_between(admitted, done);
      metrics.record_completion(0.0, resp.latency_s, resp.status.ok(), done,
                                sub.priority);
    }
    if (!fallback) feed_breaker(*model->breaker, resp.status, sub.probe);
    {
      MutexLock lock(model->mu);
      --model->inflight;
    }
    promise->set_value(std::move(resp));
    MutexLock lock(pool_mu_);
    --pool_tasks_;
    pool_idle_.notify_all();
  });
  return fut;
}

StatusOr<std::future<InferResponse>> ModelServer::submit(
    const std::string& name, Tensor<i8> input, const SubmitOptions& sub) {
  LBC_ASSIGN_OR_RETURN(Model* m, serving(name, /*graph=*/false));
  return gate<InferResponse>(
      *m, sub,
      [&](const SubmitOptions& s,
          bool fallback) -> StatusOr<std::future<InferResponse>> {
        if (!fallback) return m->sched->submit(std::move(input), s);
        return run_on_pool<InferResponse>(
            *m, s, /*fallback=*/true,
            [plan = m->conv_fallback, input = std::move(input)](
                InferResponse& resp, Workspace& ws, Workspace&) -> Status {
              LBC_ASSIGN_OR_RETURN(core::ArmLayerResult r,
                                   core::execute_arm_conv(*plan, input, ws));
              resp.output = std::move(r.out);
              resp.model_seconds = r.seconds;
              resp.executed_algo = std::move(r.executed_algo);
              resp.fallback = std::move(r.fallback);
              return Status();
            });
      });
}

StatusOr<std::future<GraphInferResponse>> ModelServer::submit_graph(
    const std::string& name, Tensor<float> input, const SubmitOptions& sub) {
  LBC_ASSIGN_OR_RETURN(Model* m, serving(name, /*graph=*/true));
  return gate<GraphInferResponse>(
      *m, sub,
      [&](const SubmitOptions& s,
          bool fallback) -> StatusOr<std::future<GraphInferResponse>> {
        return run_on_pool<GraphInferResponse>(
            *m, s, fallback,
            [this, m, fallback, input = std::move(input)](
                GraphInferResponse& resp, Workspace& arena,
                Workspace& scratch) -> Status {
              std::shared_ptr<const core::GraphPlan> plan = m->graph_fallback;
              // Acquire here, not at submit: a budget-evicted plan
              // recompiles on the pool worker instead of stalling the
              // submitting thread.
              if (!fallback) {
                LBC_ASSIGN_OR_RETURN(plan,
                                     registry_.acquire_graph_plan(m->name));
              }
              LBC_ASSIGN_OR_RETURN(core::QnnGraph::RunResult r,
                                   plan->forward(input, arena, scratch));
              resp.output = std::move(r.out);
              resp.model_seconds = r.seconds;
              resp.fused_convs = plan->fused_convs();
              for (i64 n = 0; n < plan->node_count(); ++n) {
                const armkern::ArmConvPlan* conv = plan->conv_plan(n);
                if (conv != nullptr && conv->planned_fallback.fell_back)
                  resp.fallback.record(conv->planned_fallback.requested,
                                       conv->planned_fallback.executed,
                                       conv->planned_fallback.reason);
              }
              return Status();
            });
      });
}

void ModelServer::shutdown() {
  {
    MutexLock lock(mu_);
    stopping_ = true;
  }
  // Scheduler shutdown is idempotent and asserts its own liveness contract
  // (no admitted request left unresolved).
  for (Model* m : all_models())
    if (!m->graph()) m->sched->shutdown();
  MutexLock lock(pool_mu_);
  while (pool_tasks_ != 0) pool_idle_.wait(pool_mu_);
}

ModelServer::Model* ModelServer::find(const std::string& name) const {
  MutexLock lock(mu_);
  auto it = models_.find(name);
  return it == models_.end() ? nullptr : it->second.get();
}

std::vector<ModelServer::Model*> ModelServer::all_models() const {
  MutexLock lock(mu_);
  std::vector<Model*> models;
  models.reserve(models_.size());
  for (const auto& [name, model] : models_) models.push_back(model.get());
  return models;
}

CircuitBreaker* ModelServer::breaker(const std::string& name) {
  Model* m = find(name);
  return m == nullptr ? nullptr : m->breaker.get();
}

BatchScheduler* ModelServer::scheduler(const std::string& name) {
  Model* m = find(name);
  return m == nullptr ? nullptr : m->sched.get();
}

ServeMetrics* ModelServer::metrics(const std::string& name) {
  Model* m = find(name);
  return m == nullptr ? nullptr : &m->metrics();
}

std::vector<ModelHealth> ModelServer::health_snapshot() const {
  // Snapshot each component outside mu_: breaker and metrics take their own
  // locks, and holding mu_ across them would order it against every
  // per-request lock for no gain. Pointers stay valid — models are never
  // removed while the server lives — and models_ is name-sorted.
  std::vector<ModelHealth> out;
  for (Model* m : all_models()) {
    ModelHealth h;
    h.name = m->name;
    h.backend = m->backend;
    h.breaker_state = m->breaker->state();
    h.breaker_trips = m->breaker->trips();
    h.last_transition = m->breaker->last_transition();
    h.metrics = m->metrics().snapshot();
    out.push_back(std::move(h));
  }
  return out;
}

}  // namespace lbc::serve
