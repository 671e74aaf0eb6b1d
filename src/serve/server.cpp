#include "serve/server.h"

#include <algorithm>
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
    : opt_(opt),
      pool_(opt.pool != nullptr ? opt.pool : &ThreadPool::global()),
      registry_(opt.registry) {}

ModelServer::~ModelServer() { shutdown(); }

Status ModelServer::add_model(const std::string& name, const ConvShape& shape,
                              Tensor<i8> weight, const ModelOptions& opt) {
  {
    MutexLock lock(mu_);
    LBC_VALIDATE(!stopping_, kFailedPrecondition,
                 "cannot add model '" << name << "' to a shut-down server");
  }

  ModelSpec spec;
  spec.shape = shape;
  spec.weight = weight;  // registry pins a copy for fallback + recompiles
  spec.bits = opt.sched.bits;
  spec.backend = opt.sched.backend;
  spec.impl = opt.sched.impl;
  spec.algo = opt.sched.algo;
  spec.threads = opt.sched.conv_threads;
  LBC_RETURN_IF_ERROR(registry_.register_model(name, std::move(spec)));

  auto model = std::make_unique<Model>();
  model->name = name;
  model->mode = opt.breaker_mode;
  model->breaker = std::make_unique<CircuitBreaker>(opt.breaker);
  LBC_ASSIGN_OR_RETURN(const ModelSpec* pinned, registry_.find(name));
  model->spec = pinned;

  SchedulerOptions sched_opt = opt.sched;
  sched_opt.plan_source = [this, name] { return registry_.acquire_plan(name); };
  CircuitBreaker* breaker = model->breaker.get();
  std::function<void(const InferResponse&)> user_hook = opt.sched.on_complete;
  sched_opt.on_complete = [breaker,
                           user_hook = std::move(user_hook)](
                              const InferResponse& resp) {
    feed_breaker(*breaker, resp);
    if (user_hook) user_hook(resp);
  };

  StatusOr<std::unique_ptr<BatchScheduler>> sched =
      BatchScheduler::create(shape, std::move(weight), sched_opt, pool_);
  if (!sched.ok()) {
    (void)registry_.unregister_model(name);
    return sched.status();
  }
  model->sched = std::move(sched).value();

  MutexLock lock(mu_);
  LBC_VALIDATE(!stopping_, kFailedPrecondition,
               "server shut down while adding model '" << name << "'");
  models_.emplace(name, std::move(model));
  return Status();
}

Status ModelServer::add_graph_model(const std::string& name,
                                    std::shared_ptr<const core::QnnGraph> graph,
                                    const GraphModelOptions& opt) {
  LBC_VALIDATE(opt.max_inflight >= 1 && opt.max_inflight <= 1024,
               kInvalidArgument, "graph model '"
                                     << name
                                     << "' max_inflight must be in [1, 1024]"
                                     << ", got " << opt.max_inflight);
  {
    MutexLock lock(mu_);
    LBC_VALIDATE(!stopping_, kFailedPrecondition,
                 "cannot add graph model '" << name
                                            << "' to a shut-down server");
  }

  GraphModelSpec spec;
  spec.graph = graph;  // registry validates null/empty/uncalibrated
  spec.options = opt.plan;
  LBC_RETURN_IF_ERROR(registry_.register_graph_model(name, std::move(spec)));

  auto model = std::make_unique<GraphModel>();
  model->name = name;
  model->mode = opt.breaker_mode;
  model->max_inflight = opt.max_inflight;
  model->breaker = std::make_unique<CircuitBreaker>(opt.breaker);

  // Eager compile: registration surfaces plan errors and the first request
  // never pays the whole-net compile (joint search + weight prepack).
  StatusOr<std::shared_ptr<const core::GraphPlan>> warm =
      registry_.acquire_graph_plan(name);
  if (!warm.ok()) {
    (void)registry_.unregister_graph_model(name);
    return warm.status();
  }

  if (opt.breaker_mode == BreakerMode::kReferenceFallback) {
    // The degraded path must survive budget eviction: pin an unfused plan
    // in the model itself (same arithmetic, per-layer execution).
    core::GraphPlanOptions fb = opt.plan;
    fb.fusion = core::FusionMode::kOff;
    fb.joint_search = false;
    fb.tuning = nullptr;
    StatusOr<core::GraphPlan> p = core::GraphPlan::compile(*graph, fb);
    if (!p.ok()) {
      (void)registry_.unregister_graph_model(name);
      return p.status();
    }
    model->fallback_plan =
        std::make_shared<const core::GraphPlan>(std::move(p).value());
  }

  MutexLock lock(mu_);
  LBC_VALIDATE(!stopping_, kFailedPrecondition,
               "server shut down while adding graph model '" << name << "'");
  graph_models_.emplace(name, std::move(model));
  return Status();
}

void ModelServer::feed_breaker(CircuitBreaker& breaker,
                               const InferResponse& resp) {
  std::optional<CircuitBreaker::Outcome> outcome;
  switch (resp.status.code()) {
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
  if (resp.probe) {
    if (outcome.has_value())
      breaker.record_probe(*outcome);
    else
      breaker.cancel_probe();  // probe shed before executing; free the slot
  } else if (outcome.has_value()) {
    breaker.record(*outcome);
  }
}

ModelServer::Model* ModelServer::find_model(const std::string& name) {
  auto it = models_.find(name);
  return it == models_.end() ? nullptr : it->second.get();
}

ModelServer::GraphModel* ModelServer::find_graph_model(
    const std::string& name) {
  auto it = graph_models_.find(name);
  return it == graph_models_.end() ? nullptr : it->second.get();
}

StatusOr<std::future<GraphInferResponse>> ModelServer::submit_graph(
    const std::string& name, Tensor<float> input, const SubmitOptions& sub) {
  GraphModel* m = nullptr;
  {
    MutexLock lock(mu_);
    LBC_VALIDATE(!stopping_, kFailedPrecondition,
                 "server is shut down; no new submissions");
    m = find_graph_model(name);
    LBC_VALIDATE(m != nullptr, kNotFound,
                 "graph model '" << name << "' is not served");
  }

  // The graph path's admission bound: there is no coalescing queue, so the
  // in-flight cap is where overload backs up (arrivals past it shed).
  const auto try_admit = [this, m] {
    MutexLock lock(mu_);
    if (m->inflight >= m->max_inflight) return false;
    ++m->inflight;
    return true;
  };
  const auto shed_overloaded = [m, &name, &sub] {
    m->metrics.record_shed(ShedReason::kQueueFull, sub.priority);
    return Status::overloaded("graph model '" + name + "' is at its " +
                              "in-flight cap");
  };

  switch (m->breaker->admit(Clock::now())) {
    case CircuitBreaker::Decision::kAllow: {
      if (!try_admit()) return shed_overloaded();
      SubmitOptions s = sub;
      s.probe = false;  // probe marking is the server's, not the caller's
      m->metrics.record_admitted(Clock::now());
      return run_graph(*m, std::move(input), s, /*fallback=*/false);
    }
    case CircuitBreaker::Decision::kProbe: {
      if (FaultInjector::instance().should_fire(FaultSite::kServeProbeFail)) {
        m->breaker->record_probe(CircuitBreaker::Outcome::kFailure);
        m->metrics.record_shed(ShedReason::kBreakerOpen, sub.priority);
        return Status::unavailable("graph model '" + name +
                                   "' half-open probe failed "
                                   "(serve.probe_fail)");
      }
      if (!try_admit()) {
        // The probe never executed: free its slot so the next arrival can
        // probe instead of waiting on a lost outcome.
        m->breaker->cancel_probe();
        return shed_overloaded();
      }
      SubmitOptions s = sub;
      s.probe = true;
      m->metrics.record_admitted(Clock::now());
      return run_graph(*m, std::move(input), s, /*fallback=*/false);
    }
    case CircuitBreaker::Decision::kReject:
      if (m->mode == BreakerMode::kFastFail) {
        m->metrics.record_shed(ShedReason::kBreakerOpen, sub.priority);
        return Status::unavailable("graph model '" + name +
                                   "' is unavailable (" +
                                   m->breaker->describe() + ")");
      }
      if (!try_admit()) return shed_overloaded();
      {
        SubmitOptions s = sub;
        s.probe = false;
        m->metrics.record_admitted(Clock::now());
        return run_graph(*m, std::move(input), s, /*fallback=*/true);
      }
  }
  return Status::internal("unreachable breaker decision");
}

std::future<GraphInferResponse> ModelServer::run_graph(GraphModel& m,
                                                       Tensor<float> input,
                                                       SubmitOptions sub,
                                                       bool fallback) {
  auto promise = std::make_shared<std::promise<GraphInferResponse>>();
  std::future<GraphInferResponse> fut = promise->get_future();
  {
    MutexLock lock(fallback_mu_);
    ++fallback_inflight_;
  }
  const Clock::time_point admitted = Clock::now();
  GraphModel* gm = &m;
  pool_->submit([this, promise, gm, sub, admitted, fallback,
                 input = std::move(input)]() mutable {
    GraphInferResponse resp;
    resp.tenant = sub.tenant;
    resp.priority = sub.priority;
    resp.probe = sub.probe;
    const Clock::time_point start = Clock::now();
    if (sub.deadline != kNoDeadline && start >= sub.deadline) {
      resp.status =
          Status::deadline_exceeded("expired before graph execution");
      gm->metrics.record_expired(sub.priority);
    } else {
      std::shared_ptr<const core::GraphPlan> plan;
      if (fallback) {
        plan = gm->fallback_plan;
      } else {
        // Acquire here, not at submit: a budget-evicted plan recompiles on
        // the pool worker instead of stalling the submitting thread.
        StatusOr<std::shared_ptr<const core::GraphPlan>> p =
            registry_.acquire_graph_plan(gm->name);
        if (p.ok())
          plan = std::move(p).value();
        else
          resp.status = p.status();
      }
      if (plan != nullptr && resp.status.ok()) {
        // One arena pair per pool worker: the pool runs one task at a time
        // per thread, so thread_local reuse keeps the single-owner
        // contract with zero steady-state allocations.
        thread_local Workspace arena;
        thread_local Workspace scratch;
        StatusOr<core::QnnGraph::RunResult> r =
            plan->forward(input, arena, scratch);
        if (r.ok()) {
          resp.output = std::move(r->out);
          resp.model_seconds = r->seconds;
          resp.batch_size = 1;
          resp.fused_convs = plan->fused_convs();
          for (i64 n = 0; n < plan->node_count(); ++n) {
            const armkern::ArmConvPlan* conv = plan->conv_plan(n);
            if (conv != nullptr && conv->planned_fallback.fell_back)
              resp.fallback.record(conv->planned_fallback.requested,
                                   conv->planned_fallback.executed,
                                   conv->planned_fallback.reason);
          }
          if (fallback) gm->metrics.record_fallback_served();
        } else {
          resp.status = r.status();
        }
      }
      const Clock::time_point done = Clock::now();
      resp.latency_s = seconds_between(admitted, done);
      gm->metrics.record_completion(0.0, resp.latency_s, resp.status.ok(),
                                    done, sub.priority);
    }
    if (resp.latency_s == 0)
      resp.latency_s = seconds_between(admitted, Clock::now());
    if (!fallback) {
      // Reuse the conv path's Status -> breaker-outcome mapping; fallback
      // executions never feed the breaker (recovery is earned by the
      // primary path only).
      InferResponse outcome;
      outcome.status = resp.status;
      outcome.probe = sub.probe;
      feed_breaker(*gm->breaker, outcome);
    }
    {
      MutexLock lock(mu_);
      --gm->inflight;
    }
    promise->set_value(std::move(resp));
    MutexLock lock(fallback_mu_);
    --fallback_inflight_;
    fallback_cv_.notify_all();
  });
  return fut;
}

StatusOr<std::future<InferResponse>> ModelServer::submit(
    const std::string& name, Tensor<i8> input, const SubmitOptions& sub) {
  Model* m = nullptr;
  {
    MutexLock lock(mu_);
    LBC_VALIDATE(!stopping_, kFailedPrecondition,
                 "server is shut down; no new submissions");
    m = find_model(name);
    LBC_VALIDATE(m != nullptr, kNotFound,
                 "model '" << name << "' is not served");
  }

  switch (m->breaker->admit(Clock::now())) {
    case CircuitBreaker::Decision::kAllow: {
      SubmitOptions s = sub;
      s.probe = false;  // probe marking is the server's, not the caller's
      return m->sched->submit(std::move(input), s);
    }
    case CircuitBreaker::Decision::kProbe: {
      if (FaultInjector::instance().should_fire(FaultSite::kServeProbeFail)) {
        // Recovery-flapping fault: the probe dies before reaching the
        // scheduler, which re-opens the breaker (cooldown restarts).
        m->breaker->record_probe(CircuitBreaker::Outcome::kFailure);
        m->sched->metrics().record_shed(ShedReason::kBreakerOpen,
                                        sub.priority);
        return Status::unavailable("model '" + name +
                                   "' half-open probe failed "
                                   "(serve.probe_fail)");
      }
      SubmitOptions s = sub;
      s.probe = true;
      StatusOr<std::future<InferResponse>> r =
          m->sched->submit(std::move(input), s);
      // A probe rejected at admission never executed: release its slot so
      // the next arrival can probe instead of waiting on a lost outcome.
      if (!r.ok()) m->breaker->cancel_probe();
      return r;
    }
    case CircuitBreaker::Decision::kReject:
      if (m->mode == BreakerMode::kFastFail) {
        m->sched->metrics().record_shed(ShedReason::kBreakerOpen,
                                        sub.priority);
        return Status::unavailable("model '" + name + "' is unavailable (" +
                                   m->breaker->describe() + ")");
      }
      return submit_fallback(*m, std::move(input), sub);
  }
  return Status::internal("unreachable breaker decision");
}

StatusOr<std::future<InferResponse>> ModelServer::submit_fallback(
    Model& m, Tensor<i8> input, const SubmitOptions& sub) {
  auto promise = std::make_shared<std::promise<InferResponse>>();
  std::future<InferResponse> fut = promise->get_future();
  {
    MutexLock lock(fallback_mu_);
    ++fallback_inflight_;
  }
  const Clock::time_point admitted = Clock::now();
  const ModelSpec* spec = m.spec;
  ServeMetrics* metrics = &m.sched->metrics();
  pool_->submit([this, promise, spec, metrics, sub, admitted,
                 input = std::move(input)]() mutable {
    InferResponse resp;
    resp.tenant = sub.tenant;
    resp.priority = sub.priority;
    const Clock::time_point start = Clock::now();
    if (sub.deadline != kNoDeadline && start >= sub.deadline) {
      resp.status =
          Status::deadline_exceeded("expired before fallback execution");
      metrics->record_expired(sub.priority);
    } else {
      // The always-works rung: no prepacked plan, no specialized kernel —
      // the reference path the PR-1 fallback ladder bottoms out on.
      StatusOr<core::ArmLayerResult> r = core::run_arm_conv(
          spec->shape, input, spec->weight, spec->bits, spec->impl,
          armkern::ConvAlgo::kReference, spec->threads);
      const Clock::time_point done = Clock::now();
      if (r.ok()) {
        core::ArmLayerResult res = std::move(r).value();
        resp.output = std::move(res.out);
        resp.model_seconds = res.seconds;
        resp.batch_size = 1;
        resp.executed_algo = res.executed_algo;
        resp.fallback = std::move(res.fallback);
        metrics->record_fallback_served();
      } else {
        resp.status = r.status();
      }
      resp.latency_s = seconds_between(admitted, done);
      metrics->record_completion(0.0, resp.latency_s, resp.status.ok(), done,
                                 sub.priority);
    }
    if (resp.latency_s == 0)
      resp.latency_s = seconds_between(admitted, Clock::now());
    promise->set_value(std::move(resp));
    MutexLock lock(fallback_mu_);
    --fallback_inflight_;
    fallback_cv_.notify_all();
  });
  return fut;
}

void ModelServer::shutdown() {
  std::vector<Model*> models;
  {
    MutexLock lock(mu_);
    stopping_ = true;
    models.reserve(models_.size());
    for (auto& [name, model] : models_) models.push_back(model.get());
  }
  // Scheduler shutdown is idempotent and asserts its own liveness contract
  // (no admitted request left unresolved).
  for (Model* m : models) m->sched->shutdown();
  MutexLock lock(fallback_mu_);
  while (fallback_inflight_ != 0) fallback_cv_.wait(fallback_mu_);
}

std::vector<std::string> ModelServer::model_names() const {
  MutexLock lock(mu_);
  std::vector<std::string> names;
  names.reserve(models_.size());
  for (const auto& [name, model] : models_) names.push_back(name);
  return names;
}

CircuitBreaker* ModelServer::breaker(const std::string& name) {
  MutexLock lock(mu_);
  Model* m = find_model(name);
  if (m != nullptr) return m->breaker.get();
  GraphModel* g = find_graph_model(name);
  return g == nullptr ? nullptr : g->breaker.get();
}

ServeMetrics* ModelServer::graph_metrics(const std::string& name) {
  MutexLock lock(mu_);
  GraphModel* g = find_graph_model(name);
  return g == nullptr ? nullptr : &g->metrics;
}

BatchScheduler* ModelServer::scheduler(const std::string& name) {
  MutexLock lock(mu_);
  Model* m = find_model(name);
  return m == nullptr ? nullptr : m->sched.get();
}

std::vector<ModelHealth> ModelServer::health_snapshot() const {
  // Collect the component pointers under mu_, then snapshot each component
  // outside it: breaker and metrics take their own locks, and holding mu_
  // across them would order it against every per-request lock for no gain.
  // Pointers stay valid — models are never removed while the server lives.
  std::vector<const Model*> models;
  std::vector<const GraphModel*> gmodels;
  {
    MutexLock lock(mu_);
    models.reserve(models_.size());
    for (const auto& [name, model] : models_) models.push_back(model.get());
    gmodels.reserve(graph_models_.size());
    for (const auto& [name, model] : graph_models_)
      gmodels.push_back(model.get());
  }
  std::vector<ModelHealth> out;
  out.reserve(models.size() + gmodels.size());
  for (const Model* m : models) {
    ModelHealth h;
    h.name = m->name;
    h.backend = m->spec->backend;
    h.breaker_state = m->breaker->state();
    h.breaker_trips = m->breaker->trips();
    h.last_transition = m->breaker->last_transition();
    h.metrics = m->sched->metrics().snapshot();
    out.push_back(std::move(h));
  }
  for (const GraphModel* m : gmodels) {
    ModelHealth h;
    h.name = m->name;
    h.backend = core::Backend::kArmCortexA53;  // graph runtime = emulated ARM
    h.breaker_state = m->breaker->state();
    h.breaker_trips = m->breaker->trips();
    h.last_transition = m->breaker->last_transition();
    h.metrics = m->metrics.snapshot();
    out.push_back(std::move(h));
  }
  std::sort(out.begin(), out.end(),
            [](const ModelHealth& a, const ModelHealth& b) {
              return a.name < b.name;
            });
  return out;
}

}  // namespace lbc::serve
