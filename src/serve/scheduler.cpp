#include "serve/scheduler.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "common/fault_injection.h"

namespace lbc::serve {

namespace {

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::string shape4_str(const Shape4& sh) {
  return std::to_string(sh.n) + "x" + std::to_string(sh.c) + "x" +
         std::to_string(sh.h) + "x" + std::to_string(sh.w);
}

}  // namespace

StatusOr<std::unique_ptr<BatchScheduler>> BatchScheduler::create(
    const ConvShape& shape, Tensor<i8> weight, const SchedulerOptions& opt,
    ThreadPool* pool) {
  LBC_VALIDATE(shape.valid(), kInvalidArgument,
               "invalid conv shape: " << describe(shape));
  LBC_VALIDATE(shape.batch == 1, kInvalidArgument,
               "the scheduler serves batch-1 requests; the layer shape must "
               "have batch 1, got "
                   << shape.batch);
  LBC_VALIDATE(opt.bits >= 2 && opt.bits <= 8, kInvalidArgument,
               "bits must be in [2, 8], got " << opt.bits);
  const Shape4 want_w{shape.out_c, shape.in_c, shape.kernel, shape.kernel};
  LBC_VALIDATE(weight.shape() == want_w, kInvalidArgument,
               "weight tensor is " << shape4_str(weight.shape())
                                   << " but the layer needs "
                                   << shape4_str(want_w));
  LBC_VALIDATE(opt.max_batch >= 1 && opt.max_batch <= 64, kInvalidArgument,
               "max_batch must be in [1, 64], got " << opt.max_batch);
  LBC_VALIDATE(opt.max_wait_us >= 0, kInvalidArgument,
               "max_wait_us must be >= 0, got " << opt.max_wait_us);
  LBC_VALIDATE(opt.queue_capacity >= 1, kInvalidArgument,
               "queue_capacity must be >= 1");
  LBC_VALIDATE(opt.max_inflight_batches >= 1, kInvalidArgument,
               "max_inflight_batches must be >= 1, got "
                   << opt.max_inflight_batches);
  LBC_VALIDATE(opt.conv_threads >= 1 && opt.conv_threads <= 64,
               kInvalidArgument,
               "conv_threads must be in [1, 64], got " << opt.conv_threads);
  for (const auto& [tenant, weight_v] : opt.tenant_weights)
    LBC_VALIDATE(weight_v > 0, kInvalidArgument,
                 "tenant " << tenant << " weight must be > 0, got "
                           << weight_v);
  return std::unique_ptr<BatchScheduler>(
      new BatchScheduler(shape, std::move(weight), opt,
                         pool != nullptr ? pool : &ThreadPool::global()));
}

BatchScheduler::BatchScheduler(const ConvShape& shape, Tensor<i8> weight,
                               const SchedulerOptions& opt, ThreadPool* pool)
    : shape_(shape), weight_(std::move(weight)), opt_(opt), pool_(pool) {
  // Compile the layer's plan once, before any request arrives: the fallback
  // ladder resolves and the weights prepack here, so per-batch work is pure
  // execution. A compile fault degrades inside planning to a reference-rung
  // plan the cache does not keep, so each batch looks the plan up again.
  StatusOr<std::shared_ptr<const core::ConvPlan>> p = lookup_plan();
  if (p.ok()) plan_ = std::move(p).value();
  dispatcher_ = std::thread([this] { dispatcher_main(); });
}

BatchScheduler::~BatchScheduler() { shutdown(); }

StatusOr<std::shared_ptr<const core::ConvPlan>> BatchScheduler::lookup_plan() {
  if (opt_.plan_source) return opt_.plan_source();
  return plan_cache_.get_or_compile(shape_, weight_, opt_.bits, opt_.impl,
                                    opt_.algo, opt_.conv_threads,
                                    opt_.backend);
}

double BatchScheduler::tenant_weight(int tenant) const {
  const auto it = opt_.tenant_weights.find(tenant);
  return it == opt_.tenant_weights.end() ? 1.0 : it->second;
}

BatchScheduler::Pending BatchScheduler::pop_next_locked() {
  for (ClassQueue& cq : classes_) {
    if (cq.size == 0) continue;
    // Start-time fair queueing: serve the non-empty lane with the smallest
    // virtual finish time. Tie-break on tenant id so the order is
    // deterministic (unordered_map iteration is not).
    TenantLane* best = nullptr;
    int best_tenant = 0;
    for (auto& [tenant, lane] : cq.tenants) {
      if (lane.q.empty()) continue;
      if (best == nullptr || lane.vfinish < best->vfinish ||
          (lane.vfinish == best->vfinish && tenant < best_tenant)) {
        best = &lane;
        best_tenant = tenant;
      }
    }
    LBC_CHECK(best != nullptr);
    Pending p = std::move(best->q.front());
    best->q.pop_front();
    --cq.size;
    --queued_;
    cq.vclock = best->vfinish;
    best->vfinish += 1.0 / tenant_weight(best_tenant);
    return p;
  }
  LBC_CHECK_MSG(false, "pop_next_locked on an empty queue");
  return Pending{};  // unreachable
}

void BatchScheduler::head_info_locked(Clock::time_point* admitted,
                                      Clock::time_point* deadline) const {
  const Pending* oldest = nullptr;
  for (const ClassQueue& cq : classes_) {
    for (const auto& [tenant, lane] : cq.tenants) {
      if (lane.q.empty()) continue;
      const Pending& head = lane.q.front();
      if (oldest == nullptr || head.admitted < oldest->admitted) oldest = &head;
    }
  }
  LBC_CHECK(oldest != nullptr);
  *admitted = oldest->admitted;
  *deadline = oldest->req.deadline;
}

bool BatchScheduler::displace_lowest_locked(Priority arriving,
                                            Pending* victim) {
  for (int c = kNumPriorities - 1; c > static_cast<int>(arriving); --c) {
    ClassQueue& cq = classes_[static_cast<size_t>(c)];
    if (cq.size == 0) continue;
    // Shed the most recently admitted request of the class: it has waited
    // least, so displacing it wastes the least queueing investment.
    TenantLane* newest = nullptr;
    for (auto& [tenant, lane] : cq.tenants) {
      if (lane.q.empty()) continue;
      if (newest == nullptr || lane.q.back().admitted > newest->q.back().admitted)
        newest = &lane;
    }
    LBC_CHECK(newest != nullptr);
    *victim = std::move(newest->q.back());
    newest->q.pop_back();
    --cq.size;
    --queued_;
    return true;
  }
  return false;
}

void BatchScheduler::resolve(Pending& p, InferResponse resp) {
  resp.id = p.req.id;
  resp.tenant = p.req.tenant;
  resp.priority = p.req.priority;
  resp.probe = p.req.probe;
  // Hook first, future second: when a client wakes from future.get(), the
  // server-side observers (circuit breaker, server metrics) have already
  // seen the outcome.
  if (opt_.on_complete) opt_.on_complete(resp);
  p.promise.set_value(std::move(resp));
  // Count under mu_ and wake shutdown(): its no-request-left-unresolved
  // wait needs the admitted == resolved transition to be cv-visible.
  MutexLock lock(mu_);
  ++resolved_count_;
  drain_cv_.notify_all();
}

StatusOr<std::future<InferResponse>> BatchScheduler::submit(
    Tensor<i8> input, Clock::time_point deadline) {
  SubmitOptions sub;
  sub.deadline = deadline;
  return submit(std::move(input), sub);
}

StatusOr<std::future<InferResponse>> BatchScheduler::submit(
    Tensor<i8> input, const SubmitOptions& sub) {
  const Shape4 want{1, shape_.in_c, shape_.in_h, shape_.in_w};
  LBC_VALIDATE(input.shape() == want, kInvalidArgument,
               "request tensor is " << shape4_str(input.shape())
                                    << " but the served layer needs "
                                    << shape4_str(want));
  const int pri = static_cast<int>(sub.priority);
  LBC_VALIDATE(pri >= 0 && pri < kNumPriorities, kInvalidArgument,
               "priority out of range: " << pri);

  MutexLock lock(mu_);
  LBC_VALIDATE(!stopping_, kFailedPrecondition,
               "submit() after shutdown()");
  Pending displaced;
  bool have_victim = false;
  if (queued_ >= opt_.queue_capacity) {
    // Graceful shedding: make room by evicting strictly-lower-priority
    // queued work; only reject the arrival when there is none.
    have_victim = displace_lowest_locked(sub.priority, &displaced);
    if (!have_victim) {
      lock.unlock();
      metrics_.record_shed(ShedReason::kQueueFull, sub.priority);
      return Status::overloaded(
          "serving queue is full (" + std::to_string(opt_.queue_capacity) +
          " waiting requests) and no lower-priority work to shed; apply "
          "backpressure and retry");
    }
  }
  Pending p;
  p.req.id = next_id_++;
  p.req.input = std::move(input);
  p.req.deadline = sub.deadline;
  p.req.tenant = sub.tenant;
  p.req.priority = sub.priority;
  p.req.probe = sub.probe;
  p.admitted = Clock::now();
  std::future<InferResponse> fut = p.promise.get_future();
  metrics_.record_admitted(p.admitted);
  ++admitted_count_;
  ClassQueue& cq = classes_[static_cast<size_t>(pri)];
  TenantLane& lane = cq.tenants[sub.tenant];
  // Re-activating an idle lane: advance its clock to the class clock so a
  // lane that sat out a busy period cannot claim the backlog it skipped.
  if (lane.q.empty() && lane.vfinish < cq.vclock) lane.vfinish = cq.vclock;
  lane.q.push_back(std::move(p));
  ++cq.size;
  ++queued_;
  lock.unlock();

  if (have_victim) {
    metrics_.record_shed(ShedReason::kDisplaced, displaced.req.priority);
    InferResponse resp;
    resp.status = Status::overloaded(
        "shed: displaced by a higher-priority arrival while queued");
    resp.queue_wait_s = seconds_between(displaced.admitted, Clock::now());
    resp.latency_s = resp.queue_wait_s;
    resolve(displaced, std::move(resp));
  }
  queue_cv_.notify_one();
  return fut;
}

void BatchScheduler::dispatcher_main() {
  MutexLock lock(mu_);
  for (;;) {
    while (!stopping_ && queued_ == 0) queue_cv_.wait(mu_);
    if (queued_ == 0) {
      if (stopping_) break;
      continue;
    }

    // Execution backpressure: past max_inflight_batches the dispatcher
    // stalls, overload backs up into the bounded admission queue, and
    // submit() starts shedding — latency stays bounded end to end.
    while (inflight_batches_ >= static_cast<i64>(opt_.max_inflight_batches))
      drain_cv_.wait(mu_);
    if (queued_ == 0) {
      if (stopping_) break;
      continue;  // a fail-pending shutdown drained the queue while we waited
    }

    // Coalescing window: hold the head request at most max_wait_us while
    // peers arrive; a full batch (or shutdown drain) leaves immediately.
    if (queued_ < static_cast<size_t>(opt_.max_batch) && !stopping_) {
      Clock::time_point head_admitted, head_deadline;
      head_info_locked(&head_admitted, &head_deadline);
      Clock::time_point wait_until =
          head_admitted + std::chrono::microseconds(opt_.max_wait_us);
      // No point holding the window open past the head's own deadline.
      if (head_deadline < wait_until) wait_until = head_deadline;
      while (!stopping_ &&
             queued_ < static_cast<size_t>(opt_.max_batch)) {
        if (queue_cv_.wait_until(mu_, wait_until) == std::cv_status::timeout)
          break;
      }
    }
    if (queued_ == 0) {
      if (stopping_) break;
      continue;
    }

    // Batch formation: WFQ order across tenants, strict priority across
    // classes; expired requests are dropped (and answered) here, before any
    // device time is spent on them.
    const Clock::time_point formed = Clock::now();
    std::vector<Pending> batch;
    std::vector<Pending> expired;
    while (queued_ > 0 && static_cast<int>(batch.size()) < opt_.max_batch) {
      Pending p = pop_next_locked();
      if (p.req.deadline != kNoDeadline && formed > p.req.deadline)
        expired.push_back(std::move(p));
      else
        batch.push_back(std::move(p));
    }
    if (!batch.empty()) ++inflight_batches_;
    lock.unlock();

    for (Pending& p : expired) {
      metrics_.record_expired(p.req.priority);
      InferResponse resp;
      resp.status = Status::deadline_exceeded(
          "request expired after " +
          std::to_string(seconds_between(p.admitted, formed) * 1e3) +
          " ms in queue");
      resp.queue_wait_s = seconds_between(p.admitted, formed);
      resp.latency_s = resp.queue_wait_s;
      resolve(p, std::move(resp));
    }

    if (!batch.empty()) {
      metrics_.record_batch(static_cast<int>(batch.size()));
      // shared_ptr because std::function requires a copyable callable and
      // Pending (promise) is move-only.
      auto shared = std::make_shared<std::vector<Pending>>(std::move(batch));
      pool_->submit([this, shared, formed] {
        run_batch(std::move(*shared), formed);
      });
    }
    lock.lock();
  }
}

void BatchScheduler::run_batch(std::vector<Pending> batch,
                               Clock::time_point formed) {
  const int bs = static_cast<int>(batch.size());
  std::vector<Tensor<i8>> inputs;
  inputs.reserve(batch.size());
  for (Pending& p : batch) inputs.push_back(std::move(p.req.input));

  Status batch_status;
  core::BatchedArmResult result;
  try {
    // serve.exec_delay: a stalled device / page-fault storm. The batch
    // still succeeds, but it holds an in-flight slot long enough that
    // queued peers blow their deadlines — the overload signal the
    // deadline-miss breaker watches for.
    if (FaultInjector::instance().should_fire(FaultSite::kServeExecDelay))
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
    // serve.worker_throw: a batch worker dying mid-execution (OOM kill of a
    // buffer, a bug in a kernel rung) must cost this batch only.
    if (FaultInjector::instance().should_fire(FaultSite::kServeWorkerThrow))
      throw std::runtime_error("batch worker fault (injected)");
    // Plan lookup: warmed at create(), so this is a cache hit on the hot
    // path (and a recompile after a fault-degraded compile or a registry
    // eviction). Each pool worker thread owns one Workspace arena, reused
    // across every batch it executes — steady-state serving does zero conv
    // allocations.
    StatusOr<std::shared_ptr<const core::ConvPlan>> plan = lookup_plan();
    static thread_local Workspace worker_ws;
    StatusOr<core::BatchedArmResult> r =
        plan.ok() ? core::execute_arm_conv_batched(**plan, inputs, worker_ws)
                  : StatusOr<core::BatchedArmResult>(plan.status());
    if (r.ok())
      result = std::move(r).value();
    else
      batch_status = Status(r.status())
                         .with_context("micro-batch of " + std::to_string(bs));
  } catch (const std::exception& e) {
    batch_status =
        Status::internal(std::string("serve worker threw: ") + e.what());
  } catch (...) {
    batch_status = Status::internal("serve worker threw a non-exception");
  }

  const Clock::time_point done = Clock::now();
  for (size_t i = 0; i < batch.size(); ++i) {
    Pending& p = batch[i];
    InferResponse resp;
    resp.status = batch_status;
    resp.queue_wait_s = seconds_between(p.admitted, formed);
    resp.latency_s = seconds_between(p.admitted, done);
    resp.batch_size = bs;
    if (batch_status.ok()) {
      resp.output = std::move(result.outputs[i]);
      resp.model_seconds = result.seconds;
      resp.executed_algo = result.executed_algo;
      resp.fallback = result.fallback;
    }
    metrics_.record_completion(resp.queue_wait_s, resp.latency_s,
                               batch_status.ok(), done, p.req.priority);
    resolve(p, std::move(resp));
  }

  // Every decrement is a wakeup: the dispatcher may be stalled on the
  // in-flight bound, and shutdown() waits for zero.
  MutexLock lock(mu_);
  --inflight_batches_;
  drain_cv_.notify_all();
}

void BatchScheduler::shutdown() {
  std::vector<Pending> drained;
  {
    MutexLock lock(mu_);
    stopping_ = true;
    if (opt_.shutdown_policy == ShutdownPolicy::kFailPending &&
        queued_ > 0) {
      // Drain by answering, not executing: every queued request gets an
      // explicit kShuttingDown instead of device time (or — the bug this
      // policy exists to make impossible — a silently dropped promise).
      drained.reserve(queued_);
      while (queued_ > 0) drained.push_back(pop_next_locked());
    }
  }
  const Clock::time_point now = Clock::now();
  for (Pending& p : drained) {
    metrics_.record_shed(ShedReason::kShutdown, p.req.priority);
    InferResponse resp;
    resp.status = Status::shutting_down(
        "scheduler shut down before the request reached a batch");
    resp.queue_wait_s = seconds_between(p.admitted, now);
    resp.latency_s = resp.queue_wait_s;
    resolve(p, std::move(resp));
  }
  queue_cv_.notify_all();
  {
    // Serialize the join: shutdown() may be called again (destructor after
    // an explicit shutdown, or from another thread).
    MutexLock lock(join_mu_);
    if (dispatcher_.joinable()) dispatcher_.join();
  }
  // The dispatcher drained the queue before exiting; now wait for the
  // batches it handed to the pool — and for every admitted request to be
  // answered (executed, expired, displaced, or drained). No request is
  // EVER left unresolved; a dropped promise would hang a client, so a
  // resolution count that cannot catch up is a library bug.
  MutexLock lock(mu_);
  while (inflight_batches_ != 0 || admitted_count_ != resolved_count_)
    drain_cv_.wait(mu_);
  LBC_CHECK(queued_ == 0);
  LBC_CHECK_MSG(admitted_count_ == resolved_count_,
                "scheduler shutdown left admitted requests unresolved");
}

}  // namespace lbc::serve
