// Dynamic micro-batching scheduler: the request path of the serving
// runtime. One scheduler instance serves one quantized conv layer (shape +
// weights fixed at creation, the "model instance"); callers submit batch-1
// activations and receive futures.
//
// Policy (all configurable):
//  * Admission — a bounded queue with graceful shedding. The queue is a
//    two-level structure: priority classes (interactive > standard > batch)
//    and, inside each class, per-tenant weighted-fair lanes (start-time fair
//    queueing: the non-empty lane with the smallest virtual finish time is
//    served next; a lane's clock advances by 1/weight per request, and an
//    idle lane re-activates at the class clock so it cannot hoard credit).
//    submit() on a full queue sheds the *lowest-priority, most recently
//    admitted* queued request strictly below the arrival's class (answered
//    kOverloaded, counted as displaced) before admitting; when nothing
//    lower-priority is queued, the arrival itself is rejected kOverloaded.
//  * Coalescing — the dispatcher takes the oldest waiting request and
//    collects peers until the batch reaches max_batch OR the head request
//    has waited max_wait_us. A full batch leaves immediately; a lone
//    request leaves after at most max_wait_us. max_batch = 1 disables
//    batching (the serial baseline the bench compares against).
//  * Deadlines — a request whose deadline passed while queued is dropped at
//    batch formation with kDeadlineExceeded and counted (metrics.expired);
//    it never wastes device time.
//  * Execution — each micro-batch is submitted to the shared ThreadPool and
//    runs against the layer's compiled ConvPlan (weights prepacked once at
//    create(); the plan is immutable and shared by every in-flight batch)
//    via core::execute_arm_conv_batched — one conv with batch = K, with all
//    activation scratch drawn from a per-worker-thread Workspace arena.
//    Plans come from the scheduler's own PlanCache or, when opt.plan_source
//    is set, from an external provider (the ModelRegistry's memory-budgeted
//    cache) — eviction there is safe because every batch holds its own
//    shared_ptr for the duration of execution. A plan-compile fault yields
//    a reference-rung plan the cache does not keep; its batches stay
//    bit-exact and report the degradation in InferResponse::fallback.
//  * Shutdown — submit() returns kFailedPrecondition after shutdown(). What
//    happens to already-queued requests is the shutdown_policy:
//    kExecutePending (default) executes them; kFailPending answers each
//    with an explicit kShuttingDown status. Either way NO request is ever
//    left unresolved — the scheduler asserts admitted == resolved before
//    shutdown() returns (a dropped promise is a library bug, not a silent
//    client hang).
//
// Fault handling: the batch worker consults the serve.worker_throw and
// serve.exec_delay injection sites; an exception thrown mid-batch is
// caught, every request of that batch is answered kInternal, and the
// pool/dispatcher keep serving — a poisoned batch costs its own requests,
// never the runtime. Every resolution (completion, expiry, displacement,
// shutdown drain) is reported through the optional on_complete hook before
// the future is set — the server front end feeds circuit breakers from it.
#pragma once

#include <array>
#include <atomic>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <unordered_map>

#include "common/conv_shape.h"
#include "common/thread_annotations.h"
#include "core/conv_plan.h"
#include "core/engine.h"
#include "serve/metrics.h"
#include "serve/request.h"
#include "serve/thread_pool.h"

namespace lbc::serve {

/// What shutdown() does with requests still waiting in the admission queue.
enum class ShutdownPolicy {
  kExecutePending,  ///< drain by executing every queued request
  kFailPending,     ///< drain by answering each with kShuttingDown
};

struct SchedulerOptions {
  int max_batch = 8;           ///< coalescing cap; 1 = no batching
  i64 max_wait_us = 200;       ///< max head-of-line wait for peers
  size_t queue_capacity = 64;  ///< admission bound (shed/reject past it)
  int max_inflight_batches = 4;  ///< batches executing/queued on the pool;
                                 ///< the dispatcher stalls past this, so
                                 ///< overload backs up into the bounded
                                 ///< queue instead of the pool
  int bits = 8;
  /// Execution backend for every batch: the default emulated Cortex-A53
  /// (modeled cycles), or kNativeHost to run the HAL's x86 kernels on this
  /// machine (wall-clock seconds; impl/algo are ignored by the native path).
  core::Backend backend = core::Backend::kArmCortexA53;
  core::ArmImpl impl = core::ArmImpl::kOurs;
  armkern::ConvAlgo algo = armkern::ConvAlgo::kGemm;
  int conv_threads = 1;  ///< modeled ARM worker count inside a batch conv
  ShutdownPolicy shutdown_policy = ShutdownPolicy::kExecutePending;
  /// Per-tenant weighted-fair-queueing weights (default 1.0 for tenants not
  /// listed). A tenant with weight 2 receives twice the service of a
  /// weight-1 tenant when both classes are backlogged.
  std::map<int, double> tenant_weights;
  /// External plan provider (e.g. serve::ModelRegistry::acquire_plan).
  /// When unset the scheduler compiles into its own PlanCache.
  std::function<StatusOr<std::shared_ptr<const core::ConvPlan>>()> plan_source;
  /// Called once per resolved request — completion, expiry, displacement,
  /// or shutdown drain — BEFORE the response future is set, from whatever
  /// thread resolved it. Must be thread-safe; keep it cheap.
  std::function<void(const InferResponse&)> on_complete;
};

class BatchScheduler {
 public:
  /// Validates options/shape/weights. `pool` defaults to the process-wide
  /// ThreadPool::global(); pass a dedicated pool in tests.
  static StatusOr<std::unique_ptr<BatchScheduler>> create(
      const ConvShape& shape, Tensor<i8> weight, const SchedulerOptions& opt,
      ThreadPool* pool = nullptr);

  /// Resolves every queued request (per shutdown_policy), waits for
  /// in-flight batches, stops the dispatcher.
  ~BatchScheduler();

  BatchScheduler(const BatchScheduler&) = delete;
  BatchScheduler& operator=(const BatchScheduler&) = delete;

  /// Admit one request with explicit tenant/priority/deadline. Returns the
  /// response future, or kOverloaded when the queue is at capacity and
  /// nothing lower-priority could be shed, or kFailedPrecondition after
  /// shutdown(). The input must be a batch-1 tensor matching the served
  /// layer shape (kInvalidArgument otherwise).
  StatusOr<std::future<InferResponse>> submit(Tensor<i8> input,
                                              const SubmitOptions& sub)
      LBC_EXCLUDES(mu_);

  /// Tenant-0 standard-priority convenience (the pre-multi-tenant API).
  StatusOr<std::future<InferResponse>> submit(
      Tensor<i8> input, Clock::time_point deadline = kNoDeadline);

  /// Stop admitting, resolve everything already queued (execute or fail per
  /// shutdown_policy), wait for all in-flight batches. Idempotent; also run
  /// by the destructor. Asserts no admitted request was left unresolved.
  void shutdown() LBC_EXCLUDES(mu_);

  const ServeMetrics& metrics() const { return metrics_; }
  ServeMetrics& metrics() { return metrics_; }
  const ConvShape& shape() const { return shape_; }
  const SchedulerOptions& options() const { return opt_; }

  /// The plan compiled at create() (null only when that compile returned
  /// an error). Batches look their plan up per batch, through the cache.
  std::shared_ptr<const core::ConvPlan> plan() const { return plan_; }
  /// The scheduler's plan cache (hit/miss counters for the bench). Counts
  /// stay zero when an external plan_source serves the plans.
  const core::PlanCache& plan_cache() const { return plan_cache_; }

 private:
  BatchScheduler(const ConvShape& shape, Tensor<i8> weight,
                 const SchedulerOptions& opt, ThreadPool* pool);

  struct Pending {
    InferRequest req;
    std::promise<InferResponse> promise;
    Clock::time_point admitted;
  };

  /// One tenant's FIFO inside a priority class, with its SFQ virtual clock.
  struct TenantLane {
    std::deque<Pending> q;
    double vfinish = 0;  ///< virtual finish time of the lane's next unit
  };
  struct ClassQueue {
    std::unordered_map<int, TenantLane> tenants;
    size_t size = 0;     ///< queued requests across all lanes
    double vclock = 0;   ///< virtual time of the last dequeue
  };

  double tenant_weight(int tenant) const;
  /// Dequeue the WFQ-next request (highest non-empty class, min-vfinish
  /// lane). Caller holds mu_ and guarantees queued_ > 0.
  Pending pop_next_locked() LBC_REQUIRES(mu_);
  /// Admitted/deadline of the oldest queued request. Caller holds mu_.
  void head_info_locked(Clock::time_point* admitted,
                        Clock::time_point* deadline) const LBC_REQUIRES(mu_);
  /// Remove the most recently admitted request from the lowest priority
  /// class strictly below `arriving`. Caller holds mu_.
  bool displace_lowest_locked(Priority arriving, Pending* victim)
      LBC_REQUIRES(mu_);

  /// Set the response (tenant/priority/probe stamped from the request),
  /// fire on_complete, fulfill the promise, count the resolution.
  void resolve(Pending& p, InferResponse resp) LBC_EXCLUDES(mu_);

  /// The batch's plan: opt_.plan_source when set, else the own PlanCache.
  StatusOr<std::shared_ptr<const core::ConvPlan>> lookup_plan();

  void dispatcher_main() LBC_EXCLUDES(mu_);
  void run_batch(std::vector<Pending> batch, Clock::time_point formed)
      LBC_EXCLUDES(mu_);

  ConvShape shape_;
  Tensor<i8> weight_;
  SchedulerOptions opt_;
  ThreadPool* pool_;
  ServeMetrics metrics_;
  core::PlanCache plan_cache_;  ///< per-layer plan cache; warmed at create()
  std::shared_ptr<const core::ConvPlan> plan_;  ///< immutable, batch-shared

  Mutex mu_;
  CondVar queue_cv_;  ///< dispatcher: work arrived / stop
  CondVar drain_cv_;  ///< shutdown: in-flight reached zero
  std::array<ClassQueue, kNumPriorities> classes_ LBC_GUARDED_BY(mu_);
  /// Total requests across classes_.
  size_t queued_ LBC_GUARDED_BY(mu_) = 0;
  i64 inflight_batches_ LBC_GUARDED_BY(mu_) = 0;
  /// No new admissions; dispatcher drains and exits.
  bool stopping_ LBC_GUARDED_BY(mu_) = false;
  u64 next_id_ LBC_GUARDED_BY(mu_) = 1;

  /// Futures handed out.
  i64 admitted_count_ LBC_GUARDED_BY(mu_) = 0;
  /// Promises fulfilled.
  i64 resolved_count_ LBC_GUARDED_BY(mu_) = 0;

  Mutex join_mu_;  ///< serializes shutdown()'s dispatcher join
  std::thread dispatcher_;
};

}  // namespace lbc::serve
