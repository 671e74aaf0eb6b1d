// Micro-batching scheduler: coalescing policy (max-batch / max-wait),
// bit-exactness vs serial execution, admission control (kOverloaded),
// deadline expiry, worker-fault recovery, shutdown semantics.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "common/fault_injection.h"
#include "common/rng.h"
#include "refconv/conv_ref.h"
#include "serve/scheduler.h"

namespace lbc::serve {
namespace {

using namespace std::chrono_literals;

ConvShape test_shape() {
  ConvShape s;
  s.name = "serve-test";
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

Tensor<i8> test_weight(const ConvShape& s, int bits = 8, u64 seed = 7) {
  return random_qtensor(Shape4{s.out_c, s.in_c, s.kernel, s.kernel}, bits,
                        seed);
}

std::unique_ptr<BatchScheduler> make_scheduler(const SchedulerOptions& opt,
                                               ThreadPool* pool = nullptr) {
  const ConvShape s = test_shape();
  auto r = BatchScheduler::create(s, test_weight(s, opt.bits), opt, pool);
  EXPECT_TRUE(r.ok()) << r.status().to_string();
  return std::move(r).value();
}

TEST(Scheduler, CreateValidatesOptions) {
  const ConvShape s = test_shape();
  SchedulerOptions opt;

  opt.bits = 1;
  EXPECT_EQ(BatchScheduler::create(s, test_weight(s), opt).status().code(),
            StatusCode::kInvalidArgument);
  opt.bits = 8;

  opt.max_batch = 0;
  EXPECT_EQ(BatchScheduler::create(s, test_weight(s), opt).status().code(),
            StatusCode::kInvalidArgument);
  opt.max_batch = 8;

  opt.max_inflight_batches = 0;
  EXPECT_EQ(BatchScheduler::create(s, test_weight(s), opt).status().code(),
            StatusCode::kInvalidArgument);
  opt.max_inflight_batches = 4;

  // Weight tensor that does not match the layer.
  EXPECT_EQ(BatchScheduler::create(
                s, Tensor<i8>(Shape4{1, 1, 3, 3}), opt)
                .status()
                .code(),
            StatusCode::kInvalidArgument);

  // The served geometry must be batch-1.
  EXPECT_EQ(BatchScheduler::create(s.with_batch(4), test_weight(s), opt)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(Scheduler, BatchedResultsBitExactVsSerialSingleRequest) {
  const ConvShape s = test_shape();
  const Tensor<i8> w = test_weight(s);
  SchedulerOptions opt;
  opt.max_batch = 6;
  opt.max_wait_us = 2'000'000;  // leave only when the batch is full
  auto sched = make_scheduler(opt);

  std::vector<Tensor<i8>> inputs;
  std::vector<std::future<InferResponse>> futs;
  for (u64 i = 0; i < 6; ++i) {
    inputs.push_back(
        random_qtensor(Shape4{1, s.in_c, s.in_h, s.in_w}, 8, 100 + i));
    auto r = sched->submit(inputs.back());
    ASSERT_TRUE(r.ok()) << r.status().to_string();
    futs.push_back(std::move(r).value());
  }

  for (size_t i = 0; i < futs.size(); ++i) {
    InferResponse resp = futs[i].get();
    ASSERT_TRUE(resp.status.ok()) << resp.status.to_string();
    EXPECT_EQ(resp.batch_size, 6);
    EXPECT_GT(resp.model_seconds, 0);
    // Oracle: the same request executed alone, serially.
    const core::ArmLayerResult serial =
        core::run_arm_conv(s, inputs[i], w, 8).value();
    EXPECT_EQ(count_mismatches(serial.out, resp.output), 0)
        << "request " << i << " diverged from its serial execution";
  }

  const MetricsSnapshot m = sched->metrics().snapshot();
  EXPECT_EQ(m.completed, 6);
  EXPECT_EQ(m.batches, 1);
  EXPECT_DOUBLE_EQ(m.mean_batch, 6.0);
}

TEST(Scheduler, CoalescingHonorsMaxWait) {
  SchedulerOptions opt;
  opt.max_batch = 64;       // never fills
  opt.max_wait_us = 30'000; // 30 ms window
  auto sched = make_scheduler(opt);

  const ConvShape s = test_shape();
  const auto t0 = Clock::now();
  auto fut =
      sched->submit(random_qtensor(Shape4{1, s.in_c, s.in_h, s.in_w}, 8, 1))
          .value();
  InferResponse resp = fut.get();
  const double waited = std::chrono::duration<double>(Clock::now() - t0).count();

  ASSERT_TRUE(resp.status.ok()) << resp.status.to_string();
  EXPECT_EQ(resp.batch_size, 1);  // flushed by the window, not by peers
  // The lone request was held for the coalescing window before executing...
  EXPECT_GE(resp.queue_wait_s, 0.025);
  // ...but not (much) longer: the max-wait policy flushed it.
  EXPECT_LT(waited, 5.0);
}

TEST(Scheduler, FullBatchLeavesBeforeMaxWait) {
  SchedulerOptions opt;
  opt.max_batch = 4;
  opt.max_wait_us = 10'000'000;  // 10 s: only a full batch can leave early
  auto sched = make_scheduler(opt);

  const ConvShape s = test_shape();
  const auto t0 = Clock::now();
  std::vector<std::future<InferResponse>> futs;
  for (u64 i = 0; i < 4; ++i)
    futs.push_back(
        sched->submit(random_qtensor(Shape4{1, s.in_c, s.in_h, s.in_w}, 8, i))
            .value());
  for (auto& f : futs) {
    InferResponse resp = f.get();
    ASSERT_TRUE(resp.status.ok()) << resp.status.to_string();
    EXPECT_EQ(resp.batch_size, 4);
  }
  const double waited = std::chrono::duration<double>(Clock::now() - t0).count();
  EXPECT_LT(waited, 5.0) << "full batch should not wait out the window";
}

TEST(Scheduler, FullQueueRejectsWithOverloaded) {
  // Stall execution: a 1-thread pool occupied by a sleeper, and an
  // in-flight bound of 1, so the dispatcher forms one batch and then the
  // admission queue (capacity 2) fills up.
  ThreadPool pool(1);
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  pool.submit([gate] { gate.wait(); });

  SchedulerOptions opt;
  opt.max_batch = 1;
  opt.max_wait_us = 0;
  opt.queue_capacity = 2;
  opt.max_inflight_batches = 1;
  auto sched = make_scheduler(opt, &pool);

  const ConvShape s = test_shape();
  const auto input = [&](u64 seed) {
    return random_qtensor(Shape4{1, s.in_c, s.in_h, s.in_w}, 8, seed);
  };

  std::vector<std::future<InferResponse>> futs;
  futs.push_back(sched->submit(input(1)).value());
  // Let the dispatcher pull request 1 into its (stalled) batch.
  std::this_thread::sleep_for(100ms);
  futs.push_back(sched->submit(input(2)).value());
  futs.push_back(sched->submit(input(3)).value());

  // Queue is now at capacity: admission control must reject, not block.
  const auto rejected = sched->submit(input(4));
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kOverloaded);

  release.set_value();  // un-stall the pool; everything queued completes
  for (auto& f : futs) {
    InferResponse resp = f.get();
    EXPECT_TRUE(resp.status.ok()) << resp.status.to_string();
  }
  const MetricsSnapshot m = sched->metrics().snapshot();
  EXPECT_EQ(m.rejected, 1);
  EXPECT_EQ(m.completed, 3);
}

TEST(Scheduler, DeadlineExpiredRequestsAreDroppedAndCounted) {
  SchedulerOptions opt;
  opt.max_batch = 4;
  opt.max_wait_us = 100'000;  // the window is longer than the deadline
  auto sched = make_scheduler(opt);

  const ConvShape s = test_shape();
  // Request 1 expires almost immediately; request 2 has no deadline.
  auto doomed =
      sched
          ->submit(random_qtensor(Shape4{1, s.in_c, s.in_h, s.in_w}, 8, 1),
                   Clock::now() + 1ms)
          .value();
  auto healthy =
      sched->submit(random_qtensor(Shape4{1, s.in_c, s.in_h, s.in_w}, 8, 2))
          .value();

  InferResponse dr = doomed.get();
  EXPECT_EQ(dr.status.code(), StatusCode::kDeadlineExceeded)
      << dr.status.to_string();
  EXPECT_EQ(dr.output.elems(), 0) << "no device time for an expired request";

  InferResponse hr = healthy.get();
  EXPECT_TRUE(hr.status.ok()) << hr.status.to_string();

  const MetricsSnapshot m = sched->metrics().snapshot();
  EXPECT_EQ(m.expired, 1);
  EXPECT_EQ(m.completed, 1);
}

TEST(Scheduler, WorkerThrowFailsOnlyThatBatchAndPoolRecovers) {
  SchedulerOptions opt;
  opt.max_batch = 3;
  opt.max_wait_us = 5'000'000;  // leaves only when full (deterministic batch)
  auto sched = make_scheduler(opt);
  const ConvShape s = test_shape();
  const auto input = [&](u64 seed) {
    return random_qtensor(Shape4{1, s.in_c, s.in_h, s.in_w}, 8, seed);
  };

  std::vector<std::future<InferResponse>> futs;
  {
    ScopedFault fault(FaultSite::kServeWorkerThrow, /*fire_count=*/1);
    for (u64 i = 0; i < 3; ++i) futs.push_back(sched->submit(input(i)).value());
    for (auto& f : futs) {
      InferResponse resp = f.get();
      EXPECT_EQ(resp.status.code(), StatusCode::kInternal)
          << resp.status.to_string();
    }
  }

  // The runtime recovered: the next batch executes normally, no deadlock.
  futs.clear();
  for (u64 i = 10; i < 13; ++i) futs.push_back(sched->submit(input(i)).value());
  for (auto& f : futs) {
    InferResponse resp = f.get();
    EXPECT_TRUE(resp.status.ok()) << resp.status.to_string();
  }
  const MetricsSnapshot m = sched->metrics().snapshot();
  EXPECT_EQ(m.failed, 3);
  EXPECT_EQ(m.completed, 3);
}

TEST(Scheduler, SubmitRejectsWrongInputShapeAndAfterShutdown) {
  SchedulerOptions opt;
  auto sched = make_scheduler(opt);

  const auto bad = sched->submit(Tensor<i8>(Shape4{1, 1, 2, 2}));
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);

  sched->shutdown();
  const ConvShape s = test_shape();
  const auto late =
      sched->submit(random_qtensor(Shape4{1, s.in_c, s.in_h, s.in_w}, 8, 1));
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), StatusCode::kFailedPrecondition);
}

TEST(Scheduler, ShutdownDrainsQueuedRequests) {
  SchedulerOptions opt;
  opt.max_batch = 8;
  opt.max_wait_us = 1'000'000;
  auto sched = make_scheduler(opt);
  const ConvShape s = test_shape();

  std::vector<std::future<InferResponse>> futs;
  for (u64 i = 0; i < 5; ++i)
    futs.push_back(
        sched->submit(random_qtensor(Shape4{1, s.in_c, s.in_h, s.in_w}, 8, i))
            .value());
  sched->shutdown();  // must answer everything already admitted
  for (auto& f : futs) {
    InferResponse resp = f.get();
    EXPECT_TRUE(resp.status.ok()) << resp.status.to_string();
  }
  EXPECT_EQ(sched->metrics().snapshot().completed, 5);
}

TEST(Scheduler, ManyConcurrentClientsAllServed) {
  SchedulerOptions opt;
  opt.max_batch = 8;
  opt.max_wait_us = 500;
  opt.queue_capacity = 256;
  auto sched = make_scheduler(opt);
  const ConvShape s = test_shape();

  constexpr int kClients = 4, kPerClient = 8;
  std::atomic<int> ok{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c)
    clients.emplace_back([&, c] {
      for (int i = 0; i < kPerClient; ++i) {
        auto r = sched->submit(random_qtensor(
            Shape4{1, s.in_c, s.in_h, s.in_w}, 8,
            static_cast<u64>(c * 1000 + i)));
        if (!r.ok()) continue;  // capacity 256: should not happen
        if (std::move(r).value().get().status.ok()) ok.fetch_add(1);
      }
    });
  for (auto& t : clients) t.join();
  EXPECT_EQ(ok.load(), kClients * kPerClient);
  const MetricsSnapshot m = sched->metrics().snapshot();
  EXPECT_EQ(m.completed, kClients * kPerClient);
  EXPECT_EQ(m.rejected, 0);
  EXPECT_GT(m.batches, 0);
  EXPECT_GE(m.mean_batch, 1.0);
}

// The scheduler compiles its layer's plan once at create(); every batch is
// a plan-cache hit.
TEST(Scheduler, CompilesPlanAtCreateAndEveryBatchHits) {
  SchedulerOptions opt;
  opt.max_batch = 4;
  opt.max_wait_us = 100;
  auto sched = make_scheduler(opt);
  ASSERT_NE(sched->plan(), nullptr);
  EXPECT_GT(sched->plan()->packed_weight_bytes(), 0);
  EXPECT_EQ(sched->plan_cache().misses(), 1);

  const ConvShape s = test_shape();
  std::vector<std::future<InferResponse>> futs;
  for (u64 i = 0; i < 8; ++i) {
    auto r = sched->submit(
        random_qtensor(Shape4{1, s.in_c, s.in_h, s.in_w}, 8, 700 + i));
    ASSERT_TRUE(r.ok());
    futs.push_back(std::move(r).value());
  }
  for (auto& f : futs) EXPECT_TRUE(f.get().status.ok());
  sched->shutdown();

  const MetricsSnapshot m = sched->metrics().snapshot();
  EXPECT_EQ(m.completed, 8);
  EXPECT_GT(m.batches, 0);
  EXPECT_EQ(sched->plan_cache().misses(), 1) << "no per-batch recompiles";
  EXPECT_GE(sched->plan_cache().hits(), m.batches);
}

// plan.compile_fail at create(): the scheduler still serves. Planning
// degrades to the reference rung, which the cache does not keep, so every
// batch under a persistent fault answers bit-exact from that rung; once
// the fault clears, the next batch compiles and keeps the GEMM plan.
TEST(Scheduler, PlanCompileFaultFallsBackAndStaysBitExact) {
  const ConvShape s = test_shape();
  const Tensor<i8> w = test_weight(s);
  SchedulerOptions opt;
  opt.max_batch = 2;
  opt.max_wait_us = 100;

  std::unique_ptr<BatchScheduler> sched;
  {
    ScopedFault fault(FaultSite::kPlanCompileFail);  // persistent
    auto r = BatchScheduler::create(s, w, opt);
    ASSERT_TRUE(r.ok()) << r.status().to_string();
    sched = std::move(r).value();
    ASSERT_NE(sched->plan(), nullptr);
    EXPECT_EQ(sched->plan()->planned_algo(), armkern::ConvAlgo::kReference);
    EXPECT_TRUE(sched->plan()->impl_plan().fault_degraded);

    std::vector<Tensor<i8>> inputs;
    std::vector<std::future<InferResponse>> futs;
    for (u64 i = 0; i < 4; ++i) {
      inputs.push_back(
          random_qtensor(Shape4{1, s.in_c, s.in_h, s.in_w}, 8, 800 + i));
      auto sub = sched->submit(inputs.back());
      ASSERT_TRUE(sub.ok());
      futs.push_back(std::move(sub).value());
    }
    for (size_t i = 0; i < futs.size(); ++i) {
      InferResponse resp = futs[i].get();
      ASSERT_TRUE(resp.status.ok()) << resp.status.to_string();
      EXPECT_EQ(count_mismatches(ref::conv2d_s32(s, inputs[i], w),
                                 resp.output),
                0)
          << i;
      EXPECT_EQ(resp.executed_algo, "reference");
      EXPECT_TRUE(resp.fallback.fell_back);
    }
    EXPECT_EQ(sched->plan_cache().size(), 0) << "a degraded plan is not kept";
  }

  auto sub = sched->submit(
      random_qtensor(Shape4{1, s.in_c, s.in_h, s.in_w}, 8, 810));
  ASSERT_TRUE(sub.ok());
  const InferResponse healed = std::move(sub).value().get();
  ASSERT_TRUE(healed.status.ok()) << healed.status.to_string();
  EXPECT_EQ(healed.executed_algo, "gemm");
  EXPECT_FALSE(healed.fallback.fell_back);
  EXPECT_EQ(sched->plan_cache().size(), 1);
  sched->shutdown();
  EXPECT_EQ(sched->metrics().snapshot().completed, 5);
}

Tensor<i8> test_input(const ConvShape& s, u64 seed) {
  return random_qtensor(Shape4{1, s.in_c, s.in_h, s.in_w}, 8, seed);
}

// A full queue sheds the most recently admitted strictly-lower-priority
// request to admit an interactive arrival; when only equal-or-higher
// priority work is queued, the arrival itself is rejected.
TEST(SchedulerOverload, HigherPriorityDisplacesQueuedLowerPriority) {
  ThreadPool pool(1);
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  pool.submit([gate] { gate.wait(); });

  SchedulerOptions opt;
  opt.max_batch = 1;
  opt.max_wait_us = 0;
  opt.queue_capacity = 2;
  opt.max_inflight_batches = 1;
  auto sched = make_scheduler(opt, &pool);
  const ConvShape s = test_shape();

  SubmitOptions batch_sub;
  batch_sub.priority = Priority::kBatch;
  SubmitOptions inter_sub;
  inter_sub.priority = Priority::kInteractive;

  auto head = sched->submit(test_input(s, 1), batch_sub).value();
  std::this_thread::sleep_for(100ms);  // head enters the stalled batch
  auto b2 = sched->submit(test_input(s, 2), batch_sub).value();
  auto b3 = sched->submit(test_input(s, 3), batch_sub).value();

  // Queue full. An interactive arrival displaces b3 (newest batch-class).
  auto i1 = sched->submit(test_input(s, 4), inter_sub).value();
  ASSERT_EQ(b3.wait_for(0s), std::future_status::ready)
      << "displacement must resolve the victim immediately";
  InferResponse shed = b3.get();
  EXPECT_EQ(shed.status.code(), StatusCode::kOverloaded);
  EXPECT_EQ(shed.priority, Priority::kBatch);

  // Again: b2 is the remaining lower-priority work; it goes next.
  auto i2 = sched->submit(test_input(s, 5), inter_sub).value();
  EXPECT_EQ(b2.get().status.code(), StatusCode::kOverloaded);

  // Nothing strictly below interactive remains: the arrival is rejected.
  const auto rejected = sched->submit(test_input(s, 6), inter_sub);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kOverloaded);

  release.set_value();
  EXPECT_TRUE(head.get().status.ok());
  EXPECT_TRUE(i1.get().status.ok());
  EXPECT_TRUE(i2.get().status.ok());
  sched->shutdown();

  const MetricsSnapshot m = sched->metrics().snapshot();
  EXPECT_EQ(m.displaced, 2);
  EXPECT_EQ(m.rejected, 1);
  EXPECT_EQ(m.completed, 3);
  EXPECT_EQ(m.lanes[static_cast<size_t>(Priority::kBatch)].shed, 2);
  EXPECT_EQ(m.lanes[static_cast<size_t>(Priority::kInteractive)].shed, 1);
}

// Start-time fair queueing: with a 2:1 weight ratio and both tenants
// backlogged, the weight-2 tenant is served twice as often. The pool is
// stalled while the backlog builds so the dequeue order is decided purely
// by the WFQ clocks, then observed through on_complete.
TEST(SchedulerOverload, WeightedFairQueueingServesTenantsByWeight) {
  ThreadPool pool(1);
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  pool.submit([gate] { gate.wait(); });

  std::mutex order_mu;
  std::vector<int> completion_order;

  SchedulerOptions opt;
  opt.max_batch = 1;  // one request per batch: dequeue order == service order
  opt.max_wait_us = 0;
  opt.queue_capacity = 64;
  opt.max_inflight_batches = 1;
  opt.tenant_weights = {{1, 2.0}, {2, 1.0}};
  opt.on_complete = [&](const InferResponse& resp) {
    if (resp.status.ok()) {
      std::lock_guard<std::mutex> lock(order_mu);
      completion_order.push_back(resp.tenant);
    }
  };
  auto sched = make_scheduler(opt, &pool);
  const ConvShape s = test_shape();

  // Head request occupies the stalled pool so the rest stay queued.
  SubmitOptions head_sub;
  head_sub.tenant = 3;
  auto head = sched->submit(test_input(s, 0), head_sub).value();
  std::this_thread::sleep_for(100ms);

  std::vector<std::future<InferResponse>> futs;
  for (u64 i = 0; i < 3; ++i) {
    SubmitOptions sub;
    sub.tenant = 1;
    futs.push_back(sched->submit(test_input(s, 10 + i), sub).value());
    sub.tenant = 2;
    futs.push_back(sched->submit(test_input(s, 20 + i), sub).value());
  }

  release.set_value();
  EXPECT_TRUE(head.get().status.ok());
  for (auto& f : futs) EXPECT_TRUE(f.get().status.ok());
  sched->shutdown();

  std::lock_guard<std::mutex> lock(order_mu);
  ASSERT_EQ(completion_order.size(), 7u);
  // Drop the head (tenant 3); among the first three backlogged dequeues the
  // weight-2 tenant must appear at least twice (exact SFQ order:
  // 1, 2, 1, 1, 2, 2).
  std::vector<int> backlog(completion_order.begin() + 1,
                           completion_order.end());
  const int t1_early = static_cast<int>(
      std::count(backlog.begin(), backlog.begin() + 3, 1));
  EXPECT_GE(t1_early, 2) << "weight-2 tenant under-served";
  EXPECT_EQ(std::count(backlog.begin(), backlog.end(), 1), 3);
  EXPECT_EQ(std::count(backlog.begin(), backlog.end(), 2), 3);
}

// kFailPending shutdown answers every queued request with an explicit
// kShuttingDown — even while an in-flight batch is still stalled on the
// device — and the no-unresolved-request assert holds.
TEST(SchedulerOverload, FailPendingShutdownAnswersQueuedWithShuttingDown) {
  ThreadPool pool(1);
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  pool.submit([gate] { gate.wait(); });

  SchedulerOptions opt;
  opt.max_batch = 1;
  opt.max_wait_us = 0;
  opt.queue_capacity = 8;
  opt.max_inflight_batches = 1;
  opt.shutdown_policy = ShutdownPolicy::kFailPending;
  auto sched = make_scheduler(opt, &pool);
  const ConvShape s = test_shape();

  auto head = sched->submit(test_input(s, 1)).value();
  std::this_thread::sleep_for(100ms);  // head enters the stalled batch
  auto q1 = sched->submit(test_input(s, 2)).value();
  auto q2 = sched->submit(test_input(s, 3)).value();

  std::thread shutter([&] { sched->shutdown(); });
  // The queued requests resolve kShuttingDown promptly — before the stalled
  // in-flight batch finishes (shutdown is still blocked on it).
  EXPECT_EQ(q1.wait_for(5s), std::future_status::ready);
  EXPECT_EQ(q1.get().status.code(), StatusCode::kShuttingDown);
  EXPECT_EQ(q2.get().status.code(), StatusCode::kShuttingDown);

  release.set_value();
  EXPECT_TRUE(head.get().status.ok()) << "in-flight work still completes";
  shutter.join();

  const MetricsSnapshot m = sched->metrics().snapshot();
  EXPECT_EQ(m.drained_shutdown, 2);
  EXPECT_EQ(m.completed, 1);
}

// The on_complete hook fires exactly once per admitted request, whatever
// the resolution path (completion, expiry, shutdown drain).
TEST(SchedulerOverload, OnCompleteFiresOncePerResolution) {
  std::atomic<int> hook_calls{0};
  std::atomic<int> hook_ok{0};
  SchedulerOptions opt;
  opt.max_batch = 4;
  opt.max_wait_us = 100'000;
  opt.on_complete = [&](const InferResponse& resp) {
    hook_calls.fetch_add(1);
    if (resp.status.ok()) hook_ok.fetch_add(1);
  };
  auto sched = make_scheduler(opt);
  const ConvShape s = test_shape();

  std::vector<std::future<InferResponse>> futs;
  futs.push_back(sched->submit(test_input(s, 1), SubmitOptions{}).value());
  SubmitOptions doomed;
  doomed.deadline = Clock::now() - 1ms;  // already expired
  futs.push_back(sched->submit(test_input(s, 2), doomed).value());
  futs.push_back(sched->submit(test_input(s, 3), SubmitOptions{}).value());
  for (auto& f : futs) f.get();
  sched->shutdown();

  EXPECT_EQ(hook_calls.load(), 3);
  EXPECT_EQ(hook_ok.load(), 2);
}

}  // namespace
}  // namespace lbc::serve
