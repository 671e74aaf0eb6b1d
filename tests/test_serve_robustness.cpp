// Overload-hardened serving tier under injected faults: worker throws and
// plan-compile failures driven through the ModelServer -> registry ->
// breaker path. Verifies every request resolves with a well-formed Status,
// breakers trip and recover deterministically (probe sequencing via
// synchronous get()), the reference fallback chain serves tripped models,
// and a multi-model fault storm never leaves a future unresolved.
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <future>
#include <thread>
#include <vector>

#include "common/fault_injection.h"
#include "common/rng.h"
#include "refconv/conv_ref.h"
#include "serve/server.h"

namespace lbc::serve {
namespace {

using namespace std::chrono_literals;

ConvShape robust_shape() {
  ConvShape s;
  s.name = "robust-test";
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

Tensor<i8> robust_weight(u64 seed) {
  const ConvShape s = robust_shape();
  return random_qtensor(Shape4{s.out_c, s.in_c, s.kernel, s.kernel}, 8, seed);
}

Tensor<i8> robust_input(u64 seed) {
  const ConvShape s = robust_shape();
  return random_qtensor(Shape4{1, s.in_c, s.in_h, s.in_w}, 8, seed);
}

/// One-request-per-batch options so outcome ordering is synchronous and the
/// breaker sequence is deterministic.
ModelOptions serial_model_options() {
  ModelOptions mo;
  mo.sched.max_batch = 1;
  mo.sched.max_wait_us = 0;
  mo.breaker.consecutive_failures = 3;
  mo.breaker.deadline_miss_rate = 1.1;  // isolate the failure-run trip
  mo.breaker.cooldown = std::chrono::milliseconds(30);
  mo.breaker.probe_successes = 1;
  return mo;
}

/// Submit one request and block for its terminal status (submit() errors
/// are terminal statuses too).
Status roundtrip(ModelServer& server, const std::string& model, u64 seed,
                 const SubmitOptions& sub = SubmitOptions{}) {
  auto r = server.submit(model, robust_input(seed), sub);
  if (!r.ok()) return r.status();
  return std::move(r).value().get().status;
}

TEST(ServeRobustness, FastFailBreakerTripsOnWorkerThrowsAndRecovers) {
  ModelServer server;
  ModelOptions mo = serial_model_options();
  mo.breaker_mode = BreakerMode::kFastFail;
  ASSERT_TRUE(server.add_model("m", robust_shape(), robust_weight(1), mo).ok());

  {
    ScopedFault fault(FaultSite::kServeWorkerThrow);  // every batch throws
    for (u64 i = 0; i < 3; ++i)
      EXPECT_EQ(roundtrip(server, "m", i).code(), StatusCode::kInternal);
    EXPECT_EQ(server.breaker("m")->state(), BreakerState::kOpen);
    EXPECT_EQ(server.breaker("m")->trips(), 1);

    // Open + fast-fail: immediate kUnavailable, no device time.
    EXPECT_EQ(roundtrip(server, "m", 10).code(), StatusCode::kUnavailable);
  }

  // Fault gone: after the cooldown a half-open probe succeeds and closes
  // the breaker (probe_successes = 1).
  Status last;
  for (int attempt = 0; attempt < 100; ++attempt) {
    std::this_thread::sleep_for(10ms);
    last = roundtrip(server, "m", 100 + static_cast<u64>(attempt));
    if (last.ok()) break;
    ASSERT_EQ(last.code(), StatusCode::kUnavailable) << last.to_string();
  }
  EXPECT_TRUE(last.ok()) << "breaker never recovered: " << last.to_string();
  EXPECT_EQ(server.breaker("m")->state(), BreakerState::kClosed);
  EXPECT_EQ(server.breaker("m")->trips(), 1) << "no flapping without faults";
  EXPECT_GE(server.breaker("m")->probes(), 1);

  EXPECT_TRUE(roundtrip(server, "m", 200).ok());
  const MetricsSnapshot m = server.scheduler("m")->metrics().snapshot();
  EXPECT_EQ(m.failed, 3);
  EXPECT_GE(m.unavailable, 1);
}

TEST(ServeRobustness, ReferenceFallbackServesWhileBreakerOpen) {
  ModelServer server;
  ModelOptions mo = serial_model_options();
  mo.breaker_mode = BreakerMode::kReferenceFallback;
  mo.breaker.cooldown = std::chrono::seconds(10);  // stays open for the test
  const Tensor<i8> w = robust_weight(2);
  ASSERT_TRUE(server.add_model("m", robust_shape(), w, mo).ok());

  ScopedFault fault(FaultSite::kServeWorkerThrow);
  for (u64 i = 0; i < 3; ++i)
    EXPECT_EQ(roundtrip(server, "m", i).code(), StatusCode::kInternal);
  ASSERT_EQ(server.breaker("m")->state(), BreakerState::kOpen);

  // Tripped + fallback mode: served through the reference chain, which the
  // worker-throw site cannot touch — and the result is bit-exact.
  const Tensor<i8> input = robust_input(50);
  auto r = server.submit("m", input);
  ASSERT_TRUE(r.ok()) << r.status().to_string();
  InferResponse resp = std::move(r).value().get();
  ASSERT_TRUE(resp.status.ok()) << resp.status.to_string();
  const core::ArmLayerResult oracle =
      core::run_arm_conv(robust_shape(), input, w, 8).value();
  EXPECT_EQ(count_mismatches(oracle.out, resp.output), 0);

  const MetricsSnapshot m = server.scheduler("m")->metrics().snapshot();
  EXPECT_GE(m.fallback_served, 1);
  EXPECT_EQ(server.breaker("m")->state(), BreakerState::kOpen)
      << "fallback service must not close the breaker";
}

// The fallback runs the reference-rung plan pinned at add_model: K
// fallback requests plan nothing, so they never reach plan.compile_fail
// (armed with fire_count = 0, the site only counts its consults).
TEST(ServeRobustness, ReferenceFallbackRunsThePlanPinnedAtAdd) {
  ModelServer server;
  ModelOptions mo = serial_model_options();
  mo.breaker_mode = BreakerMode::kReferenceFallback;
  mo.breaker.cooldown = std::chrono::seconds(10);  // stays open for the test
  const Tensor<i8> w = robust_weight(6);
  ASSERT_TRUE(server.add_model("m", robust_shape(), w, mo).ok());
  CircuitBreaker* breaker = server.breaker("m");
  for (int i = 0; i < 3; ++i)
    breaker->record(CircuitBreaker::Outcome::kFailure);
  ASSERT_EQ(breaker->state(), BreakerState::kOpen);

  ScopedFault count(FaultSite::kPlanCompileFail, /*fire_count=*/0);
  constexpr int kRequests = 4;
  for (u64 k = 0; k < kRequests; ++k) {
    const Tensor<i8> input = robust_input(80 + k);
    auto r = server.submit("m", input);
    ASSERT_TRUE(r.ok()) << r.status().to_string();
    const InferResponse resp = std::move(r).value().get();
    ASSERT_TRUE(resp.status.ok()) << resp.status.to_string();
    EXPECT_EQ(count_mismatches(ref::conv2d_s32(robust_shape(), input, w),
                               resp.output),
              0);
    EXPECT_EQ(resp.executed_algo, "reference");
  }
  EXPECT_EQ(FaultInjector::instance().consults(FaultSite::kPlanCompileFail),
            0)
      << "a fallback request planned its conv again";
  EXPECT_EQ(server.scheduler("m")->metrics().snapshot().fallback_served,
            kRequests);
  EXPECT_EQ(breaker->state(), BreakerState::kOpen);
}

TEST(ServeRobustness, ProbeFailFaultReopensAndRecoveryRetries) {
  ModelServer server;
  ModelOptions mo = serial_model_options();
  mo.breaker_mode = BreakerMode::kFastFail;
  ASSERT_TRUE(server.add_model("m", robust_shape(), robust_weight(3), mo).ok());

  {
    ScopedFault fault(FaultSite::kServeWorkerThrow);
    for (u64 i = 0; i < 3; ++i)
      ASSERT_EQ(roundtrip(server, "m", i).code(), StatusCode::kInternal);
  }
  ASSERT_EQ(server.breaker("m")->state(), BreakerState::kOpen);

  // Recovery flapping: the first half-open probe is killed by the
  // serve.probe_fail site, re-opening the breaker.
  std::this_thread::sleep_for(40ms);
  {
    ScopedFault probe_fault(FaultSite::kServeProbeFail, /*fire_count=*/1);
    const Status st = roundtrip(server, "m", 20);
    EXPECT_EQ(st.code(), StatusCode::kUnavailable) << st.to_string();
  }
  EXPECT_EQ(server.breaker("m")->state(), BreakerState::kOpen);
  EXPECT_EQ(server.breaker("m")->trips(), 2);

  // Second recovery attempt has no fault: it closes.
  Status last;
  for (int attempt = 0; attempt < 100; ++attempt) {
    std::this_thread::sleep_for(10ms);
    last = roundtrip(server, "m", 30 + static_cast<u64>(attempt));
    if (last.ok()) break;
    ASSERT_EQ(last.code(), StatusCode::kUnavailable);
  }
  EXPECT_TRUE(last.ok());
  EXPECT_EQ(server.breaker("m")->state(), BreakerState::kClosed);
  EXPECT_EQ(server.breaker("m")->trips(), 2);
}

TEST(ServeRobustness, DeadlineMissRateTripsBreakerUnderExecDelay) {
  ModelServer server;
  ModelOptions mo = serial_model_options();
  mo.sched.max_inflight_batches = 1;
  mo.sched.queue_capacity = 32;
  mo.breaker.consecutive_failures = 100;  // isolate the miss-rate trip
  mo.breaker.deadline_miss_rate = 0.5;
  mo.breaker.window = 16;
  mo.breaker.min_window_samples = 4;
  mo.breaker_mode = BreakerMode::kFastFail;
  ASSERT_TRUE(server.add_model("m", robust_shape(), robust_weight(4), mo).ok());

  // Every batch stalls 25ms while requests carry 5ms deadlines: the head of
  // each burst executes late but everything queued behind it expires —
  // exactly the deadline-miss regime the rate trip watches for.
  ScopedFault delay(FaultSite::kServeExecDelay);
  std::vector<std::future<InferResponse>> futs;
  for (u64 i = 0; i < 10; ++i) {
    SubmitOptions sub;
    sub.deadline = Clock::now() + 5ms;
    auto r = server.submit("m", robust_input(i), sub);
    if (r.ok()) futs.push_back(std::move(r).value());
  }
  int misses = 0;
  for (auto& f : futs) {
    const Status st = f.get().status;
    if (st.code() == StatusCode::kDeadlineExceeded) ++misses;
  }
  EXPECT_GE(misses, 4) << "the stall must expire queued requests";
  EXPECT_EQ(server.breaker("m")->state(), BreakerState::kOpen);
  EXPECT_GE(server.breaker("m")->trips(), 1);
}

TEST(ServeRobustness, PlanCompileFaultServesReferenceAndBitExact) {
  ScopedFault fault(FaultSite::kPlanCompileFail);  // persistent
  ModelServer server;
  ModelOptions mo = serial_model_options();
  const Tensor<i8> w = robust_weight(5);
  ASSERT_TRUE(server.add_model("m", robust_shape(), w, mo).ok());

  const Tensor<i8> input = robust_input(60);
  auto r = server.submit("m", input);
  ASSERT_TRUE(r.ok()) << r.status().to_string();
  InferResponse resp = std::move(r).value().get();
  ASSERT_TRUE(resp.status.ok()) << resp.status.to_string();
  EXPECT_EQ(count_mismatches(ref::conv2d_s32(robust_shape(), input, w),
                             resp.output),
            0);
  EXPECT_EQ(resp.executed_algo, "reference");
  EXPECT_TRUE(resp.fallback.fell_back);

  EXPECT_FALSE(server.registry().plan_resident("m"));
  EXPECT_EQ(server.registry().stats().resident_plan_bytes, 0)
      << "a fault-degraded plan is not kept";
  EXPECT_EQ(server.breaker("m")->state(), BreakerState::kClosed)
      << "degraded-but-correct service is not a breaker failure";
}

// Multi-model fault storm: probabilistic worker throws and plan-compile
// failures across three models, mixed tenants/priorities/deadlines. The
// liveness contract: every future resolves (the scheduler asserts
// admitted == resolved at shutdown) and every terminal status comes from
// the serving vocabulary.
TEST(ServeRobustness, FaultStormNeverLeavesARequestUnresolved) {
  ServerOptions so;
  so.registry.plan_budget_bytes = 1;  // constant plan-cache churn on top
  ModelServer server(so);
  const std::vector<std::string> names = {"alpha", "beta", "gamma"};
  for (size_t i = 0; i < names.size(); ++i) {
    ModelOptions mo = serial_model_options();
    mo.sched.max_batch = 4;
    mo.sched.max_wait_us = 200;
    mo.sched.queue_capacity = 16;
    mo.breaker.consecutive_failures = 2;
    mo.breaker.cooldown = std::chrono::milliseconds(5);
    mo.breaker_mode = (i % 2 == 0) ? BreakerMode::kFastFail
                                   : BreakerMode::kReferenceFallback;
    ASSERT_TRUE(server
                    .add_model(names[i], robust_shape(),
                               robust_weight(70 + static_cast<u64>(i)), mo)
                    .ok());
  }

  std::vector<std::future<InferResponse>> futs;
  i64 immediate_rejects = 0;
  {
    ScopedFault throw_fault(FaultSite::kServeWorkerThrow, /*fire_count=*/-1,
                            /*probability=*/0.4, /*seed=*/42);
    ScopedFault compile_fault(FaultSite::kPlanCompileFail, /*fire_count=*/-1,
                              /*probability=*/0.5, /*seed=*/7);
    Rng rng(2026);
    for (int i = 0; i < 120; ++i) {
      SubmitOptions sub;
      sub.tenant = static_cast<int>(rng.next_u64() % 3);
      sub.priority = static_cast<Priority>(rng.next_u64() % 3);
      if (rng.next_u64() % 4 == 0)
        sub.deadline = Clock::now() + std::chrono::microseconds(200);
      const std::string& model = names[rng.next_u64() % names.size()];
      auto r = server.submit(model, robust_input(static_cast<u64>(i)), sub);
      if (r.ok())
        futs.push_back(std::move(r).value());
      else {
        ++immediate_rejects;
        const StatusCode c = r.status().code();
        EXPECT_TRUE(c == StatusCode::kOverloaded ||
                    c == StatusCode::kUnavailable)
            << r.status().to_string();
      }
    }

    i64 by_code[16] = {};
    for (auto& f : futs) {
      ASSERT_EQ(f.wait_for(30s), std::future_status::ready)
          << "a future was left unresolved";
      const InferResponse resp = f.get();
      ++by_code[static_cast<int>(resp.status.code())];
      const StatusCode c = resp.status.code();
      EXPECT_TRUE(c == StatusCode::kOk || c == StatusCode::kInternal ||
                  c == StatusCode::kDeadlineExceeded ||
                  c == StatusCode::kOverloaded ||
                  c == StatusCode::kUnavailable ||
                  c == StatusCode::kShuttingDown)
          << "out-of-vocabulary status: " << resp.status.to_string();
    }
    EXPECT_GT(by_code[static_cast<int>(StatusCode::kOk)], 0);
    EXPECT_GT(by_code[static_cast<int>(StatusCode::kInternal)], 0)
        << "the throw fault at p=0.4 must have hit some batches";
  }

  i64 trips = 0;
  for (const auto& n : names) trips += server.breaker(n)->trips();
  EXPECT_GE(trips, 1) << "consecutive_failures=2 under p=0.4 must trip";

  // Shutdown with live breakers/fallbacks in flight must not deadlock (the
  // scheduler drain assert fires inside if anything leaks).
  server.shutdown();
  EXPECT_EQ(server.submit("alpha", robust_input(999)).status().code(),
            StatusCode::kFailedPrecondition);
  (void)immediate_rejects;
}

// health_snapshot(): per-model breaker state + last-transition tick + the
// scheduler's metrics, sorted by name, consistent with the component
// accessors — the operator's one-call view of a degrading server.
TEST(ServeRobustness, HealthSnapshotReportsBreakerStateAndTransitions) {
  ModelServer server;
  ModelOptions mo = serial_model_options();
  mo.breaker_mode = BreakerMode::kFastFail;
  ASSERT_TRUE(
      server.add_model("sick", robust_shape(), robust_weight(1), mo).ok());
  ASSERT_TRUE(
      server.add_model("healthy", robust_shape(), robust_weight(2), mo).ok());

  ASSERT_TRUE(roundtrip(server, "healthy", 1).ok());
  {
    ScopedFault fault(FaultSite::kServeWorkerThrow);
    for (u64 i = 0; i < 3; ++i)
      EXPECT_EQ(roundtrip(server, "sick", i).code(), StatusCode::kInternal);
  }

  const std::vector<ModelHealth> health = server.health_snapshot();
  ASSERT_EQ(health.size(), 2u);
  // models_ is name-sorted: "healthy" < "sick".
  EXPECT_EQ(health[0].name, "healthy");
  EXPECT_EQ(health[1].name, "sick");

  EXPECT_EQ(health[0].breaker_state, BreakerState::kClosed);
  EXPECT_EQ(health[0].breaker_trips, 0);
  EXPECT_EQ(health[0].last_transition, Clock::time_point{});
  EXPECT_EQ(health[0].metrics.completed, 1);
  EXPECT_EQ(health[0].backend, core::Backend::kArmCortexA53);

  EXPECT_EQ(health[1].breaker_state, BreakerState::kOpen);
  EXPECT_EQ(health[1].breaker_trips, 1);
  EXPECT_NE(health[1].last_transition, Clock::time_point{});
  EXPECT_EQ(health[1].metrics.failed, 3);
  EXPECT_EQ(health[1].breaker_state,
            server.breaker("sick")->state());  // consistent with accessors
}

// A model registered on the native backend serves bit-exact accumulators
// (vs the reference conv) and reports the native kernel as its executed
// rung; health_snapshot records the backend.
TEST(ServeRobustness, NativeBackendModelServesBitExact) {
  ModelServer server;
  ModelOptions mo = serial_model_options();
  mo.sched.backend = core::Backend::kNativeHost;
  const Tensor<i8> w = robust_weight(11);
  ASSERT_TRUE(server.add_model("native", robust_shape(), w, mo).ok());

  const Tensor<i8> in = robust_input(12);
  auto r = server.submit("native", in, SubmitOptions{});
  ASSERT_TRUE(r.ok()) << r.status().to_string();
  const InferResponse resp = std::move(r).value().get();
  ASSERT_TRUE(resp.status.ok()) << resp.status.to_string();
  EXPECT_NE(resp.executed_algo.find("dot"), std::string::npos)
      << "8-bit rides the dot scheme; got " << resp.executed_algo;

  const Tensor<i32> ref = ref::conv2d_s32(robust_shape(), in, w);
  ASSERT_EQ(resp.output.shape(), ref.shape());
  EXPECT_EQ(std::memcmp(resp.output.data(), ref.data(),
                        static_cast<size_t>(ref.shape().elems()) * 4),
            0);

  const std::vector<ModelHealth> health = server.health_snapshot();
  ASSERT_EQ(health.size(), 1u);
  EXPECT_EQ(health[0].backend, core::Backend::kNativeHost);
  EXPECT_EQ(health[0].metrics.completed, 1);
}

}  // namespace
}  // namespace lbc::serve
