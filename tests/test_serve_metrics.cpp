// ServeMetrics aggregation: counters, batch histogram, percentile math,
// throughput window, and concurrent recording from many threads.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "core/report.h"
#include "serve/metrics.h"

namespace lbc::serve {
namespace {

using namespace std::chrono_literals;

TEST(Percentile, NearestRankBasics) {
  EXPECT_DOUBLE_EQ(core::percentile({}, 50), 0.0);
  EXPECT_DOUBLE_EQ(core::percentile({7.0}, 50), 7.0);
  EXPECT_DOUBLE_EQ(core::percentile({7.0}, 99), 7.0);

  // Unsorted input; percentile() must sort a copy.
  std::vector<double> v = {5, 1, 4, 2, 3};
  EXPECT_DOUBLE_EQ(core::percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(core::percentile(v, 50), 3.0);
  EXPECT_DOUBLE_EQ(core::percentile(v, 100), 5.0);
  // The caller's buffer is untouched.
  EXPECT_DOUBLE_EQ(v[0], 5.0);

  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  EXPECT_DOUBLE_EQ(core::percentile(hundred, 95), 95.0);
  EXPECT_DOUBLE_EQ(core::percentile(hundred, 99), 99.0);
}

TEST(ServeMetrics, CountersAndHistogram) {
  ServeMetrics m;
  const auto t0 = Clock::now();
  m.record_admitted(t0);
  m.record_batch(3);
  m.record_batch(3);
  m.record_batch(1);
  m.record_shed(ShedReason::kQueueFull, Priority::kStandard);
  m.record_expired(Priority::kStandard);
  m.record_completion(0.001, 0.002, true, t0 + 10ms);
  m.record_completion(0.002, 0.004, true, t0 + 20ms);
  m.record_completion(0.003, 0.006, false, t0 + 30ms);

  const MetricsSnapshot s = m.snapshot();
  EXPECT_EQ(s.completed, 2);
  EXPECT_EQ(s.failed, 1);
  EXPECT_EQ(s.rejected, 1);
  EXPECT_EQ(s.expired, 1);
  EXPECT_EQ(s.batches, 3);
  EXPECT_NEAR(s.mean_batch, 7.0 / 3.0, 1e-12);
  ASSERT_EQ(s.batch_hist.size(), 3u);
  EXPECT_EQ(s.batch_hist[0], 1);  // one batch of size 1
  EXPECT_EQ(s.batch_hist[1], 0);
  EXPECT_EQ(s.batch_hist[2], 2);  // two batches of size 3
  EXPECT_NEAR(s.mean_latency_s, 0.004, 1e-12);
  EXPECT_DOUBLE_EQ(s.latency_p50_s, 0.004);
  EXPECT_DOUBLE_EQ(s.latency_p99_s, 0.006);
  EXPECT_DOUBLE_EQ(s.queue_wait_p50_s, 0.002);
}

TEST(ServeMetrics, ThroughputWindowSpansAdmissionToCompletion) {
  ServeMetrics m;
  const auto t0 = Clock::now();
  m.record_admitted(t0);
  m.record_admitted(t0 + 5ms);  // later admissions don't move the start
  m.record_completion(0, 0.1, true, t0 + 100ms);
  m.record_completion(0, 0.2, true, t0 + 200ms);

  const MetricsSnapshot s = m.snapshot();
  EXPECT_NEAR(s.window_s, 0.2, 1e-9);
  EXPECT_NEAR(s.throughput_rps, 2.0 / 0.2, 1e-6);
}

TEST(ServeMetrics, EmptySnapshotIsAllZero) {
  ServeMetrics m;
  const MetricsSnapshot s = m.snapshot();
  EXPECT_EQ(s.completed, 0);
  EXPECT_EQ(s.batches, 0);
  EXPECT_DOUBLE_EQ(s.mean_batch, 0);
  EXPECT_DOUBLE_EQ(s.latency_p99_s, 0);
  EXPECT_DOUBLE_EQ(s.window_s, 0);
  EXPECT_DOUBLE_EQ(s.throughput_rps, 0);
  EXPECT_TRUE(s.batch_hist.empty());
}

TEST(ServeMetrics, IgnoresNonPositiveBatchSizes) {
  ServeMetrics m;
  m.record_batch(0);
  m.record_batch(-4);
  EXPECT_EQ(m.snapshot().batches, 0);
}

TEST(ServeMetrics, ConcurrentRecordersDontLoseCounts) {
  ServeMetrics m;
  constexpr int kThreads = 8, kPer = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&] {
      const auto now = Clock::now();
      for (int i = 0; i < kPer; ++i) {
        m.record_admitted(now);
        m.record_batch(2);
        m.record_completion(0.001, 0.002, true, now);
        m.record_shed(ShedReason::kQueueFull, Priority::kStandard);
      }
    });
  for (auto& t : threads) t.join();

  const MetricsSnapshot s = m.snapshot();
  EXPECT_EQ(s.completed, kThreads * kPer);
  EXPECT_EQ(s.rejected, kThreads * kPer);
  EXPECT_EQ(s.batches, kThreads * kPer);
  EXPECT_DOUBLE_EQ(s.mean_batch, 2.0);
}

TEST(ServeMetrics, ShedReasonsAndLanes) {
  ServeMetrics m;
  const auto t0 = Clock::now();
  m.record_admitted(t0);
  m.record_shed(ShedReason::kQueueFull, Priority::kBatch);
  m.record_shed(ShedReason::kDisplaced, Priority::kBatch);
  m.record_shed(ShedReason::kShutdown, Priority::kStandard);
  m.record_shed(ShedReason::kBreakerOpen, Priority::kInteractive);
  m.record_expired(Priority::kStandard);
  m.record_completion(0.001, 0.002, true, t0 + 10ms, Priority::kInteractive);
  m.record_completion(0.001, 0.004, false, t0 + 20ms, Priority::kBatch);

  const MetricsSnapshot s = m.snapshot();
  EXPECT_EQ(s.sheds[static_cast<size_t>(ShedReason::kQueueFull)], 1);
  EXPECT_EQ(s.displaced, 1);
  EXPECT_EQ(s.drained_shutdown, 1);
  EXPECT_EQ(s.unavailable, 1);
  EXPECT_EQ(s.sheds[static_cast<size_t>(ShedReason::kDeadline)], 1);
  EXPECT_EQ(s.rejected, 1);  // only kQueueFull counts as rejected
  // offered = 2 completions + 1 expired + 4 shed = 7; shed = 4.
  EXPECT_NEAR(s.shed_rate, 4.0 / 7.0, 1e-12);

  const PriorityLane& inter =
      s.lanes[static_cast<size_t>(Priority::kInteractive)];
  const PriorityLane& batch = s.lanes[static_cast<size_t>(Priority::kBatch)];
  const PriorityLane& std_lane =
      s.lanes[static_cast<size_t>(Priority::kStandard)];
  EXPECT_EQ(inter.completed, 1);
  EXPECT_EQ(inter.shed, 1);  // the breaker fast-fail
  EXPECT_DOUBLE_EQ(inter.latency_p99_s, 0.002);
  EXPECT_EQ(batch.failed, 1);
  EXPECT_EQ(batch.shed, 2);  // queue_full + displaced
  EXPECT_EQ(std_lane.expired, 1);
  EXPECT_EQ(std_lane.shed, 1);  // shutdown drain (kDeadline excluded)
}

TEST(ServeMetrics, ResetClearsEverything) {
  ServeMetrics m;
  const auto t0 = Clock::now();
  m.record_admitted(t0);
  m.record_batch(2);
  m.record_shed(ShedReason::kDisplaced, Priority::kBatch);
  m.record_fallback_served();
  m.record_completion(0.001, 0.002, true, t0 + 10ms, Priority::kInteractive);
  m.reset();

  const MetricsSnapshot s = m.snapshot();
  EXPECT_EQ(s.completed, 0);
  EXPECT_EQ(s.batches, 0);
  EXPECT_EQ(s.displaced, 0);
  EXPECT_EQ(s.fallback_served, 0);
  EXPECT_DOUBLE_EQ(s.shed_rate, 0);
  EXPECT_DOUBLE_EQ(s.window_s, 0);
  for (const PriorityLane& lane : s.lanes) {
    EXPECT_EQ(lane.completed + lane.failed + lane.expired + lane.shed, 0);
    EXPECT_DOUBLE_EQ(lane.latency_p99_s, 0);
  }
}

// tsan regression: reset() racing a storm of recorders and snapshotters must
// neither tear a sample vector nor leave half-cleared state. Run under the
// sanitizer preset this is the data-race canary for the metrics mutex; in a
// plain build it still checks the "record lands entirely before or entirely
// after the reset" contract via the consistency asserts below.
TEST(ServeMetrics, ResetDuringConcurrentRecordIsAtomic) {
  ServeMetrics m;
  constexpr int kRecorders = 4, kPer = 2000;
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kRecorders; ++t)
    threads.emplace_back([&] {
      while (!go.load()) std::this_thread::yield();
      const auto now = Clock::now();
      for (int i = 0; i < kPer; ++i) {
        m.record_admitted(now);
        m.record_batch(2);
        m.record_shed(ShedReason::kQueueFull, Priority::kBatch);
        m.record_completion(0.001, 0.002, true, now, Priority::kStandard);
      }
    });
  std::thread resetter([&] {
    while (!go.load()) std::this_thread::yield();
    for (int i = 0; i < 50; ++i) {
      m.reset();
      const MetricsSnapshot s = m.snapshot();
      // A torn record would break these pairings.
      EXPECT_GE(s.completed, 0);
      EXPECT_EQ(s.failed, 0);
      EXPECT_EQ(s.rejected,
                s.sheds[static_cast<size_t>(ShedReason::kQueueFull)]);
      std::this_thread::yield();
    }
  });
  go.store(true);
  for (auto& t : threads) t.join();
  resetter.join();

  // After the dust settles the object still works and is self-consistent.
  m.reset();
  m.record_completion(0.001, 0.002, true, Clock::now());
  EXPECT_EQ(m.snapshot().completed, 1);
}

TEST(ServeMetrics, PrintSmoke) {
  ServeMetrics m;
  const auto t0 = Clock::now();
  m.record_admitted(t0);
  m.record_batch(4);
  for (int i = 0; i < 4; ++i)
    m.record_completion(0.001, 0.003, true, t0 + 50ms);
  m.print("serve metrics (test)");  // must not crash or throw
}

}  // namespace
}  // namespace lbc::serve
