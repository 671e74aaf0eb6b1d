// Shared thread pool: parallel_for coverage/partitioning, nested calls,
// exception containment, submit/wait_idle, FIFO task order, cross-thread
// concurrency.
#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "serve/thread_pool.h"

namespace lbc::serve {
namespace {

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr i64 kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(0, kN, 64, [&](i64 b, i64 e) {
    for (i64 i = b; i < e; ++i) hits[static_cast<size_t>(i)].fetch_add(1);
  });
  for (i64 i = 0; i < kN; ++i)
    ASSERT_EQ(hits[static_cast<size_t>(i)].load(), 1) << "index " << i;
}

TEST(ThreadPool, ParallelForRespectsGrainAndBounds) {
  ThreadPool pool(3);
  std::mutex mu;
  std::vector<std::pair<i64, i64>> chunks;
  pool.parallel_for(5, 103, 10, [&](i64 b, i64 e) {
    std::lock_guard<std::mutex> lock(mu);
    chunks.push_back({b, e});
  });
  i64 covered = 0;
  for (const auto& [b, e] : chunks) {
    EXPECT_GE(b, 5);
    EXPECT_LE(e, 103);
    EXPECT_LT(b, e);
    EXPECT_LE(e - b, 10);
    covered += e - b;
  }
  EXPECT_EQ(covered, 98);
}

TEST(ThreadPool, ParallelForEmptyAndSingleChunkRanges) {
  ThreadPool pool(2);
  int calls = 0;
  pool.parallel_for(7, 7, 1, [&](i64, i64) { ++calls; });
  EXPECT_EQ(calls, 0);
  pool.parallel_for(0, 3, 100, [&](i64 b, i64 e) {
    ++calls;
    EXPECT_EQ(b, 0);
    EXPECT_EQ(e, 3);
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(2);  // fewer workers than nested jobs want
  std::atomic<i64> total{0};
  pool.parallel_for(0, 8, 1, [&](i64 ob, i64 oe) {
    for (i64 o = ob; o < oe; ++o)
      pool.parallel_for(0, 100, 10, [&](i64 b, i64 e) {
        total.fetch_add(e - b);
      });
  });
  EXPECT_EQ(total.load(), 800);
}

TEST(ThreadPool, BodyExceptionPropagatesAndPoolSurvives) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(0, 100, 1,
                        [&](i64 b, i64) {
                          if (b == 37) throw std::runtime_error("chunk 37");
                        }),
      std::runtime_error);
  // The pool is intact: a follow-up loop runs to completion.
  std::atomic<i64> n{0};
  pool.parallel_for(0, 100, 1, [&](i64 b, i64 e) { n.fetch_add(e - b); });
  EXPECT_EQ(n.load(), 100);
}

TEST(ThreadPool, SubmittedTasksRunAndExceptionsAreContained) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  for (int i = 0; i < 16; ++i)
    pool.submit([&] { ran.fetch_add(1); });
  pool.submit([] { throw std::runtime_error("task fault"); });
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 16);
  EXPECT_EQ(pool.task_exceptions(), 1);
  EXPECT_GE(pool.tasks_executed(), 17);
  // Workers survived the throwing task.
  pool.submit([&] { ran.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 17);
}

TEST(ThreadPool, QueuedTasksRunInSubmissionOrder) {
  // One worker, held by a latch task while four more queue behind it:
  // released, it must run them oldest first.
  ThreadPool pool(1);
  std::mutex mu;
  std::condition_variable cv;
  bool started = false, release = false;
  pool.submit([&] {
    std::unique_lock<std::mutex> lock(mu);
    started = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return started; });
  }
  std::vector<int> order;  // written by the one worker only
  for (int i = 0; i < 4; ++i) pool.submit([&order, i] { order.push_back(i); });
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  pool.wait_idle();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(ThreadPool, ConcurrentParallelForsFromManyThreads) {
  ThreadPool pool(4);
  constexpr int kCallers = 6;
  std::vector<i64> sums(kCallers, 0);
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c)
    callers.emplace_back([&, c] {
      std::atomic<i64> s{0};
      pool.parallel_for(0, 5000, 16, [&](i64 b, i64 e) {
        i64 part = 0;
        for (i64 i = b; i < e; ++i) part += i;
        s.fetch_add(part);
      });
      sums[static_cast<size_t>(c)] = s.load();
    });
  for (auto& t : callers) t.join();
  const i64 want = 5000 * 4999 / 2;
  for (i64 s : sums) EXPECT_EQ(s, want);
}

TEST(ThreadPool, GlobalPoolIsSharedAndUsable) {
  ThreadPool& a = ThreadPool::global();
  ThreadPool& b = ThreadPool::global();
  EXPECT_EQ(&a, &b);
  EXPECT_GE(a.size(), 1);
  std::atomic<i64> n{0};
  a.parallel_for(0, 1000, 10, [&](i64 x, i64 y) { n.fetch_add(y - x); });
  EXPECT_EQ(n.load(), 1000);
}

TEST(ThreadPool, DestructorDrainsPendingTasks) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 32; ++i)
      pool.submit([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        ran.fetch_add(1);
      });
  }  // ~ThreadPool joins after executing everything queued
  EXPECT_EQ(ran.load(), 32);
}

}  // namespace
}  // namespace lbc::serve
