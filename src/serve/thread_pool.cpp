#include "serve/thread_pool.h"

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <memory>

#include "common/status.h"

namespace lbc::serve {

namespace {

int clamp_threads(int threads, int lo, int hi) {
  return std::max(lo, std::min(threads, hi));
}

}  // namespace

ThreadPool::ThreadPool(int threads) {
  const int n = clamp_threads(threads, 1, 64);
  workers_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) workers_.emplace_back([this] { worker_main(); });
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(wake_mu_);
    stop_ = true;
  }
  wake_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::submit(std::function<void()> fn) {
  LBC_CHECK_MSG(static_cast<bool>(fn), "ThreadPool::submit of empty task");
  {
    MutexLock lock(wake_mu_);
    queue_.push_back(std::move(fn));
    ++unfinished_;
  }
  wake_cv_.notify_one();
}

void ThreadPool::worker_main() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(wake_mu_);
      while (!stop_ && queue_.empty()) wake_cv_.wait(wake_mu_);
      if (queue_.empty()) return;  // stopping, and every task has run
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    // A submitted task owns its error reporting; an escaped exception must
    // not take the worker (and with it the pool) down.
    try {
      task();
    } catch (...) {
      task_exceptions_.fetch_add(1, std::memory_order_relaxed);
    }
    executed_.fetch_add(1, std::memory_order_relaxed);
    MutexLock lock(wake_mu_);
    if (--unfinished_ == 0) idle_cv_.notify_all();
  }
}

void ThreadPool::wait_idle() {
  MutexLock lock(wake_mu_);
  while (unfinished_ != 0) idle_cv_.wait(wake_mu_);
}

void ThreadPool::parallel_for(i64 begin, i64 end, i64 grain,
                              const std::function<void(i64, i64)>& body) {
  if (end <= begin) return;
  grain = std::max<i64>(1, grain);
  const i64 nchunks = ceil_div(end - begin, grain);
  if (nchunks == 1 || size() == 1) {
    body(begin, end);
    return;
  }

  // Shared claim cursor: workers and the caller race to claim chunks, so a
  // slow chunk never serializes the fast ones behind a static partition.
  struct Job {
    std::atomic<i64> next{0};
    std::atomic<i64> done{0};
    i64 begin = 0, end = 0, grain = 1, nchunks = 0;
    const std::function<void(i64, i64)>* body = nullptr;
    Mutex mu;
    CondVar cv;
    std::exception_ptr first_error LBC_GUARDED_BY(mu);
  };
  auto job = std::make_shared<Job>();
  job->begin = begin;
  job->end = end;
  job->grain = grain;
  job->nchunks = nchunks;
  job->body = &body;

  const auto drain = [](const std::shared_ptr<Job>& j) {
    for (;;) {
      const i64 c = j->next.fetch_add(1, std::memory_order_relaxed);
      if (c >= j->nchunks) return;
      const i64 b = j->begin + c * j->grain;
      const i64 e = std::min(j->end, b + j->grain);
      try {
        (*j->body)(b, e);
      } catch (...) {
        MutexLock lock(j->mu);
        if (!j->first_error) j->first_error = std::current_exception();
      }
      if (j->done.fetch_add(1, std::memory_order_acq_rel) + 1 == j->nchunks) {
        MutexLock lock(j->mu);
        j->cv.notify_all();
      }
    }
  };

  // One helper task per worker (capped by chunk count); each loops claiming
  // chunks. Helpers that wake after the caller drained everything see the
  // exhausted cursor and exit without touching `body`.
  const int helpers = static_cast<int>(
      std::min<i64>(static_cast<i64>(size()), nchunks - 1));
  for (int i = 0; i < helpers; ++i) submit([job, drain] { drain(job); });

  drain(job);  // the caller works too — this is what makes nesting safe

  MutexLock lock(job->mu);
  while (job->done.load(std::memory_order_acquire) != job->nchunks)
    job->cv.wait(job->mu);
  if (job->first_error) std::rethrow_exception(job->first_error);
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool([] {
    if (const char* env = std::getenv("LBC_POOL_THREADS")) {
      const int n = std::atoi(env);
      if (n >= 1) return clamp_threads(n, 1, 16);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return clamp_threads(hw == 0 ? 4 : static_cast<int>(hw), 1, 16);
  }());
  return pool;
}

}  // namespace lbc::serve
