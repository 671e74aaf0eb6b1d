// Persistent FIFO thread pool — the single threading substrate for
// the repository. Kernels (armkern's row-panel loop), the micro-batching
// scheduler, and the benches all share one set of long-lived workers instead
// of spawning std::thread per call: under serving load the fork/join cost of
// per-call threads dominates small layers, and a shared pool is what lets
// concurrent batches and intra-batch panel parallelism coexist without
// oversubscribing the machine.
//
// Structure: one queue, guarded by one mutex. Workers take tasks in
// submission order (FIFO), so under overload the oldest queued work (a
// served graph request, a fallback) runs first rather than expiring behind
// newer arrivals.
//
// parallel_for() is the data-parallel primitive. It splits [begin, end) into
// grain-sized chunks claimed off a shared atomic cursor; the *calling* thread
// claims chunks alongside the workers, so a parallel_for issued from inside a
// pool task (nested parallelism: a scheduler batch running a multi-threaded
// GEMM) always makes progress and can never deadlock waiting for a free
// worker. A chunk body that throws is caught, the loop is drained, and the
// first exception is rethrown on the calling thread — workers survive.
//
// Lock discipline is compiler-checked: every mutex is an annotated
// lbc::Mutex and every guarded member carries LBC_GUARDED_BY, so the
// clang -Wthread-safety lint configuration rejects an unlocked access.
#pragma once

#include <atomic>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/thread_annotations.h"
#include "common/types.h"

namespace lbc::serve {

class ThreadPool {
 public:
  /// Spawns `threads` persistent workers (clamped to [1, 64]).
  explicit ThreadPool(int threads);
  /// Joins all workers. Pending submitted tasks are executed before exit.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return static_cast<int>(workers_.size()); }

  /// Enqueue an asynchronous task; workers start tasks in the order they
  /// were submitted. A task that throws is swallowed by the worker loop
  /// (counted in task_exceptions()); tasks that must report failure do so
  /// through their own channel (promise/Status).
  void submit(std::function<void()> fn) LBC_EXCLUDES(wake_mu_);

  /// Blocking data-parallel loop over [begin, end): the range is split into
  /// chunks of at most `grain` iterations and body(chunk_begin, chunk_end)
  /// runs across the workers *and* the calling thread. Returns when every
  /// chunk has finished. Safe to call from inside a pool task (the caller
  /// self-executes chunks, so nested calls cannot deadlock). If a body
  /// throws, the first exception is rethrown here after the loop drains.
  void parallel_for(i64 begin, i64 end, i64 grain,
                    const std::function<void(i64, i64)>& body);

  /// Blocks until every task submitted so far has finished (tests/shutdown).
  void wait_idle() LBC_EXCLUDES(wake_mu_);

  i64 tasks_executed() const {
    return executed_.load(std::memory_order_relaxed);
  }
  i64 task_exceptions() const {
    return task_exceptions_.load(std::memory_order_relaxed);
  }

  /// Process-wide pool shared by kernels, scheduler, and benches. Sized by
  /// LBC_POOL_THREADS when set, else std::thread::hardware_concurrency(),
  /// clamped to [1, 16].
  static ThreadPool& global();

 private:
  void worker_main() LBC_EXCLUDES(wake_mu_);

  std::vector<std::thread> workers_;

  Mutex wake_mu_;
  CondVar wake_cv_;
  CondVar idle_cv_;
  std::deque<std::function<void()>> queue_ LBC_GUARDED_BY(wake_mu_);
  bool stop_ LBC_GUARDED_BY(wake_mu_) = false;
  /// Submitted tasks not yet completed (queued or running).
  i64 unfinished_ LBC_GUARDED_BY(wake_mu_) = 0;

  std::atomic<i64> executed_{0};
  std::atomic<i64> task_exceptions_{0};
};

}  // namespace lbc::serve
