// Per-request serving metrics: queue wait, end-to-end latency, batch-size
// histogram, and outcome counters, aggregated thread-safely across the
// scheduler's dispatcher, the pool workers that complete batches, and the
// server front end (breaker fast-fails, fallback executions).
//
// Outcomes are additionally bucketed per priority class, because the whole
// point of graceful load shedding is that the classes behave differently
// under overload: interactive p99 must hold while batch work is shed. The
// snapshot computes per-class and aggregate p50/p95/p99 from retained
// samples (bounded; see kMaxSamples) and throughput over the window from
// the first admission to the last completion.
//
// Concurrency contract: every recorder, snapshot(), and reset() take the
// one internal mutex — a snapshot or reset racing any number of recorders
// observes/clears a consistent state and never tears a sample vector
// (regression-tested under tsan in test_serve_metrics).
#pragma once

#include <array>
#include <string>
#include <vector>

#include "common/thread_annotations.h"
#include "common/types.h"
#include "serve/request.h"

namespace lbc::serve {

/// Why a request was refused or abandoned without executing. Reported per
/// event through ServeMetrics so an operator can tell *which* degradation
/// mode is active, not just that requests are failing.
enum class ShedReason : int {
  kQueueFull = 0,   ///< admission queue at capacity, nothing lower to shed
  kDisplaced,       ///< evicted from the queue by a higher-priority arrival
  kDeadline,        ///< expired before batch formation
  kShutdown,        ///< drained with kShuttingDown by a fail-pending shutdown
  kBreakerOpen,     ///< fast-failed kUnavailable by an open circuit breaker
  kReasonCount,
};

/// Stable name ("queue_full", "displaced", ...) for reports.
const char* shed_reason_name(ShedReason r);

/// Per-priority-class outcome bucket.
struct PriorityLane {
  i64 completed = 0;    ///< responded OK
  i64 failed = 0;       ///< responded with a non-OK execution Status
  i64 expired = 0;      ///< kDeadlineExceeded at batch formation
  i64 shed = 0;         ///< kOverloaded/kShuttingDown/kUnavailable (all
                        ///< ShedReason events except kDeadline)
  double latency_p50_s = 0, latency_p99_s = 0;
};

struct MetricsSnapshot {
  i64 completed = 0;  ///< responded OK
  i64 failed = 0;     ///< responded with a non-OK Status (worker fault, ...)
  i64 rejected = 0;   ///< refused at admission, queue full -> kOverloaded
  i64 expired = 0;    ///< dropped at batch formation (kDeadlineExceeded)
  i64 batches = 0;    ///< micro-batches executed
  double mean_batch = 0;
  std::vector<i64> batch_hist;  ///< batch_hist[b-1] = batches of size b

  /// Shed accounting: sheds[r] counts ShedReason r events. `displaced`,
  /// `drained_shutdown`, `unavailable`, and `fallback_served` break out the
  /// overload-specific flows the soak harness gates on.
  std::array<i64, static_cast<size_t>(ShedReason::kReasonCount)> sheds{};
  i64 displaced = 0;         ///< queued work evicted for higher priority
  i64 drained_shutdown = 0;  ///< answered kShuttingDown at shutdown
  i64 unavailable = 0;       ///< fast-failed by an open breaker
  i64 fallback_served = 0;   ///< served via the reference fallback chain
                             ///< while the breaker was open
  /// (rejected + displaced + drained + unavailable) / submissions — the
  /// operator-facing "what fraction of offered load did we shed".
  double shed_rate = 0;

  std::array<PriorityLane, kNumPriorities> lanes{};

  double queue_wait_p50_s = 0, queue_wait_p95_s = 0, queue_wait_p99_s = 0;
  double latency_p50_s = 0, latency_p95_s = 0, latency_p99_s = 0;
  double mean_latency_s = 0;

  double window_s = 0;          ///< first admission -> last completion
  double throughput_rps = 0;    ///< completed / window_s
};

class ServeMetrics {
 public:
  /// Latency/queue-wait sample retention cap; aggregate counters keep
  /// counting past it, percentiles then describe the first N requests.
  static constexpr size_t kMaxSamples = 1 << 16;

  void record_admitted(Clock::time_point now);
  /// Queue-full rejection at admission (reason kQueueFull), or the
  /// displacement of queued lower-priority work (reason kDisplaced), or a
  /// breaker fast-fail (kBreakerOpen), or a shutdown drain (kShutdown).
  void record_shed(ShedReason reason, Priority priority);
  void record_expired(Priority priority);
  /// A tripped-breaker request served through the reference fallback chain.
  void record_fallback_served();
  void record_batch(int batch_size);
  /// One response delivered (OK or failed), with its measured times.
  void record_completion(double queue_wait_s, double latency_s, bool ok,
                         Clock::time_point now,
                         Priority priority = Priority::kStandard);

  MetricsSnapshot snapshot() const;

  /// Zero every counter and drop every retained sample, atomically with
  /// respect to concurrent recorders: a record racing the reset lands
  /// either entirely before (cleared) or entirely after (counted) it.
  void reset();

  /// Render a snapshot through core::report::print_metric_table.
  void print(const std::string& title) const;

 private:
  static size_t lane_index(Priority p) {
    const int i = static_cast<int>(p);
    return static_cast<size_t>(i < 0 ? 0 : (i >= kNumPriorities ? kNumPriorities - 1 : i));
  }

  struct LaneState {
    i64 completed = 0, failed = 0, expired = 0, shed = 0;
    std::vector<double> latency_s;
  };

  mutable Mutex mu_;
  i64 completed_ LBC_GUARDED_BY(mu_) = 0;
  i64 failed_ LBC_GUARDED_BY(mu_) = 0;
  i64 rejected_ LBC_GUARDED_BY(mu_) = 0;
  i64 expired_ LBC_GUARDED_BY(mu_) = 0;
  i64 batches_ LBC_GUARDED_BY(mu_) = 0;
  i64 batched_requests_ LBC_GUARDED_BY(mu_) = 0;
  i64 fallback_served_ LBC_GUARDED_BY(mu_) = 0;
  std::array<i64, static_cast<size_t>(ShedReason::kReasonCount)> sheds_
      LBC_GUARDED_BY(mu_){};
  std::array<LaneState, kNumPriorities> lanes_ LBC_GUARDED_BY(mu_);
  std::vector<i64> batch_hist_ LBC_GUARDED_BY(mu_);
  std::vector<double> queue_wait_s_ LBC_GUARDED_BY(mu_);
  std::vector<double> latency_s_ LBC_GUARDED_BY(mu_);
  bool has_window_ LBC_GUARDED_BY(mu_) = false;
  Clock::time_point first_admitted_ LBC_GUARDED_BY(mu_){};
  Clock::time_point last_completed_ LBC_GUARDED_BY(mu_){};
};

}  // namespace lbc::serve
