#include "serve/metrics.h"

#include <algorithm>

#include "core/report.h"

namespace lbc::serve {

const char* priority_name(Priority p) {
  switch (p) {
    case Priority::kInteractive: return "interactive";
    case Priority::kStandard: return "standard";
    case Priority::kBatch: return "batch";
  }
  return "unknown";
}

const char* shed_reason_name(ShedReason r) {
  switch (r) {
    case ShedReason::kQueueFull: return "queue_full";
    case ShedReason::kDisplaced: return "displaced";
    case ShedReason::kDeadline: return "deadline";
    case ShedReason::kShutdown: return "shutdown";
    case ShedReason::kBreakerOpen: return "breaker_open";
    case ShedReason::kReasonCount: break;
  }
  return "unknown";
}

void ServeMetrics::record_admitted(Clock::time_point now) {
  MutexLock lock(mu_);
  if (!has_window_) {
    first_admitted_ = now;
    has_window_ = true;
  }
}

void ServeMetrics::record_shed(ShedReason reason, Priority priority) {
  MutexLock lock(mu_);
  ++sheds_[static_cast<size_t>(reason)];
  if (reason == ShedReason::kQueueFull) ++rejected_;
  if (reason != ShedReason::kDeadline)
    ++lanes_[lane_index(priority)].shed;
}

void ServeMetrics::record_expired(Priority priority) {
  MutexLock lock(mu_);
  ++expired_;
  ++sheds_[static_cast<size_t>(ShedReason::kDeadline)];
  ++lanes_[lane_index(priority)].expired;
}

void ServeMetrics::record_fallback_served() {
  MutexLock lock(mu_);
  ++fallback_served_;
}

void ServeMetrics::record_batch(int batch_size) {
  if (batch_size <= 0) return;
  MutexLock lock(mu_);
  ++batches_;
  batched_requests_ += batch_size;
  if (batch_hist_.size() < static_cast<size_t>(batch_size))
    batch_hist_.resize(static_cast<size_t>(batch_size), 0);
  ++batch_hist_[static_cast<size_t>(batch_size - 1)];
}

void ServeMetrics::record_completion(double queue_wait_s, double latency_s,
                                     bool ok, Clock::time_point now,
                                     Priority priority) {
  MutexLock lock(mu_);
  LaneState& lane = lanes_[lane_index(priority)];
  if (ok) {
    ++completed_;
    ++lane.completed;
  } else {
    ++failed_;
    ++lane.failed;
  }
  if (queue_wait_s_.size() < kMaxSamples) {
    queue_wait_s_.push_back(queue_wait_s);
    latency_s_.push_back(latency_s);
  }
  if (lane.latency_s.size() < kMaxSamples) lane.latency_s.push_back(latency_s);
  if (!has_window_ || now > last_completed_) last_completed_ = now;
}

MetricsSnapshot ServeMetrics::snapshot() const {
  MutexLock lock(mu_);
  MetricsSnapshot s;
  s.completed = completed_;
  s.failed = failed_;
  s.rejected = rejected_;
  s.expired = expired_;
  s.batches = batches_;
  s.batch_hist = batch_hist_;
  s.mean_batch = batches_ == 0 ? 0
                               : static_cast<double>(batched_requests_) /
                                     static_cast<double>(batches_);
  s.sheds = sheds_;
  s.displaced = sheds_[static_cast<size_t>(ShedReason::kDisplaced)];
  s.drained_shutdown = sheds_[static_cast<size_t>(ShedReason::kShutdown)];
  s.unavailable = sheds_[static_cast<size_t>(ShedReason::kBreakerOpen)];
  s.fallback_served = fallback_served_;
  const i64 shed_total =
      s.rejected + s.displaced + s.drained_shutdown + s.unavailable;
  const i64 offered = completed_ + failed_ + expired_ + shed_total;
  s.shed_rate = offered == 0 ? 0
                             : static_cast<double>(shed_total) /
                                   static_cast<double>(offered);
  for (int p = 0; p < kNumPriorities; ++p) {
    const LaneState& ls = lanes_[static_cast<size_t>(p)];
    PriorityLane& lane = s.lanes[static_cast<size_t>(p)];
    lane.completed = ls.completed;
    lane.failed = ls.failed;
    lane.expired = ls.expired;
    lane.shed = ls.shed;
    lane.latency_p50_s = core::percentile(ls.latency_s, 50);
    lane.latency_p99_s = core::percentile(ls.latency_s, 99);
  }
  s.queue_wait_p50_s = core::percentile(queue_wait_s_, 50);
  s.queue_wait_p95_s = core::percentile(queue_wait_s_, 95);
  s.queue_wait_p99_s = core::percentile(queue_wait_s_, 99);
  s.latency_p50_s = core::percentile(latency_s_, 50);
  s.latency_p95_s = core::percentile(latency_s_, 95);
  s.latency_p99_s = core::percentile(latency_s_, 99);
  if (!latency_s_.empty()) {
    double sum = 0;
    for (double v : latency_s_) sum += v;
    s.mean_latency_s = sum / static_cast<double>(latency_s_.size());
  }
  if (has_window_ && last_completed_ > first_admitted_) {
    s.window_s = std::chrono::duration<double>(last_completed_ -
                                               first_admitted_)
                     .count();
    s.throughput_rps = static_cast<double>(completed_) / s.window_s;
  }
  return s;
}

void ServeMetrics::reset() {
  MutexLock lock(mu_);
  completed_ = failed_ = rejected_ = expired_ = 0;
  batches_ = batched_requests_ = 0;
  fallback_served_ = 0;
  sheds_.fill(0);
  for (LaneState& lane : lanes_) {
    lane = LaneState{};
  }
  batch_hist_.clear();
  queue_wait_s_.clear();
  latency_s_.clear();
  has_window_ = false;
  first_admitted_ = Clock::time_point{};
  last_completed_ = Clock::time_point{};
}

void ServeMetrics::print(const std::string& title) const {
  const MetricsSnapshot s = snapshot();
  std::vector<core::MetricRow> rows = {
      {"completed", static_cast<double>(s.completed), "req"},
      {"failed", static_cast<double>(s.failed), "req"},
      {"rejected (overloaded)", static_cast<double>(s.rejected), "req"},
      {"displaced (shed)", static_cast<double>(s.displaced), "req"},
      {"expired (deadline)", static_cast<double>(s.expired), "req"},
      {"unavailable (breaker)", static_cast<double>(s.unavailable), "req"},
      {"fallback served", static_cast<double>(s.fallback_served), "req"},
      {"shed rate", s.shed_rate * 100.0, "%"},
      {"batches", static_cast<double>(s.batches), ""},
      {"mean batch size", s.mean_batch, ""},
      {"queue wait p50", s.queue_wait_p50_s * 1e3, "ms"},
      {"queue wait p95", s.queue_wait_p95_s * 1e3, "ms"},
      {"queue wait p99", s.queue_wait_p99_s * 1e3, "ms"},
      {"latency p50", s.latency_p50_s * 1e3, "ms"},
      {"latency p95", s.latency_p95_s * 1e3, "ms"},
      {"latency p99", s.latency_p99_s * 1e3, "ms"},
      {"throughput", s.throughput_rps, "req/s"},
  };
  for (int p = 0; p < kNumPriorities; ++p) {
    const PriorityLane& lane = s.lanes[static_cast<size_t>(p)];
    if (lane.completed + lane.failed + lane.expired + lane.shed == 0) continue;
    const std::string pname = priority_name(static_cast<Priority>(p));
    rows.push_back({pname + " completed",
                    static_cast<double>(lane.completed), "req"});
    rows.push_back({pname + " shed", static_cast<double>(lane.shed), "req"});
    rows.push_back({pname + " p99", lane.latency_p99_s * 1e3, "ms"});
  }
  for (size_t b = 0; b < s.batch_hist.size(); ++b)
    if (s.batch_hist[b] > 0)
      rows.push_back({"batch size " + std::to_string(b + 1),
                      static_cast<double>(s.batch_hist[b]), "batches"});
  core::print_metric_table(title, rows);
}

}  // namespace lbc::serve
