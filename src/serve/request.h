// Request/response types of the serving runtime. A request carries one
// batch-1 activation tensor for the layer a scheduler instance serves; the
// scheduler coalesces admitted requests into micro-batches and answers with
// an InferResponse per request (through the future returned by submit()).
//
// Overload semantics ride on the request: every submission carries a tenant
// id, a priority class, and an optional deadline. Under pressure the
// admission path sheds strictly from the lowest priority class upward
// (kOverloaded), expired requests are dropped at batch formation
// (kDeadlineExceeded), and a tripped per-model circuit breaker fast-fails
// (kUnavailable) or degrades to the reference fallback chain. A request is
// NEVER left unresolved: every admitted future is eventually set.
#pragma once

#include <chrono>

#include "common/fallback.h"
#include "common/status.h"
#include "common/tensor.h"

namespace lbc::serve {

using Clock = std::chrono::steady_clock;

/// "No deadline": requests wait in the queue as long as admission allows.
inline constexpr Clock::time_point kNoDeadline = Clock::time_point::max();

/// Priority class of a request. Lower value = more important. Shedding
/// under overload walks classes from kBatch upward; a class never sheds
/// work to admit an equal-or-lower-priority request.
enum class Priority : int {
  kInteractive = 0,  ///< user-facing, latency-SLO traffic
  kStandard = 1,     ///< default class
  kBatch = 2,        ///< offline / best-effort; first to shed
};
inline constexpr int kNumPriorities = 3;

/// Stable name ("interactive", "standard", "batch") for reports.
const char* priority_name(Priority p);

/// Per-submission options (tenant, priority, deadline). The id-less default
/// is a no-deadline standard-priority request from tenant 0 — exactly the
/// pre-multi-tenant submit() behavior.
struct SubmitOptions {
  Clock::time_point deadline = kNoDeadline;
  int tenant = 0;  ///< weighted-fair-queueing key; weights per scheduler
  Priority priority = Priority::kStandard;
  bool probe = false;  ///< half-open circuit-breaker probe (set by the server)
};

struct InferRequest {
  u64 id = 0;            ///< assigned by the scheduler at admission
  Tensor<i8> input;      ///< batch-1 NCHW activation in the layer's bit range
  Clock::time_point deadline = kNoDeadline;  ///< drop if not started by then
  int tenant = 0;
  Priority priority = Priority::kStandard;
  bool probe = false;
};

struct InferResponse {
  u64 id = 0;
  Status status;         ///< kDeadlineExceeded / kOverloaded / kShuttingDown /
                         ///< kUnavailable / kInternal / conv errors
  Tensor<i32> output;    ///< batch-1 NCHW accumulators; set iff status.ok()
  double queue_wait_s = 0;    ///< admission -> micro-batch formation
  double latency_s = 0;       ///< admission -> response completion
  double model_seconds = 0;   ///< modeled device time of the batch it rode in
  int batch_size = 0;         ///< size of that micro-batch
  std::string executed_algo;  ///< kernel rung that produced the batch
  FallbackRecord fallback;    ///< degradation of that rung, if any
  int tenant = 0;
  Priority priority = Priority::kStandard;
  bool probe = false;         ///< response to a breaker half-open probe
};

}  // namespace lbc::serve
