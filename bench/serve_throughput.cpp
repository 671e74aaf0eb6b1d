// Serving-tier bench, two parts:
//
//  1. Micro-batching vs serial (batch-1) execution of a classifier-head
//     layer — the PR-4 throughput comparison, kept as a floor check
//     (batching must stay >= 2x serial at offered load >= 4, and the
//     compiled plan must amortize the per-request weight pack).
//
//  2. A trace-driven soak of the overload-hardened tier: three quantized
//     models behind one ModelServer (shared memory-budgeted plan cache),
//     bursty/diurnal open-loop arrivals with mixed tenants, priority
//     classes and deadlines, and an injected mid-trace incident
//     (serve.worker_throw + plan.compile_fail). The soak gates the
//     liveness contract — every submission resolves with a status from
//     the serving vocabulary, breakers trip during the incident and
//     recover through half-open probes afterwards, low-priority work is
//     shed while high-priority p99 holds — and emits BENCH_serve.json where
//     LBC_BENCH_JSON points (bench/json_out.h; every field is measured).
//     When LBC_BENCH_BASELINE is set, interactive p99 (normalized by the
//     calibrated per-request service time, so the gate tracks queueing
//     structure rather than machine speed) and the client-visible shed
//     rate must stay within 1.05x of the committed baseline.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injection.h"
#include "common/rng.h"
#include "core/conv_plan.h"
#include "core/report.h"
#include "json_out.h"
#include "serve/server.h"

namespace {

using namespace lbc;

ConvShape head_layer() {
  ConvShape s;
  s.name = "head";
  s.batch = 1;
  s.in_c = 512;
  s.in_h = 1;
  s.in_w = 1;
  s.out_c = 1000;
  s.kernel = 1;
  s.stride = 1;
  s.pad = 0;
  return s;
}

// ---------------------------------------------------------------------------
// Part 1: micro-batching vs serial throughput (trimmed PR-4 comparison).
// ---------------------------------------------------------------------------

struct RunResult {
  double wall_s = 0;
  serve::MetricsSnapshot metrics;
  i64 plan_cache_misses = 0;  ///< plan compilations (1 = create() warm-up)
};

/// `clients` closed-loop threads, each submitting `per_client` requests
/// back to back (submit, wait for the response, repeat).
RunResult run_load(const ConvShape& shape, const Tensor<i8>& weight,
                   const serve::SchedulerOptions& opt, int clients,
                   int per_client) {
  auto sched = serve::BatchScheduler::create(shape, weight, opt).value();

  const auto t0 = serve::Clock::now();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(clients));
  for (int c = 0; c < clients; ++c)
    threads.emplace_back([&, c] {
      for (int i = 0; i < per_client; ++i) {
        const Tensor<i8> in = random_qtensor(
            Shape4{1, shape.in_c, shape.in_h, shape.in_w}, opt.bits,
            static_cast<u64>(c * 10000 + i));
        auto r = sched->submit(in);
        if (!r.ok()) continue;
        (void)std::move(r).value().get();
      }
    });
  for (auto& t : threads) t.join();
  RunResult res;
  res.wall_s = std::chrono::duration<double>(serve::Clock::now() - t0).count();
  sched->shutdown();
  res.metrics = sched->metrics().snapshot();
  res.plan_cache_misses = sched->plan_cache().misses();
  return res;
}

/// Returns true when batching holds the >= 2x floor at load >= 4 and the
/// plan amortizes the per-request pack cost.
bool run_batching_comparison(const ConvShape& shape, const Tensor<i8>& weight) {
  serve::SchedulerOptions serial;
  serial.max_batch = 1;  // the no-batching baseline
  serial.max_wait_us = 0;

  serve::SchedulerOptions batched = serial;
  batched.max_batch = 8;
  batched.max_wait_us = 2000;

  constexpr int kPerClient = 40;
  std::printf(
      "\n== Part 1: micro-batching vs batch-1, %s (%lld -> %lld), "
      "%d req/client ==\n",
      shape.name.c_str(), static_cast<long long>(shape.in_c),
      static_cast<long long>(shape.out_c), kPerClient);
  const core::ConvPlan plan = core::plan_arm_conv(shape, weight, 8).value();
  const double pack_cycles = plan.pack_cycles();

  std::printf("%-8s %14s %14s %10s %10s\n", "load", "serial(req/s)",
              "batched(req/s)", "speedup", "mean-bs");
  double min_speedup_loaded = 1e30;
  double worst_planned_pack_per_req = 0;
  for (int load : {1, 4, 8}) {
    const RunResult rs = run_load(shape, weight, serial, load, kPerClient);
    const RunResult rb = run_load(shape, weight, batched, load, kPerClient);
    const double total = static_cast<double>(load) * kPerClient;
    const double speedup = (total / rb.wall_s) / (total / rs.wall_s);
    std::printf("%-8d %14.1f %14.1f %9.2fx %10.2f\n", load, total / rs.wall_s,
                total / rb.wall_s, speedup, rb.metrics.mean_batch);
    if (load >= 4 && speedup < min_speedup_loaded) min_speedup_loaded = speedup;
    if (rb.metrics.completed > 0)
      worst_planned_pack_per_req = std::max(
          worst_planned_pack_per_req,
          pack_cycles * static_cast<double>(rb.plan_cache_misses) /
              static_cast<double>(rb.metrics.completed));
  }
  const bool pack_amortized = worst_planned_pack_per_req < pack_cycles;
  std::printf(
      "-- part 1: batching >= %.2fx serial at load >= 4 (floor 2.00x); "
      "pack cycles/req %.0f planned vs %.0f packed per call --\n",
      min_speedup_loaded, worst_planned_pack_per_req, pack_cycles);
  return min_speedup_loaded >= 2.0 && pack_amortized;
}

// ---------------------------------------------------------------------------
// Part 2: trace-driven multi-model soak.
// ---------------------------------------------------------------------------

struct PhaseSpec {
  const char* name;
  double offered;    ///< arrivals per calibrated service unit
  int arrivals;      ///< requests dispatched in this phase
  double throw_p;    ///< serve.worker_throw probability (0 = unarmed)
  double compile_p;  ///< plan.compile_fail probability (0 = unarmed)
};

/// The diurnal trace: calm morning, peak burst, a fault incident at
/// steady load, then the recovery tail.
constexpr PhaseSpec kPhases[] = {
    {"calm", 0.7, 60, 0.0, 0.0},
    {"burst", 3.0, 120, 0.0, 0.0},
    {"incident", 1.0, 90, 0.6, 0.4},
    {"recovery", 0.8, 90, 0.0, 0.0},
};
constexpr int kNumPhases = 4;
constexpr int kRecoveryDrivePhase = kNumPhases;  ///< synthetic extra bucket

struct Submission {
  std::future<serve::InferResponse> fut;
  serve::Priority priority = serve::Priority::kStandard;
  int phase = 0;
};

struct SoakTally {
  i64 submitted = 0;
  i64 unresolved = 0;
  i64 malformed = 0;  ///< statuses outside the serving vocabulary
  i64 by_code[32] = {};
  i64 by_phase_shed[kNumPhases + 1] = {};
  i64 interactive_total = 0;
  i64 interactive_expired = 0;
  std::vector<double> interactive_ok_latency_s;
  std::vector<double> all_ok_latency_s;

  void count(StatusCode c, serve::Priority prio, int phase, double latency_s) {
    ++submitted;
    ++by_code[static_cast<int>(c)];
    const bool vocab = c == StatusCode::kOk ||
                       c == StatusCode::kDeadlineExceeded ||
                       c == StatusCode::kOverloaded ||
                       c == StatusCode::kUnavailable ||
                       c == StatusCode::kInternal ||
                       c == StatusCode::kShuttingDown;
    if (!vocab) ++malformed;
    if (c == StatusCode::kOverloaded || c == StatusCode::kUnavailable)
      ++by_phase_shed[phase];
    if (prio == serve::Priority::kInteractive) {
      ++interactive_total;
      if (c == StatusCode::kDeadlineExceeded) ++interactive_expired;
    }
    if (c == StatusCode::kOk) {
      all_ok_latency_s.push_back(latency_s);
      if (prio == serve::Priority::kInteractive) {
        interactive_ok_latency_s.push_back(latency_s);
        if (std::getenv("LBC_SOAK_TRACE") != nullptr)
          std::fprintf(stderr, "trace: phase=%d latency=%.1fms\n", phase,
                       latency_s * 1e3);
      }
    }
  }
  i64 code(StatusCode c) const { return by_code[static_cast<int>(c)]; }
};

serve::ModelOptions soak_model_options(int bits) {
  serve::ModelOptions mo;
  mo.sched.max_batch = 2;
  mo.sched.max_wait_us = 300;
  mo.sched.queue_capacity = 8;
  mo.sched.max_inflight_batches = 1;
  mo.sched.bits = bits;
  mo.sched.tenant_weights = {{0, 2.0}, {1, 1.0}, {2, 1.0}};
  mo.breaker.consecutive_failures = 3;
  mo.breaker.window = 32;
  mo.breaker.deadline_miss_rate = 0.5;
  mo.breaker.min_window_samples = 8;
  mo.breaker.cooldown = std::chrono::milliseconds(20);
  mo.breaker.probe_successes = 2;
  return mo;
}

/// Mean round-trip service time of one model under no load, the trace's
/// time unit (clamped so sleep-based pacing stays meaningful).
double calibrate_unit_s(serve::ModelServer& server,
                        const std::vector<std::string>& names,
                        const ConvShape& shape) {
  double worst_mean = 0;
  for (const std::string& name : names) {
    double sum = 0;
    constexpr int kReps = 4;
    for (int i = 0; i < kReps; ++i) {
      const Tensor<i8> in = random_qtensor(
          Shape4{1, shape.in_c, shape.in_h, shape.in_w}, 8,
          static_cast<u64>(900 + i));
      const auto t0 = serve::Clock::now();
      auto r = server.submit(name, in);
      if (r.ok()) (void)std::move(r).value().get();
      sum += std::chrono::duration<double>(serve::Clock::now() - t0).count();
    }
    worst_mean = std::max(worst_mean, sum / kReps);
  }
  return std::min(std::max(worst_mean, 200e-6), 5e-3);
}

bool run_soak(const ConvShape& shape) {
  using namespace std::chrono;
  std::printf("\n== Part 2: bursty multi-model soak with fault incident ==\n");

  // Budget the shared plan cache below three resident plans so acquisition
  // churns (and the incident's plan.compile_fail site actually fires).
  i64 one_plan_bytes = 0;
  {
    serve::ModelRegistry probe;
    serve::ModelSpec spec;
    spec.shape = shape;
    spec.weight = random_qtensor(
        Shape4{shape.out_c, shape.in_c, shape.kernel, shape.kernel}, 8, 7);
    (void)probe.register_model("probe", std::move(spec));
    (void)probe.acquire_plan("probe");
    one_plan_bytes = probe.stats().resident_plan_bytes;
  }
  serve::ServerOptions so;
  so.registry.plan_budget_bytes = one_plan_bytes * 5 / 2;
  serve::ModelServer server(so);

  const std::vector<std::string> names = {"alpha", "beta", "gamma"};
  const int model_bits[] = {8, 4, 2};
  for (size_t i = 0; i < names.size(); ++i) {
    serve::ModelOptions mo = soak_model_options(model_bits[i]);
    // beta degrades to the reference chain when tripped; the others
    // fast-fail.
    mo.breaker_mode = (i == 1) ? serve::BreakerMode::kReferenceFallback
                               : serve::BreakerMode::kFastFail;
    const Tensor<i8> w = random_qtensor(
        Shape4{shape.out_c, shape.in_c, shape.kernel, shape.kernel},
        model_bits[i], 40 + static_cast<u64>(i));
    const Status st = server.add_model(names[i], shape, w, mo);
    if (!st.ok()) {
      std::fprintf(stderr, "add_model(%s): %s\n", names[i].c_str(),
                   st.to_string().c_str());
      return false;
    }
  }

  const double unit_s = calibrate_unit_s(server, names, shape);
  std::printf("calibrated service unit: %.3f ms\n", unit_s * 1e3);

  // Open-loop dispatch of the diurnal trace. Exponential inter-arrival
  // jitter (Poisson arrivals) on top of each phase's offered-load level.
  Rng rng(20260807);
  SoakTally tally;
  std::vector<Submission> pending;
  for (int p = 0; p < kNumPhases; ++p) {
    const PhaseSpec& ph = kPhases[p];
    ScopedFault throw_fault(FaultSite::kServeWorkerThrow, /*fire_count=*/
                            ph.throw_p > 0 ? -1 : 0, ph.throw_p, /*seed=*/42);
    ScopedFault compile_fault(FaultSite::kPlanCompileFail,
                              ph.compile_p > 0 ? -1 : 0, ph.compile_p,
                              /*seed=*/7);
    for (int i = 0; i < ph.arrivals; ++i) {
      const double jitter = -std::log(
          std::max(1e-9, static_cast<double>(rng.next_u64() % 100000) / 1e5));
      std::this_thread::sleep_for(
          duration<double>(unit_s / ph.offered * jitter));

      serve::SubmitOptions sub;
      sub.tenant = static_cast<int>(rng.next_u64() % 3);
      const u64 pri = rng.next_u64() % 100;
      sub.priority = pri < 30   ? serve::Priority::kInteractive
                     : pri < 70 ? serve::Priority::kStandard
                                : serve::Priority::kBatch;
      // The interactive deadline is the latency SLO: expiry at batch
      // formation bounds the completed-latency tail by construction, which
      // keeps the normalized-p99 gate structural instead of tail-lucky.
      if (sub.priority == serve::Priority::kInteractive)
        sub.deadline = serve::Clock::now() + duration_cast<nanoseconds>(
                                                 duration<double>(15 * unit_s));
      else if (sub.priority == serve::Priority::kStandard)
        sub.deadline = serve::Clock::now() + duration_cast<nanoseconds>(
                                                 duration<double>(60 * unit_s));
      const std::string& model = names[rng.next_u64() % names.size()];
      const Tensor<i8> in = random_qtensor(
          Shape4{1, shape.in_c, shape.in_h, shape.in_w}, 8,
          static_cast<u64>(p * 1000 + i));
      auto r = server.submit(model, in, sub);
      if (r.ok())
        pending.push_back(Submission{std::move(r).value(), sub.priority, p});
      else
        tally.count(r.status().code(), sub.priority, p, 0.0);
    }
  }

  // Resolve the trace. A future that does not settle is the one failure
  // mode the tier promises away.
  for (Submission& s : pending) {
    if (s.fut.wait_for(seconds(30)) != std::future_status::ready) {
      ++tally.unresolved;
      ++tally.submitted;
      continue;
    }
    const serve::InferResponse resp = s.fut.get();
    tally.count(resp.status.code(), s.priority, s.phase, resp.latency_s);
  }

  // Drive recovery to closure: post-incident traffic acts as half-open
  // probes until every breaker has closed again.
  bool all_closed = false;
  for (int round = 0; round < 600 && !all_closed; ++round) {
    all_closed = true;
    for (const std::string& name : names) {
      if (server.breaker(name)->state() == serve::BreakerState::kClosed)
        continue;
      all_closed = false;
      const Tensor<i8> in = random_qtensor(
          Shape4{1, shape.in_c, shape.in_h, shape.in_w}, 8,
          static_cast<u64>(5000 + round));
      auto r = server.submit(name, in);
      if (r.ok()) {
        const serve::InferResponse resp = std::move(r).value().get();
        tally.count(resp.status.code(), serve::Priority::kStandard,
                    kRecoveryDrivePhase, resp.latency_s);
      } else {
        tally.count(r.status().code(), serve::Priority::kStandard,
                    kRecoveryDrivePhase, 0.0);
      }
    }
    if (!all_closed) std::this_thread::sleep_for(milliseconds(5));
  }

  // Per-model rollup before shutdown, read through the operator-facing
  // health_snapshot(): breaker state with the age of its last transition
  // plus the full ShedReason accounting, exactly what a health endpoint
  // would export.
  i64 trips = 0, fallback_served = 0;
  i64 low_priority_shed = 0, interactive_shed = 0;
  int models_tripped = 0;
  const serve::Clock::time_point now = serve::Clock::now();
  for (const serve::ModelHealth& h : server.health_snapshot()) {
    trips += h.breaker_trips;
    if (h.breaker_trips > 0) ++models_tripped;
    const serve::MetricsSnapshot& m = h.metrics;
    fallback_served += m.fallback_served;
    low_priority_shed +=
        m.lanes[static_cast<size_t>(serve::Priority::kBatch)].shed;
    interactive_shed +=
        m.lanes[static_cast<size_t>(serve::Priority::kInteractive)].shed;
    std::string sheds;
    for (size_t r = 0; r < m.sheds.size(); ++r) {
      if (m.sheds[r] == 0) continue;
      if (!sheds.empty()) sheds += " ";
      sheds += std::string(serve::shed_reason_name(
                   static_cast<serve::ShedReason>(r))) +
               "=" + std::to_string(m.sheds[r]);
    }
    char age[32];
    if (h.last_transition == serve::Clock::time_point{}) {
      std::snprintf(age, sizeof(age), "never");
    } else {
      std::snprintf(
          age, sizeof(age), "%.0fms ago",
          std::chrono::duration<double, std::milli>(now - h.last_transition)
              .count());
    }
    std::printf("model %-6s breaker=%s trips=%lld last-transition=%s "
                "fallback=%lld sheds{%s}\n",
                h.name.c_str(), server.breaker(h.name)->describe().c_str(),
                static_cast<long long>(h.breaker_trips), age,
                static_cast<long long>(m.fallback_served),
                sheds.empty() ? "none" : sheds.c_str());
  }
  server.shutdown();

  const double p99_s = core::percentile(tally.interactive_ok_latency_s, 99);
  const double p99_norm = p99_s / unit_s;
  const double p50_norm =
      core::percentile(tally.interactive_ok_latency_s, 50) / unit_s;
  const double miss_frac =
      tally.interactive_total == 0
          ? 0.0
          : static_cast<double>(tally.interactive_expired) /
                static_cast<double>(tally.interactive_total);
  const double shed_rate =
      tally.submitted == 0
          ? 0.0
          : static_cast<double>(tally.code(StatusCode::kOverloaded) +
                                tally.code(StatusCode::kUnavailable)) /
                static_cast<double>(tally.submitted);

  std::vector<core::MetricRow> rows = {
      {"submitted", static_cast<double>(tally.submitted), "req"},
      {"ok", static_cast<double>(tally.code(StatusCode::kOk)), "req"},
      {"deadline exceeded",
       static_cast<double>(tally.code(StatusCode::kDeadlineExceeded)), "req"},
      {"overloaded (shed)",
       static_cast<double>(tally.code(StatusCode::kOverloaded)), "req"},
      {"unavailable (breaker)",
       static_cast<double>(tally.code(StatusCode::kUnavailable)), "req"},
      {"internal (fault era)",
       static_cast<double>(tally.code(StatusCode::kInternal)), "req"},
      {"unresolved", static_cast<double>(tally.unresolved), "req"},
      {"interactive p99", p99_s * 1e3, "ms"},
      {"interactive p99 (norm)", p99_norm, "units"},
      {"interactive p50 (norm)", p50_norm, "units"},
      {"interactive miss frac", miss_frac * 100.0, "%"},
      {"shed rate", shed_rate * 100.0, "%"},
      {"breaker trips", static_cast<double>(trips), ""},
      {"fallback served", static_cast<double>(fallback_served), "req"},
      {"low-priority shed", static_cast<double>(low_priority_shed), "req"},
  };
  core::print_metric_table("soak totals", rows);

  const auto count = [](const char* key, i64 v) {
    return bench::integer(key, v, /*exact=*/false);
  };
  bench::Document doc{"serve_soak", "calibrated-service-units", "", {}, {}};
  for (int p = 0; p <= kNumPhases; ++p)
    doc.records.push_back(
        {bench::quoted("phase",
                       p < kNumPhases ? kPhases[p].name : "recovery-drive",
                       false),
         count("shed", tally.by_phase_shed[p])});
  doc.totals = {
      count("submitted", tally.submitted),
      count("ok", tally.code(StatusCode::kOk)),
      count("deadline_exceeded", tally.code(StatusCode::kDeadlineExceeded)),
      count("overloaded", tally.code(StatusCode::kOverloaded)),
      count("unavailable", tally.code(StatusCode::kUnavailable)),
      count("internal_faults", tally.code(StatusCode::kInternal)),
      count("unresolved", tally.unresolved),
      count("malformed", tally.malformed),
      bench::fixed("interactive_p99_norm", p99_norm, 3, false),
      bench::fixed("interactive_p50_norm", p50_norm, 3, false),
      bench::fixed("interactive_miss_fraction", miss_frac, 6, false),
      bench::fixed("shed_rate", shed_rate, 6, false),
      count("breaker_trips", trips),
      count("models_tripped", models_tripped),
      count("fallback_served", fallback_served),
      count("low_priority_shed", low_priority_shed)};

  // Structural gates: the liveness/degradation contract, machine
  // independent.
  bool ok = true;
  const auto gate = [&ok](bool cond, const char* what) {
    if (!cond) {
      std::fprintf(stderr, "soak gate FAIL: %s\n", what);
      ok = false;
    }
  };
  gate(tally.unresolved == 0, "a submission was left unresolved");
  gate(tally.malformed == 0, "a status fell outside the serving vocabulary");
  gate(tally.code(StatusCode::kOk) > 0, "no request succeeded");
  gate(!tally.interactive_ok_latency_s.empty(),
       "no interactive request completed");
  gate(low_priority_shed > 0, "the burst shed no low-priority work");
  gate(interactive_shed <= low_priority_shed,
       "shedding did not favor the high-priority lane");
  // Priority inversion shows up as interactive requests expiring in the
  // queue behind lower-priority work; displacement shedding keeps this
  // fraction small (typically < 10%) even through the burst.
  gate(miss_frac <= 0.30, "interactive deadline-miss fraction above 30%");
  gate(models_tripped >= 2, "the incident tripped fewer than 2 breakers");
  gate(all_closed, "a breaker never recovered through half-open probes");
  gate(fallback_served > 0, "the tripped fallback model served nothing");
  if (ok)
    std::printf("-- soak: %lld submissions all resolved; %d/%zu breakers "
                "tripped and recovered; p99(norm) %.2f, shed rate %.1f%% --\n",
                static_cast<long long>(tally.submitted), models_tripped,
                names.size(), p99_norm, shed_rate * 100.0);

  // The SLO gate: both totals "must not grow" past 1.05x the baseline.
  static constexpr bench::RatioRule kSloRules[] = {
      {"interactive_p99_norm", 1.05}, {"shed_rate", 1.05}};
  const bool gated =
      bench::publish(doc,
                     "LBC_BENCH_JSON=bench/baselines/BENCH_serve.json "
                     "build/bench/serve_throughput (then re-add headroom)",
                     kSloRules) == 0;
  return ok && gated;
}

}  // namespace

int main() {
  core::print_environment_banner();
  const ConvShape shape = head_layer();
  const Tensor<i8> weight = random_qtensor(
      Shape4{shape.out_c, shape.in_c, shape.kernel, shape.kernel}, 8, 7);

  const bool part1 = run_batching_comparison(shape, weight);
  const bool part2 = run_soak(shape);
  if (!part1) std::fprintf(stderr, "FAIL: part 1 (micro-batching floor)\n");
  if (!part2) std::fprintf(stderr, "FAIL: part 2 (overload soak)\n");
  return part1 && part2 ? 0 : 1;
}
