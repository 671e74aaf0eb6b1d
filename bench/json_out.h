// Machine-readable bench output (BENCH_arm_gemm.json) so the modeled-cycle
// trajectory of the blocked ARM GEMM is tracked across PRs, plus the
// bench-smoke regression gate that compares a fresh run against the
// committed baseline.
//
// Deliberately dependency-free: the schema is one flat record array plus a
// totals object, so both the writer and the single-key baseline reader are
// a few lines of stdio.
#pragma once

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "armsim/cost_model.h"
#include "core/engine.h"

namespace lbc::bench {

/// One (layer, bits, impl) measurement: modeled cycles, the Cortex-A53
/// cost-model breakdown, and the cache-model miss profile.
struct ArmGemmRecord {
  std::string layer;
  int bits = 0;
  std::string impl;
  double cycles = 0;
  double seconds = 0;
  double mem_cycles = 0;
  double alu_cycles = 0;
  double scalar_cycles = 0;
  double stall_cycles = 0;
  u64 l1_misses = 0;
  u64 l2_misses = 0;
  u64 mem_accesses = 0;  ///< vector loads + stores (instruction-counted)

  double l1_miss_rate() const {
    return mem_accesses == 0
               ? 0.0
               : static_cast<double>(l1_misses) /
                     static_cast<double>(mem_accesses);
  }
  double l2_miss_rate() const {
    return mem_accesses == 0
               ? 0.0
               : static_cast<double>(l2_misses) /
                     static_cast<double>(mem_accesses);
  }
};

/// Works for both core::ArmLayerResult and armkern::ArmConvResult (same
/// counts / cycles / seconds members).
template <class Result>
ArmGemmRecord make_arm_gemm_record(const std::string& layer, int bits,
                                   const std::string& impl, const Result& r) {
  const armsim::CostModel cm = armsim::CostModel::cortex_a53();
  // The result does not carry the interleaving flag; recover it by picking
  // the breakdown whose total matches the driver's reported cycles (exact
  // for the single-threaded figure sweeps).
  const armsim::CostModel::Breakdown bi = cm.breakdown(r.counts, true);
  const armsim::CostModel::Breakdown bs = cm.breakdown(r.counts, false);
  const armsim::CostModel::Breakdown& b =
      std::fabs(bi.total_cycles - r.cycles) <= std::fabs(bs.total_cycles - r.cycles)
          ? bi
          : bs;
  ArmGemmRecord rec;
  rec.layer = layer;
  rec.bits = bits;
  rec.impl = impl;
  rec.cycles = r.cycles;
  rec.seconds = r.seconds;
  rec.mem_cycles = b.mem_cycles;
  rec.alu_cycles = b.alu_cycles;
  rec.scalar_cycles = b.scalar_cycles;
  rec.stall_cycles = b.stall_cycles;
  rec.l1_misses = r.counts[armsim::Op::kL1Miss];
  rec.l2_misses = r.counts[armsim::Op::kL2Miss];
  rec.mem_accesses = r.counts.loads() + r.counts[armsim::Op::kSt1];
  return rec;
}

/// Write the record set as one JSON document. `total_blocked_cycles` is the
/// regression-gate scalar: the summed modeled cycles of the blocked
/// (impl == "ours") records.
inline bool write_arm_gemm_json(const std::string& path,
                                const std::string& bench,
                                const std::vector<ArmGemmRecord>& records) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "json: cannot open %s for writing\n", path.c_str());
    return false;
  }
  double total_blocked = 0, total_stall = 0;
  for (const ArmGemmRecord& r : records) {
    if (r.impl == "ours") {
      total_blocked += r.cycles;
      total_stall += r.stall_cycles;
    }
  }
  std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"unit\": \"modeled-cycles\",\n",
               bench.c_str());
  std::fprintf(f, "  \"records\": [\n");
  for (size_t i = 0; i < records.size(); ++i) {
    const ArmGemmRecord& r = records[i];
    std::fprintf(
        f,
        "    {\"layer\": \"%s\", \"bits\": %d, \"impl\": \"%s\", "
        "\"cycles\": %.1f, \"seconds\": %.9f, "
        "\"mem_cycles\": %.1f, \"alu_cycles\": %.1f, "
        "\"scalar_cycles\": %.1f, \"stall_cycles\": %.1f, "
        "\"l1_misses\": %llu, \"l2_misses\": %llu, "
        "\"mem_accesses\": %llu, "
        "\"l1_miss_rate\": %.6f, \"l2_miss_rate\": %.6f}%s\n",
        r.layer.c_str(), r.bits, r.impl.c_str(), r.cycles, r.seconds,
        r.mem_cycles, r.alu_cycles, r.scalar_cycles, r.stall_cycles,
        static_cast<unsigned long long>(r.l1_misses),
        static_cast<unsigned long long>(r.l2_misses),
        static_cast<unsigned long long>(r.mem_accesses), r.l1_miss_rate(),
        r.l2_miss_rate(), i + 1 < records.size() ? "," : "");
  }
  std::fprintf(f,
               "  ],\n  \"totals\": {\"total_blocked_cycles\": %.1f, "
               "\"total_blocked_stall_cycles\": %.1f}\n}\n",
               total_blocked, total_stall);
  std::fclose(f);
  std::fprintf(stderr, "wrote %s (%zu records)\n", path.c_str(),
               records.size());
  return true;
}

/// Whole contents of a text file, or std::nullopt when it cannot be opened.
inline std::optional<std::string> read_text_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return std::nullopt;
  std::string text;
  char buf[4096];
  size_t got;
  while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, got);
  std::fclose(f);
  return text;
}

/// Scan a JSON file for `"key": <number>` and return the number, or a
/// negative value when the file or key is missing. Good enough for the flat
/// documents this header writes.
inline double read_json_number_field(const std::string& path,
                                     const std::string& key) {
  const std::optional<std::string> file = read_text_file(path);
  if (!file) return -1.0;
  const std::string& text = *file;
  const std::string needle = "\"" + key + "\":";
  const size_t pos = text.find(needle);
  if (pos == std::string::npos) return -1.0;
  return std::strtod(text.c_str() + pos + needle.size(), nullptr);
}

/// Bench-smoke regression gate. When env `LBC_BENCH_BASELINE` names a
/// committed baseline written by write_arm_gemm_json, fail (return nonzero)
/// unless this run's total_blocked_cycles prints exactly as the baseline's.
/// Modeled cycles are deterministic, so any difference is a behaviour
/// change: a regression, or a deliberate change whose baseline needs
/// `refresh_command`, which a mismatch prints.
inline int run_cycle_gate(double current_total_blocked_cycles,
                          const char* refresh_command) {
  const char* baseline_path = std::getenv("LBC_BENCH_BASELINE");
  if (baseline_path == nullptr || baseline_path[0] == '\0') return 0;
  const double baseline =
      read_json_number_field(baseline_path, "total_blocked_cycles");
  if (baseline <= 0) {
    std::fprintf(stderr, "cycle gate: no total_blocked_cycles in %s\n",
                 baseline_path);
    return 1;
  }
  // Compared as written: the JSON stores the total with one decimal.
  char have[64], want[64];
  std::snprintf(have, sizeof have, "%.1f", current_total_blocked_cycles);
  std::snprintf(want, sizeof want, "%.1f", baseline);
  if (std::strcmp(have, want) != 0) {
    std::fprintf(stderr,
                 "cycle gate FAIL: %s modeled cycles vs baseline %s in %s "
                 "(%.6fx; the gate requires an exact match). After a "
                 "deliberate change refresh the baseline: %s\n",
                 have, want, baseline_path,
                 current_total_blocked_cycles / baseline, refresh_command);
    return 1;
  }
  std::fprintf(stderr,
               "cycle gate PASS: %s modeled cycles, baseline %s (exact)\n",
               have, want);
  return 0;
}

}  // namespace lbc::bench
