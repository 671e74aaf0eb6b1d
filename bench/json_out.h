// Machine-readable bench documents (BENCH_*.json) and the bench-smoke gate
// that checks a run against its committed baseline in bench/baselines/.
//
// Every document shares one envelope, one flat record per line:
//
//   {
//     "bench": "<name>",
//     "unit": "<unit>",
//     "note": "<text>",                  <- only when the bench has one
//     "records": [
//       {"key": value, ...},
//       ...
//     ],
//     "totals": {"key": value, ...}
//   }
//
// Each field is exact (modeled, so deterministic) or measured (wall clock).
// A bench ends with publish(), which writes the document only where env
// LBC_BENCH_JSON points and, when env LBC_BENCH_BASELINE names a baseline,
// gates it by two rules:
//   * exact: every exact field of every record, and every exact total,
//     prints exactly as in the baseline, with the same records in the same
//     order. A mismatch prints each differing record beside its baseline
//     line, then the refresh command;
//   * ratio: each measured total the bench names stays within its factor
//     of the baseline's.
// Deliberately dependency-free: the writer is a few lines of stdio and the
// reader parses only this envelope.
#pragma once

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "armsim/cost_model.h"
#include "core/engine.h"

namespace lbc::bench {

/// One field as the document prints it: `text` is the JSON value (a
/// number, a quoted string, true or false).
struct Field {
  std::string key;
  std::string text;
  bool exact = true;  ///< false for a measured (wall-clock) value
};
using Fields = std::vector<Field>;

// Field constructors, one per printed form; exact = false marks a measured
// value, which only a ratio rule on a total ever reads.
inline Field fixed(std::string key, double v, int decimals,
                   bool exact = true) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", decimals, v);
  return {std::move(key), buf, exact};
}
inline Field integer(std::string key, long long v, bool exact = true) {
  return {std::move(key), std::to_string(v), exact};
}
inline Field quoted(std::string key, const std::string& s,
                    bool exact = true) {
  return {std::move(key), "\"" + s + "\"", exact};
}
inline Field boolean(std::string key, bool v) {
  return {std::move(key), v ? "true" : "false"};
}

/// One BENCH_*.json; `note` is left out of the file when empty.
struct Document {
  std::string bench, unit, note;
  std::vector<Fields> records;
  Fields totals;
};

/// `{"key": value, ...}`: a record line or the totals, as written.
inline std::string object_text(const Fields& fields) {
  std::string s = "{";
  for (const Field& f : fields)
    s += (s.size() > 1 ? ", \"" : "\"") + f.key + "\": " + f.text;
  return s + "}";
}

inline bool write_document(const std::string& path, const Document& doc) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "json: cannot open %s for writing\n", path.c_str());
    return false;
  }
  std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"unit\": \"%s\",\n",
               doc.bench.c_str(), doc.unit.c_str());
  if (!doc.note.empty())
    std::fprintf(f, "  \"note\": \"%s\",\n", doc.note.c_str());
  std::fprintf(f, "  \"records\": [\n");
  for (size_t i = 0; i < doc.records.size(); ++i)
    std::fprintf(f, "    %s%s\n", object_text(doc.records[i]).c_str(),
                 i + 1 < doc.records.size() ? "," : "");
  std::fprintf(f, "  ],\n  \"totals\": %s\n}\n",
               object_text(doc.totals).c_str());
  std::fclose(f);
  std::fprintf(stderr, "wrote %s (%zu records)\n", path.c_str(),
               doc.records.size());
  return true;
}

namespace detail {

struct Reader {
  const std::string& s;
  size_t i = 0;

  void skip() {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i])))
      ++i;
  }
  bool eat(char c) {
    skip();
    if (i == s.size() || s[i] != c) return false;
    ++i;
    return true;
  }
  /// A quoted string (quotes kept; the writer escapes nothing) or a bare
  /// number/true/false; empty when there is none.
  std::string value() {
    skip();
    const size_t b = i;
    const size_t e = i < s.size() && s[i] == '"'
                         ? s.find('"', i + 1)
                         : s.find_first_of(",}] \t\r\n", i);
    if (e == std::string::npos) return {};
    i = s[b] == '"' ? e + 1 : e;
    return s.substr(b, i - b);
  }
  /// `"key":`, unquoted; empty on a parse error.
  std::string key() {
    const std::string k = value();
    return !k.empty() && k[0] == '"' && eat(':') ? k.substr(1, k.size() - 2)
                                                 : std::string();
  }
  std::optional<Fields> object() {
    Fields out;
    if (!eat('{')) return std::nullopt;
    if (eat('}')) return out;
    do {
      std::string k = key();
      std::string v = value();
      if (k.empty() || v.empty()) return std::nullopt;
      out.push_back({std::move(k), std::move(v)});
    } while (eat(','));
    if (!eat('}')) return std::nullopt;
    return out;
  }
};

inline const Field* find(const Fields& fields, const std::string& key) {
  for (const Field& f : fields)
    if (f.key == key) return &f;
  return nullptr;
}

/// True when every exact field of `run` prints as in `base`.
inline bool exact_match(const Fields& run, const Fields& base) {
  return std::all_of(run.begin(), run.end(), [&](const Field& f) {
    const Field* b = find(base, f.key);
    return !f.exact || (b != nullptr && b->text == f.text);
  });
}

}  // namespace detail

/// The records and totals of a written document (every field's text
/// verbatim), or std::nullopt when the file cannot be read or parsed.
inline std::optional<Document> read_document(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::stringstream file;
  file << in.rdbuf();
  const std::string text = file.str();
  detail::Reader r{text};
  Document doc;
  if (!r.eat('{')) return std::nullopt;
  do {
    const std::string k = r.key();
    if (k == "records") {
      if (!r.eat('[')) return std::nullopt;
      if (r.eat(']')) continue;
      do {
        std::optional<Fields> rec = r.object();
        if (!rec) return std::nullopt;
        doc.records.push_back(std::move(*rec));
      } while (r.eat(','));
      if (!r.eat(']')) return std::nullopt;
    } else if (k == "totals") {
      std::optional<Fields> totals = r.object();
      if (!totals) return std::nullopt;
      doc.totals = std::move(*totals);
    } else if (k.empty() || r.value().empty()) {
      return std::nullopt;
    }
  } while (r.eat(','));
  if (!r.eat('}')) return std::nullopt;
  return doc;
}

/// A measured total the ratio rule bounds: this run's value must not
/// exceed `factor` times the baseline's.
struct RatioRule {
  const char* key;
  double factor;
};

/// The bench-smoke gate: checks `run` against the document at
/// `baseline_path` by the exact rule and `ratios`, printing the verdict to
/// stderr. Records are compared position by position when any record field
/// is exact.
inline bool gate_document(const Document& run,
                          const std::string& baseline_path,
                          std::span<const RatioRule> ratios,
                          const std::string& refresh) {
  const std::optional<Document> base = read_document(baseline_path);
  if (!base) {
    std::fprintf(stderr, "gate FAIL: cannot read the baseline %s\n",
                 baseline_path.c_str());
    return false;
  }
  bool exact_records = false;
  for (const Fields& r : run.records)
    for (const Field& f : r) exact_records = exact_records || f.exact;
  const size_t n =
      exact_records ? std::max(run.records.size(), base->records.size()) : 0;
  int differ = 0;
  for (size_t i = 0; i < n; ++i) {
    const bool have = i < run.records.size(), want = i < base->records.size();
    if (have && want && detail::exact_match(run.records[i], base->records[i]))
      continue;
    ++differ;
    std::fprintf(stderr,
                 "gate: record %zu differs\n  baseline %s\n  this run %s\n", i,
                 want ? object_text(base->records[i]).c_str() : "(none)",
                 have ? object_text(run.records[i]).c_str() : "(none)");
  }
  if (!detail::exact_match(run.totals, base->totals)) {
    ++differ;
    std::fprintf(stderr, "gate: totals differ\n  baseline %s\n  this run %s\n",
                 object_text(base->totals).c_str(),
                 object_text(run.totals).c_str());
  }
  bool ok = differ == 0;
  std::fprintf(stderr,
               "gate %s: exact rule, %d line(s) of %zu records and the totals "
               "differ from %s\n",
               ok ? "PASS" : "FAIL", differ, run.records.size(),
               baseline_path.c_str());
  for (const RatioRule& rule : ratios) {
    const Field* have = detail::find(run.totals, rule.key);
    const Field* want = detail::find(base->totals, rule.key);
    if (have == nullptr || want == nullptr) {
      std::fprintf(stderr, "gate FAIL: no total %s in %s\n", rule.key,
                   have == nullptr ? "this run" : baseline_path.c_str());
      ok = false;
      continue;
    }
    const double cur = std::strtod(have->text.c_str(), nullptr);
    const double limit = std::strtod(want->text.c_str(), nullptr);
    const bool within = cur <= limit * rule.factor;
    std::fprintf(stderr, "gate %s: %s %s vs baseline %s (%.3fx %s %.2fx)\n",
                 within ? "PASS" : "FAIL", rule.key, have->text.c_str(),
                 want->text.c_str(), cur / limit, within ? "<=" : ">",
                 rule.factor);
    ok = ok && within;
  }
  if (!ok)
    std::fprintf(stderr, "After a deliberate change refresh the baseline:\n"
                 "  %s\n", refresh.c_str());
  return ok;
}

/// A bench's last step: write `doc` where env LBC_BENCH_JSON points
/// (nowhere when it is unset) and, when env LBC_BENCH_BASELINE is set,
/// gate it. Returns the exit code, 0 or 1.
inline int publish(const Document& doc, const std::string& refresh,
                   std::span<const RatioRule> ratios = {}) {
  const char* json = std::getenv("LBC_BENCH_JSON");
  if (json != nullptr && json[0] != '\0' && !write_document(json, doc))
    return 1;
  const char* baseline = std::getenv("LBC_BENCH_BASELINE");
  if (baseline == nullptr || baseline[0] == '\0') return 0;
  return gate_document(doc, baseline, ratios, refresh) ? 0 : 1;
}

/// One (layer, bits, impl) record of the fig07 / fig09 / ablation
/// documents: modeled cycles, the Cortex-A53 cost-model breakdown and the
/// cache-model miss profile, every field exact.
struct ArmGemmRecord {
  bool ours = false;  ///< summed into the totals
  double cycles = 0, stall_cycles = 0;
  Fields fields;
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
      std::fabs(bi.total_cycles - r.cycles) <=
              std::fabs(bs.total_cycles - r.cycles)
          ? bi
          : bs;
  const u64 l1 = r.counts[armsim::Op::kL1Miss];
  const u64 l2 = r.counts[armsim::Op::kL2Miss];
  // Vector loads + stores (instruction-counted).
  const u64 accesses = r.counts.loads() + r.counts[armsim::Op::kSt1];
  const auto rate = [&](u64 misses) {
    return accesses == 0 ? 0.0
                         : static_cast<double>(misses) /
                               static_cast<double>(accesses);
  };
  return {impl == "ours", r.cycles, b.stall_cycles,
          {quoted("layer", layer), integer("bits", bits),
           quoted("impl", impl), fixed("cycles", r.cycles, 1),
           fixed("seconds", r.seconds, 9),
           fixed("mem_cycles", b.mem_cycles, 1),
           fixed("alu_cycles", b.alu_cycles, 1),
           fixed("scalar_cycles", b.scalar_cycles, 1),
           fixed("stall_cycles", b.stall_cycles, 1),
           integer("l1_misses", static_cast<long long>(l1)),
           integer("l2_misses", static_cast<long long>(l2)),
           integer("mem_accesses", static_cast<long long>(accesses)),
           fixed("l1_miss_rate", rate(l1), 6),
           fixed("l2_miss_rate", rate(l2), 6)}};
}

/// The fig07 / fig09 / ablation document; the totals sum the impl "ours"
/// records (the blocked GEMM, or fig09's TBL).
inline Document arm_gemm_document(const std::string& bench,
                                  const std::vector<ArmGemmRecord>& records) {
  Document doc{bench, "modeled-cycles", "", {}, {}};
  double total = 0, total_stall = 0;
  for (const ArmGemmRecord& r : records) {
    if (r.ours) {
      total += r.cycles;
      total_stall += r.stall_cycles;
    }
    doc.records.push_back(r.fields);
  }
  doc.totals = {fixed("total_blocked_cycles", total, 1),
                fixed("total_blocked_stall_cycles", total_stall, 1)};
  return doc;
}

}  // namespace lbc::bench
