#include "gpukern/tuning_cache.h"

#include <sstream>
#include <vector>

#include "common/fault_injection.h"

namespace lbc::gpukern {

Status validate_tiling(const Tiling& t) {
  LBC_VALIDATE(t.mtile > 0 && t.ntile > 0 && t.ktile > 0 && t.kstep > 0,
               kOutOfRange, "non-positive tile dimension");
  LBC_VALIDATE(t.mtile <= 1024 && t.ntile <= 1024 && t.ktile <= 1024,
               kOutOfRange, "tile dimension exceeds 1024");
  LBC_VALIDATE(t.kstep <= t.ktile && t.ktile % t.kstep == 0, kOutOfRange,
               "KTile (" << t.ktile << ") must be a positive multiple of KStep ("
                         << t.kstep << ")");
  LBC_VALIDATE(t.warp_rows >= 1 && t.warp_rows <= 16 && t.warp_cols >= 1 &&
                   t.warp_cols <= 16,
               kOutOfRange, "warp grid must be within 16x16");
  LBC_VALIDATE(t.mtile % t.warp_rows == 0 && t.ntile % t.warp_cols == 0,
               kOutOfRange, "tile must split evenly across the warp grid");
  return Status();
}

Status validate_arm_blocking(const ArmBlocking& b) {
  LBC_VALIDATE(b.mc > 0 && b.kc > 0 && b.nc > 0, kOutOfRange,
               "non-positive ARM block dimension");
  LBC_VALIDATE(b.mc <= 4096 && b.kc <= 4096 && b.nc <= 4096, kOutOfRange,
               "ARM block dimension exceeds 4096");
  LBC_VALIDATE(b.mc % 16 == 0, kOutOfRange,
               "Mc (" << b.mc << ") must be a multiple of the 16-row panel");
  LBC_VALIDATE(b.nc % 4 == 0, kOutOfRange,
               "Nc (" << b.nc << ") must be a multiple of the 4-column panel");
  return Status();
}

Status validate_x86_blocking(const X86Blocking& b) {
  LBC_VALIDATE(b.rb > 0 && b.cb > 0, kOutOfRange,
               "non-positive native block dimension");
  LBC_VALIDATE(b.rb <= 4096 && b.cb <= 8192, kOutOfRange,
               "native block dimension exceeds the search grid's bounds");
  return Status();
}

std::optional<Tiling> TuningCache::lookup(const TuningKey& key) const {
  MutexLock lock(mu_);
  const auto it = entries_.find(key);
  if (it == entries_.end()) return std::nullopt;
  return it->second;
}

Tiling TuningCache::get_or_search(const gpusim::DeviceSpec& dev,
                                  const ConvShape& s, int bits, bool use_tc) {
  const TuningKey key{s.gemm_m(), s.gemm_n(), s.gemm_k(), bits, use_tc};
  {
    MutexLock lock(mu_);
    const auto it = entries_.find(key);
    if (it != entries_.end()) {
      Tiling hit = it->second;
      // kTuningCacheCorrupt: simulate a poisoned entry (bit rot in a
      // shipped cache file, a bad merge) surfacing at lookup time.
      if (FaultInjector::instance().should_fire(
              FaultSite::kTuningCacheCorrupt))
        hit.mtile = -7;
      if (validate_tiling(hit).ok()) {
        ++hits_;
        return hit;
      }
      // Corrupt hit: evict and fall through to a fresh search. The cache
      // self-heals instead of handing the kernel a bogus partition.
      entries_.erase(it);
      ++corrupt_evictions_;
      ++misses_;
    } else {
      ++misses_;
    }
  }
  const AutotuneResult r = autotune_tiling(dev, s, bits, use_tc);
  put(key, r.best);
  return r.best;
}

void TuningCache::put(const TuningKey& key, const Tiling& t) {
  MutexLock lock(mu_);
  entries_[key] = t;
}

std::optional<ArmBlocking> TuningCache::lookup_arm(
    const ArmTuningKey& key) const {
  MutexLock lock(mu_);
  const auto it = arm_entries_.find(key);
  if (it == arm_entries_.end()) return std::nullopt;
  return it->second;
}

ArmBlocking TuningCache::get_or_search_arm(
    const ArmTuningKey& key, const std::function<ArmBlocking()>& search) {
  {
    MutexLock lock(mu_);
    const auto it = arm_entries_.find(key);
    if (it != arm_entries_.end()) {
      ArmBlocking hit = it->second;
      // kTuningCacheCorrupt: a poisoned ARM entry surfaces at lookup time,
      // same recovery as the GPU side.
      if (FaultInjector::instance().should_fire(
              FaultSite::kTuningCacheCorrupt))
        hit.mc = -7;
      if (validate_arm_blocking(hit).ok()) {
        ++hits_;
        return hit;
      }
      arm_entries_.erase(it);
      ++corrupt_evictions_;
      ++misses_;
    } else {
      ++misses_;
    }
  }
  const ArmBlocking b = search();
  put_arm(key, b);
  return b;
}

void TuningCache::put_arm(const ArmTuningKey& key, const ArmBlocking& b) {
  MutexLock lock(mu_);
  arm_entries_[key] = b;
}

std::optional<X86Blocking> TuningCache::lookup_x86(
    const X86TuningKey& key) const {
  MutexLock lock(mu_);
  const auto it = x86_entries_.find(key);
  if (it == x86_entries_.end()) return std::nullopt;
  return it->second;
}

X86Blocking TuningCache::get_or_search_x86(
    const X86TuningKey& key, const std::function<X86Blocking()>& search) {
  {
    MutexLock lock(mu_);
    const auto it = x86_entries_.find(key);
    if (it != x86_entries_.end()) {
      X86Blocking hit = it->second;
      // kTuningCacheCorrupt: a poisoned native entry surfaces at lookup
      // time, same recovery as the other backends.
      if (FaultInjector::instance().should_fire(
              FaultSite::kTuningCacheCorrupt))
        hit.rb = -7;
      if (validate_x86_blocking(hit).ok()) {
        ++hits_;
        return hit;
      }
      x86_entries_.erase(it);
      ++corrupt_evictions_;
      ++misses_;
    } else {
      ++misses_;
    }
  }
  const X86Blocking b = search();
  put_x86(key, b);
  return b;
}

void TuningCache::put_x86(const X86TuningKey& key, const X86Blocking& b) {
  MutexLock lock(mu_);
  x86_entries_[key] = b;
}

std::optional<std::vector<ArmBlocking>> TuningCache::lookup_graph(
    u64 graph_hash, int n_layers) const {
  if (n_layers <= 0) return std::nullopt;
  MutexLock lock(mu_);
  std::vector<ArmBlocking> plan;
  plan.reserve(static_cast<size_t>(n_layers));
  for (int layer = 0; layer < n_layers; ++layer) {
    const auto it = graph_entries_.find(GraphTuningKey{graph_hash, layer});
    if (it == graph_entries_.end()) return std::nullopt;
    plan.push_back(it->second);
  }
  return plan;
}

std::vector<ArmBlocking> TuningCache::get_or_search_graph(
    u64 graph_hash, int n_layers,
    const std::function<std::vector<ArmBlocking>()>& search) {
  if (n_layers > 0) {
    MutexLock lock(mu_);
    std::vector<ArmBlocking> plan;
    plan.reserve(static_cast<size_t>(n_layers));
    bool complete = true;
    bool corrupt = false;
    for (int layer = 0; layer < n_layers && complete && !corrupt; ++layer) {
      const auto it = graph_entries_.find(GraphTuningKey{graph_hash, layer});
      if (it == graph_entries_.end()) {
        complete = false;
        break;
      }
      ArmBlocking hit = it->second;
      // kTuningCacheCorrupt: a poisoned graph row surfaces at lookup
      // time, same recovery as the per-shape backends — but a joint plan
      // is all-or-nothing, so one bad row re-searches the whole graph.
      if (layer == 0 && FaultInjector::instance().should_fire(
                            FaultSite::kTuningCacheCorrupt))
        hit.mc = -7;
      if (!validate_arm_blocking(hit).ok()) {
        corrupt = true;
        break;
      }
      plan.push_back(hit);
    }
    if (complete && !corrupt) {
      ++hits_;
      return plan;
    }
    if (corrupt) {
      for (int layer = 0; layer < n_layers; ++layer)
        graph_entries_.erase(GraphTuningKey{graph_hash, layer});
      ++corrupt_evictions_;
    }
    ++misses_;
  }
  const std::vector<ArmBlocking> plan = search();
  put_graph(graph_hash, plan);
  return plan;
}

void TuningCache::put_graph(u64 graph_hash,
                            const std::vector<ArmBlocking>& plan) {
  MutexLock lock(mu_);
  for (size_t layer = 0; layer < plan.size(); ++layer)
    graph_entries_[GraphTuningKey{graph_hash, static_cast<int>(layer)}] =
        plan[layer];
}

size_t TuningCache::size() const {
  MutexLock lock(mu_);
  return entries_.size() + arm_entries_.size() + x86_entries_.size() +
         graph_entries_.size();
}

size_t TuningCache::arm_size() const {
  MutexLock lock(mu_);
  return arm_entries_.size();
}

size_t TuningCache::x86_size() const {
  MutexLock lock(mu_);
  return x86_entries_.size();
}

size_t TuningCache::graph_size() const {
  MutexLock lock(mu_);
  return graph_entries_.size();
}

i64 TuningCache::hits() const {
  MutexLock lock(mu_);
  return hits_;
}

i64 TuningCache::misses() const {
  MutexLock lock(mu_);
  return misses_;
}

i64 TuningCache::corrupt_evictions() const {
  MutexLock lock(mu_);
  return corrupt_evictions_;
}

std::string TuningCache::serialize() const {
  MutexLock lock(mu_);
  std::ostringstream out;
  out << kTuningCacheHeader << '\n';
  // GPU entries keep the bare v1 line body, so a v2 file of GPU entries
  // differs from its v1 form only in the header.
  for (const auto& [k, t] : entries_)
    out << k.m << ' ' << k.n << ' ' << k.k << ' ' << k.bits << ' '
        << (k.use_tc ? 1 : 0) << ' ' << t.mtile << ' ' << t.ntile << ' '
        << t.ktile << ' ' << t.kstep << ' ' << t.warp_rows << ' '
        << t.warp_cols << '\n';
  for (const auto& [k, b] : arm_entries_)
    out << "arm " << k.m << ' ' << k.n << ' ' << k.k << ' ' << k.bits << ' '
        << k.scheme << ' ' << b.mc << ' ' << b.kc << ' ' << b.nc << '\n';
  for (const auto& [k, b] : x86_entries_)
    out << "x86 " << k.m << ' ' << k.n << ' ' << k.k << ' ' << k.bits << ' '
        << k.scheme << ' ' << b.rb << ' ' << b.cb << '\n';
  for (const auto& [k, b] : graph_entries_)
    out << "graph " << k.graph_hash << ' ' << k.layer << ' ' << b.mc << ' '
        << b.kc << ' ' << b.nc << '\n';
  return out.str();
}

StatusOr<int> TuningCache::deserialize(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  LBC_VALIDATE(std::getline(in, line), kDataLoss,
               "empty input: expected header \"" << kTuningCacheHeader << "\"");
  const bool v1 = (line == kTuningCacheHeaderV1);
  const bool v2 = (line == kTuningCacheHeaderV2);
  const bool v3 = (line == kTuningCacheHeaderV3);
  LBC_VALIDATE(v1 || v2 || v3 || line == kTuningCacheHeader, kDataLoss,
               "unsupported cache format: expected header \""
                   << kTuningCacheHeader << "\" (or v3/v2/v1), got \"" << line
                   << "\"");

  // Parse everything before merging anything: a corrupt line must not
  // leave the cache half-updated.
  std::vector<std::pair<TuningKey, Tiling>> parsed;
  std::vector<std::pair<ArmTuningKey, ArmBlocking>> parsed_arm;
  std::vector<std::pair<X86TuningKey, X86Blocking>> parsed_x86;
  std::vector<std::pair<GraphTuningKey, ArmBlocking>> parsed_graph;
  int lineno = 1;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    std::istringstream ls(line);
    std::string tag;
    if (line[0] == 'a' || line[0] == 'g' || line[0] == 'x') {
      ls >> tag;
      LBC_VALIDATE(
          tag == "arm" || tag == "gpu" || tag == "x86" || tag == "graph",
          kDataLoss,
          "line " << lineno << ": unknown entry tag \"" << tag << "\"");
      LBC_VALIDATE(!v1 || tag == "gpu", kDataLoss,
                   "line " << lineno << ": " << tag
                           << " entry in a v1-headed cache file");
      LBC_VALIDATE(!v2 || (tag != "x86" && tag != "graph"), kDataLoss,
                   "line " << lineno << ": " << tag
                           << " entry in a v2-headed cache file");
      LBC_VALIDATE(!v3 || tag != "graph", kDataLoss,
                   "line " << lineno
                           << ": graph entry in a v3-headed cache file");
    }
    if (tag == "graph") {
      GraphTuningKey k;
      ArmBlocking b;
      LBC_VALIDATE(
          static_cast<bool>(ls >> k.graph_hash >> k.layer >> b.mc >> b.kc >>
                            b.nc),
          kDataLoss, "line " << lineno << ": truncated or garbage entry");
      std::string trailing;
      LBC_VALIDATE(!(ls >> trailing), kDataLoss,
                   "line " << lineno << ": trailing fields after entry");
      LBC_VALIDATE(k.layer >= 0 && k.layer < 4096, kDataLoss,
                   "line " << lineno << ": layer index " << k.layer
                           << " outside [0, 4096)");
      if (Status bs = validate_arm_blocking(b); !bs.ok())
        return bs.with_context("line " + std::to_string(lineno));
      parsed_graph.emplace_back(k, b);
      continue;
    }
    if (tag == "x86") {
      X86TuningKey k;
      X86Blocking b;
      LBC_VALIDATE(static_cast<bool>(ls >> k.m >> k.n >> k.k >> k.bits >>
                                     k.scheme >> b.rb >> b.cb),
                   kDataLoss,
                   "line " << lineno << ": truncated or garbage entry");
      std::string trailing;
      LBC_VALIDATE(!(ls >> trailing), kDataLoss,
                   "line " << lineno << ": trailing fields after entry");
      LBC_VALIDATE(k.m > 0 && k.n > 0 && k.k > 0, kDataLoss,
                   "line " << lineno << ": non-positive GEMM dimension");
      LBC_VALIDATE(k.bits >= 2 && k.bits <= 8, kDataLoss,
                   "line " << lineno << ": bits " << k.bits
                           << " outside [2, 8]");
      LBC_VALIDATE(k.scheme == 0 || k.scheme == 1, kDataLoss,
                   "line " << lineno << ": native scheme " << k.scheme
                           << " outside [0, 1]");
      if (Status bs = validate_x86_blocking(b); !bs.ok())
        return bs.with_context("line " + std::to_string(lineno));
      parsed_x86.emplace_back(k, b);
      continue;
    }
    if (tag == "arm") {
      ArmTuningKey k;
      ArmBlocking b;
      LBC_VALIDATE(
          static_cast<bool>(ls >> k.m >> k.n >> k.k >> k.bits >> k.scheme >>
                            b.mc >> b.kc >> b.nc),
          kDataLoss, "line " << lineno << ": truncated or garbage entry");
      std::string trailing;
      LBC_VALIDATE(!(ls >> trailing), kDataLoss,
                   "line " << lineno << ": trailing fields after entry");
      LBC_VALIDATE(k.m > 0 && k.n > 0 && k.k > 0, kDataLoss,
                   "line " << lineno << ": non-positive GEMM dimension");
      LBC_VALIDATE(k.bits >= 2 && k.bits <= 8, kDataLoss,
                   "line " << lineno << ": bits " << k.bits
                           << " outside [2, 8]");
      LBC_VALIDATE(k.scheme >= 0 && k.scheme <= 8, kDataLoss,
                   "line " << lineno << ": scheme " << k.scheme
                           << " outside [0, 8]");
      if (Status bs = validate_arm_blocking(b); !bs.ok())
        return bs.with_context("line " + std::to_string(lineno));
      parsed_arm.emplace_back(k, b);
      continue;
    }
    TuningKey k;
    Tiling t;
    int tc = 1;
    LBC_VALIDATE(static_cast<bool>(ls >> k.m >> k.n >> k.k >> k.bits >> tc >>
                                   t.mtile >> t.ntile >> t.ktile >> t.kstep >>
                                   t.warp_rows >> t.warp_cols),
                 kDataLoss, "line " << lineno << ": truncated or garbage entry");
    std::string trailing;
    LBC_VALIDATE(!(ls >> trailing), kDataLoss,
                 "line " << lineno << ": trailing fields after entry");
    LBC_VALIDATE(k.m > 0 && k.n > 0 && k.k > 0, kDataLoss,
                 "line " << lineno << ": non-positive GEMM dimension");
    LBC_VALIDATE(k.bits >= 2 && k.bits <= 8, kDataLoss,
                 "line " << lineno << ": bits " << k.bits
                         << " outside [2, 8]");
    LBC_VALIDATE(tc == 0 || tc == 1, kDataLoss,
                 "line " << lineno << ": use_tc must be 0 or 1, got " << tc);
    k.use_tc = (tc != 0);
    if (Status ts = validate_tiling(t); !ts.ok())
      return ts.with_context("line " + std::to_string(lineno));
    parsed.emplace_back(k, t);
  }
  for (const auto& [k, t] : parsed) put(k, t);
  for (const auto& [k, b] : parsed_arm) put_arm(k, b);
  for (const auto& [k, b] : parsed_x86) put_x86(k, b);
  {
    MutexLock lock(mu_);
    for (const auto& [k, b] : parsed_graph) graph_entries_[k] = b;
  }
  return static_cast<int>(parsed.size() + parsed_arm.size() +
                          parsed_x86.size() + parsed_graph.size());
}

}  // namespace lbc::gpukern
