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

namespace {

// What the kTuningCacheCorrupt site does to the first row a lookup reads:
// a poisoned entry (bit rot in a shipped cache file, a bad merge) that must
// surface at lookup time.
void poison_row(Tiling& t) { t.mtile = -7; }
void poison_row(ArmBlocking& b) { b.mc = -7; }
void poison_row(X86Blocking& b) { b.rb = -7; }

Status valid_row(const Tiling& t) { return validate_tiling(t); }
Status valid_row(const ArmBlocking& b) { return validate_arm_blocking(b); }
Status valid_row(const X86Blocking& b) { return validate_x86_blocking(b); }

}  // namespace

template <class Key, class Row>
std::optional<std::vector<Row>> TuningCache::cached_locked(
    std::map<Key, Row>& rows, const std::vector<Key>& keys) {
  std::vector<Row> hit;
  bool corrupt = false;
  for (const Key& key : keys) {
    const auto it = rows.find(key);
    if (it == rows.end()) break;
    Row row = it->second;
    if (hit.empty() &&
        FaultInjector::instance().should_fire(FaultSite::kTuningCacheCorrupt))
      poison_row(row);
    if (!valid_row(row).ok()) {
      corrupt = true;
      break;
    }
    hit.push_back(row);
  }
  if (hit.size() == keys.size()) {
    ++hits_;
    return hit;
  }
  // A corrupt set is evicted whole and re-searched: the cache self-heals
  // instead of handing the kernel a bogus partition (and a joint plan is
  // only usable complete).
  if (corrupt) {
    for (const Key& key : keys) rows.erase(key);
    ++corrupt_evictions_;
  }
  ++misses_;
  return std::nullopt;
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
    if (auto hit = cached_locked(entries_, {key})) return hit->front();
  }
  const Tiling t = autotune_tiling(dev, s, bits, use_tc).best;
  put(key, t);
  return t;
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
    if (auto hit = cached_locked(arm_entries_, {key})) return hit->front();
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
    if (auto hit = cached_locked(x86_entries_, {key})) return hit->front();
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
    std::vector<GraphTuningKey> keys;
    for (int layer = 0; layer < n_layers; ++layer)
      keys.push_back(GraphTuningKey{graph_hash, layer});
    MutexLock lock(mu_);
    if (auto hit = cached_locked(graph_entries_, keys)) return *hit;
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
  // GPU entries keep the bare, untagged line body.
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

namespace {

// The checks every entry line shares: each field parsed, none trailing,
// and for a GEMM-keyed row positive dimensions and bits in [2, 8].
template <class Key>
Status check_entry(std::istringstream& ls, bool parsed, const Key& k,
                   int lineno) {
  LBC_VALIDATE(parsed, kDataLoss,
               "line " << lineno << ": truncated or garbage entry");
  std::string trailing;
  LBC_VALIDATE(!(ls >> trailing), kDataLoss,
               "line " << lineno << ": trailing fields after entry");
  if constexpr (requires { k.bits; }) {
    LBC_VALIDATE(k.m > 0 && k.n > 0 && k.k > 0, kDataLoss,
                 "line " << lineno << ": non-positive GEMM dimension");
    LBC_VALIDATE(k.bits >= 2 && k.bits <= 8, kDataLoss,
                 "line " << lineno << ": bits " << k.bits
                         << " outside [2, 8]");
  }
  return Status();
}

}  // namespace

StatusOr<int> TuningCache::deserialize(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  LBC_VALIDATE(std::getline(in, line), kDataLoss,
               "empty input: expected header \"" << kTuningCacheHeader << "\"");
  LBC_VALIDATE(line == kTuningCacheHeader, kDataLoss,
               "unsupported cache format: expected header \""
                   << kTuningCacheHeader << "\", got \"" << line << "\"");

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
    }
    const std::string where = "line " + std::to_string(lineno);
    if (tag == "graph") {
      GraphTuningKey k;
      ArmBlocking b;
      const bool ok = static_cast<bool>(ls >> k.graph_hash >> k.layer >>
                                        b.mc >> b.kc >> b.nc);
      LBC_RETURN_IF_ERROR(check_entry(ls, ok, k, lineno));
      LBC_VALIDATE(k.layer >= 0 && k.layer < 4096, kDataLoss,
                   "line " << lineno << ": layer index " << k.layer
                           << " outside [0, 4096)");
      LBC_RETURN_IF_ERROR(validate_arm_blocking(b).with_context(where));
      parsed_graph.emplace_back(k, b);
    } else if (tag == "x86") {
      X86TuningKey k;
      X86Blocking b;
      const bool ok = static_cast<bool>(ls >> k.m >> k.n >> k.k >> k.bits >>
                                        k.scheme >> b.rb >> b.cb);
      LBC_RETURN_IF_ERROR(check_entry(ls, ok, k, lineno));
      LBC_VALIDATE(k.scheme == 0 || k.scheme == 1, kDataLoss,
                   "line " << lineno << ": native scheme " << k.scheme
                           << " outside [0, 1]");
      LBC_RETURN_IF_ERROR(validate_x86_blocking(b).with_context(where));
      parsed_x86.emplace_back(k, b);
    } else if (tag == "arm") {
      ArmTuningKey k;
      ArmBlocking b;
      const bool ok = static_cast<bool>(ls >> k.m >> k.n >> k.k >> k.bits >>
                                        k.scheme >> b.mc >> b.kc >> b.nc);
      LBC_RETURN_IF_ERROR(check_entry(ls, ok, k, lineno));
      LBC_VALIDATE(k.scheme >= 0 && k.scheme <= 8, kDataLoss,
                   "line " << lineno << ": scheme " << k.scheme
                           << " outside [0, 8]");
      LBC_RETURN_IF_ERROR(validate_arm_blocking(b).with_context(where));
      parsed_arm.emplace_back(k, b);
    } else {
      TuningKey k;
      Tiling t;
      int tc = 1;
      const bool ok = static_cast<bool>(
          ls >> k.m >> k.n >> k.k >> k.bits >> tc >> t.mtile >> t.ntile >>
          t.ktile >> t.kstep >> t.warp_rows >> t.warp_cols);
      LBC_RETURN_IF_ERROR(check_entry(ls, ok, k, lineno));
      LBC_VALIDATE(tc == 0 || tc == 1, kDataLoss,
                   "line " << lineno << ": use_tc must be 0 or 1, got " << tc);
      k.use_tc = (tc != 0);
      LBC_RETURN_IF_ERROR(validate_tiling(t).with_context(where));
      parsed.emplace_back(k, t);
    }
  }
  MutexLock lock(mu_);
  for (const auto& [k, t] : parsed) entries_[k] = t;
  for (const auto& [k, b] : parsed_arm) arm_entries_[k] = b;
  for (const auto& [k, b] : parsed_x86) x86_entries_[k] = b;
  for (const auto& [k, b] : parsed_graph) graph_entries_[k] = b;
  return static_cast<int>(parsed.size() + parsed_arm.size() +
                          parsed_x86.size() + parsed_graph.size());
}

}  // namespace lbc::gpukern
