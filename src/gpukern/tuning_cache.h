// Persistent cache of auto-searched tiling parameters, keyed by the GEMM
// view of the convolution. The paper notes "the optimal tiling parameters
// only need to be determined once per convolution shape" (Sec. 5.1); this
// is the library piece that makes the amortization real across process
// runs — a deployment runs the profile search once and ships the cache.
//
// The text format is versioned and strictly validated on load: a shipped
// cache file travels through filesystems and deploy pipelines, so a
// truncated or corrupted file must surface as a Status error, never as a
// bogus Tiling driving the kernel. Cache *hits* are sanity-checked too
// (and re-searched on corruption) so a poisoned entry cannot escape.
//
// The format is v4, and only v4 loads: GPU tilings, ARM blocked-GEMM
// {Mc, Kc, Nc} winners (armkern/tile_search.h, "arm" tag), the native x86
// backend's {row_block, col_block} winners (hal/native_gemm.h, "x86" tag)
// and whole-graph joint ARM blockings ("graph" tag) share one file. A
// graph row is one layer of a net keyed by armkern::graph_blocking_hash
// over the net's (geometry, bits, scheme) sequence: the joint search
// prices layers against a chained cache replay, so its winners are a
// property of the whole net, not any single shape. A file with an older
// header (v1-v3) is rejected whole; the caches are rebuilt by searching.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "gpukern/autotune.h"

namespace lbc::gpukern {

/// First line of every serialized cache. Bump the version when fields
/// change so old readers reject new files instead of misparsing them.
inline constexpr const char* kTuningCacheHeader = "lbc-tuning-cache v4";

struct TuningKey {
  i64 m = 0, n = 0, k = 0;
  int bits = 8;
  bool use_tc = true;

  auto operator<=>(const TuningKey&) const = default;
};

/// Key of an ARM blocked-GEMM entry. `scheme` is the micro-kernel scheme
/// id (armkern::blocking_scheme_id: 0 = SMLAL, 1 = MLA, 2 = ncnn, 3 = SDOT,
/// 5-8 = TBL by input range and table source; 4 = TBL rows searched for
/// its retired 16x4-only schedule, still parsed but never looked up) — the
/// winner depends on the kernel's load pattern, not just the GEMM view.
struct ArmTuningKey {
  i64 m = 0, n = 0, k = 0;
  int bits = 8;
  int scheme = 0;

  auto operator<=>(const ArmTuningKey&) const = default;
};

/// ARM {Mc, Kc, Nc} cache blocking (mirrors armkern::GemmBlocking without
/// the dependency; gpukern stays ARM-free).
struct ArmBlocking {
  i64 mc = 0, kc = 0, nc = 0;

  auto operator<=>(const ArmBlocking&) const = default;
};

/// Key of a native x86 entry. `scheme` is the native kernel scheme id
/// (hal: 0 = LUT, 1 = DOT) — the winner depends on which packed layout
/// the kernel streams, not just the GEMM view.
struct X86TuningKey {
  i64 m = 0, n = 0, k = 0;
  int bits = 8;
  int scheme = 0;

  auto operator<=>(const X86TuningKey&) const = default;
};

/// Native x86 {row_block, col_block} loop tiling (mirrors
/// hal::NativeBlocking without the dependency; gpukern stays hal-free).
struct X86Blocking {
  i64 rb = 0, cb = 0;

  auto operator<=>(const X86Blocking&) const = default;
};

/// Key of one layer of a whole-graph joint ARM plan. `graph_hash` is
/// armkern::graph_blocking_hash over the net's (geometry, bits, scheme)
/// sequence; `layer` is the layer's position in execution order. A joint
/// plan is usable only when every layer row is present — lookup_graph
/// treats a partial set as a miss.
struct GraphTuningKey {
  u64 graph_hash = 0;
  int layer = 0;

  auto operator<=>(const GraphTuningKey&) const = default;
};

/// Static sanity of a tiling (positive, bounded, divisible): the check a
/// deserialized or cached entry must pass before it may drive a kernel.
Status validate_tiling(const Tiling& t);

/// Same gate for an ARM blocking: positive, bounded, Mc a multiple of the
/// 16-row panel and Nc of the 4-column panel (armkern micro-tile shape).
Status validate_arm_blocking(const ArmBlocking& b);

/// Same gate for a native x86 blocking: positive row/col blocks within the
/// search grid's bounds.
Status validate_x86_blocking(const X86Blocking& b);

class TuningCache {
 public:
  /// Cached tiling for a key, if the search ran before.
  std::optional<Tiling> lookup(const TuningKey& key) const;

  /// Cached tiling, running (and storing) the auto-search on a miss. A hit
  /// whose entry fails validate_tiling (cache corruption — also the
  /// kTuningCacheCorrupt fault-injection site) is evicted and re-searched;
  /// corrupt_evictions() counts these recoveries.
  Tiling get_or_search(const gpusim::DeviceSpec& dev, const ConvShape& s,
                       int bits, bool use_tc);

  void put(const TuningKey& key, const Tiling& t);

  // --- ARM blocked-GEMM entries ("arm" rows) --------------------------

  std::optional<ArmBlocking> lookup_arm(const ArmTuningKey& key) const;

  /// Cached ARM blocking, invoking `search` (armkern::search_blocking
  /// behind a thunk — this layer stays ARM-free) and storing the result
  /// on a miss. Hits pass through validate_arm_blocking with the same
  /// corrupt-evict-re-search recovery as the GPU side (also the
  /// kTuningCacheCorrupt fault-injection site).
  ArmBlocking get_or_search_arm(const ArmTuningKey& key,
                                const std::function<ArmBlocking()>& search);

  void put_arm(const ArmTuningKey& key, const ArmBlocking& b);

  // --- native x86 entries ("x86" rows) ---------------------------------

  std::optional<X86Blocking> lookup_x86(const X86TuningKey& key) const;

  /// Cached native blocking, invoking `search`
  /// (hal::search_native_blocking behind a thunk — this layer stays
  /// hal-free) and storing the result on a miss. Hits pass through
  /// validate_x86_blocking with the same corrupt-evict-re-search recovery
  /// as the other backends (also the kTuningCacheCorrupt fault site).
  X86Blocking get_or_search_x86(const X86TuningKey& key,
                                const std::function<X86Blocking()>& search);

  void put_x86(const X86TuningKey& key, const X86Blocking& b);

  // --- whole-graph joint ARM entries ("graph" rows) -------------------

  /// The complete joint plan for a graph hash, if every one of its
  /// `n_layers` layer rows is cached and valid. A partial or corrupt set
  /// is a miss (corrupt rows are evicted; corrupt_evictions() counts).
  std::optional<std::vector<ArmBlocking>> lookup_graph(u64 graph_hash,
                                                       int n_layers) const;

  /// Cached joint plan, invoking `search` (armkern::search_graph_blocking
  /// behind a thunk — this layer stays ARM-free) and storing all layer
  /// rows on a miss. All-or-nothing: a hit requires every layer row
  /// present and valid, else the whole plan is re-searched.
  std::vector<ArmBlocking> get_or_search_graph(
      u64 graph_hash, int n_layers,
      const std::function<std::vector<ArmBlocking>()>& search);

  void put_graph(u64 graph_hash, const std::vector<ArmBlocking>& plan);

  size_t size() const;      ///< GPU + ARM + x86 + graph entries
  size_t arm_size() const;  ///< ARM entries only
  size_t x86_size() const;  ///< native x86 entries only
  size_t graph_size() const;  ///< whole-graph layer rows only
  // Stat reads take the mutex too: concurrent scheduler workers share one
  // cache, and an unlocked i64 read against a writer is a data race (TSan
  // flags it) even when the torn value would be harmless.
  i64 hits() const;
  i64 misses() const;
  i64 corrupt_evictions() const;

  /// Text round trip. Format v4: the version header line, then one entry
  /// per line — GPU entries bare ("m n k bits use_tc mtile ntile ktile
  /// kstep wr wc") or with an explicit "gpu " prefix,
  /// ARM entries "arm m n k bits scheme mc kc nc", native entries
  /// "x86 m n k bits scheme rb cb", whole-graph joint entries
  /// "graph hash layer mc kc nc".
  std::string serialize() const;

  /// Merge entries from serialized text; returns entries accepted.
  /// Accepts only the v4 header (kTuningCacheHeader).
  /// Strict: a missing/unknown header, a truncated or garbage line, or
  /// out-of-range tiling values yield a kDataLoss error naming the line,
  /// and NO entries are merged (all-or-nothing).
  StatusOr<int> deserialize(const std::string& text);

 private:
  /// The lookup-and-recover sequence behind every get_or_search_*: the
  /// rows under `keys` (one, or one per layer of a joint plan), when every
  /// one is cached and valid. The first row read passes the
  /// kTuningCacheCorrupt site. A set with an invalid row is evicted whole
  /// and counted in corrupt_evictions; a hit counts in hits, anything else
  /// in misses, and the caller then searches and stores.
  template <class Key, class Row>
  std::optional<std::vector<Row>> cached_locked(std::map<Key, Row>& rows,
                                                const std::vector<Key>& keys)
      LBC_REQUIRES(mu_);

  mutable Mutex mu_;
  std::map<TuningKey, Tiling> entries_ LBC_GUARDED_BY(mu_);
  std::map<ArmTuningKey, ArmBlocking> arm_entries_ LBC_GUARDED_BY(mu_);
  std::map<X86TuningKey, X86Blocking> x86_entries_ LBC_GUARDED_BY(mu_);
  std::map<GraphTuningKey, ArmBlocking> graph_entries_ LBC_GUARDED_BY(mu_);
  i64 hits_ LBC_GUARDED_BY(mu_) = 0;
  i64 misses_ LBC_GUARDED_BY(mu_) = 0;
  i64 corrupt_evictions_ LBC_GUARDED_BY(mu_) = 0;
};

}  // namespace lbc::gpukern
