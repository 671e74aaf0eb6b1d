// Cache-hierarchy model for the emulated Cortex-A53 (Raspberry Pi 3B):
// 32 KB L1D and 512 KB shared L2, 64-byte lines.
//
// Both levels are modeled FULLY ASSOCIATIVE with exact LRU. This is a
// deliberate approximation with one decisive property: hit/miss behaviour
// depends only on the *recency order of distinct line identities*, never on
// absolute addresses — so the model is invariant under renaming of host
// heap addresses, and simulation results are bit-reproducible across runs
// even though the emulator feeds it real pointers. (A set-associative model
// would make miss counts depend on where malloc happened to place buffers.)
// Capacity misses — the effect that matters for the kernels here, e.g.
// winograd's 16 scattered matrices — are captured exactly; conflict misses
// are not, which makes the model slightly optimistic.
//
// L2 sees only the L1-miss stream, and the hierarchy is non-inclusive: L2
// may evict a line that L1 still holds, and that line keeps hitting in L1
// until L1 evicts it. A one-line MRU filter keeps the common streaming case
// (four 16-byte loads per line) off the LRU bookkeeping path.
//
// Both levels live in ONE table: a fixed pool of line entries, each
// carrying its own L1 and L2 recency links (a prev link set to "out" means
// the line is not in that level), plus one open-addressing index from line
// id to entry (linear probing, backward-shift deletion, load <= 0.27). An
// access probes the index once; an L1 miss that hits L2 only relinks the
// entry into L1, and an entry leaves the index only once it has left both
// levels. One sentinel entry closes both recency lists into rings, so
// relinking takes no branches. Nothing allocates after the first miss,
// and the storage is only allocated then — every armsim::Ctx embeds a
// CacheSim, and most (probes, tally contexts) never touch it. Entries are
// 16 bytes and the class is copyable, which is what lets the tile search
// snapshot a replay mid-stream (tile_search.cpp).
#pragma once

#include <vector>

#include "common/types.h"

namespace lbc::armsim {

enum class MemLevel { kL1, kL2, kDram };

class CacheSim {
 public:
  static constexpr int kLineBytes = 64;
  static constexpr i64 kL1Lines = 32 * 1024 / kLineBytes;    // 512
  static constexpr i64 kL2Lines = 512 * 1024 / kLineBytes;   // 8192

  /// Where the access hit. Spans crossing line boundaries report the worst
  /// level among the touched lines.
  MemLevel access(const void* p, u64 bytes);

  struct Stats {
    u64 accesses = 0;
    u64 l1_misses = 0;  ///< served by L2
    u64 l2_misses = 0;  ///< served by DRAM
  };
  const Stats& stats() const { return stats_; }

  /// True when both simulators hold the same lines in the same recency
  /// order at both levels — then every future access stream sees identical
  /// hit levels in both. Stats are not compared.
  bool same_state(const CacheSim& o) const;

 private:
  // Level indices into each entry's links and into size_.
  static constexpr int kL1 = 0;
  static constexpr int kL2 = 1;
  // One entry per resident line: at most kL1Lines + kL2Lines when the
  // levels hold disjoint lines. The sentinel comes on top.
  static constexpr i64 kEntries = kL1Lines + kL2Lines;
  static_assert(kEntries < (i64{1} << 15), "entry ids must fit an i16 link");
  // entries_[kSentinel] closes both rings: its next is a level's most
  // recent line, its prev the least recent.
  static constexpr i16 kSentinel = static_cast<i16>(kEntries);
  static constexpr i16 kOut = -1;  // prev link of a line absent from a level

  struct Entry {
    u64 line;
    i16 prev[2];  // per level: more recent neighbour (or the sentinel)
    i16 next[2];  // per level: less recent neighbour (or the sentinel)
  };

  MemLevel access_line(u64 line);
  size_t home(u64 line) const {
    return static_cast<size_t>((line * 0x9E3779B97F4A7C15ull) >> shift_);
  }
  i32 find(u64 line) const;  // entry id, -1 when absent
  bool in(int lv, i32 e) const {
    return entries_[static_cast<size_t>(e)].prev[lv] != kOut;
  }
  void unlink(int lv, i32 e);
  void push_front(int lv, i32 e);
  void make_room(int lv);  // evicts the level's LRU line when it is full
  i32 allocate(u64 line);  // new entry, indexed, in neither level
  void release(i32 e);     // drops an entry that has left both levels
  bool same_order(const CacheSim& o, int lv) const;

  i32 size_[2] = {0, 0};  // lines per level
  i32 used_ = 0;          // entries ever handed out (a prefix of entries_)
  i32 free_ = -1;         // released entries, chained through next[kL1]
  int shift_ = 64;
  std::vector<Entry> entries_;
  std::vector<u16> index_;  // entry id + 1 per bucket, 0 = empty
  u64 mru_line_ = ~u64{0};
  Stats stats_;
};

}  // namespace lbc::armsim
