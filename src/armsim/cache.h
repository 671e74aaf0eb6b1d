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
// A one-line MRU filter keeps the common streaming case (four 16-byte
// loads per line) off the LRU bookkeeping path.
//
// Each level is a fixed pool of line slots: a doubly-linked recency list
// threaded through slot indices plus an open-addressing index from line id
// to slot. Nothing allocates after a level's first insert, and the storage
// is only allocated then — every armsim::Ctx embeds a CacheSim, and most
// (probes, tally contexts) never touch it. The class is copyable, which is
// what lets the tile search snapshot a replay mid-stream (tile_search.cpp).
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
  MemLevel access_line(u64 line);

  class Level {
   public:
    explicit Level(i32 capacity) : capacity_(capacity) {}
    bool touch(u64 line);   // true if present (moves to front)
    void insert(u64 line);  // inserts at front, evicting LRU if full
    bool same_order(const Level& o) const;

   private:
    struct Slot {
      u64 line;
      i32 prev, next;  // recency neighbours (slot indices), -1 at the ends
    };
    size_t home(u64 line) const {
      return static_cast<size_t>((line * 0x9E3779B97F4A7C15ull) >> shift_);
    }
    i32 find(u64 line) const;  // slot index, -1 when absent
    void index_erase(u64 line);
    void unlink(i32 s);
    void push_front(i32 s);

    i32 capacity_;
    i32 used_ = 0;
    i32 head_ = -1;  // most recent
    i32 tail_ = -1;  // least recent
    int shift_ = 64;
    std::vector<Slot> slots_;
    std::vector<i32> index_;  // slot + 1 per bucket, 0 = empty
  };

  Level l1_{static_cast<i32>(kL1Lines)};
  Level l2_{static_cast<i32>(kL2Lines)};
  u64 mru_line_ = ~u64{0};
  Stats stats_;
};

}  // namespace lbc::armsim
