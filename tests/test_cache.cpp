// Tests for the A53 cache model: LRU mechanics, capacity behaviour, the
// non-inclusive hierarchy, rename invariance (the property that makes
// simulation deterministic), exactness against a reference LRU,
// copy/snapshot semantics, and its integration with the convolution
// kernels.
#include <gtest/gtest.h>

#include <list>
#include <unordered_map>
#include <utility>
#include <vector>

#include "armkern/conv_arm.h"
#include "armsim/cache.h"
#include "armsim/neon.h"
#include "common/align.h"
#include "common/rng.h"

namespace lbc::armsim {
namespace {

TEST(CacheSim, ColdMissThenHit) {
  CacheSim c;
  alignas(64) char buf[128] = {};
  EXPECT_EQ(c.access(buf, 16), MemLevel::kDram);   // cold
  EXPECT_EQ(c.access(buf + 16, 16), MemLevel::kL1);  // same line
  EXPECT_EQ(c.access(buf + 64, 16), MemLevel::kDram);  // next line cold
  EXPECT_EQ(c.access(buf, 16), MemLevel::kL1);
  EXPECT_EQ(c.stats().accesses, 4u);
  EXPECT_EQ(c.stats().l2_misses, 2u);
  EXPECT_EQ(c.stats().l1_misses, 2u);
}

TEST(CacheSim, SpanCrossingLinesReportsWorstLevel) {
  CacheSim c;
  alignas(64) char buf[192] = {};
  c.access(buf, 1);  // line 0 resident
  // 16-byte access straddling lines 0 and 1: line 1 is cold -> DRAM.
  EXPECT_EQ(c.access(buf + 56, 16), MemLevel::kDram);
}

TEST(CacheSim, L1CapacityEvictionFallsToL2) {
  CacheSim c;
  // Touch (L1 lines + 1) distinct lines, then re-touch the first: it must
  // have been evicted from L1 but still be in L2.
  AlignedVector<char> buf(static_cast<size_t>((CacheSim::kL1Lines + 2) * 64));
  for (i64 i = 0; i <= CacheSim::kL1Lines; ++i) c.access(&buf[i * 64], 1);
  EXPECT_EQ(c.access(&buf[0], 1), MemLevel::kL2);
}

TEST(CacheSim, L2CapacityEvictionFallsToDram) {
  CacheSim c;
  AlignedVector<char> buf(static_cast<size_t>((CacheSim::kL2Lines + 2) * 64));
  for (i64 i = 0; i <= CacheSim::kL2Lines; ++i) c.access(&buf[i * 64], 1);
  const auto before = c.stats().l2_misses;
  EXPECT_EQ(c.access(&buf[0], 1), MemLevel::kDram);
  EXPECT_EQ(c.stats().l2_misses, before + 1);
}

TEST(CacheSim, LruOrderNotFifo) {
  CacheSim c;
  AlignedVector<char> buf(static_cast<size_t>((CacheSim::kL1Lines + 1) * 64));
  // Fill L1, then refresh line 0, then add one more line: the eviction
  // victim must be line 1 (LRU), not line 0 (FIFO head).
  for (i64 i = 0; i < CacheSim::kL1Lines; ++i) c.access(&buf[i * 64], 1);
  c.access(&buf[0], 1);                                   // refresh line 0
  c.access(&buf[CacheSim::kL1Lines * 64], 1);             // evicts line 1
  EXPECT_EQ(c.access(&buf[0], 1), MemLevel::kL1);
  EXPECT_EQ(c.access(&buf[64], 1), MemLevel::kL2);
}

TEST(CacheSim, RenameInvariance) {
  // The same access pattern on two different buffers yields identical
  // stats — the property that makes modeled times reproducible.
  auto run = [](char* base) {
    CacheSim c;
    Rng rng(99);
    for (int i = 0; i < 20000; ++i)
      c.access(base + (rng.next_u64() % (1 << 20)), 16);
    return c.stats();
  };
  AlignedVector<char> b1(1 << 21), b2(1 << 21);
  const auto s1 = run(b1.data());
  const auto s2 = run(b2.data());
  EXPECT_EQ(s1.l1_misses, s2.l1_misses);
  EXPECT_EQ(s1.l2_misses, s2.l2_misses);
}

TEST(CacheSim, StreamingLoadsHitAfterLineFill) {
  // Four consecutive 16B loads share one line: 1 miss + 3 hits.
  CacheSim c;
  AlignedVector<char> buf(4096);
  for (int i = 0; i < 64; ++i) c.access(&buf[static_cast<size_t>(i) * 16], 16);
  EXPECT_EQ(c.stats().l2_misses, 16u);
  EXPECT_EQ(c.stats().accesses, 64u);
}

TEST(CacheSim, HotL1LineOutlivesItsL2Copy) {
  // L2 sees only the L1-miss stream, so a line that keeps hitting L1 ages
  // in L2 while 9000 other lines stream through it. L2 evicts it, yet it
  // stays an L1 hit for as long as L1 keeps it...
  CacheSim c;
  const auto hot = reinterpret_cast<const void*>(u64{1} << 30);
  const auto cold = [](u64 i) {
    return reinterpret_cast<const void*>((u64{2} << 30) + i * 64);
  };
  ASSERT_EQ(c.access(hot, 1), MemLevel::kDram);
  constexpr u64 kStream = CacheSim::kL2Lines + 808;
  for (u64 i = 0; i < kStream; ++i) {
    ASSERT_EQ(c.access(cold(i), 1), MemLevel::kDram) << "line " << i;
    if (i % 64 == 63) {
      ASSERT_EQ(c.access(hot, 1), MemLevel::kL1) << "after line " << i;
    }
  }
  // ...and once L1 evicts it too, nothing holds it: DRAM, not L2.
  for (u64 i = kStream; i < kStream + CacheSim::kL1Lines; ++i)
    c.access(cold(i), 1);
  const u64 l2_misses = c.stats().l2_misses;
  EXPECT_EQ(c.access(hot, 1), MemLevel::kDram);
  EXPECT_EQ(c.stats().l2_misses, l2_misses + 1);
  // The stream's recent lines are still in L2 after leaving L1.
  EXPECT_EQ(c.access(cold(kStream - 1), 1), MemLevel::kL2);
}

// Reference two-level exact LRU kept as plain recency lists (front = most
// recent) — the straightforward model CacheSim's one line table must
// reproduce access for access. The levels are independent lists, so the
// reference is non-inclusive by construction. No MRU filter: re-touching
// the most recent line is a no-op in exact LRU, which is what makes the
// filter safe.
class ReferenceLru {
 public:
  MemLevel access(u64 addr, u64 bytes) {
    const u64 first = addr / CacheSim::kLineBytes;
    const u64 last = (addr + (bytes ? bytes - 1 : 0)) / CacheSim::kLineBytes;
    MemLevel worst = MemLevel::kL1;
    for (u64 line = first; line <= last; ++line) {
      MemLevel lv = MemLevel::kL1;
      ++stats.accesses;
      if (!l1_.touch(line)) {
        ++stats.l1_misses;
        lv = MemLevel::kL2;
        if (!l2_.touch(line)) {
          ++stats.l2_misses;
          lv = MemLevel::kDram;
          l2_.insert(line);
        }
        l1_.insert(line);
      }
      if (static_cast<int>(lv) > static_cast<int>(worst)) worst = lv;
    }
    return worst;
  }
  CacheSim::Stats stats;
  bool l1_holds(u64 line) const { return l1_.where.count(line) != 0; }
  bool l2_holds(u64 line) const { return l2_.where.count(line) != 0; }

 private:
  struct Level {
    size_t capacity;
    std::list<u64> order;
    std::unordered_map<u64, std::list<u64>::iterator> where;
    bool touch(u64 line) {
      const auto it = where.find(line);
      if (it == where.end()) return false;
      order.splice(order.begin(), order, it->second);
      return true;
    }
    void insert(u64 line) {
      if (order.size() >= capacity) {
        where.erase(order.back());
        order.pop_back();
      }
      order.push_front(line);
      where[line] = order.begin();
    }
  };
  Level l1_{static_cast<size_t>(CacheSim::kL1Lines), {}, {}};
  Level l2_{static_cast<size_t>(CacheSim::kL2Lines), {}, {}};
};

// Feeds the stream `next(i)` -> {addr, bytes} of `n` accesses to both
// models: every access's level and the final stats must agree.
template <typename Next>
void expect_matches_reference(ReferenceLru& ref, int n, Next next) {
  CacheSim sim;
  for (int i = 0; i < n; ++i) {
    const auto [addr, bytes] = next();
    const MemLevel got =
        sim.access(reinterpret_cast<const void*>(addr), bytes);
    const MemLevel want = ref.access(addr, bytes);
    ASSERT_EQ(got, want) << "access " << i;
  }
  EXPECT_EQ(sim.stats().accesses, ref.stats.accesses);
  EXPECT_EQ(sim.stats().l1_misses, ref.stats.l1_misses);
  EXPECT_EQ(sim.stats().l2_misses, ref.stats.l2_misses);
}

TEST(CacheSim, MatchesReferenceLruOnEveryAccess) {
  // A long seeded stream over three regions: one just past L1's capacity
  // and one just past L2's, where the eviction order decides most hits,
  // and a cold range far larger than L2. Each access either continues its
  // region's sequential scan (walking the LRU end of each level) or picks
  // a random line, and spans 1-200 bytes from an arbitrary offset, so
  // many cross one or more line boundaries. Every access's level and the
  // final stats must agree exactly.
  ReferenceLru ref;
  Rng rng(2024);
  struct Region {
    u64 first_line, lines, cursor;
  };
  Region regions[] = {{u64{1} << 30, 576, 0},
                      {u64{2} << 30, 8704, 0},
                      {u64{3} << 30, u64{1} << 20, 0}};
  expect_matches_reference(ref, 400000, [&] {
    const u64 pick = rng.next_u64() % 10;
    Region& rg = regions[pick < 5 ? 0 : pick < 9 ? 1 : 2];
    u64 line = rng.next_u64() % rg.lines;
    if (rng.next_u64() % 2 == 0) {
      line = rg.cursor;
      rg.cursor = (rg.cursor + 1) % rg.lines;
    }
    const u64 addr = (rg.first_line + line) * CacheSim::kLineBytes +
                     rng.next_u64() % CacheSim::kLineBytes;
    const u64 bytes = 1 + rng.next_u64() % 200;
    return std::pair{addr, bytes};
  });
  EXPECT_GT(ref.stats.l2_misses, 10000u);
  EXPECT_GT(ref.stats.l1_misses - ref.stats.l2_misses, 10000u);
}

TEST(CacheSim, MatchesReferenceLruWithAHotL1Set) {
  // The same differential on a stream that keeps 64 lines hot in L1 (a
  // micro kernel's tile and table lines) while a scan twice L2's size and
  // random lines stream through L2. L2 then evicts hot lines that L1
  // still holds, and they keep hitting L1 — the non-inclusive case a
  // unified line table must get right. Counted below, so the stream is
  // known to reach it.
  ReferenceLru ref;
  Rng rng(2025);
  constexpr u64 kHot = 64;
  constexpr u64 kScan = 2 * CacheSim::kL2Lines;
  u64 cursor = 0;
  u64 hot_hits_without_l2 = 0;
  expect_matches_reference(ref, 400000, [&] {
    const u64 pick = rng.next_u64() % 8;
    u64 line;
    if (pick < 5) {
      line = (u64{1} << 30) + rng.next_u64() % kHot;
      if (ref.l1_holds(line) && !ref.l2_holds(line)) ++hot_hits_without_l2;
    } else if (pick < 7) {
      line = (u64{2} << 30) + cursor;
      cursor = (cursor + 1) % kScan;
    } else {
      line = (u64{3} << 30) + rng.next_u64() % (u64{1} << 16);
    }
    const u64 addr = line * CacheSim::kLineBytes +
                     rng.next_u64() % CacheSim::kLineBytes;
    const u64 bytes = 1 + rng.next_u64() % 100;
    return std::pair{addr, bytes};
  });
  EXPECT_GT(hot_hits_without_l2, 10000u);
  EXPECT_GT(ref.stats.l2_misses, 10000u);
}

const void* line_addr(u64 line) {
  return reinterpret_cast<const void*>((line + 4096) * CacheSim::kLineBytes);
}

TEST(CacheSim, CopiesDivergeIndependently) {
  CacheSim a;
  Rng rng(5);
  for (int i = 0; i < 50000; ++i) a.access(line_addr(rng.next_u64() % 20000), 8);
  const CacheSim snapshot = a;
  CacheSim b = a;
  ASSERT_TRUE(a.same_state(b));

  // Drive the two copies with different streams...
  Rng ra(6), rb(7);
  for (int i = 0; i < 50000; ++i) {
    a.access(line_addr(ra.next_u64() % 20000), 8);
    b.access(line_addr(30000 + rb.next_u64() % 20000), 8);
  }
  EXPECT_FALSE(a.same_state(b));
  // ...then replay a's stream on a fresh copy of the snapshot: it must
  // land on a's state and stats, untouched by everything b did.
  CacheSim c = snapshot;
  Rng rc(6);
  for (int i = 0; i < 50000; ++i) c.access(line_addr(rc.next_u64() % 20000), 8);
  EXPECT_TRUE(c.same_state(a));
  EXPECT_EQ(c.stats().accesses, a.stats().accesses);
  EXPECT_EQ(c.stats().l1_misses, a.stats().l1_misses);
  EXPECT_EQ(c.stats().l2_misses, a.stats().l2_misses);
}

TEST(CacheSim, SameStateComparesRecencyOrderNotHistory) {
  // Different histories, same resulting orders: L1 {0, 1}, L2 {1, 0}.
  CacheSim x, y;
  for (u64 line : {0, 1, 0}) x.access(line_addr(line), 1);
  for (u64 line : {0, 1, 1, 0}) y.access(line_addr(line), 1);
  EXPECT_TRUE(x.same_state(y));
  EXPECT_NE(x.stats().accesses, y.stats().accesses);

  // Same lines in a different order are a different state.
  CacheSim z;
  for (u64 line : {1, 0}) z.access(line_addr(line), 1);
  EXPECT_FALSE(x.same_state(z));

  // One differing access breaks equality.
  CacheSim w = x;
  ASSERT_TRUE(w.same_state(x));
  w.access(line_addr(1), 1);
  EXPECT_FALSE(w.same_state(x));
  EXPECT_TRUE(CacheSim{}.same_state(CacheSim{}));
}

TEST(CacheSim, SameStateComparesEachLevelsOrder) {
  // Only L2's order differs: A then B leaves both levels at [B, A]; B, A, B
  // leaves L1 at [B, A] too, but B's last access hit L1, so L2 is [A, B].
  CacheSim x, y;
  for (u64 line : {0, 1}) x.access(line_addr(line), 1);
  for (u64 line : {1, 0, 1}) y.access(line_addr(line), 1);
  EXPECT_FALSE(x.same_state(y));
  EXPECT_FALSE(y.same_state(x));

  // Only L1's order differs: A, B, A leaves L1 at [A, B] and L2 at [B, A].
  CacheSim z;
  for (u64 line : {0, 1, 0}) z.access(line_addr(line), 1);
  EXPECT_FALSE(x.same_state(z));
  EXPECT_FALSE(z.same_state(x));
}

TEST(CtxMem, TallysMissOps) {
  Ctx ctx;
  AlignedVector<i8> buf(4096, 1);
  int8x16 r;
  ld1_s8(ctx, buf.data(), r);        // cold: L1+L2 miss
  ld1_s8(ctx, buf.data() + 16, r);   // same line: hit
  EXPECT_EQ(ctx.counts[Op::kL1Miss], 1u);
  EXPECT_EQ(ctx.counts[Op::kL2Miss], 1u);
}

TEST(CtxMem, DisabledCacheCountsNothing) {
  Ctx ctx;
  ctx.model_cache = false;
  AlignedVector<i8> buf(4096, 1);
  int8x16 r;
  ld1_s8(ctx, buf.data(), r);
  EXPECT_EQ(ctx.counts[Op::kL1Miss], 0u);
  EXPECT_EQ(ctx.counts[Op::kL2Miss], 0u);
}

TEST(CacheIntegration, WinogradAndGemmBothRecordRealisticMissRates) {
  // The winograd "scatter" writes 16 matrices as parallel sequential
  // streams (tiles iterate innermost), so its per-access miss rate is
  // actually LOW; the GEMM's re-read of packed panels larger than L1 is
  // what generates most misses. Pin both facts.
  ConvShape s;
  s.name = "ci";
  s.batch = 1;
  s.in_c = 64;
  s.in_h = s.in_w = 28;
  s.out_c = 64;
  s.kernel = 3;
  s.stride = 1;
  s.pad = 1;
  const Tensor<i8> in = random_qtensor(Shape4{1, 64, 28, 28}, 4, 5);
  const Tensor<i8> w = random_qtensor(Shape4{64, 64, 3, 3}, 4, 6);
  lbc::armkern::ArmConvOptions og, ow;
  og.bits = ow.bits = 4;
  og.algo = lbc::armkern::ConvAlgo::kGemm;
  ow.algo = lbc::armkern::ConvAlgo::kWinograd;
  const auto rg = lbc::armkern::conv2d_s32(s, in, w, og).value();
  const auto rw = lbc::armkern::conv2d_s32(s, in, w, ow).value();
  // Both paths see real cache traffic...
  EXPECT_GT(rg.counts[Op::kL1Miss], 10000u);
  EXPECT_GT(rw.counts[Op::kL1Miss], 5000u);
  // ...and neither descends into thrashing (miss rate bounded).
  EXPECT_LT(static_cast<double>(rg.counts[Op::kL1Miss]),
            0.02 * static_cast<double>(s.macs()));
  EXPECT_LT(static_cast<double>(rw.counts[Op::kL1Miss]),
            0.02 * static_cast<double>(s.macs()));
}

TEST(CacheIntegration, DeepKGemmSeesL2Traffic) {
  // A GEMM whose B panels exceed L1 must produce L1 misses on re-reads.
  ConvShape s;
  s.name = "dk";
  s.batch = 1;
  s.in_c = 512;
  s.in_h = s.in_w = 14;
  s.out_c = 64;
  s.kernel = 1;
  s.stride = 1;
  s.pad = 0;
  const Tensor<i8> in = random_qtensor(Shape4{1, 512, 14, 14}, 8, 7);
  const Tensor<i8> w = random_qtensor(Shape4{64, 512, 1, 1}, 8, 8);
  const auto r = lbc::armkern::conv2d_s32(s, in, w, lbc::armkern::ArmConvOptions{}).value();
  EXPECT_GT(r.counts[Op::kL1Miss], 1000u);
  EXPECT_GT(r.counts[Op::kL2Miss], 100u);
}

}  // namespace
}  // namespace lbc::armsim
