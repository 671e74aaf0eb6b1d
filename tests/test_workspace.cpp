// Workspace arena tests: alignment, reset semantics, grow-on-demand, and
// the accounting the conv plans rely on to size per-execute scratch.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <utility>

#include "common/workspace.h"

namespace lbc {
namespace {

bool cache_line_aligned(const void* p) {
  return reinterpret_cast<std::uintptr_t>(p) % 64 == 0;
}

TEST(Workspace, AllocationsAreCacheLineAligned) {
  Workspace ws;
  // Odd sizes on purpose: every returned pointer must still be 64B-aligned
  // (the armsim cache model requires buffers that never share a line).
  for (i64 bytes : {1, 3, 63, 64, 65, 1000, 4096, 100000}) {
    void* p = ws.alloc(bytes);
    ASSERT_NE(p, nullptr);
    EXPECT_TRUE(cache_line_aligned(p)) << "bytes=" << bytes;
  }
}

TEST(Workspace, TypedAllocIsAlignedAndWritable) {
  Workspace ws;
  i32* a = ws.alloc_n<i32>(100);
  i8* b = ws.alloc_n<i8>(33);
  EXPECT_TRUE(cache_line_aligned(a));
  EXPECT_TRUE(cache_line_aligned(b));
  for (int i = 0; i < 100; ++i) a[i] = i;
  std::memset(b, 0x5a, 33);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a[i], i);
}

TEST(Workspace, DistinctAllocationsNeverShareACacheLine) {
  Workspace ws;
  i8* a = ws.alloc_n<i8>(1);
  i8* b = ws.alloc_n<i8>(1);
  // Non-overlapping lines: the cost model's injective line-id renaming
  // depends on two buffers never mapping into the same 64B line.
  EXPECT_GE(b - a, 64);
}

TEST(Workspace, ZeroByteAllocationsGetDistinctPointers) {
  Workspace ws;
  void* a = ws.alloc(0);
  void* b = ws.alloc(0);
  EXPECT_NE(a, b);
}

TEST(Workspace, ResetRewindsAndReusesMemory) {
  Workspace ws;
  i8* first = ws.alloc_n<i8>(1024);
  std::memset(first, 1, 1024);
  const i64 used_before = ws.bytes_used();
  EXPECT_GE(used_before, 1024);

  ws.reset();
  EXPECT_EQ(ws.bytes_used(), 0);
  i8* again = ws.alloc_n<i8>(1024);
  // Same (consolidated) arena: the rewound allocation reuses the block.
  EXPECT_EQ(first, again);
}

TEST(Workspace, GrowsOnDemandAndConsolidatesAfterReset) {
  Workspace ws;
  ws.reserve(256);
  // Far past the initial block: must chain new blocks, not fail.
  for (int i = 0; i < 8; ++i) {
    i8* p = ws.alloc_n<i8>(64 * 1024);
    ASSERT_NE(p, nullptr);
    std::memset(p, i, 64 * 1024);
  }
  const i64 high = ws.high_water();
  EXPECT_GE(high, 8 * 64 * 1024);

  // After a reset the arena holds one block >= the high-water mark, so the
  // same allocation pattern no longer grows.
  ws.reset();
  const i64 grows_before = ws.grow_count();
  for (int i = 0; i < 8; ++i) ws.alloc_n<i8>(64 * 1024);
  EXPECT_EQ(ws.grow_count(), grows_before);
  EXPECT_GE(ws.capacity(), high);
}

TEST(Workspace, HighWaterTracksTheLargestEpoch) {
  Workspace ws;
  ws.alloc(100 * 1024);
  ws.reset();
  ws.alloc(10 * 1024);
  EXPECT_GE(ws.high_water(), 100 * 1024);
  EXPECT_LT(ws.bytes_used(), 100 * 1024);
}

TEST(Workspace, MoveTransfersTheArena) {
  Workspace a;
  i8* p = a.alloc_n<i8>(4096);
  std::memset(p, 7, 4096);
  Workspace b = std::move(a);
  EXPECT_GE(b.bytes_used(), 4096);
  EXPECT_EQ(p[4095], 7);  // the block survived the move
}

TEST(Workspace, RoundedHelperMatchesLineGranularity) {
  EXPECT_EQ(workspace_rounded(0), 0);
  EXPECT_EQ(workspace_rounded(1), 64);
  EXPECT_EQ(workspace_rounded(64), 64);
  EXPECT_EQ(workspace_rounded(65), 128);
}

}  // namespace
}  // namespace lbc
