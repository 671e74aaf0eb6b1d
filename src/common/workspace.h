// Reusable workspace arena for conv execution scratch buffers.
//
// The plan/execute split compiles weight packing once per layer (ConvPlan)
// and leaves only activation-dependent scratch — the im2col matrix, packed
// B panels, winograd transform buffers, bit-serial activation planes — to
// be allocated per execute. A Workspace turns those per-call heap
// allocations into bump-pointer suballocations from one cache-line-aligned
// block that is reset (not freed) between executes: steady-state serving
// performs zero scratch allocations per request.
//
// Semantics:
//  * alloc() returns kCacheLineBytes-aligned memory. Distinct allocations
//    never share a cache line, which preserves the armsim cache model's
//    bit-reproducibility argument (see align.h): line ids differ across
//    runs only by an injective renaming.
//  * reset() rewinds the cursor; capacity is retained. Contents after
//    reset() are stale — callers must fully overwrite (every producer in
//    this repo writes every slot of its buffer, padding included).
//  * Grow-on-demand: an alloc() past the current capacity allocates an
//    overflow block; the next reset() consolidates to a single block sized
//    to the high-water mark, so growth is amortized away.
//  * NOT thread-safe. One Workspace per worker is the contract (the
//    serving runtime keeps one per pool thread); a ConvPlan, by contrast,
//    is immutable and shared.
#pragma once

#include <cstddef>
#include <vector>

#include "common/align.h"
#include "common/types.h"

namespace lbc {

class Workspace {
 public:
  Workspace() = default;
  /// Pre-size the first block (bytes). Equivalent to reserve(initial_bytes).
  explicit Workspace(i64 initial_bytes) { reserve(initial_bytes); }

  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;
  Workspace(Workspace&&) = default;
  Workspace& operator=(Workspace&&) = default;

  /// Bump-allocate `bytes` bytes, aligned to a cache line. Returns a
  /// non-null pointer for bytes == 0 allocations too (zero-sized packs of
  /// degenerate shapes must still get a distinct, valid pointer).
  void* alloc(i64 bytes);

  /// Typed convenience: `n` elements of T, cache-line aligned.
  template <typename T>
  T* alloc_n(i64 n) {
    return static_cast<T*>(alloc(n * static_cast<i64>(sizeof(T))));
  }

  /// Rewind the cursor. Keeps (and consolidates) capacity; all pointers
  /// handed out before the reset are invalidated.
  void reset();

  /// Ensure the primary block holds at least `bytes` without growing later.
  void reserve(i64 bytes);

  /// Bytes handed out since the last reset (including alignment rounding).
  i64 bytes_used() const { return used_; }
  /// Largest bytes_used() ever observed — what reset() consolidates to.
  i64 high_water() const { return high_water_; }
  /// Current total capacity across blocks.
  i64 capacity() const;
  /// Number of times an alloc() overflowed the current block (growth
  /// events; steady state is zero after the first execute).
  i64 grow_count() const { return grows_; }

 private:
  struct Block {
    AlignedVector<unsigned char> mem;
    i64 used = 0;
  };

  std::vector<Block> blocks_;
  i64 used_ = 0;
  i64 high_water_ = 0;
  i64 grows_ = 0;
};

/// Round an allocation request up to whole cache lines — the per-alloc
/// footprint a Workspace charges. Exposed so plans can compute exact
/// workspace requirements.
constexpr i64 workspace_rounded(i64 bytes) {
  const i64 line = static_cast<i64>(kCacheLineBytes);
  return (bytes + line - 1) / line * line;
}

}  // namespace lbc
