#include "common/workspace.h"

#include <algorithm>

#include "common/status.h"

namespace lbc {

namespace {
// First block starts at 64 KiB — covers the small-layer scratch without a
// growth event; big layers grow once and stay grown after the next reset().
constexpr i64 kMinBlockBytes = 64 * 1024;
}  // namespace

void* Workspace::alloc(i64 bytes) {
  LBC_CHECK_MSG(bytes >= 0, "Workspace::alloc: negative size");
  const i64 need = workspace_rounded(bytes);
  // A zero-byte request still consumes one line so the pointer is distinct
  // from the next allocation's (distinct buffers must never share a line).
  const i64 take = std::max<i64>(need, static_cast<i64>(kCacheLineBytes));

  Block* blk = blocks_.empty() ? nullptr : &blocks_.back();
  if (blk == nullptr ||
      blk->used + take > static_cast<i64>(blk->mem.size())) {
    // Grow: new block sized to at least double the total capacity so the
    // number of growth events is logarithmic in the final footprint.
    const i64 want = std::max({take, capacity(), kMinBlockBytes});
    if (!blocks_.empty()) ++grows_;
    blocks_.emplace_back();
    blocks_.back().mem.resize(static_cast<size_t>(want));
    blk = &blocks_.back();
  }
  void* p = blk->mem.data() + blk->used;
  blk->used += take;
  used_ += take;
  high_water_ = std::max(high_water_, used_);
  return p;
}

void Workspace::reset() {
  if (blocks_.size() > 1 ||
      (blocks_.size() == 1 &&
       static_cast<i64>(blocks_[0].mem.size()) < high_water_)) {
    // Consolidate to one block covering the high-water mark: after the
    // first execute at a given geometry, every later execute is alloc-free.
    blocks_.clear();
    blocks_.emplace_back();
    blocks_.back().mem.resize(
        static_cast<size_t>(std::max(high_water_, kMinBlockBytes)));
  }
  for (Block& b : blocks_) b.used = 0;
  used_ = 0;
}

void Workspace::reserve(i64 bytes) {
  LBC_CHECK_MSG(bytes >= 0, "Workspace::reserve: negative size");
  LBC_CHECK_MSG(used_ == 0, "Workspace::reserve: arena is in use");
  if (capacity() >= bytes) return;
  blocks_.clear();
  blocks_.emplace_back();
  blocks_.back().mem.resize(
      static_cast<size_t>(std::max(bytes, kMinBlockBytes)));
}

i64 Workspace::capacity() const {
  i64 total = 0;
  for (const Block& b : blocks_) total += static_cast<i64>(b.mem.size());
  return total;
}

}  // namespace lbc
