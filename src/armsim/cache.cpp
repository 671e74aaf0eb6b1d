#include "armsim/cache.h"

namespace lbc::armsim {

i32 CacheSim::Level::find(u64 line) const {
  if (index_.empty()) return -1;
  const size_t mask = index_.size() - 1;
  for (size_t b = home(line);; b = (b + 1) & mask) {
    const i32 v = index_[b];
    if (v == 0) return -1;
    if (slots_[static_cast<size_t>(v - 1)].line == line) return v - 1;
  }
}

// Linear-probing delete by backward shift: later entries of the probe run
// move up into the hole unless their home bucket lies cyclically in
// (hole, entry], so every remaining line stays reachable without
// tombstones.
void CacheSim::Level::index_erase(u64 line) {
  const size_t mask = index_.size() - 1;
  size_t hole = home(line);
  while (slots_[static_cast<size_t>(index_[hole] - 1)].line != line)
    hole = (hole + 1) & mask;
  for (size_t b = (hole + 1) & mask; index_[b] != 0; b = (b + 1) & mask) {
    const size_t h =
        home(slots_[static_cast<size_t>(index_[b] - 1)].line);
    const bool stays = hole <= b ? (hole < h && h <= b) : (hole < h || h <= b);
    if (stays) continue;
    index_[hole] = index_[b];
    hole = b;
  }
  index_[hole] = 0;
}

void CacheSim::Level::unlink(i32 s) {
  Slot& e = slots_[static_cast<size_t>(s)];
  if (e.prev >= 0)
    slots_[static_cast<size_t>(e.prev)].next = e.next;
  else
    head_ = e.next;
  if (e.next >= 0)
    slots_[static_cast<size_t>(e.next)].prev = e.prev;
  else
    tail_ = e.prev;
}

void CacheSim::Level::push_front(i32 s) {
  Slot& e = slots_[static_cast<size_t>(s)];
  e.prev = -1;
  e.next = head_;
  if (head_ >= 0) slots_[static_cast<size_t>(head_)].prev = s;
  head_ = s;
  if (tail_ < 0) tail_ = s;
}

bool CacheSim::Level::touch(u64 line) {
  const i32 s = find(line);
  if (s < 0) return false;
  if (s != head_) {
    unlink(s);
    push_front(s);
  }
  return true;
}

void CacheSim::Level::insert(u64 line) {
  if (slots_.empty()) {
    // Lazy allocation, at a load factor of at most one half.
    size_t buckets = 1;
    shift_ = 64;
    while (buckets < 2 * static_cast<size_t>(capacity_)) {
      buckets *= 2;
      --shift_;
    }
    slots_.resize(static_cast<size_t>(capacity_));
    index_.assign(buckets, 0);
  }
  i32 s = used_;
  if (used_ < capacity_) {
    ++used_;
  } else {
    s = tail_;  // evict the least recent line, reuse its slot
    index_erase(slots_[static_cast<size_t>(s)].line);
    unlink(s);
  }
  slots_[static_cast<size_t>(s)].line = line;
  push_front(s);
  const size_t mask = index_.size() - 1;
  size_t b = home(line);
  while (index_[b] != 0) b = (b + 1) & mask;
  index_[b] = s + 1;
}

bool CacheSim::Level::same_order(const Level& o) const {
  if (used_ != o.used_) return false;
  for (i32 a = head_, b = o.head_; a >= 0;
       a = slots_[static_cast<size_t>(a)].next,
           b = o.slots_[static_cast<size_t>(b)].next)
    if (slots_[static_cast<size_t>(a)].line !=
        o.slots_[static_cast<size_t>(b)].line)
      return false;
  return true;
}

bool CacheSim::same_state(const CacheSim& o) const {
  // mru_line_ is always L1's most recent line, so the two orders decide it.
  return l1_.same_order(o.l1_) && l2_.same_order(o.l2_);
}

MemLevel CacheSim::access_line(u64 line) {
  ++stats_.accesses;
  if (line == mru_line_) return MemLevel::kL1;  // streaming fast path
  mru_line_ = line;
  if (l1_.touch(line)) return MemLevel::kL1;
  ++stats_.l1_misses;
  if (l2_.touch(line)) {
    l1_.insert(line);
    return MemLevel::kL2;
  }
  ++stats_.l2_misses;
  l2_.insert(line);
  l1_.insert(line);
  return MemLevel::kDram;
}

MemLevel CacheSim::access(const void* p, u64 bytes) {
  const u64 addr = reinterpret_cast<u64>(p);
  const u64 first = addr / kLineBytes;
  const u64 last = (addr + (bytes ? bytes - 1 : 0)) / kLineBytes;
  MemLevel worst = MemLevel::kL1;
  for (u64 line = first; line <= last; ++line) {
    const MemLevel lv = access_line(line);
    if (static_cast<int>(lv) > static_cast<int>(worst)) worst = lv;
  }
  return worst;
}

}  // namespace lbc::armsim
