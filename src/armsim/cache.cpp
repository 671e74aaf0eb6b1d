#include "armsim/cache.h"

namespace lbc::armsim {

i32 CacheSim::find(u64 line) const {
  if (index_.empty()) return -1;
  const size_t mask = index_.size() - 1;
  for (size_t b = home(line);; b = (b + 1) & mask) {
    const u16 v = index_[b];
    if (v == 0) return -1;
    if (entries_[v - 1u].line == line) return v - 1;
  }
}

void CacheSim::unlink(int lv, i32 e) {
  Entry& x = entries_[static_cast<size_t>(e)];
  entries_[static_cast<size_t>(x.prev[lv])].next[lv] = x.next[lv];
  entries_[static_cast<size_t>(x.next[lv])].prev[lv] = x.prev[lv];
  x.prev[lv] = kOut;
  --size_[lv];
}

void CacheSim::push_front(int lv, i32 e) {
  Entry& s = entries_[static_cast<size_t>(kSentinel)];
  Entry& x = entries_[static_cast<size_t>(e)];
  x.prev[lv] = kSentinel;
  x.next[lv] = s.next[lv];
  entries_[static_cast<size_t>(s.next[lv])].prev[lv] = static_cast<i16>(e);
  s.next[lv] = static_cast<i16>(e);
  ++size_[lv];
}

void CacheSim::make_room(int lv) {
  if (size_[lv] < (lv == kL1 ? kL1Lines : kL2Lines)) return;
  const i32 victim = entries_[static_cast<size_t>(kSentinel)].prev[lv];
  unlink(lv, victim);
  if (!in(1 - lv, victim)) release(victim);
}

i32 CacheSim::allocate(u64 line) {
  if (entries_.empty()) {
    // Lazy allocation; the index stays at a load factor of at most 0.27.
    size_t buckets = 1;
    shift_ = 64;
    while (buckets < 2 * static_cast<size_t>(kEntries)) {
      buckets *= 2;
      --shift_;
    }
    entries_.resize(static_cast<size_t>(kEntries) + 1);
    Entry& s = entries_[static_cast<size_t>(kSentinel)];
    s.prev[kL1] = s.next[kL1] = s.prev[kL2] = s.next[kL2] = kSentinel;
    index_.assign(buckets, 0);
  }
  i32 e = free_;
  if (e >= 0)
    free_ = entries_[static_cast<size_t>(e)].next[kL1];
  else
    e = used_++;
  Entry& x = entries_[static_cast<size_t>(e)];
  x.line = line;
  x.prev[kL1] = x.prev[kL2] = kOut;
  const size_t mask = index_.size() - 1;
  size_t b = home(line);
  while (index_[b] != 0) b = (b + 1) & mask;
  index_[b] = static_cast<u16>(e + 1);
  return e;
}

// Linear-probing delete by backward shift: later entries of the probe run
// move up into the hole unless their home bucket lies cyclically in
// (hole, entry], so every remaining line stays reachable without
// tombstones.
void CacheSim::release(i32 e) {
  const size_t mask = index_.size() - 1;
  size_t hole = home(entries_[static_cast<size_t>(e)].line);
  while (index_[hole] != static_cast<u16>(e + 1)) hole = (hole + 1) & mask;
  for (size_t b = (hole + 1) & mask; index_[b] != 0; b = (b + 1) & mask) {
    const size_t h = home(entries_[index_[b] - 1u].line);
    const bool stays = hole <= b ? (hole < h && h <= b) : (hole < h || h <= b);
    if (stays) continue;
    index_[hole] = index_[b];
    hole = b;
  }
  index_[hole] = 0;
  entries_[static_cast<size_t>(e)].next[kL1] = static_cast<i16>(free_);
  free_ = e;
}

bool CacheSim::same_order(const CacheSim& o, int lv) const {
  if (size_[lv] != o.size_[lv]) return false;
  if (size_[lv] == 0) return true;
  for (i32 a = entries_[static_cast<size_t>(kSentinel)].next[lv],
           b = o.entries_[static_cast<size_t>(kSentinel)].next[lv];
       a != kSentinel; a = entries_[static_cast<size_t>(a)].next[lv],
           b = o.entries_[static_cast<size_t>(b)].next[lv])
    if (entries_[static_cast<size_t>(a)].line !=
        o.entries_[static_cast<size_t>(b)].line)
      return false;
  return true;
}

bool CacheSim::same_state(const CacheSim& o) const {
  // mru_line_ is always L1's most recent line, so the two orders decide it.
  return same_order(o, kL1) && same_order(o, kL2);
}

MemLevel CacheSim::access_line(u64 line) {
  ++stats_.accesses;
  if (line == mru_line_) return MemLevel::kL1;  // streaming fast path
  mru_line_ = line;
  const i32 e = find(line);
  if (e >= 0 && in(kL1, e)) {
    unlink(kL1, e);
    push_front(kL1, e);
    return MemLevel::kL1;
  }
  ++stats_.l1_misses;
  if (e >= 0) {  // in L2 only
    unlink(kL2, e);
    push_front(kL2, e);
    make_room(kL1);
    push_front(kL1, e);
    return MemLevel::kL2;
  }
  ++stats_.l2_misses;
  // Evict before allocating: with both levels full and disjoint, the table
  // is full until an eviction releases an entry.
  make_room(kL2);
  make_room(kL1);
  const i32 n = allocate(line);
  push_front(kL2, n);
  push_front(kL1, n);
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
