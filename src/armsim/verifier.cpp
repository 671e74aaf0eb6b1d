#include "armsim/verifier.h"

#include <algorithm>
#include <cstdint>
#include <sstream>

namespace lbc::armsim {

namespace verifier_detail {

void check_mem(Verifier& v, const void* p, u64 bytes) { v.check_mem(p, bytes); }

}  // namespace verifier_detail

namespace {

LaneInterval mul_iv(const LaneInterval& x, const LaneInterval& y) {
  const i64 p0 = x.lo * y.lo, p1 = x.lo * y.hi, p2 = x.hi * y.lo,
            p3 = x.hi * y.hi;
  return LaneInterval{std::min(std::min(p0, p1), std::min(p2, p3)),
                      std::max(std::max(p0, p1), std::max(p2, p3))};
}

std::string iv_str(const LaneInterval& iv) {
  std::ostringstream os;
  os << "[" << iv.lo << ", " << iv.hi << "]";
  return os.str();
}

}  // namespace

// ---------------------------------------------------------------------------
// Regions
// ---------------------------------------------------------------------------

void Verifier::put_region(Region r) {
  std::erase_if(regions_, [&](const Region& o) { return o.base == r.base; });
  regions_.push_back(std::move(r));
}

void Verifier::add_region(const void* p, i64 bytes, std::string name) {
  std::lock_guard<std::mutex> lock(mu_);
  Region r;
  r.base = static_cast<const char*>(p);
  r.bytes = bytes;
  r.name = std::move(name);
  put_region(std::move(r));
}

void Verifier::add_region(const void* p, i64 bytes, std::string name, i64 vmin,
                          i64 vmax, i64 overread_slack) {
  std::lock_guard<std::mutex> lock(mu_);
  Region r;
  r.base = static_cast<const char*>(p);
  r.bytes = bytes;
  r.name = std::move(name);
  r.has_range = true;
  r.vmin = vmin;
  r.vmax = vmax;
  r.slack = overread_slack;
  put_region(std::move(r));
}

void Verifier::add_scratch_region(const void* p, i64 bytes, std::string name,
                                  i64 vmin, i64 vmax) {
  std::lock_guard<std::mutex> lock(mu_);
  Region r;
  r.base = static_cast<const char*>(p);
  r.bytes = bytes;
  r.name = std::move(name);
  r.has_range = true;
  r.vmin = vmin;
  r.vmax = vmax;
  r.written.assign(static_cast<size_t>(bytes), false);
  put_region(std::move(r));
}

void Verifier::ensure_region(const void* p, i64 bytes, std::string name) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    const char* c = static_cast<const char*>(p);
    // Any overlap with an existing region means a driver already declared
    // bounds for this memory — those win. Registering the (possibly larger)
    // claimed span here would widen the bounds and hide the very overread
    // the bounds exist to catch; instead the span's excess trips check_mem
    // against the original region.
    for (const Region& r : regions_)
      if (c < r.base + r.bytes && c + bytes > r.base) return;
  }
  add_region(p, bytes, std::move(name));
}

const Verifier::Region* Verifier::region_for(const void* p) const {
  const char* c = static_cast<const char*>(p);
  for (const Region& r : regions_)
    if (c >= r.base && c < r.base + r.bytes) return &r;
  return nullptr;
}

void Verifier::check_mem(const void* p, u64 bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  if (regions_.empty()) return;  // nothing declared: bounds mode is off
  const Region* r = region_for(p);
  const char* c = static_cast<const char*>(p);
  if (r == nullptr) {
    std::ostringstream os;
    os << bytes << "-byte access at unregistered address (" << regions_.size()
       << " regions registered)";
    // Name the region the access ran off: the nearest one ending below it.
    const auto end_of = [](const Region& o) {
      return reinterpret_cast<std::uintptr_t>(o.base) +
             static_cast<std::uintptr_t>(o.bytes);
    };
    const std::uintptr_t at = reinterpret_cast<std::uintptr_t>(c);
    const Region* below = nullptr;
    for (const Region& o : regions_)
      if (end_of(o) <= at && (below == nullptr || end_of(o) > end_of(*below)))
        below = &o;
    if (below != nullptr)
      os << ", " << at - end_of(*below) << " bytes past the end of region '"
         << below->name << "'";
    add_violation(instr_, Op::kLd1, "oob", os.str());
    return;
  }
  const i64 end_off = (c - r->base) + static_cast<i64>(bytes);
  if (end_off > r->bytes + r->slack) {
    std::ostringstream os;
    os << bytes << "-byte access at offset " << (c - r->base)
       << " overruns region '" << r->name << "' (" << r->bytes << " bytes";
    if (r->slack > 0) os << " + " << r->slack << " slack";
    os << ") by " << end_off - r->bytes - r->slack << " bytes";
    add_violation(instr_, Op::kLd1, "oob", os.str());
  }
}

// ---------------------------------------------------------------------------
// Scopes
// ---------------------------------------------------------------------------

void Verifier::begin_scope(const KernelSpec& spec) {
  std::lock_guard<std::mutex> lock(mu_);
  Scope sc;
  sc.spec = spec;
  sc.begin_instr = instr_;
  scopes_.push_back(sc);
  regs_.clear();
}

void Verifier::end_scope() {
  std::lock_guard<std::mutex> lock(mu_);
  if (scopes_.empty()) return;
  const Scope& sc = scopes_.back();
  const KernelSpec& spec = sc.spec;
  if (spec.cal_ld_max > 0.0 && sc.loads >= 4) {
    const double ratio =
        static_cast<double>(sc.macs) / static_cast<double>(sc.loads);
    if (ratio < spec.cal_ld_min || ratio > spec.cal_ld_max) {
      std::ostringstream os;
      os << spec.name << ": measured CAL/LD ratio " << ratio << " (" << sc.macs
         << " MACs / " << sc.loads << " loads) outside the scheme band ["
         << spec.cal_ld_min << ", " << spec.cal_ld_max << "]";
      add_violation(instr_, Op::kSmlal8, "cal-ld-ratio", os.str());
    }
  }
  if (regs_.max_live() > RegFile::kArchRegs && sc.mov_vx == 0) {
    std::ostringstream os;
    os << spec.name << ": " << regs_.max_live()
       << " simultaneously-live vector registers exceed the " << RegFile::kArchRegs
       << "-entry register file but no v<->x spill (kMovVX) was charged";
    add_violation(instr_, Op::kMovVX, "spill-unaccounted", os.str());
  }
  max_live_ = std::max(max_live_, regs_.max_live());
  regs_.clear();
  scopes_.pop_back();
}

// ---------------------------------------------------------------------------
// Register definition / use
// ---------------------------------------------------------------------------

void Verifier::add_violation(u64 instr, Op op, const char* kind,
                             std::string detail) {
  if (violations_.size() >= kMaxViolations) return;
  Violation v;
  v.instr = instr;
  v.op = op;
  v.kind = kind;
  v.detail = std::move(detail);
  violations_.push_back(std::move(v));
}

VRegState& Verifier::define(const void* reg, VType t, u64 instr) {
  const bool fresh = regs_.find(reg) == nullptr;
  VRegState& st = regs_.def(reg, t, instr);
  if (fresh && !scopes_.empty()) {
    Scope& sc = scopes_.back();
    const i64 budget = RegFile::kArchRegs + sc.spec.spill_slots;
    if (regs_.live_count() > budget && !sc.budget_flagged) {
      sc.budget_flagged = true;
      std::ostringstream os;
      os << sc.spec.name << ": " << regs_.live_count()
         << " simultaneously-live vector registers exceed the "
         << RegFile::kArchRegs << "-entry register file";
      if (sc.spec.spill_slots > 0)
        os << " + " << sc.spec.spill_slots << " Alg. 1 spill slots";
      add_violation(instr, Op::kMovi, "reg-budget", os.str());
    }
  }
  return st;
}

VRegState* Verifier::use(const void* reg, VType t, Op op, u64 instr,
                         const char* operand) {
  VRegState* st = regs_.find(reg);
  if (st == nullptr || !st->initialized) {
    std::ostringstream os;
    os << std::string(op_name(op)) << " reads " << operand << " ("
       << vtype_name(t) << ") that was never written in this kernel scope";
    add_violation(instr, op, "uninit-read", os.str());
    // Define it with full type range so one mistake does not cascade.
    VRegState& fresh = regs_.def(reg, t, instr);
    for (int i = 0; i < fresh.lanes(); ++i)
      fresh.lane[static_cast<size_t>(i)] =
          LaneInterval{vtype_min(t), vtype_max(t)};
    return &fresh;
  }
  return st;
}

void Verifier::seed_load_lanes(VRegState& st, const void* mem, bool half) {
  i64 lo = vtype_min(st.type), hi = vtype_max(st.type);
  if (const Region* r = region_for(mem); r != nullptr && r->has_range) {
    lo = std::max(lo, r->vmin);
    hi = std::min(hi, r->vmax);
  }
  const int n = st.lanes();
  for (int i = 0; i < n; ++i)
    st.lane[static_cast<size_t>(i)] =
        (half && i >= n / 2) ? LaneInterval{0, 0} : LaneInterval{lo, hi};
}

void Verifier::check_lane_bounds(VRegState& st, const void* /*reg*/, Op op,
                                 u64 instr) {
  if (st.poisoned) return;
  const i64 lo = vtype_min(st.type), hi = vtype_max(st.type);
  for (int i = 0; i < st.lanes(); ++i) {
    LaneInterval& iv = st.lane[static_cast<size_t>(i)];
    if (iv.lo < lo || iv.hi > hi) {
      std::ostringstream os;
      os << std::string(op_name(op)) << " accumulation #" << st.accum
         << " can drive a " << vtype_name(st.type) << " lane to " << iv_str(iv)
         << ", outside [" << lo << ", " << hi
         << "] — flush (SADDW/SADALP) is overdue";
      add_violation(instr, op, "overflow", os.str());
      st.poisoned = true;
      // Clamp so the analysis continues sanely past the first report.
      for (int j = 0; j < st.lanes(); ++j) {
        LaneInterval& cv = st.lane[static_cast<size_t>(j)];
        cv.lo = std::max(cv.lo, lo);
        cv.hi = std::min(cv.hi, hi);
      }
      return;
    }
  }
}

// ---------------------------------------------------------------------------
// Instruction hooks
// ---------------------------------------------------------------------------

void Verifier::check_written(const void* mem, u64 bytes, Op op, u64 instr) {
  const Region* r = region_for(mem);
  if (r == nullptr || r->written.empty()) return;
  const i64 off = static_cast<const char*>(mem) - r->base;
  for (u64 i = 0; i < bytes; ++i) {
    const i64 at = off + static_cast<i64>(i);
    if (at >= r->bytes || r->written[static_cast<size_t>(at)]) continue;
    std::ostringstream os;
    os << std::string(op_name(op)) << " reads byte " << at << " of scratch "
       << "region '" << r->name << "', which no store wrote since the region "
       << "was registered";
    add_violation(instr, op, "uninit-read", os.str());
    return;
  }
}

void Verifier::on_load(Op op, const void* reg, VType t, const void* mem,
                       bool half) {
  std::lock_guard<std::mutex> lock(mu_);
  const u64 instr = next_instr();
  if (!scopes_.empty()) scopes_.back().loads++;
  check_written(mem, half ? 8 : 16, op, instr);
  VRegState& st = define(reg, t, instr);
  seed_load_lanes(st, mem, half);
}

void Verifier::on_ld4r(const void* r0, const void* r1, const void* r2,
                       const void* r3, const void* mem) {
  std::lock_guard<std::mutex> lock(mu_);
  const u64 instr = next_instr();
  if (!scopes_.empty()) scopes_.back().loads++;
  for (const void* reg : {r0, r1, r2, r3}) {
    VRegState& st = define(reg, VType::kS8, instr);
    seed_load_lanes(st, mem, /*half=*/false);
  }
}

void Verifier::on_ld1x4(const void* r0, const void* r1, const void* r2,
                        const void* r3, const void* mem) {
  std::lock_guard<std::mutex> lock(mu_);
  const u64 instr = next_instr();
  if (!scopes_.empty()) scopes_.back().loads++;
  check_written(mem, 64, Op::kLd1x4, instr);
  const char* p = static_cast<const char*>(mem);
  int slot = 0;
  for (const void* reg : {r0, r1, r2, r3}) {
    VRegState& st = define(reg, VType::kS8, instr);
    seed_load_lanes(st, p + 16 * slot, /*half=*/false);
    ++slot;
  }
}

void Verifier::on_tbl(const void* dstp, const void* tablep, const void* idxp,
                      bool tbx) {
  std::lock_guard<std::mutex> lock(mu_);
  const u64 instr = next_instr();
  if (!scopes_.empty()) scopes_.back().macs++;
  VRegState* table = use(tablep, VType::kS8, Op::kTbl, instr, "its table");
  use(idxp, VType::kU8, Op::kTbl, instr, "its index vector");
  // A looked-up lane can observe any table lane, or — on an out-of-range
  // index — 0 (TBL) / its prior value (TBX). Hull over all of them.
  LaneInterval hull{0, 0};
  for (int i = 0; i < 16; ++i) {
    hull.lo = std::min(hull.lo, table->lane[static_cast<size_t>(i)].lo);
    hull.hi = std::max(hull.hi, table->lane[static_cast<size_t>(i)].hi);
  }
  if (tbx) {
    if (const VRegState* prior = regs_.find(dstp);
        prior != nullptr && prior->initialized) {
      for (int i = 0; i < 16; ++i) {
        hull.lo = std::min(hull.lo, prior->lane[static_cast<size_t>(i)].lo);
        hull.hi = std::max(hull.hi, prior->lane[static_cast<size_t>(i)].hi);
      }
    }
  }
  VRegState& d = define(dstp, VType::kS8, instr);
  for (int i = 0; i < 16; ++i) d.lane[static_cast<size_t>(i)] = hull;
}

void Verifier::on_store(Op op, const void* reg, const void* mem, u64 bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  const u64 instr = next_instr();
  use(reg, VType::kS32, op, instr, "the stored register");
  for (Region& r : regions_) {
    const i64 off = static_cast<const char*>(mem) - r.base;
    if (r.written.empty() || off < 0 || off >= r.bytes) continue;
    for (u64 i = 0; i < bytes && off + static_cast<i64>(i) < r.bytes; ++i)
      r.written[static_cast<size_t>(off) + i] = true;
  }
}

void Verifier::on_zero(const void* reg, VType t) {
  std::lock_guard<std::mutex> lock(mu_);
  const u64 instr = next_instr();
  VRegState& st = define(reg, t, instr);
  for (int i = 0; i < st.lanes(); ++i)
    st.lane[static_cast<size_t>(i)] = LaneInterval{0, 0};
}

void Verifier::on_dup(const void* reg, VType t, i64 value) {
  std::lock_guard<std::mutex> lock(mu_);
  const u64 instr = next_instr();
  VRegState& st = define(reg, t, instr);
  for (int i = 0; i < st.lanes(); ++i)
    st.lane[static_cast<size_t>(i)] = LaneInterval{value, value};
}

void Verifier::accumulate_mac(MacKind k, Op op, u64 instr, VRegState& acc,
                              VRegState& a, VRegState& b) {
  acc.accum++;
  switch (k) {
    case MacKind::kSmlal8Lo:
    case MacKind::kSmlal8Hi: {
      const int off = (k == MacKind::kSmlal8Hi) ? 8 : 0;
      for (int i = 0; i < 8; ++i) {
        const LaneInterval p =
            mul_iv(a.lane[static_cast<size_t>(off + i)],
                   b.lane[static_cast<size_t>(off + i)]);
        acc.lane[static_cast<size_t>(i)].lo += p.lo;
        acc.lane[static_cast<size_t>(i)].hi += p.hi;
      }
      break;
    }
    case MacKind::kSmlal16Lo:
    case MacKind::kSmlal16Hi: {
      const int off = (k == MacKind::kSmlal16Hi) ? 4 : 0;
      for (int i = 0; i < 4; ++i) {
        const LaneInterval p =
            mul_iv(a.lane[static_cast<size_t>(off + i)],
                   b.lane[static_cast<size_t>(off + i)]);
        acc.lane[static_cast<size_t>(i)].lo += p.lo;
        acc.lane[static_cast<size_t>(i)].hi += p.hi;
      }
      break;
    }
    case MacKind::kMla8: {
      for (int i = 0; i < 16; ++i) {
        const LaneInterval p = mul_iv(a.lane[static_cast<size_t>(i)],
                                      b.lane[static_cast<size_t>(i)]);
        acc.lane[static_cast<size_t>(i)].lo += p.lo;
        acc.lane[static_cast<size_t>(i)].hi += p.hi;
      }
      break;
    }
    case MacKind::kSdot: {
      for (int i = 0; i < 4; ++i) {
        for (int j = 0; j < 4; ++j) {
          const LaneInterval p =
              mul_iv(a.lane[static_cast<size_t>(4 * i + j)],
                     b.lane[static_cast<size_t>(4 * i + j)]);
          acc.lane[static_cast<size_t>(i)].lo += p.lo;
          acc.lane[static_cast<size_t>(i)].hi += p.hi;
        }
      }
      break;
    }
  }
  // Scheme conformance: flush-interval bound of the innermost scope.
  if (!scopes_.empty()) {
    const KernelSpec& spec = scopes_.back().spec;
    const int limit = (k == MacKind::kMla8) ? spec.acc8_flush
                      : (k == MacKind::kSmlal8Lo || k == MacKind::kSmlal8Hi)
                          ? spec.acc16_flush
                          : 0;
    if (limit > 0 && acc.accum == limit + 1) {
      std::ostringstream os;
      os << spec.name << ": accumulation #" << acc.accum << " into a "
         << vtype_name(acc.type)
         << " accumulator exceeds the declared flush interval " << limit;
      add_violation(instr, op, "flush-interval", os.str());
    }
  }
}

void Verifier::on_mac(MacKind k, Op op, const void* accp, const void* ap,
                      const void* bp) {
  std::lock_guard<std::mutex> lock(mu_);
  const u64 instr = next_instr();
  if (!scopes_.empty()) scopes_.back().macs++;
  const VType acc_t = (k == MacKind::kMla8)                ? VType::kS8
                      : (k == MacKind::kSmlal8Lo ||
                         k == MacKind::kSmlal8Hi)          ? VType::kS16
                                                           : VType::kS32;
  const VType src_t = (k == MacKind::kSmlal16Lo || k == MacKind::kSmlal16Hi)
                          ? VType::kS16
                          : VType::kS8;
  VRegState* acc = use(accp, acc_t, op, instr, "its accumulator");
  VRegState* a = use(ap, src_t, op, instr, "operand a");
  VRegState* b = use(bp, src_t, op, instr, "operand b");
  accumulate_mac(k, op, instr, *acc, *a, *b);
  check_lane_bounds(*acc, accp, op, instr);
}

void Verifier::on_widen(WidenKind k, Op op, const void* accp,
                        const void* srcp) {
  std::lock_guard<std::mutex> lock(mu_);
  const u64 instr = next_instr();
  VType acc_t = VType::kS32, src_t = VType::kS16;
  switch (k) {
    case WidenKind::kSaddw8Lo:
    case WidenKind::kSaddw8Hi:
      acc_t = VType::kS16;
      src_t = VType::kS8;
      break;
    case WidenKind::kSaddw16Lo:
    case WidenKind::kSaddw16Hi:
      break;
    case WidenKind::kUadalp:
      acc_t = VType::kU16;
      src_t = VType::kU8;
      break;
    case WidenKind::kSadalp:
      acc_t = VType::kS32;
      src_t = VType::kU16;
      break;
  }
  VRegState* acc = use(accp, acc_t, op, instr, "its accumulator");
  VRegState* src = use(srcp, src_t, op, instr, "its source");
  switch (k) {
    case WidenKind::kSaddw8Lo:
    case WidenKind::kSaddw8Hi: {
      const int off = (k == WidenKind::kSaddw8Hi) ? 8 : 0;
      for (int i = 0; i < 8; ++i) {
        acc->lane[static_cast<size_t>(i)].lo +=
            src->lane[static_cast<size_t>(off + i)].lo;
        acc->lane[static_cast<size_t>(i)].hi +=
            src->lane[static_cast<size_t>(off + i)].hi;
      }
      // SADDW.8H is the TBL scheme's i16 accumulate: schemes whose spec
      // declares a 16-bit flush interval must zero the accumulator before
      // exceeding it, exactly like SMLAL.8H MACs in accumulate_mac. Schemes
      // that accumulate 16-bit lanes through MACs instead (SMLAL) flush via
      // SADDW.4S, so this bound never double-fires.
      acc->accum++;
      if (!scopes_.empty()) {
        const KernelSpec& spec = scopes_.back().spec;
        if (spec.acc16_flush > 0 && acc->accum == spec.acc16_flush + 1) {
          std::ostringstream os;
          os << spec.name << ": widening accumulation #" << acc->accum
             << " into a " << vtype_name(acc->type)
             << " accumulator exceeds the declared flush interval "
             << spec.acc16_flush;
          add_violation(instr, op, "flush-interval", os.str());
        }
      }
      break;
    }
    case WidenKind::kSaddw16Lo:
    case WidenKind::kSaddw16Hi: {
      const int off = (k == WidenKind::kSaddw16Hi) ? 4 : 0;
      for (int i = 0; i < 4; ++i) {
        acc->lane[static_cast<size_t>(i)].lo +=
            src->lane[static_cast<size_t>(off + i)].lo;
        acc->lane[static_cast<size_t>(i)].hi +=
            src->lane[static_cast<size_t>(off + i)].hi;
      }
      break;
    }
    case WidenKind::kUadalp: {
      for (int i = 0; i < 8; ++i) {
        acc->lane[static_cast<size_t>(i)].lo +=
            src->lane[static_cast<size_t>(2 * i)].lo +
            src->lane[static_cast<size_t>(2 * i + 1)].lo;
        acc->lane[static_cast<size_t>(i)].hi +=
            src->lane[static_cast<size_t>(2 * i)].hi +
            src->lane[static_cast<size_t>(2 * i + 1)].hi;
      }
      break;
    }
    case WidenKind::kSadalp: {
      for (int i = 0; i < 4; ++i) {
        acc->lane[static_cast<size_t>(i)].lo +=
            src->lane[static_cast<size_t>(2 * i)].lo +
            src->lane[static_cast<size_t>(2 * i + 1)].lo;
        acc->lane[static_cast<size_t>(i)].hi +=
            src->lane[static_cast<size_t>(2 * i)].hi +
            src->lane[static_cast<size_t>(2 * i + 1)].hi;
      }
      break;
    }
  }
  check_lane_bounds(*acc, accp, op, instr);
}

void Verifier::on_sshll(const void* dst, const void* src, bool high) {
  std::lock_guard<std::mutex> lock(mu_);
  const u64 instr = next_instr();
  VRegState* s = use(src, VType::kS8, Op::kSshll, instr, "its source");
  VRegState& d = define(dst, VType::kS16, instr);
  const int off = high ? 8 : 0;
  for (int i = 0; i < 8; ++i)
    d.lane[static_cast<size_t>(i)] = s->lane[static_cast<size_t>(off + i)];
}

void Verifier::on_and(const void* dst, const void* a, const void* b) {
  std::lock_guard<std::mutex> lock(mu_);
  const u64 instr = next_instr();
  VRegState* av = use(a, VType::kU8, Op::kAnd, instr, "operand a");
  VRegState* bv = use(b, VType::kU8, Op::kAnd, instr, "operand b");
  VRegState& d = define(dst, VType::kU8, instr);
  for (int i = 0; i < 16; ++i)
    d.lane[static_cast<size_t>(i)] =
        LaneInterval{0, std::min(av->lane[static_cast<size_t>(i)].hi,
                                 bv->lane[static_cast<size_t>(i)].hi)};
}

void Verifier::on_cnt(const void* dst, const void* src) {
  std::lock_guard<std::mutex> lock(mu_);
  const u64 instr = next_instr();
  use(src, VType::kU8, Op::kCnt, instr, "its source");
  VRegState& d = define(dst, VType::kU8, instr);
  for (int i = 0; i < 16; ++i)
    d.lane[static_cast<size_t>(i)] = LaneInterval{0, 8};
}

void Verifier::on_add(const void* accp, const void* vp) {
  std::lock_guard<std::mutex> lock(mu_);
  const u64 instr = next_instr();
  VRegState* acc = use(accp, VType::kS32, Op::kAdd, instr, "its accumulator");
  VRegState* v = use(vp, VType::kS32, Op::kAdd, instr, "its source");
  for (int i = 0; i < 4; ++i) {
    acc->lane[static_cast<size_t>(i)].lo += v->lane[static_cast<size_t>(i)].lo;
    acc->lane[static_cast<size_t>(i)].hi += v->lane[static_cast<size_t>(i)].hi;
  }
  check_lane_bounds(*acc, accp, Op::kAdd, instr);
}

void Verifier::on_add8(const void* accp, const void* vp) {
  std::lock_guard<std::mutex> lock(mu_);
  const u64 instr = next_instr();
  VRegState* acc = use(accp, VType::kS8, Op::kAdd, instr, "its accumulator");
  VRegState* v = use(vp, VType::kS8, Op::kAdd, instr, "its source");
  acc->accum++;
  for (int i = 0; i < 16; ++i) {
    acc->lane[static_cast<size_t>(i)].lo += v->lane[static_cast<size_t>(i)].lo;
    acc->lane[static_cast<size_t>(i)].hi += v->lane[static_cast<size_t>(i)].hi;
  }
  if (!scopes_.empty()) {
    const KernelSpec& spec = scopes_.back().spec;
    if (spec.acc8_flush > 0 && acc->accum == spec.acc8_flush + 1) {
      std::ostringstream os;
      os << spec.name << ": byte accumulation #" << acc->accum
         << " exceeds the declared flush interval " << spec.acc8_flush;
      add_violation(instr, Op::kAdd, "flush-interval", os.str());
    }
  }
  check_lane_bounds(*acc, accp, Op::kAdd, instr);
}

void Verifier::on_addv(const void* src) {
  std::lock_guard<std::mutex> lock(mu_);
  const u64 instr = next_instr();
  use(src, VType::kS32, Op::kAddv, instr, "its source");
}

void Verifier::on_mov_vx(u64 count) {
  std::lock_guard<std::mutex> lock(mu_);
  instr_ += count;
  if (!scopes_.empty()) scopes_.back().mov_vx += count;
}

void Verifier::def_value(const void* reg, VType t, i64 lo, i64 hi) {
  std::lock_guard<std::mutex> lock(mu_);
  VRegState& st = define(reg, t, instr_);
  for (int i = 0; i < st.lanes(); ++i)
    st.lane[static_cast<size_t>(i)] = LaneInterval{lo, hi};
}

void Verifier::def_like(const void* dst, const void* src) {
  std::lock_guard<std::mutex> lock(mu_);
  const VRegState* s = regs_.find(src);
  if (s == nullptr) return;
  const VRegState copy = *s;  // define() may rehash and invalidate `s`
  VRegState& d = define(dst, copy.type, instr_);
  d.lane = copy.lane;
  d.accum = copy.accum;
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

bool Verifier::ok() const {
  std::lock_guard<std::mutex> lock(mu_);
  return violations_.empty();
}

std::vector<Violation> Verifier::violations() const {
  std::lock_guard<std::mutex> lock(mu_);
  return violations_;
}

i64 Verifier::max_live_regs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::max(max_live_, regs_.max_live());
}

Status Verifier::to_status() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (violations_.empty()) return Status();
  const Violation& v = violations_.front();
  std::ostringstream os;
  os << v.kind << " at instruction #" << v.instr << " ("
     << std::string(op_name(v.op)) << "): " << v.detail;
  if (violations_.size() > 1)
    os << " (+" << violations_.size() - 1 << " more violations)";
  return Status::invariant_violation(os.str());
}

}  // namespace lbc::armsim
