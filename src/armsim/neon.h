// Functional emulation of the ARMv8.1 NEON (AdvSIMD) instructions used by
// the paper's kernels (Sec. 2.3, 3.3): LD1 / LD4R / ST1 / SMLAL(2) / MLA /
// SADDW(2) / SSHLL(2) / MOVI / AND / CNT / UADALP / SADALP / ADDV, plus
// TBL for the lookup-table scheme (DESIGN.md Sec. 16).
//
// Semantics are bit-faithful: SMLAL widens before accumulating; MLA
// accumulates modulo 2^8 (non-saturating wrap, like the hardware), which is
// exactly why the paper's MLA:SADDW ratio analysis matters — exceeding it
// silently corrupts results, and the overflow property tests pin this down.
//
// Every instruction takes a Ctx& and tallies itself; the emulation cost is
// one counter increment plus a fixed-size lane loop that the host compiler
// vectorizes, so full layers run in milliseconds.
//
// Checked execution: when ctx.verifier is set (verifier.h), each instruction
// additionally reports itself to the verifier. The hook runs BEFORE the
// ctx.mem() cache access so an out-of-bounds access is blamed on the
// instruction being emulated; tally/cache increments are order-insensitive
// within one instruction, so counters stay bit-identical either way. With a
// null verifier every hook is one untaken branch.
#pragma once

#include <array>

#include "armsim/counters.h"
#include "armsim/verifier.h"
#include "common/types.h"

namespace lbc::armsim {

struct int8x16 {
  std::array<i8, 16> v{};
};
struct int16x8 {
  std::array<i16, 8> v{};
};
struct int32x4 {
  std::array<i32, 4> v{};
};
struct uint8x16 {
  std::array<u8, 16> v{};
};
struct uint16x8 {
  std::array<u16, 8> v{};
};

// ---------------------------------------------------------------------------
// Loads / stores
// ---------------------------------------------------------------------------

/// LD1 {Vt.16B}, [Xn] — contiguous 16-byte load into a caller-provided
/// register. Destination-out-parameter style (like movi_zero/dup_s16)
/// throughout: the verifier identifies registers by host object address, and
/// a value-returning form would track the callee's local — these 16-byte
/// structs come back in machine registers on common ABIs, so the address
/// never survives the return.
inline void ld1_s8(Ctx& ctx, const i8* p, int8x16& r) {
  ctx.tally(Op::kLd1);
  if (ctx.verifier != nullptr)
    ctx.verifier->on_load(Op::kLd1, &r, VType::kS8, p, /*half=*/false);
  ctx.mem(p, 16);
  for (int i = 0; i < 16; ++i) r.v[i] = p[i];
}

/// LD1 {Vt.8B}, [Xn] — 8-byte load into the low half (high half zero).
inline void ld1_s8_64(Ctx& ctx, const i8* p, int8x16& r) {
  ctx.tally(Op::kLd1_64);
  if (ctx.verifier != nullptr)
    ctx.verifier->on_load(Op::kLd1_64, &r, VType::kS8, p, /*half=*/true);
  ctx.mem(p, 8);
  r.v.fill(0);
  for (int i = 0; i < 8; ++i) r.v[i] = p[i];
}

inline void ld1_u8(Ctx& ctx, const u8* p, uint8x16& r) {
  ctx.tally(Op::kLd1);
  if (ctx.verifier != nullptr)
    ctx.verifier->on_load(Op::kLd1, &r, VType::kU8, p, /*half=*/false);
  ctx.mem(p, 16);
  for (int i = 0; i < 16; ++i) r.v[i] = p[i];
}

/// LD1 {Vt1.16B-Vt4.16B}, [Xn] — 64-byte contiguous load filling four
/// registers in one instruction. The TBL scheme streams its four packed
/// per-column product tables (one cache line) through this.
inline void ld1x4_s8(Ctx& ctx, const i8* p, int8x16 out[4]) {
  ctx.tally(Op::kLd1x4);
  if (ctx.verifier != nullptr)
    ctx.verifier->on_ld1x4(&out[0], &out[1], &out[2], &out[3], p);
  ctx.mem(p, 64);
  for (int r = 0; r < 4; ++r)
    for (int i = 0; i < 16; ++i) out[r].v[i] = p[r * 16 + i];
}

/// LD4R {V0.16B..V3.16B}, [Xn] — load 4 bytes, replicate each across one
/// register. This is the single-load-replicate instruction behind the
/// re-designed GEMM (Fig. 1b, theta_2 = 4).
inline void ld4r_s8(Ctx& ctx, const i8* p, int8x16 out[4]) {
  ctx.tally(Op::kLd4r);
  if (ctx.verifier != nullptr)
    ctx.verifier->on_ld4r(&out[0], &out[1], &out[2], &out[3], p);
  ctx.mem(p, 4);
  for (int r = 0; r < 4; ++r)
    for (int i = 0; i < 16; ++i) out[r].v[i] = p[r];
}

/// LD1 {Vt.4S}, [Xn] — four i32 lanes (a kernel re-loading its own partial
/// sums; the verifier seeds the lanes from the region's value range).
inline void ld1_s32(Ctx& ctx, const i32* p, int32x4& r) {
  ctx.tally(Op::kLd1);
  if (ctx.verifier != nullptr)
    ctx.verifier->on_load(Op::kLd1, &r, VType::kS32, p, /*half=*/false);
  ctx.mem(p, 16);
  for (int i = 0; i < 4; ++i) r.v[i] = p[i];
}

/// ST1 {Vt.4S}, [Xn].
inline void st1_s32(Ctx& ctx, const int32x4& v, i32* p) {
  ctx.tally(Op::kSt1);
  if (ctx.verifier != nullptr) ctx.verifier->on_store(Op::kSt1, &v, p, 16);
  ctx.mem(p, 16);
  for (int i = 0; i < 4; ++i) p[i] = v.v[i];
}

inline void st1_s8(Ctx& ctx, const int8x16& v, i8* p) {
  ctx.tally(Op::kSt1);
  if (ctx.verifier != nullptr) ctx.verifier->on_store(Op::kSt1, &v, p, 16);
  ctx.mem(p, 16);
  for (int i = 0; i < 16; ++i) p[i] = v.v[i];
}

// ---------------------------------------------------------------------------
// Multiply-accumulate
// ---------------------------------------------------------------------------

/// SMLAL Vd.8H, Vn.8B, Vm.8B — widen-multiply the LOW 8 byte lanes and
/// accumulate into a 16-bit register (wraps mod 2^16 if the paper's
/// SMLAL:SADDW ratio were violated).
inline void smlal_s8(Ctx& ctx, int16x8& acc, const int8x16& a, const int8x16& b) {
  ctx.tally(Op::kSmlal8);
  if (ctx.verifier != nullptr)
    ctx.verifier->on_mac(MacKind::kSmlal8Lo, Op::kSmlal8, &acc, &a, &b);
  for (int i = 0; i < 8; ++i) {
    const i32 prod = static_cast<i32>(a.v[i]) * static_cast<i32>(b.v[i]);
    acc.v[i] = static_cast<i16>(static_cast<u16>(acc.v[i]) + static_cast<u16>(prod));
  }
}

/// SMLAL2 Vd.8H, Vn.16B, Vm.16B — same, HIGH 8 byte lanes.
inline void smlal2_s8(Ctx& ctx, int16x8& acc, const int8x16& a, const int8x16& b) {
  ctx.tally(Op::kSmlal8);
  if (ctx.verifier != nullptr)
    ctx.verifier->on_mac(MacKind::kSmlal8Hi, Op::kSmlal8, &acc, &a, &b);
  for (int i = 0; i < 8; ++i) {
    const i32 prod =
        static_cast<i32>(a.v[8 + i]) * static_cast<i32>(b.v[8 + i]);
    acc.v[i] = static_cast<i16>(static_cast<u16>(acc.v[i]) + static_cast<u16>(prod));
  }
}

/// SMLAL Vd.4S, Vn.4H, Vm.4H — 16-bit lanes into 32-bit accumulators (the
/// instruction ncnn's 8-bit scheme is built on).
inline void smlal_s16(Ctx& ctx, int32x4& acc, const int16x8& a, const int16x8& b) {
  ctx.tally(Op::kSmlal16);
  if (ctx.verifier != nullptr)
    ctx.verifier->on_mac(MacKind::kSmlal16Lo, Op::kSmlal16, &acc, &a, &b);
  for (int i = 0; i < 4; ++i)
    acc.v[i] += static_cast<i32>(a.v[i]) * static_cast<i32>(b.v[i]);
}

/// SMLAL2 Vd.4S, Vn.8H, Vm.8H — high 4 halfword lanes.
inline void smlal2_s16(Ctx& ctx, int32x4& acc, const int16x8& a, const int16x8& b) {
  ctx.tally(Op::kSmlal16);
  if (ctx.verifier != nullptr)
    ctx.verifier->on_mac(MacKind::kSmlal16Hi, Op::kSmlal16, &acc, &a, &b);
  for (int i = 0; i < 4; ++i)
    acc.v[i] += static_cast<i32>(a.v[4 + i]) * static_cast<i32>(b.v[4 + i]);
}

/// MLA Vd.16B, Vn.16B, Vm.16B — 16 byte-lane MACs, accumulating mod 2^8.
/// Twice the per-instruction MAC width of SMLAL on byte lanes (Sec. 3.4).
inline void mla_s8(Ctx& ctx, int8x16& acc, const int8x16& a, const int8x16& b) {
  ctx.tally(Op::kMla8);
  if (ctx.verifier != nullptr)
    ctx.verifier->on_mac(MacKind::kMla8, Op::kMla8, &acc, &a, &b);
  for (int i = 0; i < 16; ++i) {
    const u8 prod = static_cast<u8>(static_cast<u8>(a.v[i]) * static_cast<u8>(b.v[i]));
    acc.v[i] = static_cast<i8>(static_cast<u8>(static_cast<u8>(acc.v[i]) + prod));
  }
}

/// SDOT Vd.4S, Vn.16B, Vm.16B — ARMv8.2 dot-product extension: each 32-bit
/// lane accumulates the dot product of the corresponding four byte lanes.
/// Not available on the paper's ARMv8.1 target (Sec. 2.3); provided for
/// the v8.2 extension kernel (ext_sdot bench) that quantifies what the
/// paper's 2-8-bit schemes are competing against on newer cores.
inline void sdot_s8(Ctx& ctx, int32x4& acc, const int8x16& a, const int8x16& b) {
  ctx.tally(Op::kSdot);
  if (ctx.verifier != nullptr)
    ctx.verifier->on_mac(MacKind::kSdot, Op::kSdot, &acc, &a, &b);
  for (int i = 0; i < 4; ++i) {
    i32 dot = 0;
    for (int j = 0; j < 4; ++j)
      dot += static_cast<i32>(a.v[4 * i + j]) * static_cast<i32>(b.v[4 * i + j]);
    acc.v[i] += dot;
  }
}

// ---------------------------------------------------------------------------
// Table lookups (the TBL scheme, 2-3 bit; DESIGN.md Sec. 16)
// ---------------------------------------------------------------------------

/// TBL Vd.16B, {Vn.16B}, Vm.16B — per-byte table lookup: each destination
/// byte takes table[idx] for idx < 16 and 0 otherwise (the architectural
/// out-of-range behaviour of the single-register form). With a 16-entry
/// precomputed product table this answers 16 (weight, activation) products
/// in one 1-cycle shuffle — the emulated twin of the AVX2 pshufb LUT.
inline void tbl_s8(Ctx& ctx, int8x16& r, const int8x16& table,
                   const uint8x16& idx) {
  ctx.tally(Op::kTbl);
  if (ctx.verifier != nullptr)
    ctx.verifier->on_tbl(&r, &table, &idx);
  for (int i = 0; i < 16; ++i)
    r.v[i] = (idx.v[i] < 16) ? table.v[idx.v[i]] : i8{0};
}

// ---------------------------------------------------------------------------
// Widening adds (the SADDW family the instruction schemes flush through)
// ---------------------------------------------------------------------------

/// SADDW Vd.8H, Vn.8H, Vm.8B — accumulate sign-extended LOW byte lanes.
inline void saddw_s8(Ctx& ctx, int16x8& acc, const int8x16& v) {
  ctx.tally(Op::kSaddw8);
  if (ctx.verifier != nullptr)
    ctx.verifier->on_widen(WidenKind::kSaddw8Lo, Op::kSaddw8, &acc, &v);
  for (int i = 0; i < 8; ++i)
    acc.v[i] = static_cast<i16>(acc.v[i] + static_cast<i16>(v.v[i]));
}

/// SADDW2 Vd.8H, Vn.8H, Vm.16B — HIGH byte lanes.
inline void saddw2_s8(Ctx& ctx, int16x8& acc, const int8x16& v) {
  ctx.tally(Op::kSaddw8);
  if (ctx.verifier != nullptr)
    ctx.verifier->on_widen(WidenKind::kSaddw8Hi, Op::kSaddw8, &acc, &v);
  for (int i = 0; i < 8; ++i)
    acc.v[i] = static_cast<i16>(acc.v[i] + static_cast<i16>(v.v[8 + i]));
}

/// SADDW Vd.4S, Vn.4S, Vm.4H — accumulate sign-extended LOW halfword lanes.
inline void saddw_s16(Ctx& ctx, int32x4& acc, const int16x8& v) {
  ctx.tally(Op::kSaddw16);
  if (ctx.verifier != nullptr)
    ctx.verifier->on_widen(WidenKind::kSaddw16Lo, Op::kSaddw16, &acc, &v);
  for (int i = 0; i < 4; ++i) acc.v[i] += static_cast<i32>(v.v[i]);
}

/// SADDW2 Vd.4S, Vn.4S, Vm.8H — HIGH halfword lanes.
inline void saddw2_s16(Ctx& ctx, int32x4& acc, const int16x8& v) {
  ctx.tally(Op::kSaddw16);
  if (ctx.verifier != nullptr)
    ctx.verifier->on_widen(WidenKind::kSaddw16Hi, Op::kSaddw16, &acc, &v);
  for (int i = 0; i < 4; ++i) acc.v[i] += static_cast<i32>(v.v[4 + i]);
}

// ---------------------------------------------------------------------------
// Widening moves, zeroing, register moves
// ---------------------------------------------------------------------------

/// SSHLL Vd.8H, Vn.8B, #0 — sign-extend the low 8 bytes.
inline void sshll_s8(Ctx& ctx, int16x8& r, const int8x16& v) {
  ctx.tally(Op::kSshll);
  if (ctx.verifier != nullptr) ctx.verifier->on_sshll(&r, &v, /*high=*/false);
  for (int i = 0; i < 8; ++i) r.v[i] = static_cast<i16>(v.v[i]);
}

/// SSHLL2 Vd.8H, Vn.16B, #0 — sign-extend the high 8 bytes.
inline void sshll2_s8(Ctx& ctx, int16x8& r, const int8x16& v) {
  ctx.tally(Op::kSshll);
  if (ctx.verifier != nullptr) ctx.verifier->on_sshll(&r, &v, /*high=*/true);
  for (int i = 0; i < 8; ++i) r.v[i] = static_cast<i16>(v.v[8 + i]);
}

inline void movi_zero(Ctx& ctx, int8x16& v) {
  ctx.tally(Op::kMovi);
  if (ctx.verifier != nullptr) ctx.verifier->on_zero(&v, VType::kS8);
  v.v.fill(0);
}
inline void movi_zero(Ctx& ctx, int16x8& v) {
  ctx.tally(Op::kMovi);
  if (ctx.verifier != nullptr) ctx.verifier->on_zero(&v, VType::kS16);
  v.v.fill(0);
}
inline void movi_zero(Ctx& ctx, int32x4& v) {
  ctx.tally(Op::kMovi);
  if (ctx.verifier != nullptr) ctx.verifier->on_zero(&v, VType::kS32);
  v.v.fill(0);
}
inline void movi_zero(Ctx& ctx, uint16x8& v) {
  ctx.tally(Op::kMovi);
  if (ctx.verifier != nullptr) ctx.verifier->on_zero(&v, VType::kU16);
  v.v.fill(0);
}

/// DUP Vd.8H, Wn — broadcast one halfword.
inline void dup_s16(Ctx& ctx, int16x8& r, i16 value) {
  ctx.tally(Op::kDup);
  if (ctx.verifier != nullptr) ctx.verifier->on_dup(&r, VType::kS16, value);
  r.v.fill(value);
}

/// Cost-only marker for the v-register <-> x-register spills of Alg. 1
/// (lines 10 and 13): the emulator has unlimited registers, so the data
/// movement is a no-op, but its cycle cost must be charged.
inline void mov_vx(Ctx& ctx, u64 count = 1) {
  ctx.tally(Op::kMovVX, count);
  if (ctx.verifier != nullptr) ctx.verifier->on_mov_vx(count);
}

// ---------------------------------------------------------------------------
// Checked-execution definition markers (no cost, no tally)
// ---------------------------------------------------------------------------

/// Declare to the verifier that `r` holds values in [lo, hi] — used where a
/// kernel synthesizes a register with plain C++ (a gather loop) instead of a
/// modeled instruction. No-ops without a verifier; never affects counters.
inline void def_reg(Ctx& ctx, const int8x16& r, i64 lo, i64 hi) {
  if (ctx.verifier != nullptr) ctx.verifier->def_value(&r, VType::kS8, lo, hi);
}
inline void def_reg(Ctx& ctx, const int32x4& r, i64 lo, i64 hi) {
  if (ctx.verifier != nullptr) ctx.verifier->def_value(&r, VType::kS32, lo, hi);
}

/// Declare `dst` as holding the same lane intervals as `src` (a lane
/// permutation or broadcast done in plain C++).
inline void def_like(Ctx& ctx, const int8x16& dst, const int8x16& src) {
  if (ctx.verifier != nullptr) ctx.verifier->def_like(&dst, &src);
}

// ---------------------------------------------------------------------------
// Bit-serial support (the TVM popcount baseline, Sec. 6 / Fig. 9)
// ---------------------------------------------------------------------------

inline void and_u8(Ctx& ctx, uint8x16& r, const uint8x16& a,
                   const uint8x16& b) {
  ctx.tally(Op::kAnd);
  if (ctx.verifier != nullptr) ctx.verifier->on_and(&r, &a, &b);
  for (int i = 0; i < 16; ++i) r.v[i] = static_cast<u8>(a.v[i] & b.v[i]);
}

/// CNT Vd.16B, Vn.16B — per-byte population count.
inline void cnt_u8(Ctx& ctx, uint8x16& r, const uint8x16& a) {
  ctx.tally(Op::kCnt);
  if (ctx.verifier != nullptr) ctx.verifier->on_cnt(&r, &a);
  for (int i = 0; i < 16; ++i)
    r.v[i] = static_cast<u8>(__builtin_popcount(a.v[i]));
}

/// UADALP Vd.8H, Vn.16B — pairwise widening add-accumulate.
inline void uadalp_u8(Ctx& ctx, uint16x8& acc, const uint8x16& v) {
  ctx.tally(Op::kUadalp);
  if (ctx.verifier != nullptr)
    ctx.verifier->on_widen(WidenKind::kUadalp, Op::kUadalp, &acc, &v);
  for (int i = 0; i < 8; ++i)
    acc.v[i] = static_cast<u16>(acc.v[i] + v.v[2 * i] + v.v[2 * i + 1]);
}

/// SADALP Vd.4S, Vn.8H (on unsigned counts the sign never matters here).
inline void sadalp_u16(Ctx& ctx, int32x4& acc, const uint16x8& v) {
  ctx.tally(Op::kSadalp);
  if (ctx.verifier != nullptr)
    ctx.verifier->on_widen(WidenKind::kSadalp, Op::kSadalp, &acc, &v);
  for (int i = 0; i < 4; ++i)
    acc.v[i] += static_cast<i32>(v.v[2 * i]) + static_cast<i32>(v.v[2 * i + 1]);
}

/// ADDV Sd, Vn.4S — across-vector sum.
inline i32 addv_s32(Ctx& ctx, const int32x4& v) {
  ctx.tally(Op::kAddv);
  if (ctx.verifier != nullptr) ctx.verifier->on_addv(&v);
  return v.v[0] + v.v[1] + v.v[2] + v.v[3];
}

/// ADD Vd.16B, Vn.16B, Vm.16B — byte-lane add, wrapping mod 2^8. The TBL
/// scheme's first accumulation level: each add folds one looked-up table
/// entry into a byte accumulator (flushed per tbl_flush_interval).
inline void add_s8(Ctx& ctx, int8x16& acc, const int8x16& v) {
  ctx.tally(Op::kAdd);
  if (ctx.verifier != nullptr) ctx.verifier->on_add8(&acc, &v);
  for (int i = 0; i < 16; ++i)
    acc.v[i] = static_cast<i8>(
        static_cast<u8>(static_cast<u8>(acc.v[i]) + static_cast<u8>(v.v[i])));
}

inline void add_s32(Ctx& ctx, int32x4& acc, const int32x4& v) {
  ctx.tally(Op::kAdd);
  if (ctx.verifier != nullptr) ctx.verifier->on_add(&acc, &v);
  for (int i = 0; i < 4; ++i) acc.v[i] += v.v[i];
}

}  // namespace lbc::armsim
