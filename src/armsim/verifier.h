// Checked execution over the emulated NEON instruction stream.
//
// An armsim::Ctx with a Verifier attached verifies, as the kernels run,
// the paper invariants that are otherwise only argued on paper:
//
//  1. Overflow safety (Sec. 3.3): per-lane interval analysis proves that
//     SMLAL accumulation into 16-bit lanes and MLA accumulation into 8-bit
//     lanes never exceeds the lane's representable range before the
//     SADDW/SADALP flush — for the *declared operand ranges*, not just the
//     data of this run. The exact instruction index is flagged on
//     violation (MLA wraps mod 2^8 silently, so nothing else would).
//  2. Register budget: live-register tracking over the modeled 32-entry
//     NEON register file (regfile.h); exceeding it, or reading a register
//     never written in the scope, is a violation. kMovVX spill slots are
//     allowed only where the kernel's Alg. 1 plan declares them.
//  3. Memory-bounds sanitizing: every ctx.mem() access must land inside a
//     registered tensor/Workspace region — an "asan for the simulated
//     ISA" that catches packing/padding overreads the real kernels hide.
//  4. Scheme conformance: measured CAL/LD ratio per micro-kernel scope and
//     the flush-interval bound declared in its KernelSpec.
//
// Off by default: a null Ctx::verifier adds one untaken branch per
// emulated instruction and changes no counter, so modeled cycles stay
// bit-identical (enforced by bench/verify_invariants).
//
// Thread safety: all hooks lock an internal mutex; a Verifier may be
// shared by several Ctx objects. Checked GEMM execution nevertheless
// forces threads=1 so the instruction stream (and every reported
// instruction index) is deterministic.
#pragma once

#include <mutex>
#include <string>
#include <vector>

#include "armsim/counters.h"
#include "armsim/regfile.h"
#include "common/status.h"

namespace lbc::armsim {

/// Per-micro-kernel invariant declaration, opened with a VerifyScope.
/// Zero-valued fields are unchecked.
struct KernelSpec {
  const char* name = "kernel";
  /// Max SMLAL.8H MACs into one 16-bit lane between zeroes (paper Sec. 3.3).
  int acc16_flush = 0;
  /// Max byte-lane accumulations (MLA.16B MACs or the TBL scheme's ADD.16B
  /// entry adds) into one 8-bit lane between zeroes.
  int acc8_flush = 0;
  /// v<->x spill slots Alg. 1 grants beyond the 32 vector registers
  /// (4 for the SMLAL scheme, 8 for the MLA scheme).
  int spill_slots = 0;
  /// Measured MAC-instructions / vector-loads band for the scope
  /// (Fig. 1: re-designed GEMM 4.0, MLA 2.0, ncnn 8.0, traditional 1.0).
  double cal_ld_min = 0.0;
  double cal_ld_max = 0.0;
};

/// One caught invariant violation. `instr` is the 1-based index of the
/// offending instruction in the verified stream (register-level emulated
/// instructions only; bulk tallies do not advance it).
struct Violation {
  u64 instr = 0;
  Op op = Op::kScalar;
  std::string kind;  ///< "overflow" | "flush-interval" | "reg-budget" |
                     ///< "uninit-read" | "spill-unaccounted" | "oob" |
                     ///< "cal-ld-ratio"
  std::string detail;
};

/// Which MAC instruction fired, lane-mapping included.
enum class MacKind {
  kSmlal8Lo,   ///< SMLAL  Vd.8H, Vn.8B,  Vm.8B   (low byte lanes)
  kSmlal8Hi,   ///< SMLAL2 Vd.8H, Vn.16B, Vm.16B  (high byte lanes)
  kSmlal16Lo,  ///< SMLAL  Vd.4S, Vn.4H,  Vm.4H
  kSmlal16Hi,  ///< SMLAL2 Vd.4S, Vn.8H,  Vm.8H
  kMla8,       ///< MLA    Vd.16B (wraps mod 2^8)
  kSdot,       ///< SDOT   Vd.4S (four products per lane)
};

/// Which widening-accumulate fired (the flush instructions).
enum class WidenKind {
  kSaddw8Lo,   ///< SADDW  Vd.8H, Vn.8H, Vm.8B
  kSaddw8Hi,   ///< SADDW2 Vd.8H, Vn.8H, Vm.16B
  kSaddw16Lo,  ///< SADDW  Vd.4S, Vn.4S, Vm.4H
  kSaddw16Hi,  ///< SADDW2 Vd.4S, Vn.4S, Vm.8H
  kUadalp,     ///< UADALP Vd.8H, Vn.16B
  kSadalp,     ///< SADALP Vd.4S, Vn.8H
};

class Verifier {
 public:
  // ---- configuration ------------------------------------------------

  /// Register a memory region every ctx.mem() access must fall inside.
  /// `vmin`/`vmax` bound the values i8 loads from the region may observe
  /// (seed of the interval analysis); `overread_slack` allows modeled
  /// gather spans to run that many bytes past the end (an emulation
  /// artifact of spans like direct conv's clamped row gather).
  /// Re-registering the same start address replaces the old region.
  void add_region(const void* p, i64 bytes, std::string name);
  void add_region(const void* p, i64 bytes, std::string name, i64 vmin,
                  i64 vmax, i64 overread_slack = 0);
  /// A ranged region the kernels must write (through a verified store)
  /// before they read it: a load of a byte no store reached since the
  /// region was (re-)registered is an "uninit-read" naming the region —
  /// the stale-scratch hazard bounds alone cannot see. Re-registering the
  /// same start clears the record.
  void add_scratch_region(const void* p, i64 bytes, std::string name,
                          i64 vmin, i64 vmax);
  /// add_region unless [p, p+bytes) overlaps a registered region (pack
  /// helpers call this so driver-registered bounds always win — a pack
  /// claiming a larger span than the driver declared must not widen it).
  void ensure_region(const void* p, i64 bytes, std::string name);

  // ---- kernel scopes ------------------------------------------------

  void begin_scope(const KernelSpec& spec);
  void end_scope();

  // ---- instruction hooks (called by neon.h when a verifier is set) ---

  void on_load(Op op, const void* reg, VType t, const void* mem, bool half);
  void on_ld4r(const void* r0, const void* r1, const void* r2, const void* r3,
               const void* mem);
  void on_ld1x4(const void* r0, const void* r1, const void* r2, const void* r3,
                const void* mem);
  /// A vector store of `bytes` bytes from `reg` to `mem`.
  void on_store(Op op, const void* reg, const void* mem, u64 bytes);
  void on_zero(const void* reg, VType t);
  void on_dup(const void* reg, VType t, i64 value);
  void on_mac(MacKind k, Op op, const void* acc, const void* a, const void* b);
  /// TBL/TBX product lookup: `dst` lanes take values from `table`'s lanes,
  /// or 0 (TBL) / their prior value (TBX) on an out-of-range index. Counts
  /// as a MAC-class instruction for the CAL/LD scheme conformance band.
  void on_tbl(const void* dst, const void* table, const void* idx, bool tbx);
  void on_widen(WidenKind k, Op op, const void* acc, const void* src);
  void on_sshll(const void* dst, const void* src, bool high);
  void on_and(const void* dst, const void* a, const void* b);
  void on_cnt(const void* dst, const void* src);
  void on_add(const void* acc, const void* v);
  /// ADD.16B byte-lane accumulate (the TBL scheme's first level): interval
  /// growth per lane, checked against the i8 range and the innermost
  /// scope's acc8_flush interval — MLA.16B's two hazards, same treatment.
  void on_add8(const void* acc, const void* v);
  void on_addv(const void* src);
  void on_mov_vx(u64 count);

  /// Cost-free definition markers (no instruction index, no tally): used
  /// where the emulation synthesizes a register without a modeled
  /// instruction (a C++ gather loop, a lane-subset broadcast).
  void def_value(const void* reg, VType t, i64 lo, i64 hi);
  void def_like(const void* dst, const void* src);

  /// Bounds check for one ctx.mem() access (also reachable through the
  /// free function hook in counters.h).
  void check_mem(const void* p, u64 bytes);

  // ---- reporting -----------------------------------------------------

  bool ok() const;
  std::vector<Violation> violations() const;
  i64 max_live_regs() const;
  /// OK when nothing was caught; otherwise kInvariantViolation with the
  /// first violation's location and a count of the rest.
  Status to_status() const;

 private:
  struct Region {
    const char* base = nullptr;
    i64 bytes = 0;
    std::string name;
    bool has_range = false;
    i64 vmin = 0, vmax = 0;
    i64 slack = 0;
    /// add_scratch_region: one flag per byte, set by verified stores.
    std::vector<bool> written;
  };

  struct Scope {
    KernelSpec spec;
    u64 begin_instr = 0;
    u64 loads = 0;      ///< LD1/LD1.8B/LD4R instructions in the scope
    u64 macs = 0;       ///< SMLAL/MLA/SDOT instructions in the scope
    u64 mov_vx = 0;     ///< spill moves tallied in the scope
    bool budget_flagged = false;
  };

  static constexpr size_t kMaxViolations = 100;

  // All private helpers assume mu_ is held.
  u64 next_instr() { return ++instr_; }
  /// Register `r`, replacing a region with the same start.
  void put_region(Region r);
  void add_violation(u64 instr, Op op, const char* kind, std::string detail);
  VRegState& define(const void* reg, VType t, u64 instr);
  VRegState* use(const void* reg, VType t, Op op, u64 instr,
                 const char* operand);
  const Region* region_for(const void* p) const;
  void seed_load_lanes(VRegState& st, const void* mem, bool half);
  void check_written(const void* mem, u64 bytes, Op op, u64 instr);
  void check_lane_bounds(VRegState& st, const void* reg, Op op, u64 instr);
  void accumulate_mac(MacKind k, Op op, u64 instr, VRegState& acc,
                      VRegState& a, VRegState& b);

  mutable std::mutex mu_;
  std::vector<Region> regions_;
  std::vector<Scope> scopes_;  ///< innermost last (kernels do not nest today)
  RegFile regs_;
  std::vector<Violation> violations_;
  u64 instr_ = 0;
  i64 max_live_ = 0;
};

/// RAII kernel scope: opens the spec on the Ctx's verifier (no-op when
/// checked execution is off). Declared here so micro kernels need a single
/// line at the top of their body.
class VerifyScope {
 public:
  VerifyScope(Ctx& ctx, const KernelSpec& spec) : verifier_(ctx.verifier) {
    if (verifier_ != nullptr) verifier_->begin_scope(spec);
  }
  ~VerifyScope() {
    if (verifier_ != nullptr) verifier_->end_scope();
  }
  VerifyScope(const VerifyScope&) = delete;
  VerifyScope& operator=(const VerifyScope&) = delete;

 private:
  Verifier* verifier_;
};

}  // namespace lbc::armsim
