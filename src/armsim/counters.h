// Dynamic instruction counters for the emulated ARMv8.1 NEON ISA.
//
// Every emulated instruction tallies into a Ctx. The Cortex-A53 cost model
// (cost_model.h) converts the resulting instruction mix into modeled cycles;
// the mix itself is measured, not estimated, which is what makes the ARM
// evaluation figures reproducible in this simulator (see DESIGN.md Sec. 2).
#pragma once

#include <array>
#include <cstddef>
#include <string_view>

#include "armsim/cache.h"
#include "common/types.h"

namespace lbc::armsim {

class Verifier;

namespace verifier_detail {
/// Out-of-line bridge so counters.h does not need verifier.h (which
/// includes this header back). Defined in verifier.cpp.
void check_mem(Verifier& v, const void* p, u64 bytes);
}  // namespace verifier_detail

/// Instruction classes. One entry per distinct (mnemonic, element width)
/// pair that the kernels use; widths matter because e.g. SMLAL on 8-bit
/// lanes retires 8 MACs while SMLAL on 16-bit lanes retires only 4.
enum class Op : int {
  kLd1,      ///< LD1 {v}, 128-bit contiguous vector load
  kLd1_64,   ///< LD1 {v.8b}, 64-bit vector load
  kLd1x4,    ///< LD1 {v0-v3}, 64-byte contiguous 4-register load
  kLd4r,     ///< LD4R: load 4 elements, replicate each across a register
  kSt1,      ///< ST1, 128-bit vector store
  kSmlal8,   ///< SMLAL/SMLAL2 on 8-bit lanes (8 MACs -> 16-bit acc)
  kSmlal16,  ///< SMLAL/SMLAL2 on 16-bit lanes (4 MACs -> 32-bit acc)
  kMla8,     ///< MLA .16B (16 MACs -> 8-bit acc)
  kSdot,     ///< SDOT .4S (ARMv8.2 extension: 16 MACs -> 32-bit acc)
  kTbl,      ///< TBL .16B (16 product lookups from a 16-entry table)
  kSaddw8,   ///< SADDW/SADDW2 widening 8 -> 16 bit
  kSaddw16,  ///< SADDW/SADDW2 widening 16 -> 32 bit
  kSshll,    ///< SSHLL/SSHLL2 sign-extend 8 -> 16 bit
  kMovi,     ///< MOVI: zero a vector register
  kMovVX,    ///< MOV between vector and general-purpose registers (spills)
  kDup,      ///< DUP: broadcast one element
  kAnd,      ///< AND .16B
  kCnt,      ///< CNT .16B (per-byte popcount)
  kUadalp,   ///< UADALP: pairwise widening add-accumulate (u8 -> u16)
  kSadalp,   ///< SADALP: pairwise widening add-accumulate (s16 -> s32)
  kAddv,     ///< ADDV: across-vector reduction
  kAdd,      ///< ADD vector integer add
  kShift,    ///< SHL/USHR/SRI family (bit packing)
  kScalar,   ///< general-purpose scalar ALU op (address math, masks)
  kLoop,     ///< loop control (compare + branch + induction update)
  kL1Miss,   ///< stall: line served from L2 (from the cache model)
  kL2Miss,   ///< stall: line served from DRAM
  kCount_
};

constexpr size_t kNumOps = static_cast<size_t>(Op::kCount_);

std::string_view op_name(Op op);

/// Whether the op issues on the load/store pipe (true) or the NEON ALU
/// pipe (false). kScalar/kLoop issue on the scalar pipe (handled apart).
bool is_mem_op(Op op);
bool is_scalar_op(Op op);
/// Cache-miss stall cycles: serial on the in-order A53, charged outside
/// the dual-issue overlap.
bool is_stall_op(Op op);

struct Counters {
  std::array<u64, kNumOps> n{};

  u64& operator[](Op op) { return n[static_cast<size_t>(op)]; }
  u64 operator[](Op op) const { return n[static_cast<size_t>(op)]; }

  void merge(const Counters& o) {
    for (size_t i = 0; i < kNumOps; ++i) n[i] += o.n[i];
  }
  u64 total() const {
    u64 t = 0;
    for (u64 v : n) t += v;
    return t;
  }
  /// Total vector loads (Eq. 1/3 "LD") and MAC-class arithmetic (Eq. 2/4
  /// "CAL"), for the re-designed-GEMM ablation.
  u64 loads() const;
  u64 macs_instrs() const;  ///< SMLAL + MLA + SDOT instruction count
};

/// Tally context threaded through every emulated instruction. Each Ctx
/// carries its own cache model (one per core: the Pi 3B's A53s have
/// private L1s; the shared L2 is approximated per-core).
class Ctx {
 public:
  Counters counts;

  void tally(Op op, u64 k = 1) { counts[op] += k; }

  /// Route a memory access through the cache model (called by every
  /// emulated load/store with the real buffer address).
  void mem(const void* p, u64 bytes) {
    if (verifier != nullptr) verifier_detail::check_mem(*verifier, p, bytes);
    if (!model_cache) return;
    switch (cache.access(p, bytes)) {
      case MemLevel::kL1: break;
      case MemLevel::kL2: tally(Op::kL1Miss); break;
      case MemLevel::kDram:
        tally(Op::kL1Miss);
        tally(Op::kL2Miss);
        break;
    }
  }

  /// Touch a buffer range line by line (bulk passes such as im2col or the
  /// winograd transform scatter, whose issue cost is tallied separately).
  void mem_range(const void* p, u64 bytes) {
    if (!model_cache) return;
    const char* c = static_cast<const char*>(p);
    for (u64 off = 0; off < bytes; off += CacheSim::kLineBytes)
      mem(c + off, 1);
  }

  bool model_cache = true;
  CacheSim cache;

  /// Checked-execution hook (verifier.h). Null by default: plain runs pay
  /// one untaken branch per memory access and no counter changes.
  Verifier* verifier = nullptr;
};

}  // namespace lbc::armsim
