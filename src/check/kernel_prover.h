// Symbolic overflow prover for every kernel scheme (paper Sec. 3.3, made
// static).
//
// PR 4's verifier checks the flush-interval overflow argument *dynamically*:
// it replays one concrete emulated-NEON trace through interval analysis and
// rejects the run if a 16-bit lane could have wrapped. That proves the
// kernel correct for the operands it saw. This module proves the argument
// for ALL inputs, ahead of execution, from the scheme's declared facts
// alone: operand ranges (the adjusted range [-(2^(b-1)-1), 2^(b-1)-1]),
// flush cadences (KernelSpec / schemes.h on ARM, kLutFlushInterval on
// x86), and the reduction depth. Each fact becomes a named *obligation* —
// a closed-form inequality with the numbers substituted — and a proof is
// the conjunction of its obligations.
//
// Coverage (the first static verification the native schemes have had —
// their saturation arguments previously lived in code comments):
//  * ARM SMLAL (4-8 bit): declared flush covers the kernel's unroll factor
//    AND flush * qmax^2 <= 32767 (re-deriving the dynamic result of PR 4
//    symbolically), plus i32 depth headroom.
//  * ARM MLA (2-3 bit): both accumulation levels — 8-bit lane headroom per
//    first-level flush, 16-bit headroom across kSecondLevelRounds rounds.
//  * ARM SDOT / ncnn-style / traditional: direct-i32 (or single-flush)
//    variants of the same argument.
//  * ARM TBL (2-3 bit, every mode: one signed value, ternary pairs, and
//    the non-negative fold of a ReLU'd input): every product-table entry
//    fits the signed-byte TBL lane, every index stays inside the 16-entry
//    window and decodes back to the values it encodes, i8 lanes hold
//    through the declared flush, the 32x4 tile's i16 lanes hold across
//    kTblSecondLevelRounds flushes, every weight group's dictionary id
//    lies inside the mode's dictionary and decodes back to it, the
//    shipping table builder and the dictionary hold exactly the decoded
//    products (checked exhaustively, every id), and for built tables the
//    read of the table any id byte names stays inside the dictionary's
//    storage, past the dictionary reading zeros.
//  * AVX2 LUT (2-4 bit): products fit the signed-byte pshufb table, i16
//    lanes cannot overflow before the 256-step flush, every table index
//    stays in [0, 15], and the N%32 zero-pad tail always indexes the w*0
//    entry (checked against the real native_product_lut table).
//  * AVX2 maddubs dot (5-8 bit): the sign-trick i16 pair sum cannot
//    saturate given the adjusted -127..127 range (2*127*127 < 2^15 — the
//    -128 exclusion), plus i32 depth headroom.
//  * Portable scalar fallbacks: direct-i32 accumulation depth headroom.
//
// Failed proofs reject the configuration at plan time
// (core::plan_arm_conv / plan_native_conv) with kInvariantViolation and
// the failed obligation named; check::prove_all_schemes() sweeps the full
// scheme x bits x blocking grid as a CI gate beside verify_all_kernels().
#pragma once

#include <string>
#include <vector>

#include "armkern/gemm_lowbit.h"
#include "common/status.h"
#include "common/types.h"

namespace lbc::check {

/// Accumulation scheme under proof. The ARM entries are the paper's
/// instruction schemes (Sec. 3.3); the native entries are the x86 backend's
/// (hal/native_gemm.h); kNativeScalar covers both portable fallbacks.
enum class ProofScheme {
  kArmSmlal,
  kArmMla,
  kArmSdot,
  kArmNcnn,
  kArmTraditional,
  kArmTbl,
  kNativeLut,
  kNativeDot,
  kNativeScalar,
};

const char* proof_scheme_name(ProofScheme s);

/// Declared facts the proof runs on. shipping_model() fills this from the
/// constants the kernels actually use; mutation tests corrupt individual
/// fields and assert the named obligation fails.
struct SchemeModel {
  ProofScheme scheme = ProofScheme::kArmSmlal;
  int bits = 8;
  /// Declared operand magnitude bounds (|a| <= a_max_abs etc.). Shipping
  /// models use the adjusted range qmax_for_bits(bits).
  i32 a_max_abs = 0;
  i32 b_max_abs = 0;
  /// Declared 16-bit-lane flush interval (SMLAL / traditional / LUT).
  int acc16_flush = 0;
  /// Declared 8-bit-lane flush interval (MLA first level).
  int acc8_flush = 0;
  /// Declared first-level rounds between 16->32-bit flushes (MLA, and the
  /// 32x4 TBL tile's byte-lane flushes).
  int second_level_rounds = 0;
  /// Total reduction depth (GEMM K) the proof must cover.
  i64 depth = 0;
  /// Native LUT: the N%32 tail is staged through a zero-padded block, so
  /// the pad-entry obligation is in force.
  bool pad_zero_tail = false;
  /// ARM TBL: how one index folds depth values (schemes.h TblFold): one
  /// signed value, a ternary pair, or the non-negative fold, whose index
  /// side (the activations) then lies in [0, a_max_abs]. Fixes the group
  /// size and so the table-entry bound.
  armkern::TblFold tbl_fold = armkern::TblFold::kValue;
  /// ARM TBL: the table builder under proof. shipping_model points it at
  /// armkern::tbl_build_table so the exhaustive table-entries obligation
  /// checks the REAL build path; mutation tests substitute a corrupted one.
  void (*tbl_build)(armkern::TblMode mode, const i8* b, i8 out[16]) = nullptr;
  /// ARM TBL: the mode's table dictionary under proof (shipping: the real
  /// armkern::tbl_dictionary) and the tables it declares to hold. Every id
  /// the weight pack can emit must index it, and every table must hold
  /// its weight group's products.
  const i8* tbl_dict = nullptr;
  int tbl_dict_entries = 0;
  /// ARM TBL: bytes the dictionary's storage spans from tbl_dict
  /// (shipping: armkern::kTblDictBytes, all 256 byte ids). The built
  /// source's reads of dict + id * 16 must stay inside it for every id
  /// byte.
  i64 tbl_dict_storage_bytes = 0;
  /// ARM TBL: where a weight-tables plan's tables come from — copied out
  /// of the dictionary at pack time, or read from it at run time (copied
  /// into an L1 panel per column pass, or loaded by each micro call). Both
  /// index the dictionary with the weight groups' ids.
  armkern::TblSource tbl_source = armkern::TblSource::kStored;
};

/// One closed-form proof obligation: a named inequality with the model's
/// numbers substituted into `statement`, and whether it held.
struct Obligation {
  std::string name;       ///< stable id, e.g. "smlal.i16-lane-headroom"
  std::string statement;  ///< the inequality, numbers substituted
  bool proved = false;
};

struct ProofResult {
  ProofScheme scheme = ProofScheme::kArmSmlal;
  int bits = 0;
  std::vector<Obligation> obligations;

  bool proved() const;
  /// First failed obligation, or nullptr when the proof holds.
  const Obligation* first_failed() const;
  /// OK when proved; kInvariantViolation naming the failed obligation
  /// otherwise — the exact Status plan compilation surfaces.
  Status to_status() const;
};

/// The shipping declaration for (scheme, bits) at reduction depth `depth`:
/// adjusted operand ranges and the flush constants the kernels compile
/// with (schemes.h / hal::kLutFlushInterval). TBL gets its signed-input
/// default mode (pairs at 2 bit, single values at 3).
SchemeModel shipping_model(ProofScheme scheme, int bits, i64 depth);

/// The shipping declaration of one TBL mode at depth `depth`, for tables
/// from `source`.
SchemeModel shipping_tbl_model(
    armkern::TblMode mode, i64 depth,
    armkern::TblSource source = armkern::TblSource::kStored);

/// Discharge every obligation of `m`. All obligations are evaluated (no
/// short-circuit) so a report always lists the full conjunction.
ProofResult prove(const SchemeModel& m);

/// Plan-time gate for the emulated ARM path: prove the scheme the GEMM
/// rung of `kernel` dispatches to at `bits`, at reduction depth `depth` —
/// for TBL, every mode and table source it can run at `bits`. OK for
/// non-GEMM rungs (their invariants stay under the dynamic verifier).
/// kInvariantViolation with the obligation named on failure.
Status prove_arm_kernel(armkern::ArmKernel kernel, int bits, i64 depth);

/// Plan-time gate for one TBL mode and table source — the ones a compiled
/// plan packed and executes.
Status prove_tbl_mode(armkern::TblMode mode, i64 depth,
                      armkern::TblSource source = armkern::TblSource::kStored);

/// Plan-time gate for the native path: proves the scheme
/// native_scheme_for(bits) selects AND the portable scalar fallback (the
/// dispatch layer may route to either at execute time).
Status prove_native_scheme(int bits, i64 depth);

// ---- CI sweep ------------------------------------------------------------

struct ProofSweepEntry {
  std::string config;  ///< "smlal b4 k=4608 mc=128 kc=256 nc=64"
  bool proved = false;
  std::string detail;  ///< failed obligation (empty when proved)
};

/// prove_all_schemes() report — same shape as KernelVerifyReport so CI
/// treats both gates identically.
struct ProofSweepReport {
  std::vector<ProofSweepEntry> entries;
  int obligations = 0;  ///< total obligations discharged
  int failures = 0;

  bool ok() const { return failures == 0; }
  std::string failure_summary() const;
};

/// Sweep the full shipping grid: every scheme x its bit widths x a
/// representative set of GEMM depths, with the blocking each depth's shape
/// would actually run under (clamp_blocking on ARM, default native
/// blocking on x86) recorded in the config string. The static twin of
/// verify_all_kernels().
ProofSweepReport prove_all_schemes();

/// Number of entries prove_all_schemes() emits, derived from the registered
/// scheme x bit-width x shape grid — tests compare the report size against
/// this instead of a hardcoded literal, so registering a new scheme cannot
/// silently shrink the sweep.
int proof_sweep_expected_entries();

}  // namespace lbc::check
