#include "check/kernel_prover.h"

#include <algorithm>
#include <iterator>
#include <limits>
#include <sstream>

#include "armkern/blocking.h"
#include "armkern/schemes.h"
#include "hal/native_gemm.h"

namespace lbc::check {
namespace {

constexpr i64 kI16Max = 32767;
constexpr i64 kI8Max = 127;
constexpr i64 kI32Max = std::numeric_limits<i32>::max();

/// Largest single-product magnitude under the declared operand ranges —
/// the interval-arithmetic step bound every headroom obligation scales.
i64 product_bound(const SchemeModel& m) {
  return static_cast<i64>(m.a_max_abs) * static_cast<i64>(m.b_max_abs);
}

void add(ProofResult& r, const char* name, bool holds,
         const std::string& statement) {
  r.obligations.push_back(Obligation{name, statement, holds});
}

std::string ineq(i64 lhs, i64 rhs, const char* lhs_expr, const char* bound) {
  std::ostringstream os;
  os << lhs_expr << " = " << lhs << " <= " << rhs << " (" << bound << ")";
  return os.str();
}

/// Obligation: the declared operand range is inside the adjusted range
/// [-qmax, qmax] of the bit width — the paper's exclusion of -2^(b-1),
/// which every headroom bound below presumes.
void prove_operand_range(ProofResult& r, const SchemeModel& m,
                         const char* name) {
  const i32 q = qmax_for_bits(m.bits);
  std::ostringstream os;
  os << "|a| <= " << m.a_max_abs << ", |w| <= " << m.b_max_abs
     << " within adjusted range +-" << q;
  add(r, name, m.a_max_abs <= q && m.b_max_abs <= q && m.a_max_abs >= 0 &&
                   m.b_max_abs >= 0,
      os.str());
}

/// Obligation: `depth` products of magnitude <= P accumulate into one
/// 32-bit lane without overflow — the final accumulator is always i32, so
/// every scheme carries this bound.
void prove_i32_depth(ProofResult& r, const SchemeModel& m, const char* name) {
  const i64 p = product_bound(m);
  add(r, name, m.depth >= 0 && m.depth * p <= kI32Max,
      ineq(m.depth * p, kI32Max, "K * amax * wmax", "i32 headroom"));
}

void prove_smlal(ProofResult& r, const SchemeModel& m) {
  const i64 p = product_bound(m);
  const int unroll = armkern::smlal_flush_interval(m.bits);
  // The headroom bound below only covers accumulation runs of length
  // <= acc16_flush; the declaration must therefore cover the kernel's
  // actual unroll factor or the proof says nothing about the kernel.
  add(r, "smlal.flush-covers-unroll", m.acc16_flush >= unroll,
      ineq(unroll, m.acc16_flush, "kernel unroll", "declared flush"));
  add(r, "smlal.i16-lane-headroom",
      m.acc16_flush > 0 && m.acc16_flush * p <= kI16Max,
      ineq(m.acc16_flush * p, kI16Max, "flush * amax * wmax",
           "i16 headroom"));
  prove_operand_range(r, m, "smlal.operand-range-adjusted");
  prove_i32_depth(r, m, "smlal.i32-depth-headroom");
}

void prove_mla(ProofResult& r, const SchemeModel& m) {
  const i64 p = product_bound(m);
  const int unroll = armkern::mla_flush_interval(m.bits);
  add(r, "mla.flush-covers-unroll", m.acc8_flush >= unroll,
      ineq(unroll, m.acc8_flush, "kernel unroll", "declared flush"));
  add(r, "mla.i8-lane-headroom",
      m.acc8_flush > 0 && m.acc8_flush * p <= kI8Max,
      ineq(m.acc8_flush * p, kI8Max, "flush8 * amax * wmax", "i8 headroom"));
  // Second level: each 8->16 flush deposits at most flush8 * P into a
  // 16-bit lane; the 16->32 flush must come before those deposits overflow.
  add(r, "mla.rounds-cover-kernel",
      m.second_level_rounds >= armkern::kSecondLevelRounds,
      ineq(armkern::kSecondLevelRounds, m.second_level_rounds,
           "kernel 16->32 cadence", "declared rounds"));
  add(r, "mla.i16-second-level-headroom",
      m.second_level_rounds > 0 &&
          static_cast<i64>(m.second_level_rounds) * m.acc8_flush * p <=
              kI16Max,
      ineq(static_cast<i64>(m.second_level_rounds) * m.acc8_flush * p,
           kI16Max, "rounds * flush8 * amax * wmax", "i16 headroom"));
  prove_operand_range(r, m, "mla.operand-range-adjusted");
  prove_i32_depth(r, m, "mla.i32-depth-headroom");
}

void prove_sdot(ProofResult& r, const SchemeModel& m) {
  // SDOT accumulates four products per step straight into i32 lanes — no
  // intermediate narrow lane, so depth headroom is the whole argument.
  prove_operand_range(r, m, "sdot.operand-range-adjusted");
  prove_i32_depth(r, m, "sdot.i32-depth-headroom");
}

void prove_ncnn(ProofResult& r, const SchemeModel& m) {
  // ncnn scheme widens both operands (SSHLL) and SMLALs into 32-bit lanes
  // directly; like SDOT, only the depth bound is at stake.
  prove_operand_range(r, m, "ncnn.operand-range-adjusted");
  prove_i32_depth(r, m, "ncnn.i32-depth-headroom");
}

void prove_traditional(ProofResult& r, const SchemeModel& m) {
  // gemm_traditional accumulates in 16-bit lanes at a single-level flush:
  // mla_flush * 4 for 2-3 bit, the SMLAL interval otherwise.
  const i64 p = product_bound(m);
  const int unroll = m.bits <= 3 ? armkern::mla_flush_interval(m.bits) * 4
                                 : armkern::smlal_flush_interval(m.bits);
  add(r, "traditional.flush-covers-unroll", m.acc16_flush >= unroll,
      ineq(unroll, m.acc16_flush, "kernel unroll", "declared flush"));
  add(r, "traditional.i16-lane-headroom",
      m.acc16_flush > 0 && m.acc16_flush * p <= kI16Max,
      ineq(m.acc16_flush * p, kI16Max, "flush * amax * wmax",
           "i16 headroom"));
  prove_operand_range(r, m, "traditional.operand-range-adjusted");
  prove_i32_depth(r, m, "traditional.i32-depth-headroom");
}

void prove_tbl(ProofResult& r, const SchemeModel& m) {
  const armkern::TblMode mode{m.tbl_fold, m.bits};
  const int group = armkern::tbl_group(mode);
  const bool pair = m.tbl_fold == armkern::TblFold::kTernaryPair;
  const bool nonneg = m.tbl_fold == armkern::TblFold::kNonNegative;
  // Index-side values: {-1,0,1} for pairs, [0, amax] for the non-negative
  // fold, [-amax, amax] for single values.
  const i32 lo = pair ? -1 : (nonneg ? 0 : -m.a_max_abs);
  const i32 hi = pair ? 1 : m.a_max_abs;
  // Largest |entry| a product table can hold: the group's largest index
  // values times the table side's bound, summed over the group.
  const i64 entry = static_cast<i64>(group) * std::max(-lo, hi) * m.b_max_abs;
  add(r, "tbl.entry-fits-i8", entry <= kI8Max,
      ineq(entry, kI8Max, "group * |index value| * bmax", "i8 table entry"));
  // Every encoded index must land inside the single-register TBL's
  // 16-entry window. The encoding grows with each value, so the top of
  // the value box gives the largest index.
  i32 top[4] = {};
  for (int i = 0; i < group; ++i) top[i] = hi;
  u8 top_idx = 0;
  const bool encodes = armkern::tbl_encode(mode, top, top_idx);
  add(r, "tbl.index-in-table", encodes && top_idx <= 15,
      ineq(top_idx, 15, "index of the largest value group",
           "16-entry table"));
  // The packer and the table builder share one rule: every group of
  // in-range values encodes to an index that decodes back to it, so a
  // lookup finds exactly that group's products.
  bool roundtrip = true;
  std::ostringstream rt;
  const i32 span = hi - lo + 1;
  i32 combos = 1;
  for (int i = 0; i < group; ++i) combos *= span;
  for (i32 c = 0; c < combos && roundtrip; ++c) {
    i32 v[4] = {}, d[4] = {};
    for (i32 i = 0, x = c; i < group; ++i, x /= span) v[i] = lo + x % span;
    u8 idx = 0;
    roundtrip = armkern::tbl_encode(mode, v, idx) &&
                armkern::tbl_decode(mode, idx, d);
    for (int i = 0; i < group && roundtrip; ++i) roundtrip = d[i] == v[i];
    if (!roundtrip) rt << "value group " << c << " does not decode back";
  }
  add(r, "tbl.encode-decode-roundtrip", roundtrip,
      roundtrip ? std::to_string(combos) + " value groups encode and decode"
                : rt.str());
  // The weight side: every group of adjusted-range weights the pack can
  // meet names a table of the dictionary — the stored pack copies that
  // table out, the built source's run-time copy reads it — and the id
  // decodes back to the group, so the table it names is the group's own.
  const i32 q = qmax_for_bits(m.bits);
  const i32 wspan = 2 * q + 1;
  i32 wcombos = 1;
  for (int i = 0; i < group; ++i) wcombos *= wspan;
  bool ids_ok = true;
  i32 top_id = 0;
  std::ostringstream idd;
  for (i32 c = 0; c < wcombos && ids_ok; ++c) {
    i32 w[4] = {}, d[4] = {};
    for (i32 i = 0, x = c; i < group; ++i, x /= wspan) w[i] = x % wspan - q;
    u8 id = 0;
    ids_ok = armkern::tbl_encode_id(mode, w, id) &&
             static_cast<int>(id) < m.tbl_dict_entries &&
             armkern::tbl_decode_id(mode, id, d);
    for (int i = 0; i < group && ids_ok; ++i) ids_ok = d[i] == w[i];
    top_id = std::max<i32>(top_id, id);
    if (!ids_ok)
      idd << "weight group " << c << " has id " << int{id}
          << ", outside the " << m.tbl_dict_entries
          << "-table dictionary or not decoding back";
  }
  add(r, "tbl.id-in-dictionary", ids_ok,
      ids_ok ? ineq(top_id, m.tbl_dict_entries - 1, "largest weight-group id",
                    m.tbl_source == armkern::TblSource::kBuilt
                        ? "dictionary, built per column pass"
                        : "dictionary, copied at pack time")
             : idd.str());
  // Two-level accumulation: ADD.16B folds one table entry per group step
  // into a byte lane, so the declared i8 flush interval must both fit the
  // lane (flush * entry <= 127) and cover the kernel's real cadence
  // (tbl_flush_interval for this mode).
  add(r, "tbl.i8-lane-headroom",
      m.acc8_flush > 0 && m.acc8_flush * entry <= kI8Max,
      ineq(m.acc8_flush * entry, kI8Max, "flush * entry bound",
           "i8 headroom"));
  const int cadence = armkern::tbl_flush_interval(mode);
  add(r, "tbl.flush-covers-kernel", m.acc8_flush >= cadence,
      ineq(cadence, m.acc8_flush, "kernel flush cadence", "declared flush"));
  // Second level (the 32x4 tile): each byte-lane flush deposits at most
  // flush * entry into an i16 lane; the 16->32 flush must come before
  // those deposits overflow.
  add(r, "tbl.rounds-cover-kernel",
      m.second_level_rounds >= armkern::kTblSecondLevelRounds,
      ineq(armkern::kTblSecondLevelRounds, m.second_level_rounds,
           "kernel 16->32 cadence", "declared rounds"));
  add(r, "tbl.i16-second-level-headroom",
      m.second_level_rounds > 0 &&
          static_cast<i64>(m.second_level_rounds) * m.acc8_flush * entry <=
              kI16Max,
      ineq(static_cast<i64>(m.second_level_rounds) * m.acc8_flush * entry,
           kI16Max, "rounds * flush * entry bound", "i16 headroom"));
  // The SADDW path has no range clamp after the table lookup, so the
  // headroom bounds above only hold if no table EVER holds an entry
  // outside them — including 0 at every index no group encodes and at the
  // all-zero group's, which is what makes padded rows, padded columns and
  // K tails contribute nothing. Check the real shipping builder and the
  // mode's dictionary exhaustively: every table-side operand group in
  // range (= every dictionary id), all 16 indices, against the products of
  // tbl_decode's values.
  if (m.tbl_build != nullptr || m.tbl_dict != nullptr) {
    bool exact = true;
    std::ostringstream detail;
    for (i32 id = 0; id < wcombos && exact; ++id) {
      i32 w[4] = {};
      armkern::tbl_decode_id(mode, id, w);
      i8 b[4] = {};
      for (int i = 0; i < group; ++i) b[i] = static_cast<i8>(w[i]);
      i8 built[16] = {};
      if (m.tbl_build != nullptr) m.tbl_build(mode, b, built);
      for (int idx = 0; idx < 16 && exact; ++idx) {
        i32 d[4] = {};
        i32 want = 0;
        if (armkern::tbl_decode(mode, idx, d))
          for (int i = 0; i < group; ++i) want += d[i] * b[i];
        const auto off = [&](const char* what, i8 got) {
          exact = false;
          detail << what << "(";
          for (int i = 0; i < group; ++i)
            detail << (i ? ", " : "") << static_cast<i32>(b[i]);
          detail << ")[" << idx << "] = " << static_cast<i32>(got)
                 << " != " << want;
        };
        if (m.tbl_build != nullptr && built[idx] != want)
          off("table", built[idx]);
        else if (m.tbl_dict != nullptr && id < m.tbl_dict_entries &&
                 m.tbl_dict[id * 16 + idx] != want)
          off("dictionary table", m.tbl_dict[id * 16 + idx]);
      }
    }
    add(r, "tbl.table-entries-exact", exact,
        exact ? "builder and dictionary match decoded products for all "
                "operands and indices"
              : detail.str());
  }
  prove_operand_range(r, m, "tbl.operand-range-adjusted");
  prove_i32_depth(r, m, "tbl.i32-depth-headroom");
}

void prove_lut(ProofResult& r, const SchemeModel& m) {
  const i32 q = qmax_for_bits(m.bits);
  const i64 p = product_bound(m);
  // Every (w, a) product must fit the signed-byte pshufb table entry.
  add(r, "lut.entry-fits-i8", p <= kI8Max,
      ineq(p, kI8Max, "amax * wmax", "i8 table entry"));
  // Table index = value + qmax must stay inside the 16-entry pshufb row
  // for both operands (a indexes within a row, w selects the row).
  add(r, "lut.index-in-table", 2 * q <= 15,
      ineq(2 * q, 15, "qmax + qmax", "16-entry table"));
  add(r, "lut.i16-lane-headroom",
      m.acc16_flush > 0 && m.acc16_flush * p <= kI16Max,
      ineq(m.acc16_flush * p, kI16Max, "flush * amax * wmax",
           "i16 headroom"));
  add(r, "lut.flush-covers-kernel", m.acc16_flush >= hal::kLutFlushInterval,
      ineq(hal::kLutFlushInterval, m.acc16_flush, "kernel flush cadence",
           "declared flush"));
  // The N%32 tail stages zero activation bytes through the full-width
  // kernel; a zero byte indexes column 0 + qmax — the w*0 entry — which
  // must be 0 in EVERY weight row of the real shipping table.
  if (m.pad_zero_tail) {
    const i8* lut = hal::native_product_lut(m.bits);
    bool zero_ok = m.a_max_abs <= q;  // pad index q only valid in-range
    for (i32 w = -q; w <= q && zero_ok; ++w)
      zero_ok = lut[static_cast<size_t>(w + q) * 16 + static_cast<size_t>(q)] == 0;
    std::ostringstream os;
    os << "table[w + " << q << "][0 + " << q << "] == w * 0 == 0 for all w in +-"
       << q;
    add(r, "lut.pad-zero-entry", zero_ok, os.str());
  }
  prove_operand_range(r, m, "lut.operand-range-adjusted");
  prove_i32_depth(r, m, "lut.i32-depth-headroom");
}

void prove_dot(ProofResult& r, const SchemeModel& m) {
  const i64 p = product_bound(m);
  // maddubs forms |a|*sign-adjusted-b pair sums in i16 WITH SATURATION;
  // the proof must rule saturation out, not merely wraparound. Two
  // adjacent products bound the pair sum — 2 * 127 * 127 = 32258 < 2^15
  // for the adjusted range, and exactly why -128 must stay excluded
  // (2 * 128 * 128 = 32768 saturates).
  add(r, "dot.pair-sum-no-saturate", 2 * p <= kI16Max,
      ineq(2 * p, kI16Max, "2 * amax * wmax", "i16 pair sum, no saturate"));
  // K zero-pads to 32 for the dot layout; pad lanes carry a = 0, so
  // |a| * anything contributes 0 regardless of the b byte.
  add(r, "dot.zero-pad-neutral", true,
      "pad lanes multiply |a| = 0: contribution is exactly 0");
  prove_operand_range(r, m, "dot.operand-range-adjusted");
  prove_i32_depth(r, m, "dot.i32-depth-headroom");
}

void prove_scalar(ProofResult& r, const SchemeModel& m) {
  // Both portable fallbacks accumulate each product straight into an i32;
  // the only bound is depth headroom (plus the shared range premise).
  prove_operand_range(r, m, "scalar.operand-range-adjusted");
  prove_i32_depth(r, m, "scalar.i32-depth-headroom");
}

// ---- sweep grid registry -------------------------------------------------
// prove_all_schemes() and proof_sweep_expected_entries() both walk these
// tables, so the sweep size is derived from one place instead of being
// hardcoded in tests.

/// Representative GEMM reduction depths: a 1x1 conv over few channels, the
/// fig09 workhorse (3x3 over 64 ch), a deep 3x3 (512 ch), and the deepest
/// view the e2e net compiles.
struct SweepShape {
  i64 m, n, k;
};
constexpr SweepShape kSweepShapes[] = {
    {16, 196, 9}, {64, 3136, 576}, {512, 49, 4608}, {512, 196, 8192}};

/// One ARM scheme's registered bit-width range, swept in its shipping
/// (signed-input) mode.
struct SweepScheme {
  ProofScheme scheme;
  int bits_lo, bits_hi;
};
constexpr SweepScheme kArmSweepGrid[] = {
    {ProofScheme::kArmSmlal, 4, 8},
    {ProofScheme::kArmMla, 2, 3},
    {ProofScheme::kArmTbl, 2, 3},
    {ProofScheme::kArmSdot, 2, 8},
    {ProofScheme::kArmNcnn, 2, 8},
    {ProofScheme::kArmTraditional, 2, 8},
};
/// The TBL modes beyond each bit width's default, each a distinct entry
/// bound and flush cadence: ternary 3-bit weights (the pack's detection)
/// and the non-negative fold of a ReLU'd input at both widths.
struct TblSweepMode {
  armkern::TblMode mode;
  const char* tag;
};
constexpr TblSweepMode kTblSweepModes[] = {
    {armkern::kTbl3Pair, "ternary-pair"},
    {armkern::kTbl2NonNeg, "non-negative"},
    {armkern::kTbl3NonNeg, "non-negative"},
};

constexpr int kNativeSweepBitsLo = 2;
constexpr int kNativeSweepBitsHi = 8;

}  // namespace

const char* proof_scheme_name(ProofScheme s) {
  switch (s) {
    case ProofScheme::kArmSmlal: return "smlal";
    case ProofScheme::kArmMla: return "mla";
    case ProofScheme::kArmSdot: return "sdot";
    case ProofScheme::kArmNcnn: return "ncnn";
    case ProofScheme::kArmTraditional: return "traditional";
    case ProofScheme::kArmTbl: return "tbl";
    case ProofScheme::kNativeLut: return "lut";
    case ProofScheme::kNativeDot: return "dot";
    case ProofScheme::kNativeScalar: return "scalar";
  }
  return "?";
}

bool ProofResult::proved() const {
  for (const Obligation& o : obligations)
    if (!o.proved) return false;
  return !obligations.empty();
}

const Obligation* ProofResult::first_failed() const {
  for (const Obligation& o : obligations)
    if (!o.proved) return &o;
  return nullptr;
}

Status ProofResult::to_status() const {
  const Obligation* f = first_failed();
  if (f == nullptr && !obligations.empty()) return Status();
  std::ostringstream os;
  os << "proof failed for " << proof_scheme_name(scheme) << " at " << bits
     << "-bit: obligation '" << (f ? f->name : "<empty proof>") << "'";
  if (f) os << " — " << f->statement;
  return Status::invariant_violation(os.str());
}

SchemeModel shipping_model(ProofScheme scheme, int bits, i64 depth) {
  SchemeModel m;
  m.scheme = scheme;
  m.bits = bits;
  m.depth = depth;
  m.a_max_abs = qmax_for_bits(bits);
  m.b_max_abs = qmax_for_bits(bits);
  switch (scheme) {
    case ProofScheme::kArmSmlal:
      m.acc16_flush = armkern::smlal_flush_interval(bits);
      break;
    case ProofScheme::kArmMla:
      m.acc8_flush = armkern::mla_flush_interval(bits);
      m.second_level_rounds = armkern::kSecondLevelRounds;
      break;
    case ProofScheme::kArmTraditional:
      m.acc16_flush = bits <= 3 ? armkern::mla_flush_interval(bits) * 4
                                : armkern::smlal_flush_interval(bits);
      break;
    case ProofScheme::kArmTbl: {
      // A signed input's default: pairs at 2 bit, single values at 3 (the
      // other modes come from shipping_tbl_model).
      const armkern::TblMode mode = armkern::tbl_mode_for(
          armkern::TblOrientation::kWeightTables, bits, false);
      m.tbl_fold = mode.fold;
      m.acc8_flush = armkern::tbl_flush_interval(mode);
      m.second_level_rounds = armkern::kTblSecondLevelRounds;
      m.tbl_build = &armkern::tbl_build_table;
      m.tbl_dict = armkern::tbl_dictionary(mode);
      m.tbl_dict_entries = armkern::tbl_dict_size(mode);
      break;
    }
    case ProofScheme::kNativeLut:
      m.acc16_flush = static_cast<int>(hal::kLutFlushInterval);
      m.pad_zero_tail = true;
      break;
    case ProofScheme::kArmSdot:
    case ProofScheme::kArmNcnn:
    case ProofScheme::kNativeDot:
    case ProofScheme::kNativeScalar:
      break;  // direct-i32 (or saturation-only) schemes: no flush declared
  }
  return m;
}

SchemeModel shipping_tbl_model(armkern::TblMode mode, i64 depth,
                               armkern::TblSource source) {
  SchemeModel m = shipping_model(ProofScheme::kArmTbl, mode.bits, depth);
  m.tbl_fold = mode.fold;
  m.acc8_flush = armkern::tbl_flush_interval(mode);
  m.tbl_dict = armkern::tbl_dictionary(mode);
  m.tbl_dict_entries = armkern::tbl_dict_size(mode);
  m.tbl_source = source;
  return m;
}

ProofResult prove(const SchemeModel& m) {
  ProofResult r;
  r.scheme = m.scheme;
  r.bits = m.bits;
  switch (m.scheme) {
    case ProofScheme::kArmSmlal: prove_smlal(r, m); break;
    case ProofScheme::kArmMla: prove_mla(r, m); break;
    case ProofScheme::kArmSdot: prove_sdot(r, m); break;
    case ProofScheme::kArmNcnn: prove_ncnn(r, m); break;
    case ProofScheme::kArmTraditional: prove_traditional(r, m); break;
    case ProofScheme::kArmTbl: prove_tbl(r, m); break;
    case ProofScheme::kNativeLut: prove_lut(r, m); break;
    case ProofScheme::kNativeDot: prove_dot(r, m); break;
    case ProofScheme::kNativeScalar: prove_scalar(r, m); break;
  }
  return r;
}

Status prove_arm_kernel(armkern::ArmKernel kernel, int bits, i64 depth) {
  ProofScheme scheme = ProofScheme::kArmSmlal;
  switch (kernel) {
    case armkern::ArmKernel::kOursGemm:
      scheme = bits <= 3 ? ProofScheme::kArmMla : ProofScheme::kArmSmlal;
      break;
    case armkern::ArmKernel::kNcnn:
      scheme = ProofScheme::kArmNcnn;
      break;
    case armkern::ArmKernel::kTraditional:
      scheme = ProofScheme::kArmTraditional;
      break;
    case armkern::ArmKernel::kSdotExt:
      scheme = ProofScheme::kArmSdot;
      break;
    case armkern::ArmKernel::kTblGemm: {
      // Every mode a plan at `bits` might execute must hold: each
      // orientation's, for signed and non-negative inputs and for ternary
      // or general weights — weight tables from either source.
      for (const armkern::TblOrientation o :
           {armkern::TblOrientation::kActTables,
            armkern::TblOrientation::kWeightTables})
        for (const bool ternary : {false, true})
          for (const armkern::InputRange in :
               {armkern::InputRange::kSigned,
                armkern::InputRange::kNonNegative})
            for (const armkern::TblSource src :
                 {armkern::TblSource::kStored, armkern::TblSource::kBuilt})
              if (o == armkern::TblOrientation::kWeightTables ||
                  src == armkern::TblSource::kStored)
                LBC_RETURN_IF_ERROR(prove_tbl_mode(
                    armkern::tbl_mode_for(o, bits, ternary, in), depth, src));
      return Status();
    }
  }
  return prove(shipping_model(scheme, bits, depth))
      .to_status()
      .with_context("plan-time kernel proof");
}

Status prove_tbl_mode(armkern::TblMode mode, i64 depth,
                      armkern::TblSource source) {
  return prove(shipping_tbl_model(mode, depth, source))
      .to_status()
      .with_context("plan-time kernel proof");
}

Status prove_native_scheme(int bits, i64 depth) {
  const ProofScheme vec = hal::native_scheme_for(bits) == hal::NativeScheme::kLut
                              ? ProofScheme::kNativeLut
                              : ProofScheme::kNativeDot;
  // The dispatch layer may route to either the vector kernel or the
  // portable scalar fallback at execute time; both must hold.
  LBC_RETURN_IF_ERROR(prove(shipping_model(vec, bits, depth))
                          .to_status()
                          .with_context("plan-time native proof"));
  return prove(shipping_model(ProofScheme::kNativeScalar, bits, depth))
      .to_status()
      .with_context("plan-time native proof");
}

std::string ProofSweepReport::failure_summary() const {
  std::ostringstream os;
  os << failures << " of " << entries.size() << " proofs failed";
  for (const ProofSweepEntry& e : entries)
    if (!e.proved) os << "\n  " << e.config << ": " << e.detail;
  return os.str();
}

ProofSweepReport prove_all_schemes() {
  ProofSweepReport rep;
  const auto run = [&rep](const SchemeModel& m, const std::string& config) {
    const ProofResult r = prove(m);
    rep.obligations += static_cast<int>(r.obligations.size());
    ProofSweepEntry e;
    e.config = config;
    e.proved = r.proved();
    if (const Obligation* f = r.first_failed())
      e.detail = f->name + ": " + f->statement;
    if (!e.proved) ++rep.failures;
    rep.entries.push_back(std::move(e));
  };

  const auto arm_config = [](ProofScheme s, int bits, const SweepShape& sh,
                             bool sdot) {
    const armkern::GemmBlocking b =
        armkern::default_blocking(sh.m, sh.n, sh.k, sdot);
    std::ostringstream os;
    os << proof_scheme_name(s) << " b" << bits << " k=" << sh.k << " mc=" << b.mc
       << " kc=" << b.kc << " nc=" << b.nc;
    return os.str();
  };

  for (const SweepShape& sh : kSweepShapes) {
    // ARM schemes over the registered scheme x bit-width grid.
    for (const SweepScheme& g : kArmSweepGrid)
      for (int bits = g.bits_lo; bits <= g.bits_hi; ++bits)
        run(shipping_model(g.scheme, bits, sh.k),
            arm_config(g.scheme, bits, sh, g.scheme == ProofScheme::kArmSdot));
    for (const TblSweepMode& t : kTblSweepModes)
      run(shipping_tbl_model(t.mode, sh.k),
          arm_config(ProofScheme::kArmTbl, t.mode.bits, sh, false) + " " +
              t.tag);
    // Native schemes under their default {rb, cb} tiling (the tiling is
    // pure loop order — recorded for the grid, no proof term depends on it).
    for (int bits = kNativeSweepBitsLo; bits <= kNativeSweepBitsHi; ++bits) {
      const hal::NativeBlocking nb =
          hal::default_native_blocking(sh.m, sh.n, sh.k, bits);
      const ProofScheme vec = hal::native_scheme_for(bits) ==
                                      hal::NativeScheme::kLut
                                  ? ProofScheme::kNativeLut
                                  : ProofScheme::kNativeDot;
      std::ostringstream os;
      os << proof_scheme_name(vec) << " b" << bits << " k=" << sh.k
         << " rb=" << nb.rb << " cb=" << nb.cb;
      run(shipping_model(vec, bits, sh.k), os.str());
      std::ostringstream oss;
      oss << "scalar b" << bits << " k=" << sh.k << " rb=" << nb.rb
          << " cb=" << nb.cb;
      run(shipping_model(ProofScheme::kNativeScalar, bits, sh.k), oss.str());
    }
  }
  return rep;
}

int proof_sweep_expected_entries() {
  int per_shape = 0;
  for (const SweepScheme& g : kArmSweepGrid)
    per_shape += g.bits_hi - g.bits_lo + 1;
  per_shape += static_cast<int>(std::size(kTblSweepModes));
  per_shape += 2 * (kNativeSweepBitsHi - kNativeSweepBitsLo + 1);
  return static_cast<int>(std::size(kSweepShapes)) * per_shape;
}

}  // namespace lbc::check
