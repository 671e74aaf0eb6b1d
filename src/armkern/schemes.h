// Instruction-scheme parameters for each bit width (paper Sec. 3.3).
//
// SMLAL scheme (4-8 bit): products of two b-bit values in the adjusted
// range [-(2^(b-1)-1), +(2^(b-1)-1)] accumulate in 16-bit lanes; a SADDW
// flush to 32-bit must happen before the 16-bit lane can overflow. The safe
// bound is floor((2^15 - 1) / qmax^2) SMLALs between flushes (the paper's
// 511/127/31/8/2 for 4..8-bit). The kernels actually flush at the paper's
// unrolling factors (32/24/16/8/2), each of which is within its safe bound.
//
// MLA scheme (2-3 bit): products accumulate in 8-bit lanes; the first-level
// SADDW (8->16) ratio is 31 (2-bit) and 7 (3-bit) per the paper, and a
// second-level SADDW (16->32) flush runs every kSecondLevelRounds first-
// level flushes (far inside the 16-bit headroom; asserted below).
#pragma once

#include "common/types.h"

namespace lbc::armkern {

/// Largest number of SMLAL.8H accumulations into a fresh 16-bit lane that
/// cannot overflow for b-bit inputs in the adjusted range.
constexpr int smlal_safe_ratio(int bits) {
  const i32 q = qmax_for_bits(bits);
  return static_cast<int>(32767 / (q * q));
}

/// Flush interval actually used by the 4-8 bit kernel (= the paper's loop
/// unrolling factor, Sec. 3.3: 32/24/16/8/2 for 4/5/6/7/8-bit).
constexpr int smlal_flush_interval(int bits) {
  switch (bits) {
    case 4: return 32;
    case 5: return 24;
    case 6: return 16;
    case 7: return 8;
    case 8: return 2;
    default: return 1;
  }
}
static_assert(smlal_flush_interval(4) <= smlal_safe_ratio(4));
static_assert(smlal_flush_interval(5) <= smlal_safe_ratio(5));
static_assert(smlal_flush_interval(6) <= smlal_safe_ratio(6));
static_assert(smlal_flush_interval(7) <= smlal_safe_ratio(7));
static_assert(smlal_flush_interval(8) <= smlal_safe_ratio(8));

/// MLA accumulations into a fresh 8-bit lane between 8->16-bit flushes
/// (paper: 31 for 2-bit, 7 for 3-bit).
constexpr int mla_flush_interval(int bits) { return bits == 2 ? 31 : 7; }

/// 8->16 flush rounds between 16->32-bit flushes in the MLA scheme.
constexpr int kSecondLevelRounds = 16;

// 16-bit headroom check: each first-level flush adds at most
// mla_flush * qmax^2 to a 16-bit lane.
static_assert(kSecondLevelRounds * mla_flush_interval(2) * 1 * 1 <= 32767);
static_assert(kSecondLevelRounds * mla_flush_interval(3) * 3 * 3 <= 32767);

/// Micro-tile geometry of the re-designed GEMM: n_a rows of A per LD1 and
/// n_b columns of B per LD4R (Sec. 3.2/3.3, Alg. 1).
constexpr i64 kMr = 16;  // rows per A panel (one 16-byte LD1)
constexpr i64 kNr = 4;   // cols per B panel (one LD4R)

// ---------------------------------------------------------------------------
// TBL lookup-table scheme (2-3 bit; DESIGN.md Sec. 16)
//
// One side of the GEMM is re-encoded as byte INDICES into 16-entry product
// tables built from the other side; a single TBL.16B then answers 16
// lookups per cycle and one ADD.16B accumulates them in 8-bit lanes
// (entries are bounded by tbl_entry_bound, so tbl_flush_interval adds fit
// an i8 lane before the SSHLL/SADDW widen into the i32 tile). How many
// depth values one index folds is the mode's fold (TblFold): one signed
// value, a ternary pair when the index side holds only {-1,0,1} (always
// true at 2 bit; detected at pack time for 3-bit weights), or — when the
// index side is a ReLU'd activation, which holds only the V = 2^(b-1)
// values [0, qmax] — the G values whose V^G combinations fill 16 entries.
//
// The scheme runs in one of two orientations, priced at plan time
// (tile_search::choose_tbl_orientation):
//  * kActTables  — weights are the index side (prepacked offline);
//    product tables are built ONLINE from activations during B-block
//    packing. Amortizes table-build over all m rows: wins at large m.
//  * kWeightTables — weights are the table side; activations are encoded
//    ONLINE as indices. A weight group of G values in the adjusted range
//    has at most (2*qmax+1)^G distinct tables (81 at the 2-bit fold), so
//    each mode keeps ONE shared dictionary of them (tbl_dictionary) and
//    a plan's tables come from it in one of two sources (TblSource):
//    stored — one 16-byte table per (row, group) copied out at pack time,
//    4-16 bytes per weight — or built — one dictionary id byte per (row,
//    group), the tables copied into a per-worker L1 panel at run time.
// ---------------------------------------------------------------------------

/// Which GEMM side supplies the product tables (see block comment above).
enum class TblOrientation { kActTables, kWeightTables };

/// Where a weight-tables plan's product tables live (see above). Priced
/// per conv (tile_search::choose_tbl_source). Act-tables plans index the
/// weights and always pack them in full: kStored.
enum class TblSource { kStored, kBuilt };

/// The source a plan in orientation `orient` packs and runs when `source`
/// is priced: act tables index the weights, so they are always kStored.
constexpr TblSource tbl_packed_source(TblOrientation orient, TblSource source) {
  return orient == TblOrientation::kWeightTables ? source : TblSource::kStored;
}

/// What a conv's planner knows about its input activations: any value of
/// the adjusted range, or only [0, qmax] because the producer clamps at
/// lo >= 0 (a ReLU). Only the weight-tables orientation uses the fact —
/// its index side is the activations.
enum class InputRange { kSigned, kNonNegative };

/// How one index byte encodes depth values of the index side.
enum class TblFold {
  kValue,        ///< one signed value: idx = v + qmax
  kTernaryPair,  ///< two values in {-1,0,1}: idx = (v0+1)*4 + (v1+1)
  kNonNegative,  ///< G values in [0, V): idx = v0 + V*v1 + V^2*v2 + ...
};

/// A TBL mode: the fold at a bit width. Fixes the group size, the index
/// encoding, the table-entry bound and the byte-lane flush cadence.
struct TblMode {
  TblFold fold = TblFold::kValue;
  int bits = 2;

  constexpr bool operator==(const TblMode&) const = default;
};

/// TblFold's values, in order.
constexpr int kTblFolds = 3;

/// A mode's slot in per-mode arrays (2 * kTblFolds of them: 2 and 3 bit):
/// the dictionaries, and the tile search's per-mode step costs.
constexpr size_t tbl_mode_slot(TblMode m) {
  return static_cast<size_t>((m.bits - 2) * kTblFolds +
                             static_cast<int>(m.fold));
}

/// V: the values a non-negative b-bit activation can take, [0, qmax].
constexpr i32 tbl_nonneg_levels(int bits) { return qmax_for_bits(bits) + 1; }

/// G: the most non-negative values whose V^G combinations fit 16 indices
/// (4 at 2 bit, 2 at 3 bit).
constexpr int tbl_nonneg_group(int bits) {
  int g = 0;
  for (i32 span = tbl_nonneg_levels(bits); span <= 16;
       span *= tbl_nonneg_levels(bits))
    ++g;
  return g;
}

/// Depth positions folded into one index (and one table).
constexpr int tbl_group(TblMode m) {
  switch (m.fold) {
    case TblFold::kValue: return 1;
    case TblFold::kTernaryPair: return 2;
    case TblFold::kNonNegative: return tbl_nonneg_group(m.bits);
  }
  return 1;
}

/// The mode a plan runs. kActTables indexes the weights: pairs when they
/// are ternary (always at 2 bit, detected at 3 bit — the caller passes
/// `weights_ternary`). kWeightTables indexes the activations: pairs at 2
/// bit, single values at 3 bit, or the non-negative fold when `input`
/// says a ReLU'd producer feeds them.
constexpr TblMode tbl_mode_for(TblOrientation o, int bits,
                               bool weights_ternary,
                               InputRange input = InputRange::kSigned) {
  if (o == TblOrientation::kActTables)
    return {(bits == 2 || weights_ternary) ? TblFold::kTernaryPair
                                           : TblFold::kValue,
            bits};
  if (input == InputRange::kNonNegative)
    return {TblFold::kNonNegative, bits};
  return {bits == 2 ? TblFold::kTernaryPair : TblFold::kValue, bits};
}

/// Encode one group of index-side values (v[0 .. tbl_group(m)); a group
/// cut short by the end of K passes 0 for its missing positions). False
/// when a value lies outside the fold's range, which leaves `idx` unset:
/// no index encodes it, so the caller must not look it up.
constexpr bool tbl_encode(TblMode m, const i32* v, u8& idx) {
  const i32 q = qmax_for_bits(m.bits);
  switch (m.fold) {
    case TblFold::kValue:
      if (v[0] < -q || v[0] > q) return false;
      idx = static_cast<u8>(v[0] + q);
      return true;
    case TblFold::kTernaryPair:
      if (v[0] < -1 || v[0] > 1 || v[1] < -1 || v[1] > 1) return false;
      idx = static_cast<u8>((v[0] + 1) * 4 + (v[1] + 1));
      return true;
    case TblFold::kNonNegative: {
      const i32 levels = tbl_nonneg_levels(m.bits);
      i32 x = 0, place = 1;
      for (int i = 0; i < tbl_group(m); ++i) {
        if (v[i] < 0 || v[i] >= levels) return false;
        x += v[i] * place;
        place *= levels;
      }
      idx = static_cast<u8>(x);
      return true;
    }
  }
  return false;
}

/// Decode index `idx` (0..15) into the values it encodes, d[0 ..
/// tbl_group(m)). False for an index no encoding produces; its table entry
/// is 0, which TBL's own out-of-range zeroing mirrors past 15.
constexpr bool tbl_decode(TblMode m, int idx, i32* d) {
  const i32 q = qmax_for_bits(m.bits);
  switch (m.fold) {
    case TblFold::kValue:
      if (idx > 2 * q) return false;
      d[0] = idx - q;
      return true;
    case TblFold::kTernaryPair:
      if (idx % 4 == 3 || idx / 4 > 2) return false;
      d[0] = idx / 4 - 1;
      d[1] = idx % 4 - 1;
      return true;
    case TblFold::kNonNegative: {
      const i32 levels = tbl_nonneg_levels(m.bits);
      for (int i = 0; i < tbl_group(m); ++i) {
        d[i] = idx % levels;
        idx /= levels;
      }
      return idx == 0;
    }
  }
  return false;
}

/// The index of an all-zero group: the padding index. Its entry is 0 in
/// every table, so padded rows/cols and K tails contribute nothing.
constexpr u8 tbl_neutral_index(TblMode m) {
  constexpr i32 zeros[4] = {0, 0, 0, 0};
  u8 idx = 0;
  tbl_encode(m, zeros, idx);
  return idx;
}

/// The largest index the encoder can emit (the prover's in-table check).
constexpr int tbl_max_index(TblMode m) {
  int top = 0;
  for (int idx = 0; idx < 16; ++idx) {
    i32 d[4] = {};
    if (tbl_decode(m, idx, d)) top = idx;
  }
  return top;
}

/// Largest |entry| a product table can hold when the table side is
/// bounded by qmax: the decoded values' magnitudes summed, times qmax.
constexpr i32 tbl_entry_bound(TblMode m) {
  const i32 q = qmax_for_bits(m.bits);
  switch (m.fold) {
    case TblFold::kValue: return q * q;
    case TblFold::kTernaryPair: return 2 * q;
    case TblFold::kNonNegative: return tbl_group(m) * q * q;
  }
  return 0;
}

/// ADD.16B accumulations of looked-up table entries into one fresh 8-bit
/// lane between the sshll/saddw flushes into the 32-bit accumulators. Each
/// add contributes one table entry, bounded by tbl_entry_bound above, so
/// the interval is the byte lane's headroom divided by that bound — the
/// same two-level accumulation trick the MLA scheme uses (Sec. 3.4), which
/// keeps the TBL scheme's per-step ALU work at one shuffle plus one byte
/// add instead of two widening adds.
constexpr int tbl_flush_interval(TblMode m) {
  return 127 / tbl_entry_bound(m);
}

// The modes the scheme ships, with their bounds and cadences.
constexpr TblMode kTbl2Pair{TblFold::kTernaryPair, 2};
constexpr TblMode kTbl3Pair{TblFold::kTernaryPair, 3};
constexpr TblMode kTbl3Value{TblFold::kValue, 3};
constexpr TblMode kTbl2NonNeg{TblFold::kNonNegative, 2};
constexpr TblMode kTbl3NonNeg{TblFold::kNonNegative, 3};
static_assert(tbl_group(kTbl2NonNeg) == 4 && tbl_group(kTbl3NonNeg) == 2);
static_assert(tbl_neutral_index(kTbl2Pair) == 5);
static_assert(tbl_neutral_index(kTbl3Value) == 3);
static_assert(tbl_neutral_index(kTbl2NonNeg) == 0);
static_assert(tbl_max_index(kTbl2Pair) == 10 && tbl_max_index(kTbl3Value) == 6);
static_assert(tbl_max_index(kTbl2NonNeg) == 15 &&
              tbl_max_index(kTbl3NonNeg) == 15);
static_assert(tbl_entry_bound(kTbl2Pair) == 2 && tbl_entry_bound(kTbl3Pair) == 6);
static_assert(tbl_entry_bound(kTbl3Value) == 9);
static_assert(tbl_entry_bound(kTbl2NonNeg) == 4 &&
              tbl_entry_bound(kTbl3NonNeg) == 18);
static_assert(tbl_flush_interval(kTbl2Pair) == 63);
static_assert(tbl_flush_interval(kTbl3Pair) == 21);
static_assert(tbl_flush_interval(kTbl3Value) == 14);
static_assert(tbl_flush_interval(kTbl2NonNeg) == 31);
static_assert(tbl_flush_interval(kTbl3NonNeg) == 7);

/// Byte-lane flushes (8->16) between 16->32-bit flushes in the 32x4 TBL
/// tile, which keeps its partial sums in i16 registers: each flush deposits
/// at most flush * entry <= 127 into an i16 lane, and 256 * 127 <= 32767.
constexpr int kTblSecondLevelRounds = 256;
static_assert(kTblSecondLevelRounds * 127 <= 32767);

/// Build one 16-entry product table from the table side's broadcast
/// operands b[0 .. tbl_group(m)): out[idx] = sum_i d_i * b_i over the
/// values d that tbl_decode gives for idx, and 0 where it gives none.
/// Shared by the act-tables online build, the dictionaries and the kernel
/// prover's exhaustive table check.
void tbl_build_table(TblMode m, const i8* b, i8 out[16]);

// ---- the weight-tables dictionary ----------------------------------------

/// Values one table-side (weight) operand can take: the adjusted range.
constexpr i32 tbl_weight_levels(int bits) { return 2 * qmax_for_bits(bits) + 1; }

/// Tables in the mode's dictionary: one per weight group, levels^G.
constexpr int tbl_dict_size(TblMode m) {
  int n = 1;
  for (int i = 0; i < tbl_group(m); ++i) n *= tbl_weight_levels(m.bits);
  return n;
}

/// The dictionary id of one weight group w[0 .. tbl_group(m)) (a group cut
/// short by the end of K passes 0): sum_i (w_i + qmax) * levels^i. False,
/// leaving `id` unset, when a weight lies outside the adjusted range.
constexpr bool tbl_encode_id(TblMode m, const i32* w, u8& id) {
  const i32 q = qmax_for_bits(m.bits);
  i32 x = 0, place = 1;
  for (int i = 0; i < tbl_group(m); ++i) {
    if (w[i] < -q || w[i] > q) return false;
    x += (w[i] + q) * place;
    place *= tbl_weight_levels(m.bits);
  }
  id = static_cast<u8>(x);
  return true;
}

/// Decode dictionary id `id` into its weight group w[0 .. tbl_group(m)).
/// False for an id past the dictionary.
constexpr bool tbl_decode_id(TblMode m, int id, i32* w) {
  if (id < 0 || id >= tbl_dict_size(m)) return false;
  const i32 q = qmax_for_bits(m.bits);
  for (int i = 0; i < tbl_group(m); ++i) {
    w[i] = id % tbl_weight_levels(m.bits) - q;
    id /= tbl_weight_levels(m.bits);
  }
  return true;
}

static_assert(tbl_dict_size(kTbl2Pair) == 9 && tbl_dict_size(kTbl2NonNeg) == 81);
static_assert(tbl_dict_size(kTbl3Value) == 7 && tbl_dict_size(kTbl3NonNeg) == 49);
static_assert(tbl_dict_size(kTbl3Pair) <= 256);  // every id fits a byte

/// The mode's shared dictionary: tbl_dict_size(m) tables of 16 entries,
/// table `id` = tbl_build_table of tbl_decode_id(id). Built once per
/// process, immutable, shared by every plan. The storage behind it spans
/// all 256 byte ids (the ones past the dictionary read zeros), so no id
/// byte can make a host read leave it; checked execution registers only
/// the dictionary itself.
const i8* tbl_dictionary(TblMode m);

/// Bytes of one mode's dictionary storage (all 256 byte ids); the modes'
/// dictionaries lie kTblDictBytes apart, in tbl_mode_slot order.
constexpr size_t kTblDictBytes = 256 * 16;

}  // namespace lbc::armkern
