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
// products per cycle and one ADD.16B accumulates them in 8-bit lanes
// (entries are bounded by tbl_entry_bound, so tbl_flush_interval adds fit
// an i8 lane before the SSHLL/SADDW widen into the i32 tile). When the
// INDEX side holds only ternary values {-1,0,1} (always true at 2 bit;
// detected at pack time for 3-bit weights), TWO consecutive depth values
// are folded into one pair-class index, so each TBL answers 32 MACs.
//
// The scheme runs in one of two orientations, priced at plan time
// (tile_search::choose_tbl_orientation):
//  * kActTables  — weights are the index side (prepacked offline);
//    product tables are built ONLINE from activations during B-block
//    packing. Amortizes table-build over all m rows: wins at large m.
//  * kWeightTables — weights are the table side (tables built OFFLINE,
//    8x weight inflation); activations are encoded ONLINE as indices.
//    No online build cost: wins at small m, loses when the table set
//    outgrows L2.
// ---------------------------------------------------------------------------

/// Which GEMM side supplies the product tables (see block comment above).
enum class TblOrientation { kActTables, kWeightTables };

/// Depth positions folded per index for a given orientation: pair mode needs
/// the INDEX side ternary. kActTables indexes weights (ternary always at
/// 2-bit, detected for 3-bit — caller passes `weights_ternary`); kWeight-
/// Tables indexes activations (guaranteed ternary only at 2-bit).
constexpr int tbl_group_for(TblOrientation o, int bits, bool weights_ternary) {
  if (o == TblOrientation::kActTables) return (bits == 2 || weights_ternary) ? 2 : 1;
  return bits == 2 ? 2 : 1;
}

/// Depth positions folded into one index when the scheme runs in ternary
/// pair mode (vs 1 for the generic one-value-per-index form).
constexpr int kTblPairGroup = 2;


/// Ternary pair class of (v0, v1), both in {-1,0,1}:
///   idx = (v0+1)*4 + (v1+1)  in {0,1,2, 4,5,6, 8,9,10}.
/// idx % 4 == 3 and idx > 10 never occur; TBL's out-of-range zeroing makes
/// the unused tail of the 16-entry table harmless by construction.
constexpr u8 tbl_pair_index(i32 v0, i32 v1) {
  return static_cast<u8>((v0 + 1) * 4 + (v1 + 1));
}

/// The (0,0) pair class: the neutral padding index. Its table entry is 0 in
/// every table, so padded rows/cols and odd-K tails contribute nothing.
constexpr u8 kTblNeutralPairIndex = tbl_pair_index(0, 0);

/// Generic (non-ternary) single-value class: idx = v + qmax in [0, 2*qmax].
/// The table entry at qmax (value 0) is 0 — the generic neutral index.
constexpr u8 tbl_value_index(i32 v, int bits) {
  return static_cast<u8>(v + qmax_for_bits(bits));
}

/// Neutral padding index for the generic form (encodes value 0).
constexpr u8 tbl_generic_neutral_index(int bits) {
  return static_cast<u8>(qmax_for_bits(bits));
}

/// Largest |entry| any TBL product table can hold for b-bit operands:
/// ternary pair mode sums two {-1,0,1}-scaled operands (2*qmax), the
/// generic form holds one full product (qmax^2).
constexpr i32 tbl_entry_bound(int bits, bool ternary_pairs) {
  const i32 q = qmax_for_bits(bits);
  return ternary_pairs ? 2 * q : q * q;
}

/// ADD.16B accumulations of looked-up table entries into one fresh 8-bit
/// lane between the sshll/saddw flushes into the 32-bit accumulators. Each
/// add contributes one table entry, bounded by tbl_entry_bound above, so
/// the interval is the byte lane's headroom divided by that bound — the
/// same two-level accumulation trick the MLA scheme uses (Sec. 3.4), which
/// keeps the TBL scheme's per-step ALU work at one shuffle plus one byte
/// add instead of two widening adds.
constexpr int tbl_flush_interval(int bits, bool ternary_pairs) {
  return 127 / tbl_entry_bound(bits, ternary_pairs);
}

// Index ranges stay inside the single-register TBL's 16-entry window.
static_assert(tbl_pair_index(1, 1) == 10);
static_assert(kTblNeutralPairIndex == 5);
static_assert(tbl_value_index(3, 3) == 6);   // widest generic range (3-bit)
static_assert(tbl_pair_index(1, 1) < 16 && tbl_value_index(3, 3) < 16);
// Table entries fit i8 and the flush interval fits 8-bit lane headroom for
// every mode the scheme ships (2-3 bit, pair or generic).
static_assert(tbl_entry_bound(2, true) == 2 && tbl_entry_bound(3, true) == 6);
static_assert(tbl_entry_bound(3, false) == 9);
static_assert(tbl_entry_bound(3, false) <= 127);
static_assert(tbl_flush_interval(2, true) == 63);
static_assert(tbl_flush_interval(3, true) == 21);
static_assert(tbl_flush_interval(3, false) == 14);
static_assert(tbl_flush_interval(2, true) * tbl_entry_bound(2, true) <= 127);
static_assert(tbl_flush_interval(3, false) * tbl_entry_bound(3, false) <= 127);

/// Byte-lane flushes (8->16) between 16->32-bit flushes in the 32x4 TBL
/// tile, which keeps its partial sums in i16 registers: each flush deposits
/// at most flush * entry <= 127 into an i16 lane, and 256 * 127 <= 32767.
constexpr int kTblSecondLevelRounds = 256;
static_assert(kTblSecondLevelRounds * tbl_flush_interval(2, true) *
                  tbl_entry_bound(2, true) <= 32767);
static_assert(kTblSecondLevelRounds * tbl_flush_interval(3, true) *
                  tbl_entry_bound(3, true) <= 32767);
static_assert(kTblSecondLevelRounds * tbl_flush_interval(3, false) *
                  tbl_entry_bound(3, false) <= 32767);

/// Build one 16-entry product table for broadcast operands (b0, b1) of the
/// non-index side: in pair mode out[idx] = d0(idx)*b0 + d1(idx)*b1 over the
/// decoded ternary pair (d0, d1); in generic mode out[idx] = (idx-qmax)*b0
/// (b1 ignored). Invalid indices get 0. Shared by both pack orientations
/// and the kernel prover's exhaustive table check.
void tbl_build_table(int bits, bool ternary_pairs, i8 b0, i8 b1, i8 out[16]);

}  // namespace lbc::armkern
