#include "armkern/schemes.h"

#include <array>

namespace lbc::armkern {
// Compile-time checks that the safe-ratio formula reproduces the paper's
// quoted SMLAL:SADDW ratios where the adjusted range defines them
// (Sec. 3.3: "... 8/1 and 2/1 ... for 7 and 8-bit").
static_assert(smlal_safe_ratio(8) == 2);
static_assert(smlal_safe_ratio(7) == 8);
// For 4-6 bit the paper quotes the conservative power-of-two bounds
// (511/127/31); our adjusted-range bounds are looser, and both dominate
// the actual flush interval (the unrolling factor <= 32).
static_assert(smlal_safe_ratio(6) >= 31);
static_assert(smlal_safe_ratio(5) >= 127);
static_assert(smlal_safe_ratio(4) >= 511);

namespace {

// tbl_decode of all 16 indices of every mode the scheme can run (bits 2-3,
// each fold), evaluated at compile time and stored value-major (d[i][idx])
// so a table build is G multiply-adds of 16 lanes; an index no encoding
// produces decodes to all zeros, so its entry sums to 0.
struct DecodedTable {
  i8 d[4][16] = {};
};
constexpr std::array<DecodedTable, 2 * kTblFolds> kDecoded = [] {
  std::array<DecodedTable, 2 * kTblFolds> out{};
  for (int bits = 2; bits <= 3; ++bits)
    for (int f = 0; f < kTblFolds; ++f) {
      const TblMode mode{static_cast<TblFold>(f), bits};
      DecodedTable& t = out[tbl_mode_slot(mode)];
      for (int idx = 0; idx < 16; ++idx) {
        i32 d[4] = {};
        if (tbl_decode(mode, idx, d))
          for (int i = 0; i < 4; ++i) t.d[i][idx] = static_cast<i8>(d[i]);
      }
    }
  return out;
}();

// One table from G operands; G fixed so the sums unroll and vectorize.
template <int G>
void build_table(const DecodedTable& t, const i8* b, i8 out[16]) {
  i32 entry[16] = {};
  for (int i = 0; i < G; ++i)
    for (int idx = 0; idx < 16; ++idx)
      entry[idx] += static_cast<i32>(t.d[i][idx]) * static_cast<i32>(b[i]);
  for (int idx = 0; idx < 16; ++idx) out[idx] = static_cast<i8>(entry[idx]);
}

// Every mode's dictionary, each padded to all 256 byte ids.
struct Dictionaries {
  alignas(64) i8 table[2 * kTblFolds][kTblDictBytes] = {};
};

}  // namespace

void tbl_build_table(TblMode m, const i8* b, i8 out[16]) {
  const DecodedTable& t = kDecoded[tbl_mode_slot(m)];
  switch (tbl_group(m)) {
    case 1: build_table<1>(t, b, out); break;
    case 2: build_table<2>(t, b, out); break;
    default: build_table<4>(t, b, out); break;  // tbl_group is 1, 2 or 4
  }
}

const i8* tbl_dictionary(TblMode m) {
  static const Dictionaries* dicts = [] {
    auto* d = new Dictionaries;
    for (int bits = 2; bits <= 3; ++bits)
      for (int f = 0; f < kTblFolds; ++f) {
        const TblMode mode{static_cast<TblFold>(f), bits};
        for (int id = 0; id < tbl_dict_size(mode); ++id) {
          i32 w[4] = {};
          tbl_decode_id(mode, id, w);
          i8 b[4] = {};
          for (int i = 0; i < 4; ++i) b[i] = static_cast<i8>(w[i]);
          tbl_build_table(mode, b, d->table[tbl_mode_slot(mode)] + id * 16);
        }
      }
    return d;
  }();
  return dicts->table[tbl_mode_slot(m)];
}
}  // namespace lbc::armkern
