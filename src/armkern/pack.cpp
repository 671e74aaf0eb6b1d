#include "armkern/pack.h"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "armsim/neon.h"
#include "armsim/verifier.h"

namespace lbc::armkern {

namespace {

// Cost accounting for pack loops. Real NEON packing moves 16 bytes per
// vector op; the A pack (and the strided SDOT B interleave) additionally
// pays a strided-gather (transpose) overhead we charge as scalar ops per
// element group.
void tally_pack_gather(armsim::Ctx* ctx, i64 elems) {
  if (!ctx) return;
  const u64 groups = static_cast<u64>(ceil_div(elems, 16));
  ctx->tally(armsim::Op::kLd1, groups);     // gather source rows
  ctx->tally(armsim::Op::kSt1, groups);     // store packed panel
  ctx->tally(armsim::Op::kScalar, groups * 2);  // transpose/index math
  ctx->tally(armsim::Op::kLoop, groups / 4 + 1);
}

// The contiguous B pack: 16-byte moves only.
void tally_pack_stream(armsim::Ctx* ctx, i64 elems) {
  if (!ctx) return;
  const u64 groups = static_cast<u64>(ceil_div(elems, 16));
  ctx->tally(armsim::Op::kLd1, groups);
  ctx->tally(armsim::Op::kSt1, groups);
  ctx->tally(armsim::Op::kLoop, groups / 4 + 1);
}

// Under checked execution the pack's bulk cache traffic must land inside
// registered regions. ensure_region is a no-op when the driver already
// registered a (ranged) region covering the span, so driver bounds win.
void ensure_pack_regions(armsim::Ctx* ctx, const void* src, i64 src_bytes,
                         const char* src_name, const void* dst, i64 dst_bytes,
                         const char* dst_name) {
  if (ctx == nullptr || ctx->verifier == nullptr) return;
  ctx->verifier->ensure_region(src, src_bytes, src_name);
  ctx->verifier->ensure_region(dst, dst_bytes, dst_name);
}

}  // namespace

// The fused im2col gather pays the index math (tap decomposition, bounds
// tests) on top of the strided gather.
void tally_pack_im2col_gather(armsim::Ctx* ctx, i64 elems) {
  if (!ctx) return;
  tally_pack_gather(ctx, elems);
  ctx->tally(armsim::Op::kScalar, static_cast<u64>(ceil_div(elems, 8)));
}

i64 packed_a_bytes(i64 m, i64 k) { return round_up(m, kMr) * k; }
i64 packed_b_bytes(i64 k, i64 n) { return round_up(n, kNr) * k; }

APanels pack_a_into(armsim::Ctx* ctx, const i8* a, i64 m, i64 k, i8* dst) {
  const i64 m_pad = round_up(m, kMr);
  for (i64 p = 0; p < m_pad / kMr; ++p) {
    i8* panel = dst + p * k * kMr;
    for (i64 kk = 0; kk < k; ++kk)
      for (i64 r = 0; r < kMr; ++r) {
        const i64 row = p * kMr + r;
        panel[kk * kMr + r] = (row < m) ? a[row * k + kk] : i8{0};
      }
  }
  tally_pack_gather(ctx, m_pad * k);
  if (ctx) {
    ensure_pack_regions(ctx, a, m * k, "pack A source", dst, m_pad * k,
                        "packed A panels");
    ctx->mem_range(a, static_cast<u64>(m * k));
    ctx->mem_range(dst, static_cast<u64>(m_pad * k));
  }
  return APanels{dst, m, k, m_pad};
}

BPanels pack_b_into(armsim::Ctx* ctx, const i8* b, i64 k, i64 n, i8* dst) {
  const i64 n_pad = round_up(n, kNr);
  for (i64 q = 0; q < n_pad / kNr; ++q) {
    i8* panel = dst + q * k * kNr;
    for (i64 kk = 0; kk < k; ++kk)
      for (i64 c = 0; c < kNr; ++c) {
        const i64 col = q * kNr + c;
        panel[kk * kNr + c] = (col < n) ? b[kk * n + col] : i8{0};
      }
  }
  tally_pack_stream(ctx, n_pad * k);
  if (ctx) {
    ensure_pack_regions(ctx, b, k * n, "pack B source", dst, n_pad * k,
                        "packed B panels");
    ctx->mem_range(b, static_cast<u64>(k * n));
    ctx->mem_range(dst, static_cast<u64>(n_pad * k));
  }
  return BPanels{dst, k, n, n_pad};
}

PackedA pack_a(armsim::Ctx* ctx, const i8* a, i64 m, i64 k) {
  PackedA pa;
  pa.m = m;
  pa.k = k;
  pa.m_pad = round_up(m, kMr);
  pa.data.resize(static_cast<size_t>(pa.m_pad * k));
  pack_a_into(ctx, a, m, k, pa.data.data());
  return pa;
}

i64 packed_sdot_b_bytes(i64 k, i64 n) {
  return round_up(n, kNr) * round_up(k, 4);
}

PackedSdotA pack_sdot_a(const i8* a, i64 m, i64 k, armsim::Ctx* ctx) {
  PackedSdotA pa;
  pa.m = m;
  pa.k = k;
  pa.m_pad = round_up(m, kMr);
  pa.k_pad = round_up(k, 4);
  pa.data.resize(static_cast<size_t>(pa.m_pad * pa.k_pad));
  const i64 ksteps = pa.k_pad / 4;
  for (i64 p = 0; p < pa.panels(); ++p) {
    i8* dst = pa.data.data() + p * pa.k_pad * kMr;
    for (i64 ks = 0; ks < ksteps; ++ks)
      for (i64 r = 0; r < kMr; ++r)
        for (i64 d = 0; d < 4; ++d) {
          const i64 row = p * kMr + r;
          const i64 kk = ks * 4 + d;
          dst[(ks * kMr + r) * 4 + d] =
              (row < m && kk < k) ? a[row * k + kk] : i8{0};
        }
  }
  tally_pack_gather(ctx, pa.m_pad * pa.k_pad);
  if (ctx) {
    ensure_pack_regions(ctx, a, m * k, "pack SDOT A source", pa.data.data(),
                        static_cast<i64>(pa.data.size()), "packed SDOT A");
    ctx->mem_range(a, static_cast<u64>(m * k));
    ctx->mem_range(pa.data.data(), pa.data.size());
  }
  return pa;
}

SdotBPanels pack_sdot_b_into(armsim::Ctx* ctx, const i8* b, i64 k, i64 n,
                             i8* dst) {
  const i64 n_pad = round_up(n, kNr);
  const i64 k_pad = round_up(k, 4);
  const i64 ksteps = k_pad / 4;
  for (i64 q = 0; q < n_pad / kNr; ++q) {
    i8* panel = dst + q * k_pad * kNr;
    for (i64 ks = 0; ks < ksteps; ++ks)
      for (i64 c = 0; c < kNr; ++c)
        for (i64 d = 0; d < 4; ++d) {
          const i64 col = q * kNr + c;
          const i64 kk = ks * 4 + d;
          panel[(ks * kNr + c) * 4 + d] =
              (col < n && kk < k) ? b[kk * n + col] : i8{0};
        }
  }
  // The B interleave is a strided gather — same cost class as an A pack.
  tally_pack_gather(ctx, n_pad * k_pad);
  if (ctx) {
    ensure_pack_regions(ctx, b, k * n, "pack SDOT B source", dst,
                        n_pad * k_pad, "packed SDOT B");
    ctx->mem_range(b, static_cast<u64>(k * n));
    ctx->mem_range(dst, static_cast<u64>(n_pad * k_pad));
  }
  return SdotBPanels{dst, n, k, n_pad, k_pad};
}

namespace {

// One im2col element for GEMM row kg (= ic*kernel^2 + kh*kernel + kw) and
// column col (= b*out_h*out_w + oh*out_w + ow): the input value under the
// tap, or 0 when the tap falls outside the image. Mirrors
// refconv/im2col.cpp exactly — byte-identical panels are what make the
// fused path bit-exact against the materialized matrix.
inline i8 im2col_at(const ConvShape& s, const i8* in, i64 kg, i64 col) {
  const i64 ksq = s.kernel * s.kernel;
  const i64 ic = kg / ksq;
  const i64 kh = (kg / s.kernel) % s.kernel;
  const i64 kw = kg % s.kernel;
  const i64 ohw = s.out_h() * s.out_w();
  const i64 b = col / ohw;
  const i64 oh = (col % ohw) / s.out_w();
  const i64 ow = col % s.out_w();
  const i64 ih = oh * s.stride + kh - s.pad;
  const i64 iw = ow * s.stride + kw - s.pad;
  if (ih < 0 || ih >= s.in_h || iw < 0 || iw >= s.in_w) return 0;
  return in[((b * s.in_c + ic) * s.in_h + ih) * s.in_w + iw];
}

// Cache traffic of the fused gather of one block.
void touch_conv_gather(armsim::Ctx* ctx, const ConvShape& s, const i8* in,
                       i64 k0, i64 kc, i64 n0, i64 nc) {
  for_each_gather_span(s, k0, kc, n0, nc, [&](i64 offset, i64 bytes) {
    ctx->mem_range(in + offset, static_cast<u64>(bytes));
  });
}

}  // namespace

BPanels pack_b_panels_from_conv(armsim::Ctx* ctx, const ConvShape& s,
                                const i8* input, i64 k0, i64 kc,
                                i64 n0, i64 nc, i8* dst) {
  const i64 nc_pad = round_up(nc, kNr);
  const i8* in = input;
  for (i64 q = 0; q < nc_pad / kNr; ++q) {
    i8* panel = dst + q * kc * kNr;
    for (i64 kk = 0; kk < kc; ++kk)
      for (i64 c = 0; c < kNr; ++c) {
        const i64 j = q * kNr + c;
        panel[kk * kNr + c] =
            (j < nc) ? im2col_at(s, in, k0 + kk, n0 + j) : i8{0};
      }
  }
  tally_pack_im2col_gather(ctx, nc_pad * kc);
  if (ctx) {
    ensure_pack_regions(ctx, in, s.batch * s.in_c * s.in_h * s.in_w,
                        "conv input", dst, nc_pad * kc, "packed B block");
    touch_conv_gather(ctx, s, in, k0, kc, n0, nc);
    ctx->mem_range(dst, static_cast<u64>(nc_pad * kc));
  }
  return BPanels{dst, kc, nc, nc_pad};
}

SdotBPanels pack_sdot_b_panels_from_conv(armsim::Ctx* ctx, const ConvShape& s,
                                         const i8* input, i64 k0,
                                         i64 kc, i64 n0, i64 nc, i8* dst) {
  const i64 nc_pad = round_up(nc, kNr);
  const i64 kc_pad = round_up(kc, 4);
  const i8* in = input;
  for (i64 q = 0; q < nc_pad / kNr; ++q) {
    i8* panel = dst + q * kc_pad * kNr;
    for (i64 ks = 0; ks < kc_pad / 4; ++ks)
      for (i64 c = 0; c < kNr; ++c)
        for (i64 d = 0; d < 4; ++d) {
          const i64 j = q * kNr + c;
          const i64 kk = ks * 4 + d;
          panel[(ks * kNr + c) * 4 + d] =
              (j < nc && kk < kc) ? im2col_at(s, in, k0 + kk, n0 + j) : i8{0};
        }
  }
  tally_pack_im2col_gather(ctx, nc_pad * kc_pad);
  if (ctx) {
    ensure_pack_regions(ctx, in, s.batch * s.in_c * s.in_h * s.in_w,
                        "conv input", dst, nc_pad * kc_pad, "packed B block");
    touch_conv_gather(ctx, s, in, k0, kc, n0, nc);
    ctx->mem_range(dst, static_cast<u64>(nc_pad * kc_pad));
  }
  return SdotBPanels{dst, nc, kc, nc_pad, kc_pad};
}

void tally_pack_tbl_tables(armsim::Ctx* ctx, i64 tables) {
  if (!ctx) return;
  const u64 t = static_cast<u64>(tables);
  ctx->tally(armsim::Op::kDup, t * 2);     // broadcast both table operands
  ctx->tally(armsim::Op::kAdd, t * 2);     // combine the scaled base tables
  ctx->tally(armsim::Op::kSt1, t);         // store the 16-entry table
  ctx->tally(armsim::Op::kScalar, t * 2);  // operand fetch + address math
  ctx->tally(armsim::Op::kLoop, t / 4 + 1);
}

bool tbl_values_ternary(const i8* a, i64 m, i64 k) {
  for (i64 i = 0; i < m * k; ++i)
    if (a[i] < -1 || a[i] > 1) return false;
  return true;
}

namespace {

// Call fn.template operator()<F, Bits>() for the run-time mode `m`, so a
// pack loop sees its mode as compile-time constants: tbl_encode and
// tbl_encode_id then fold to their one case, inline, with no per-group
// dispatch.
template <typename Fn>
void with_tbl_mode(TblMode m, Fn&& fn) {
  const auto at_bits = [&]<int Bits>() {
    switch (m.fold) {
      case TblFold::kValue:
        fn.template operator()<TblFold::kValue, Bits>();
        break;
      case TblFold::kTernaryPair:
        fn.template operator()<TblFold::kTernaryPair, Bits>();
        break;
      case TblFold::kNonNegative:
        fn.template operator()<TblFold::kNonNegative, Bits>();
        break;
    }
  };
  if (m.bits == 2)
    at_bits.template operator()<2>();
  else
    at_bits.template operator()<3>();
}

// Group `gs` of row `row` of the m x k matrix `a`, zero past m and k.
template <int G>
void tbl_weight_group(const i8* a, i64 m, i64 k, i64 row, i64 gs, i32* v) {
  if (row >= m) return;
  const i8* src = a + row * k + gs * G;
  if (gs * G + G <= k) {
    for (int i = 0; i < G; ++i) v[i] = src[i];
    return;
  }
  for (i64 i = 0; i < k - gs * G; ++i) v[i] = src[i];
}

}  // namespace

PackedTblA pack_tbl_a(const i8* a, i64 m, i64 k, int bits,
                      TblOrientation orient, InputRange input,
                      TblSource source, armsim::Ctx* ctx) {
  PackedTblA pa;
  pa.orient = orient;
  pa.m = m;
  pa.k = k;
  pa.ternary = bits == 2 || tbl_values_ternary(a, m, k);
  pa.mode = tbl_mode_for(orient, bits, pa.ternary, input);
  pa.source = tbl_packed_source(orient, source);
  const i64 groups = pa.groups();
  const bool built = pa.source == TblSource::kBuilt;
  if (orient == TblOrientation::kActTables) {
    pa.m_pad = round_up(m, kMr);
    pa.idx.resize(static_cast<size_t>(pa.m_pad * groups));
  } else {
    pa.m_pad = round_up(m, i64{4});
    if (built)
      pa.ids.resize(static_cast<size_t>(pa.m_pad * groups));
    else
      pa.tables.resize(static_cast<size_t>(pa.m_pad * groups * 16));
  }
  // Each weight row is read once, in order; its groups land `rows` bytes
  // (or tables) apart in its panel: [panel][group step][row of the panel].
  const i64 rows = orient == TblOrientation::kActTables ? kMr : 4;
  with_tbl_mode(pa.mode, [&]<TblFold F, int Bits>() {
    constexpr TblMode mode{F, Bits};
    constexpr int G = tbl_group(mode);
    const i8* dict = tbl_dictionary(mode);
    for (i64 row = 0; row < pa.m_pad; ++row) {
      const i64 slot0 = (row / rows) * groups * rows + row % rows;
      for (i64 gs = 0; gs < groups; ++gs) {
        i32 v[4] = {};
        tbl_weight_group<G>(a, m, k, row, gs, v);
        const i64 slot = slot0 + gs * rows;
        // Act tables: the group's index (rows beyond m encode the all-zero
        // group, the neutral index). Weight tables: the dictionary table
        // the group names — copied out (stored) or kept as its id (built).
        bool ok = false;
        if (orient == TblOrientation::kActTables) {
          ok = tbl_encode(mode, v, pa.idx[static_cast<size_t>(slot)]);
        } else {
          u8 id = 0;
          ok = tbl_encode_id(mode, v, id);
          if (built)
            pa.ids[static_cast<size_t>(slot)] = id;
          else
            std::memcpy(pa.tables.data() + slot * 16, dict + id * 16, 16);
        }
        LBC_CHECK_MSG(ok, "TBL weight pack: weight outside the adjusted range");
      }
    }
  });
  const i64 packed = pa.bytes();
  const void* dst = !pa.idx.empty()    ? static_cast<const void*>(pa.idx.data())
                    : !pa.ids.empty() ? static_cast<const void*>(pa.ids.data())
                                      : static_cast<const void*>(pa.tables.data());
  if (orient == TblOrientation::kWeightTables && !built)
    tally_pack_tbl_tables(ctx, pa.m_pad * groups);
  else
    tally_pack_gather(ctx, pa.m_pad * k);
  if (ctx) {
    ensure_pack_regions(ctx, a, m * k, "pack TBL A source", dst, packed,
                        "packed TBL A");
    ctx->mem_range(a, static_cast<u64>(m * k));
    ctx->mem_range(dst, static_cast<u64>(packed));
  }
  return pa;
}

void tally_tbl_table_copy(armsim::Counters& counts, i64 tables) {
  const u64 t = static_cast<u64>(tables);
  counts[armsim::Op::kLd1] += t;
  counts[armsim::Op::kSt1] += t;
  counts[armsim::Op::kScalar] += 2 * t;  // id load + dictionary address
  counts[armsim::Op::kLoop] += 1;
}

void copy_tbl_tables(armsim::Ctx& ctx, TblMode mode, const u8* ids,
                     i64 tables, i8* dst) {
  const i8* dict = tbl_dictionary(mode);
  const armsim::VerifyScope vs(ctx,
                               armsim::KernelSpec{.name = "tbl_table_copy"});
  ctx.mem(ids, static_cast<u64>(tables));
  for (i64 t = 0; t < tables; ++t) {
    armsim::int8x16 table;
    armsim::ld1_s8(ctx, dict + ids[t] * 16, table);
    armsim::st1_s8(ctx, table, dst + t * 16);
  }
  // ld1_s8 / st1_s8 tallied the vector moves; add the scalar side.
  ctx.tally(armsim::Op::kScalar, 2 * static_cast<u64>(tables));
  ctx.tally(armsim::Op::kLoop);
}

void pack_tbl_b_tables_from_conv(armsim::Ctx* ctx, TblMode mode,
                                 const ConvShape& s, const i8* input, i64 k0,
                                 i64 kc, i64 n0, i64 nc, i8* dst) {
  const int group = tbl_group(mode);
  const i64 nc_pad = round_up(nc, kNr);
  const i64 groups_c = ceil_div(kc, static_cast<i64>(group));
  // One table per (column, group step) from the group's im2col values (0
  // past kc and nc).
  for (i64 q = 0; q < nc_pad / kNr; ++q) {
    i8* panel = dst + q * groups_c * kNr * 16;
    for (i64 gs = 0; gs < groups_c; ++gs)
      for (i64 c = 0; c < kNr; ++c) {
        const i64 j = q * kNr + c;
        i8 b[4] = {};
        if (j < nc)
          for (int i = 0; i < group; ++i) {
            const i64 kk = gs * group + i;
            if (kk < kc) b[i] = im2col_at(s, input, k0 + kk, n0 + j);
          }
        tbl_build_table(mode, b, panel + (gs * kNr + c) * 16);
      }
  }
  const i64 bytes = nc_pad * groups_c * 16;
  tally_pack_tbl_tables(ctx, nc_pad * groups_c);
  tally_pack_im2col_gather(ctx, nc_pad * kc);
  if (ctx) {
    ensure_pack_regions(ctx, input, s.batch * s.in_c * s.in_h * s.in_w,
                        "conv input", dst, bytes, "packed B block");
    touch_conv_gather(ctx, s, input, k0, kc, n0, nc);
    ctx->mem_range(dst, static_cast<u64>(bytes));
  }
}

Status pack_tbl_b_idx_from_conv(armsim::Ctx* ctx, TblMode mode,
                                const ConvShape& s, const i8* input, i64 k0,
                                i64 kc, i64 n0, i64 nc, u8* dst) {
  const int group = tbl_group(mode);
  const i64 nc_pad = round_up(nc, i64{16});
  const i64 groups_c = ceil_div(kc, static_cast<i64>(group));
  const u8 neutral = tbl_neutral_index(mode);
  // One index per (column, group step), padding columns neutral. An
  // activation the mode cannot encode stops the pack with kOutOfRange
  // naming it — the block is then unusable, never a wrong sum.
  for (i64 q = 0; q < nc_pad / 16; ++q) {
    u8* panel = dst + q * groups_c * 16;
    for (i64 gs = 0; gs < groups_c; ++gs)
      for (i64 c = 0; c < 16; ++c) {
        const i64 j = q * 16 + c;
        u8 enc = neutral;
        if (j < nc) {
          i32 v[4] = {};
          for (int i = 0; i < group; ++i) {
            const i64 kk = gs * group + i;
            if (kk < kc) v[i] = im2col_at(s, input, k0 + kk, n0 + j);
          }
          if (!tbl_encode(mode, v, enc)) {
            std::ostringstream os;
            os << "TBL index encode: an activation at depth "
               << k0 + gs * group << ".." << k0 + gs * group + group - 1
               << ", column " << n0 + j << " lies outside the plan's "
               << (mode.fold == TblFold::kNonNegative ? "non-negative"
                                                      : "signed")
               << " " << mode.bits << "-bit input range (values";
            for (int i = 0; i < group; ++i) os << ' ' << v[i];
            os << ")";
            return Status::out_of_range(os.str());
          }
        }
        panel[gs * 16 + c] = enc;
      }
  }
  tally_pack_im2col_gather(ctx, nc_pad * groups_c * group);
  if (ctx) {
    ensure_pack_regions(ctx, input, s.batch * s.in_c * s.in_h * s.in_w,
                        "conv input", dst, nc_pad * groups_c,
                        "packed B block");
    touch_conv_gather(ctx, s, input, k0, kc, n0, nc);
    ctx->mem_range(dst, static_cast<u64>(nc_pad * groups_c));
  }
  return Status();
}

}  // namespace lbc::armkern
