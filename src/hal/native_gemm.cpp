// Scheme dispatch, packing, scalar kernels, and the measured-ns blocking
// search of the native GEMM. The AVX2 kernels live in x86/gemm_avx2.cpp
// (own translation unit so only it is compiled with -mavx2).

#include "hal/native_gemm.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <map>
#include <mutex>
#include <tuple>
#include <vector>

#include "hal/cpu_features.h"

namespace lbc::hal {

namespace {

double now_ns() {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

constexpr i64 kDotDepthAlign = 32;  ///< one 256-bit register of i8

i64 dot_k_pad(i64 k) { return round_up(k, kDotDepthAlign); }

}  // namespace

NativeScheme native_scheme_for(int bits) {
  return bits <= 4 ? NativeScheme::kLut : NativeScheme::kDot;
}

int native_scheme_id(int bits) {
  return native_scheme_for(bits) == NativeScheme::kLut ? 0 : 1;
}

NativeBlocking default_native_blocking(i64 m, i64 n, i64 k, int bits) {
  // Size the B tile for a ~32KB L1d: the LUT kernel streams K x col_block
  // activation bytes per tile, the DOT kernel col_block patches of K_pad.
  const i64 depth = native_scheme_for(bits) == NativeScheme::kLut
                        ? std::max<i64>(k, 1)
                        : dot_k_pad(std::max<i64>(k, 1));
  i64 cb = (32 * 1024) / depth;
  cb = std::clamp<i64>(cb, 32, 512);
  NativeBlocking b{8, cb};
  b.rb = std::clamp<i64>(b.rb, 1, std::max<i64>(m, 1));
  b.cb = std::clamp<i64>(b.cb, 1, std::max<i64>(round_up(n, 32), 32));
  return b;
}

const i8* native_product_lut(int bits) {
  // One signed-byte table per LUT bit width: row = weight index
  // (value + qmax), column = activation index. 16-byte rows so each row is
  // exactly one pshufb table; entries beyond 2*qmax are zero (an in-range
  // activation never indexes them).
  static const auto tables = [] {
    // 15 rows x 16 cols covers the widest LUT width (4-bit, qmax 7).
    std::array<std::array<i8, 15 * 16>, 3> t{};
    for (int bits_i = 2; bits_i <= 4; ++bits_i) {
      const i32 q = qmax_for_bits(bits_i);
      auto& tab = t[static_cast<size_t>(bits_i - 2)];
      tab.fill(0);
      for (i32 wi = 0; wi <= 2 * q; ++wi)
        for (i32 ai = 0; ai <= 2 * q; ++ai)
          tab[static_cast<size_t>(wi * 16 + ai)] =
              static_cast<i8>((wi - q) * (ai - q));
    }
    return t;
  }();
  return tables[static_cast<size_t>(std::clamp(bits, 2, 4) - 2)].data();
}

StatusOr<NativePackedA> native_pack_a(const i8* a, i64 m, i64 k, int bits) {
  LBC_VALIDATE(a != nullptr && m > 0 && k > 0, kInvalidArgument,
               "native_pack_a: need a non-empty " << m << "x" << k
                                                  << " matrix");
  LBC_VALIDATE(bits >= 2 && bits <= 8, kInvalidArgument,
               "native_pack_a: bits must be in [2, 8], got " << bits);
  const i32 q = qmax_for_bits(bits);
  NativePackedA pa;
  pa.bits = bits;
  pa.scheme = native_scheme_for(bits);
  pa.m = m;
  pa.k = k;
  if (pa.scheme == NativeScheme::kLut) {
    // Table-row indices: value + qmax in [0, 2*qmax]. Out-of-range weights
    // would index outside the product table, so packing is the validation
    // boundary.
    pa.k_pad = k;
    pa.data.assign(static_cast<size_t>(m * k), 0);
    for (i64 i = 0; i < m * k; ++i) {
      const i32 v = a[i];
      LBC_VALIDATE(v >= -q && v <= q, kInvalidArgument,
                   "native_pack_a: weight " << v << " outside the adjusted "
                                            << bits << "-bit range [" << -q
                                            << ", " << q << "]");
      pa.data[static_cast<size_t>(i)] = static_cast<i8>(v + q);
    }
  } else {
    // Row-major with the depth zero-padded to one full vector register, so
    // the dot kernel never needs a scalar tail. Padded lanes multiply
    // against the (also zero-padded) B patches and add nothing.
    pa.k_pad = dot_k_pad(k);
    pa.data.assign(static_cast<size_t>(m * pa.k_pad), 0);
    for (i64 i = 0; i < m; ++i) {
      const i8* src = a + i * k;
      for (i64 kk = 0; kk < k; ++kk) {
        const i32 v = src[kk];
        LBC_VALIDATE(v >= -q && v <= q, kInvalidArgument,
                     "native_pack_a: weight " << v << " outside the adjusted "
                                              << bits << "-bit range [" << -q
                                              << ", " << q << "]");
        pa.data[static_cast<size_t>(i * pa.k_pad + kk)] = static_cast<i8>(v);
      }
    }
  }
  return pa;
}

i64 native_packed_b_bytes(i64 k, i64 n, int bits) {
  const i64 raw = native_scheme_for(bits) == NativeScheme::kLut
                      ? k * n
                      : n * dot_k_pad(k);
  return round_up(std::max<i64>(raw, 1), static_cast<i64>(kCacheLineBytes));
}

void native_pack_b(const i8* b, i64 k, i64 n, int bits, i8* dst) {
  if (native_scheme_for(bits) == NativeScheme::kLut) {
    // The LUT kernel consumes row-major K x N directly.
    std::memcpy(dst, b, static_cast<size_t>(k * n));
    return;
  }
  // DOT: transpose to one contiguous K_pad-deep patch per output column.
  const i64 kp = dot_k_pad(k);
  std::memset(dst, 0, static_cast<size_t>(n * kp));
  for (i64 j = 0; j < n; ++j) {
    i8* out = dst + j * kp;
    for (i64 kk = 0; kk < k; ++kk) out[kk] = b[kk * n + j];
  }
}

void native_pack_b_from_conv(const ConvShape& s, const Tensor<i8>& input,
                             int bits, i8* dst) {
  const i64 k = s.gemm_k();
  const i64 n = s.gemm_n();
  const i64 oh = s.out_h(), ow = s.out_w();
  const bool lut = native_scheme_for(bits) == NativeScheme::kLut;
  const i64 kp = lut ? k : dot_k_pad(k);
  std::memset(dst, 0, static_cast<size_t>(lut ? k * n : n * kp));
  const i8* in = input.data();
  const i64 hw = s.in_h * s.in_w;
  const i64 chw = s.in_c * hw;
  for (i64 img = 0; img < s.batch; ++img) {
    for (i64 oy = 0; oy < oh; ++oy) {
      for (i64 ox = 0; ox < ow; ++ox) {
        const i64 col = (img * oh + oy) * ow + ox;
        for (i64 c = 0; c < s.in_c; ++c) {
          for (i64 ky = 0; ky < s.kernel; ++ky) {
            const i64 iy = oy * s.stride - s.pad + ky;
            if (iy < 0 || iy >= s.in_h) continue;
            for (i64 kx = 0; kx < s.kernel; ++kx) {
              const i64 ix = ox * s.stride - s.pad + kx;
              if (ix < 0 || ix >= s.in_w) continue;
              const i64 kr = (c * s.kernel + ky) * s.kernel + kx;
              const i8 v = in[img * chw + c * hw + iy * s.in_w + ix];
              if (lut)
                dst[kr * n + col] = v;
              else
                dst[col * kp + kr] = v;
            }
          }
        }
      }
    }
  }
}

// ---- scalar kernels ---------------------------------------------------

void native_gemm_scalar_lut(const NativePackedA& pa, const i8* b, i32* c,
                            i64 n, const NativeBlocking& blocking) {
  const i64 m = pa.m, k = pa.k;
  const i8* lut = native_product_lut(pa.bits);
  const i32 q = qmax_for_bits(pa.bits);
  const i64 rb = std::max<i64>(blocking.rb, 1);
  const i64 cb = std::max<i64>(blocking.cb, 1);
  // Same pshufb semantics as the AVX2 kernel (low-nibble select, zero when
  // bit 7 of the index is set) so the two paths are byte-identical even on
  // out-of-range activations.
  for (i64 j0 = 0; j0 < n; j0 += cb) {
    const i64 jend = std::min(n, j0 + cb);
    for (i64 i0 = 0; i0 < m; i0 += rb) {
      const i64 iend = std::min(m, i0 + rb);
      for (i64 i = i0; i < iend; ++i) {
        const i8* arow = pa.row(i);  // table-row indices
        i32* crow = c + i * n;
        for (i64 j = j0; j < jend; ++j) crow[j] = 0;
        for (i64 kk = 0; kk < k; ++kk) {
          const i8* tab = lut + static_cast<u8>(arow[kk]) * 16;
          const i8* brow = b + kk * n;
          for (i64 j = j0; j < jend; ++j) {
            const u8 idx = static_cast<u8>(static_cast<i8>(
                static_cast<i8>(brow[j]) + static_cast<i8>(q)));
            crow[j] += (idx & 0x80u) != 0 ? 0 : tab[idx & 0x0Fu];
          }
        }
      }
    }
  }
}

void native_gemm_scalar_dot(const NativePackedA& pa, const i8* pb, i32* c,
                            i64 n, const NativeBlocking& blocking) {
  const i64 m = pa.m, kp = pa.k_pad;
  const i64 rb = std::max<i64>(blocking.rb, 1);
  const i64 cb = std::max<i64>(blocking.cb, 1);
  for (i64 i0 = 0; i0 < m; i0 += rb) {
    const i64 iend = std::min(m, i0 + rb);
    for (i64 j0 = 0; j0 < n; j0 += cb) {
      const i64 jend = std::min(n, j0 + cb);
      for (i64 i = i0; i < iend; ++i) {
        const i8* arow = pa.row(i);
        for (i64 j = j0; j < jend; ++j) {
          const i8* patch = pb + j * kp;
          i32 acc = 0;
          for (i64 kk = 0; kk < kp; ++kk)
            acc += static_cast<i32>(arow[kk]) * static_cast<i32>(patch[kk]);
          c[i * n + j] = acc;
        }
      }
    }
  }
}

// ---- driver -----------------------------------------------------------

namespace {

NativeBlocking clamp_blocking(const NativeBlocking& b, i64 m, i64 n) {
  NativeBlocking r = b;
  r.rb = std::clamp<i64>(r.rb, 1, std::max<i64>(m, 1));
  r.cb = std::clamp<i64>(r.cb, 1, std::max<i64>(n, 1));
  return r;
}

const char* run_kernel(const NativePackedA& pa, const i8* pb, i32* c, i64 n,
                       const NativeBlocking& blocking) {
  const bool avx2 = avx2_enabled();
  if (pa.scheme == NativeScheme::kLut) {
    if (avx2) {
      native_gemm_avx2_lut(pa, pb, c, n, blocking);
      return "avx2-lut";
    }
    native_gemm_scalar_lut(pa, pb, c, n, blocking);
    return "scalar-lut";
  }
  if (avx2) {
    native_gemm_avx2_dot(pa, pb, c, n, blocking);
    return "avx2-dot";
  }
  native_gemm_scalar_dot(pa, pb, c, n, blocking);
  return "scalar-dot";
}

}  // namespace

NativeGemmResult native_gemm_packed_b(const NativePackedA& pa, const i8* pb,
                                      i32* c, i64 n,
                                      const NativeBlocking& blocking) {
  const NativeBlocking blk = clamp_blocking(blocking, pa.m, n);
  const double t0 = now_ns();
  NativeGemmResult r;
  r.kernel = run_kernel(pa, pb, c, n, blk);
  r.ns = now_ns() - t0;
  return r;
}

// ---- measured-ns blocking search --------------------------------------

namespace {

struct SearchState {
  std::mutex mu;
  std::map<std::tuple<i64, i64, i64, int>, NativeBlocking> memo;
  NativeSearchStats stats;
};

SearchState& search_state() {
  static SearchState s;
  return s;
}

}  // namespace

NativeBlocking search_native_blocking(i64 m, i64 n, i64 k, int bits) {
  if (m <= 0 || n <= 0 || k <= 0)
    return default_native_blocking(std::max<i64>(m, 1), std::max<i64>(n, 1),
                                   std::max<i64>(k, 1), bits);
  const auto key = std::make_tuple(m, n, k, native_scheme_id(bits));
  SearchState& st = search_state();
  {
    std::lock_guard<std::mutex> lock(st.mu);
    const auto it = st.memo.find(key);
    if (it != st.memo.end()) {
      ++st.stats.memo_hits;
      return it->second;
    }
  }

  // Candidate grid in the gemm-config.h row/col-blocking idiom: small fixed
  // grid, clamped to the problem, deduplicated. The probe problem caps N so
  // a one-off search never costs more than a few milliseconds per shape.
  const i64 probe_n = std::min<i64>(n, 1024);
  std::vector<NativeBlocking> cands;
  cands.push_back(default_native_blocking(m, probe_n, k, bits));
  for (const i64 rb : {2LL, 8LL, 32LL})
    for (const i64 cb : {64LL, 256LL, 1024LL})
      cands.push_back(NativeBlocking{rb, cb});
  for (NativeBlocking& b : cands) b = clamp_blocking(b, m, probe_n);
  std::sort(cands.begin(), cands.end(),
            [](const NativeBlocking& a, const NativeBlocking& b) {
              return std::tie(a.rb, a.cb) < std::tie(b.rb, b.cb);
            });
  cands.erase(std::unique(cands.begin(), cands.end()), cands.end());

  // Synthetic operands in the adjusted range (deterministic LCG fill).
  const i32 q = qmax_for_bits(bits);
  std::vector<i8> a(static_cast<size_t>(m * k));
  std::vector<i8> b_mat(static_cast<size_t>(k * probe_n));
  u64 lcg = 0x9e3779b97f4a7c15ULL;
  const auto next = [&lcg, q]() {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<i8>(static_cast<i64>((lcg >> 33) % (2 * static_cast<u64>(q) + 1)) - q);
  };
  for (i8& v : a) v = next();
  for (i8& v : b_mat) v = next();
  StatusOr<NativePackedA> pa = native_pack_a(a.data(), m, k, bits);
  if (!pa.ok()) return default_native_blocking(m, n, k, bits);

  std::vector<i8> pb(static_cast<size_t>(native_packed_b_bytes(k, probe_n, bits)));
  native_pack_b(b_mat.data(), k, probe_n, bits, pb.data());
  std::vector<i32> c(static_cast<size_t>(m * probe_n));

  NativeBlocking best = cands.front();
  double best_ns = 0;
  bool first = true;
  for (const NativeBlocking& cand : cands) {
    // Best-of-2 after one warmup rep: the warmup pulls operands into cache
    // so candidates are compared on the same footing.
    native_gemm_packed_b(*pa, pb.data(), c.data(), probe_n, cand);
    double cand_ns = 0;
    for (int rep = 0; rep < 2; ++rep) {
      const NativeGemmResult r =
          native_gemm_packed_b(*pa, pb.data(), c.data(), probe_n, cand);
      if (rep == 0 || r.ns < cand_ns) cand_ns = r.ns;
    }
    if (first || cand_ns < best_ns) {
      best = cand;
      best_ns = cand_ns;
      first = false;
    }
  }

  std::lock_guard<std::mutex> lock(st.mu);
  ++st.stats.searches;
  st.memo[key] = best;
  return best;
}

NativeSearchStats native_search_stats() {
  SearchState& st = search_state();
  std::lock_guard<std::mutex> lock(st.mu);
  return st.stats;
}

}  // namespace lbc::hal
