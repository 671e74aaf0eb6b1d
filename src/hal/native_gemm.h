// Native host low-bit GEMM — the x86 implementation of the packed GEMM
// contract the emulated ARM backend defines (armkern/gemm_lowbit.h), built
// for real wall-clock speed instead of modeled Cortex-A53 cycles.
//
// Two instruction schemes, dispatched by bit width (the same split the
// paper makes between the MLA and SMLAL schemes on ARM):
//
//  * LUT scheme (2-4 bit) — DeepGEMM-style product lookup: every (weight,
//    activation) product of a b-bit pair fits a 16-entry signed-byte
//    table, so one `pshufb` yields 32 products at once. Weights prepack to
//    table-row indices; activations index the row. Products accumulate in
//    16-bit lanes and flush to 32-bit on the same overflow-safety argument
//    as the ARM schemes (flush interval floor(32767 / qmax^2), far above
//    the block sizes used).
//  * DOT scheme (5-8 bit) — maddubs-style dp accumulation: the ggml sign
//    trick (|a| as unsigned times sign(a)-adjusted b) keeps every
//    `pmaddubsw` pair sum within int16, then `pmaddwd` folds to 32-bit —
//    exact for operands in the adjusted range [-(2^(b-1)-1), 2^(b-1)-1].
//
// Both schemes have a portable scalar fallback consuming the identical
// packed layouts, selected automatically when AVX2 is absent or disabled
// (LBC_HAL_DISABLE=avx2) — results are bit-exact across AVX2 / scalar /
// the emulated ARM kernels / the reference GEMM, which the cross-backend
// sweep in tests/test_hal_backend.cpp enforces.
//
// Layouts (chosen per scheme at prepack time, consumed by both kernels):
//  * LUT:  A packs to row-major u8 table indices (value + qmax), B stays
//          row-major K x N (the kernel vectorizes across 32 columns).
//  * DOT:  A packs to row-major i8 with K zero-padded to 32, B packs to
//          column-panel (N x K_pad) patches so each dot product streams
//          two contiguous 32-byte runs.
//
// Blocking: {row_block, col_block} loop tiles over M and N (the
// gemm-config.h row/col-blocking idiom; see DESIGN.md §13). The winner per
// (GEMM view, bits) comes from search_native_blocking — candidates priced
// by *measured nanoseconds*, not modeled cycles — and persists in
// TuningCache v3 under the "x86" backend key.
#pragma once

#include "common/align.h"
#include "common/conv_shape.h"
#include "common/status.h"
#include "common/tensor.h"
#include "common/types.h"

namespace lbc::hal {

/// Instruction scheme of the native kernel family, by bit width.
enum class NativeScheme { kLut, kDot };

/// LUT for 2-4 bit (products fit a signed byte, values fit a 16-entry
/// table), DOT for 5-8 bit.
NativeScheme native_scheme_for(int bits);

/// Stable scheme id for the persistent tuning cache ("x86" rows):
/// 0 = LUT, 1 = DOT.
int native_scheme_id(int bits);

/// LUT-scheme 16-bit flush cadence: i16 lanes absorb this many products
/// before the kernel widens to 32-bit. Shared between the AVX2 kernel and
/// the symbolic prover (check/kernel_prover.h), which proves
/// kLutFlushInterval * qmax(bits)^2 <= 32767 for every LUT width.
constexpr i64 kLutFlushInterval = 256;

/// {row_block, col_block} loop tiling of the native GEMM. row_block tiles
/// the M (weight-row) loop, col_block the N (output-pixel) loop; both in
/// raw elements, clamped to the problem by the driver.
struct NativeBlocking {
  i64 rb = 8;
  i64 cb = 256;

  bool operator==(const NativeBlocking&) const = default;
};

/// Default tiling when no search ran (sized for a ~32KB L1d).
NativeBlocking default_native_blocking(i64 m, i64 n, i64 k, int bits);

/// Weights prepacked for the native kernels. Immutable after packing; safe
/// to share across threads (the serving tier executes concurrent batches
/// against one packed buffer).
struct NativePackedA {
  int bits = 8;
  NativeScheme scheme = NativeScheme::kDot;
  i64 m = 0, k = 0;
  i64 k_pad = 0;  ///< k rounded up to 32 (kDot); == k for kLut
  /// kDot: row-major i8, m rows of k_pad (zero-padded) values.
  /// kLut: row-major u8 table indices (weight value + qmax), m x k.
  AlignedVector<i8> data;

  i64 bytes() const { return static_cast<i64>(data.size()); }
  const i8* row(i64 i) const { return data.data() + i * k_pad; }
};

/// Pack an M x K row-major i8 weight matrix for the scheme of `bits`.
/// Values must lie in the adjusted range [-qmax, qmax] of `bits`
/// (kInvalidArgument otherwise — an out-of-range weight would index
/// outside the product table).
StatusOr<NativePackedA> native_pack_a(const i8* a, i64 m, i64 k, int bits);

/// Bytes of activation scratch one native GEMM over a K x N problem needs
/// (the packed-B staging buffer; cache-line rounded like Workspace).
i64 native_packed_b_bytes(i64 k, i64 n, int bits);

/// Pack a row-major K x N activation matrix into the scheme's B layout at
/// `dst` (native_packed_b_bytes big). kLut copies rows verbatim; kDot
/// transposes to column panels with K zero-padded to 32. Every destination
/// byte is written.
void native_pack_b(const i8* b, i64 k, i64 n, int bits, i8* dst);

/// Fused im2col pack: gather the conv input straight into the scheme's B
/// layout (kLut: the K x N im2col matrix; kDot: one K_pad patch per output
/// pixel), zero-filling padding taps. Byte-identical to materializing
/// im2col and calling native_pack_b.
void native_pack_b_from_conv(const ConvShape& s, const Tensor<i8>& input,
                             int bits, i8* dst);

/// What one native GEMM execution reports: real wall-clock nanoseconds of
/// the multiply (both packs excluded) and the kernel that ran.
struct NativeGemmResult {
  double ns = 0;
  const char* kernel = "";  ///< "avx2-lut" | "avx2-dot" | "scalar-lut" | "scalar-dot"
};

/// C[M x N] (i32, row-major) = A * B with B already in the scheme's packed
/// layout (native_pack_b / native_pack_b_from_conv). Bit-exact with
/// ref::gemm_s8s32 for operands in the adjusted range of pa.bits.
NativeGemmResult native_gemm_packed_b(const NativePackedA& pa, const i8* pb,
                                      i32* c, i64 n,
                                      const NativeBlocking& blocking);

/// Measured-nanosecond blocking search: run each {rb, cb} candidate of a
/// fixed grid against synthetic operands of the problem's shape and keep
/// the fastest (best-of-3 reps per candidate, same discipline as the ARM
/// tile search but priced by the wall clock). Memoized per (m, n, k,
/// scheme); deterministic candidate order, measured winners — persist them
/// through TuningCache v3 to amortize across process runs.
NativeBlocking search_native_blocking(i64 m, i64 n, i64 k, int bits);

struct NativeSearchStats {
  i64 searches = 0;   ///< cold searches (full measured sweeps)
  i64 memo_hits = 0;  ///< served from the in-process memo
};
NativeSearchStats native_search_stats();

// ---- kernel entry points (exposed for the dispatch layer and tests) ----

/// Portable scalar kernels (always available; consume the packed layouts).
void native_gemm_scalar_lut(const NativePackedA& pa, const i8* b, i32* c,
                            i64 n, const NativeBlocking& blocking);
void native_gemm_scalar_dot(const NativePackedA& pa, const i8* pb, i32* c,
                            i64 n, const NativeBlocking& blocking);

/// AVX2 kernels (x86-64 only; callers must check hal::avx2_enabled()).
/// Defined in x86/gemm_avx2.cpp, compiled with -mavx2; on other
/// architectures these are stubs that abort.
void native_gemm_avx2_lut(const NativePackedA& pa, const i8* b, i32* c,
                          i64 n, const NativeBlocking& blocking);
void native_gemm_avx2_dot(const NativePackedA& pa, const i8* pb, i32* c,
                          i64 n, const NativeBlocking& blocking);

/// The signed product table for `bits`: row (weight index) x col
/// (activation index), each padded to 16 entries so a row is exactly one
/// pshufb table. Exposed for tests.
const i8* native_product_lut(int bits);

}  // namespace lbc::hal
