#include "armkern/gemm_lowbit.h"

#include <vector>

#include "armkern/gemm_blocked.h"
#include "armkern/pack.h"
#include "armsim/verifier.h"
#include "common/status.h"
#include "serve/thread_pool.h"

namespace lbc::armkern {

using namespace armsim;

namespace {

// Process the m-panel range [p0, p1) against every n-panel, tallying into
// `ctx`. `a` and `b` hold the packed panels at `depth` values each (k, or
// round_up(k, 4) for the SDOT layout). Each 16x4 micro tile lands in a
// column-major scratch tile and is then scattered into row-major C with
// edge clipping (the micro kernel's ST1s already account for the store
// cost; the scatter is an emulation artifact of keeping C row-major for the
// tests).
void run_panels(Ctx& ctx, const MicroKernel& mk, const i8* a, const i8* b,
                i64 depth, i32* c, i64 m, i64 n, i64 k, i64 p0, i64 p1) {
  alignas(64) i32 tile[kMr * kNr] = {};
  if (ctx.verifier != nullptr)
    ctx.verifier->add_region(tile, sizeof(tile), "gemm C tile");
  const i64 q_panels = round_up(n, kNr) / kNr;
  for (i64 p = p0; p < p1; ++p) {
    for (i64 q = 0; q < q_panels; ++q) {
      run_micro(ctx, mk, k,
                MicroOperands{a + p * depth * kMr, b + q * depth * kNr}, tile);
      const i64 rows = std::min<i64>(kMr, m - p * kMr);
      const i64 cols = std::min<i64>(kNr, n - q * kNr);
      for (i64 ii = 0; ii < rows; ++ii) {
        // Cache traffic of the real kernel's C store (the scratch tile is
        // an emulation artifact; its issue cost is the micro kernel's ST1).
        ctx.mem(&c[(p * kMr + ii) * n + q * kNr], static_cast<u64>(cols) * 4);
        for (i64 jj = 0; jj < cols; ++jj)
          c[(p * kMr + ii) * n + q * kNr + jj] = tile[jj * kMr + ii];
      }
    }
  }
}

// The unblocked sweep: pack all of B (into the arena when one is provided),
// run the panel loop serially or across the pool, assemble stats.
GemmStats run_unblocked(const KernelAPanels& a, const i8* b, i32* c, i64 m,
                        i64 n, i64 k, const GemmOptions& opt) {
  const SdotAPanels* sa = std::get_if<SdotAPanels>(&a);
  const APanels* pa = std::get_if<APanels>(&a);
  const bool sdot = sa != nullptr;
  const i8* a_data = sdot ? sa->data : pa->data;
  const i64 depth = sdot ? sa->k_pad : k;
  const i64 a_panels = sdot ? sa->panels() : pa->panels();
  const i64 b_bytes = sdot ? packed_sdot_b_bytes(k, n) : packed_b_bytes(k, n);

  GemmStats stats;
  Ctx pack_ctx;
  AlignedVector<i8> own_b;
  i8* bbuf = gemm_scratch(opt, own_b, b_bytes);
  if (opt.verifier != nullptr) {
    // Ranged registrations go in BEFORE the pack touches the buffers so the
    // pack's rangeless ensure_region calls are no-ops and the interval
    // analysis sees real operand bounds.
    pack_ctx.verifier = opt.verifier;
    const i32 qa = opt.a_max_abs > 0 ? opt.a_max_abs : qmax_for_bits(opt.bits);
    const i32 qb = opt.b_max_abs > 0 ? opt.b_max_abs : qmax_for_bits(opt.bits);
    opt.verifier->add_region(a_data, round_up(m, kMr) * depth,
                             sdot ? "packed SDOT A" : "packed A panels", -qa,
                             qa);
    opt.verifier->add_region(b, k * n, "gemm B", -qb, qb);
    opt.verifier->add_region(bbuf, b_bytes,
                             sdot ? "packed SDOT B" : "packed B panels", -qb,
                             qb);
    opt.verifier->add_region(c, m * n * static_cast<i64>(sizeof(i32)),
                             "gemm C");
  }
  // Fig. 13 padding: what both packs add on top of the m x k and k x n
  // operands.
  if (sdot) {
    pack_sdot_b_into(&pack_ctx, b, k, n, bbuf);
    stats.pack_extra_elems =
        (sa->m_pad * sa->k_pad + round_up(n, kNr) * depth) - m * k - k * n;
  } else {
    stats.pack_extra_elems =
        pa->extra_elems() + pack_b_into(&pack_ctx, b, k, n, bbuf).extra_elems();
  }

  const MicroKernel mk{opt.kernel, opt.bits, opt.flush_override};
  const int threads =
      opt.verifier != nullptr
          ? 1
          : std::max(1, std::min<int>(opt.threads, static_cast<int>(a_panels)));
  if (threads == 1) {
    Ctx ctx;
    ctx.verifier = opt.verifier;
    run_panels(ctx, mk, a_data, bbuf, depth, c, m, n, k, 0, a_panels);
    stats.counts = ctx.counts;
    stats.thread_counts = {ctx.counts};
  } else {
    // Row-panel parallelism: each modeled worker owns a disjoint band of C
    // and its own Ctx (the per-band counts feed the multicore Amdahl timing
    // model unchanged). Bands execute on the shared persistent pool — no
    // per-call thread spawn; grain 1 = one band per pool chunk.
    std::vector<Ctx> ctxs(static_cast<size_t>(threads));
    const i64 per = ceil_div(a_panels, threads);
    serve::ThreadPool::global().parallel_for(
        0, threads, 1, [&](i64 t0, i64 t1) {
          for (i64 t = t0; t < t1; ++t) {
            const i64 p0 = t * per;
            const i64 p1 = std::min<i64>(a_panels, p0 + per);
            if (p0 < p1)
              run_panels(ctxs[static_cast<size_t>(t)], mk, a_data, bbuf,
                         depth, c, m, n, k, p0, p1);
          }
        });
    for (const auto& cx : ctxs) {
      stats.counts.merge(cx.counts);
      stats.thread_counts.push_back(cx.counts);
    }
  }
  stats.serial_counts = pack_ctx.counts;
  stats.counts.merge(pack_ctx.counts);
  return stats;
}

// Preconditions of the unblocked entries: a bit width in range, and no
// request that only the blocked driver serves.
void check_unblocked(const GemmOptions& opt) {
  LBC_CHECK_MSG(opt.bits >= 2 && opt.bits <= 8,
                "gemm_lowbit: bits outside [2, 8]");
  LBC_CHECK_MSG(!opt.blocking.enabled() && opt.epilogue == nullptr &&
                    opt.kernel != ArmKernel::kTblGemm,
                "unblocked GEMM: TBL, a blocking and an epilogue run only "
                "through gemm_s8s32_conv_blocked");
}

}  // namespace

GemmStats gemm_s8s32(const i8* a, const i8* b, i32* c, i64 m, i64 n, i64 k,
                     const GemmOptions& opt) {
  check_unblocked(opt);

  if (opt.kernel == ArmKernel::kTraditional) {
    GemmStats stats;
    Ctx ctx;
    ctx.verifier = opt.verifier;
    gemm_traditional(ctx, opt.bits, a, b, c, m, n, k);
    stats.counts = ctx.counts;
    stats.thread_counts = {ctx.counts};
    stats.interleaved = false;  // the naive loop does not software-pipeline
    return stats;
  }

  // The A pack is offline (weights) — untallied here exactly as at plan
  // time.
  if (opt.kernel == ArmKernel::kSdotExt)
    return run_unblocked(pack_sdot_a(a, m, k).view(), b, c, m, n, k, opt);
  return run_unblocked(pack_a(nullptr, a, m, k).view(), b, c, m, n, k, opt);
}

GemmStats gemm_s8s32_prepacked(const KernelAPanels& a, const i8* b, i32* c,
                               i64 m, i64 n, i64 k, const GemmOptions& opt) {
  check_unblocked(opt);
  LBC_CHECK_MSG(packed_a_fits(a, opt.kernel, m, k),
                "gemm_s8s32_prepacked: packed A is not the kernel's layout "
                "of an m x k matrix");
  return run_unblocked(a, b, c, m, n, k, opt);
}

}  // namespace lbc::armkern
