#include "armkern/conv_arm.h"

#include <algorithm>
#include <memory>
#include <sstream>

#include "armsim/verifier.h"
#include "common/align.h"
#include "common/fault_injection.h"
#include "common/workspace.h"

#include "armkern/direct_conv.h"
#include "armkern/tile_search.h"
#include "armsim/neon.h"
#include "refconv/conv_ref.h"
#include "refconv/im2col.h"

namespace lbc::armkern {

using namespace armsim;

namespace {

// im2col is a bulk copy on NEON, with per-row index math.
void tally_im2col(Ctx& ctx, const ConvShape& s, const Tensor<i8>& input,
                  const i8* bmat, i64 bmat_elems) {
  // Strided gather: the 3x3/strided cases copy short row segments, so the
  // effective move width is ~8 bytes per load/store pair.
  const u64 groups = static_cast<u64>(ceil_div(s.im2col_elems(), 8));
  ctx.tally(Op::kLd1, groups);
  ctx.tally(Op::kSt1, groups);
  ctx.tally(Op::kScalar, static_cast<u64>(s.gemm_k() * s.batch * s.out_h()));
  ctx.tally(Op::kLoop, groups / 4 + 1);
  // Cache traffic: each kernel tap streams the whole input once, and the
  // im2col matrix is written once.
  for (i64 tap = 0; tap < s.kernel * s.kernel; ++tap)
    ctx.mem_range(input.data(), static_cast<u64>(input.elems()));
  ctx.mem_range(bmat, static_cast<u64>(bmat_elems));
}

// The reference rung is a plain scalar loop nest: per MAC, two scalar
// loads folded into address math plus the multiply-add, and loop control
// per inner iteration. Roughly an order of magnitude slower than the
// packed NEON kernels — the price of degrading instead of crashing.
void tally_reference(Ctx& ctx, const ConvShape& s) {
  const u64 macs = static_cast<u64>(s.macs());
  ctx.tally(Op::kScalar, 3 * macs);
  ctx.tally(Op::kLoop, macs);
}

/// Fixed cost of forking/joining the row-panel worker pool (Pi 3B has 4
/// A53 cores; the paper evaluates single-threaded, threads > 1 is our
/// extension — see bench/ext_multicore_arm).
constexpr double kThreadSyncCycles = 20000.0;

// Least input value a plan declares: 0 for a non-negative input, else
// -qmax. Checked execution registers the input region with it.
i32 input_floor(const ArmConvOptions& o) {
  return o.input_range == InputRange::kNonNegative ? 0
                                                   : -qmax_for_bits(o.bits);
}

std::string shape4_str(const Shape4& sh) {
  std::ostringstream os;
  os << sh.n << 'x' << sh.c << 'x' << sh.h << 'x' << sh.w;
  return os.str();
}

}  // namespace

const char* algo_name(ConvAlgo a) {
  switch (a) {
    case ConvAlgo::kAuto: return "auto";
    case ConvAlgo::kGemm: return "gemm";
    case ConvAlgo::kWinograd: return "winograd";
    case ConvAlgo::kBitserial: return "bitserial";
    case ConvAlgo::kDirect: return "direct";
    case ConvAlgo::kReference: return "reference";
  }
  return "unknown";
}

bool winograd_eligible_for(const ConvShape& s, int bits) {
  return s.winograd_eligible() && bits >= 4 && bits <= 6;
}

bool bitserial_eligible_for(int bits) { return bits <= 2; }

bool sdot_eligible_for(int bits) { return bits >= 4; }

bool tbl_eligible_for(int bits) { return bits <= 3; }

BlockedLayout ArmConvPlan::executed_layout(i64 batch) const {
  const ConvShape sb = shape.with_batch(batch);
  if (kernel == ArmKernel::kTblGemm)
    return tbl_blocked_layout(sb.gemm_m(), sb.gemm_n(), sb.gemm_k(), blocking,
                              tbl_a.mode, tbl_a.orient, tbl_a.source);
  return blocked_layout(sb.gemm_m(), sb.gemm_n(), sb.gemm_k(), blocking,
                        kernel == ArmKernel::kSdotExt);
}

i64 ArmConvPlan::workspace_bytes(i64 batch) const {
  const ConvShape sb = shape.with_batch(batch);
  if (algo == ConvAlgo::kReference || algo == ConvAlgo::kDirect) return 0;
  if (algo == ConvAlgo::kWinograd) {
    const i64 tiles =
        sb.batch * ceil_div(sb.out_h(), 2) * ceil_div(sb.out_w(), 2);
    i64 total = 0;
    total += 16 * workspace_rounded(sb.in_c * tiles);  // V_e, i8
    total += 16 * workspace_rounded(sb.out_c * tiles *
                                    static_cast<i64>(sizeof(i32)));  // M_e
    // Each of the 16 GEMMs packs its B (= V_e) into the arena.
    total += 16 * workspace_rounded(packed_b_bytes(sb.in_c, tiles));
    return total;
  }
  // GEMM-family path: im2col + concat C buffer (batch > 1) + B-side pack.
  const i64 m = sb.gemm_m(), n = sb.gemm_n(), k = sb.gemm_k();
  if (blocking.enabled() && algo == ConvAlgo::kGemm &&
      kernel != ArmKernel::kTraditional) {
    // Fused blocked path: no materialized im2col and no full packed-B
    // copy — only one live (Kc x Nc) block buffer per modeled worker,
    // plus the batch > 1 C staging.
    const BlockedLayout lay = executed_layout(sb.batch);
    const int workers =
        blocked_threads(lay, requested.threads, requested.verify);
    i64 total = workers * workspace_rounded(lay.block_bytes());
    if (sb.batch > 1)
      total += workspace_rounded(m * n * static_cast<i64>(sizeof(i32)));
    return total;
  }
  i64 total = workspace_rounded(k * n);  // im2col matrix
  if (sb.batch > 1)
    total += workspace_rounded(m * n * static_cast<i64>(sizeof(i32)));
  if (algo == ConvAlgo::kBitserial)
    total += workspace_rounded(n * bitplanes.bits * bitplanes.chunk_bytes);
  else if (kernel == ArmKernel::kSdotExt)
    total += workspace_rounded(packed_sdot_b_bytes(k, n));
  else if (kernel == ArmKernel::kOursGemm || kernel == ArmKernel::kNcnn)
    total += workspace_rounded(packed_b_bytes(k, n));
  // kTraditional keeps its column-major B copy on its own heap block.
  return total;
}

i64 ArmConvPlan::fused_band_elems() const {
  if (!blocking.enabled() || algo != ConvAlgo::kGemm ||
      kernel == ArmKernel::kTraditional)
    return 0;
  const BlockedLayout lay = executed_layout(shape.batch);
  return blocked_threads(lay, requested.threads, requested.verify) *
         lay.fused_band_elems();
}

ConvRung resolve_conv_rung(const ConvShape& s, const ArmConvOptions& opt) {
  ConvRung r;
  ConvAlgo algo = opt.algo;
  ArmKernel kernel = opt.kernel;
  if (algo == ConvAlgo::kAuto)
    algo = winograd_eligible_for(s, opt.bits) ? ConvAlgo::kWinograd
                                              : ConvAlgo::kGemm;

  // Dispatch fallback chain, rung 1: an ineligible specialized algo
  // degrades to the low-bit GEMM instead of asserting. Resolved once at
  // plan time; every execute inherits the record.
  if (algo == ConvAlgo::kWinograd && !winograd_eligible_for(s, opt.bits)) {
    std::ostringstream why;
    if (!s.winograd_eligible())
      why << "winograd needs 3x3/stride-1, got k" << s.kernel << " s"
          << s.stride;
    else
      why << "winograd runs at 4-6 bit, got " << opt.bits;
    r.fallback.record("winograd", "gemm", why.str());
    algo = ConvAlgo::kGemm;
  }
  if (algo == ConvAlgo::kBitserial && !bitserial_eligible_for(opt.bits)) {
    r.fallback.record("bitserial", "gemm",
                      "bit-serial popcount kernel supports <= 2 bit, got " +
                          std::to_string(opt.bits));
    algo = ConvAlgo::kGemm;
  }
  if (algo == ConvAlgo::kGemm && kernel == ArmKernel::kSdotExt &&
      !sdot_eligible_for(opt.bits)) {
    r.fallback.record("gemm[sdot]", "gemm[ours]",
                      "SDOT packing pays off only at >= 4 bit, got " +
                          std::to_string(opt.bits));
    kernel = ArmKernel::kOursGemm;
  }
  if (algo == ConvAlgo::kGemm && kernel == ArmKernel::kTblGemm &&
      !tbl_eligible_for(opt.bits)) {
    r.fallback.record(
        "gemm[tbl]", "gemm[ours]",
        "TBL product tables need 16 indices, so <= 3 bit, got " +
            std::to_string(opt.bits));
    kernel = ArmKernel::kOursGemm;
  }
  const bool blocking_on =
      opt.blocking == BlockingPolicy::kAuto ||
      (opt.blocking == BlockingPolicy::kExplicit &&
       opt.explicit_blocking.enabled());
  if (algo == ConvAlgo::kGemm && kernel == ArmKernel::kTblGemm &&
      !blocking_on) {
    r.fallback.record("gemm[tbl]", "gemm[ours]",
                      "TBL scheme requires the blocked driver "
                      "(its B blocks are table/index panels, not "
                      "a materialized im2col matrix)");
    kernel = ArmKernel::kOursGemm;
  }
  r.algo = algo;
  r.kernel = kernel;
  r.blocked = algo == ConvAlgo::kGemm && kernel != ArmKernel::kTraditional &&
              blocking_on;
  return r;
}

StatusOr<ArmConvPlan> plan_conv(const ConvShape& s, const Tensor<i8>& weight,
                                const ArmConvOptions& opt,
                                BlockedSchedule schedule) {
  // Boundary validation: survives release builds, rejects instead of UB.
  LBC_VALIDATE(s.valid(), kInvalidArgument,
               "invalid conv shape: " << describe(s));
  LBC_VALIDATE(opt.bits >= 2 && opt.bits <= 8, kInvalidArgument,
               "bits must be in [2, 8], got " << opt.bits);
  LBC_VALIDATE(opt.threads >= 1 && opt.threads <= 64, kInvalidArgument,
               "threads must be in [1, 64], got " << opt.threads);
  const Shape4 want_w{s.out_c, s.in_c, s.kernel, s.kernel};
  LBC_VALIDATE(weight.shape() == want_w, kInvalidArgument,
               "weight tensor is " << shape4_str(weight.shape())
                                   << " but the shape needs "
                                   << shape4_str(want_w));

  ArmConvPlan plan;
  plan.shape = s;
  plan.requested = opt;
  plan.weight = weight;
  const ConvRung rung = resolve_conv_rung(s, opt);
  plan.algo = rung.algo;
  plan.kernel = rung.kernel;
  plan.planned_fallback = rung.fallback;
  const ConvAlgo algo = rung.algo;
  const ArmKernel kernel = rung.kernel;
  const i64 m = s.gemm_m(), n = s.gemm_n(), k = s.gemm_k();

  // TBL fixes its orientation and mode before the blocking: every recorded
  // Kc must already be a multiple of the mode's group, or the driver would
  // run a different blocking than the plan records.
  const bool tbl = algo == ConvAlgo::kGemm && kernel == ArmKernel::kTblGemm;
  TblOrientation tbl_orient = TblOrientation::kActTables;
  TblSource tbl_source = TblSource::kStored;
  int tbl_grp = 0;
  if (tbl) {
    // One pass: TBL indexes or tabulates weights only inside the adjusted
    // range, and pairs 3-bit weights when they are all ternary.
    i32 wmax = 0;
    for (const i8 w : weight.span())
      wmax = std::max<i32>(wmax, w < 0 ? -static_cast<i32>(w) : w);
    LBC_VALIDATE(wmax <= qmax_for_bits(opt.bits), kInvalidArgument,
                 "TBL weights reach |w| = " << wmax << ", outside the adjusted "
                                            << opt.bits << "-bit range");
    const bool ternary = wmax <= 1;
    tbl_orient =
        choose_tbl_orientation(m, n, k, opt.bits, ternary, opt.input_range);
    tbl_grp = tbl_group(
        tbl_mode_for(tbl_orient, opt.bits, ternary, opt.input_range));
  }
  // Weight tables also price their table source for the schedule the plan
  // runs (act tables pack their index side in full): a searched blocking
  // is searched for the source choose_tbl_source picks, an explicit one
  // runs the source that scores less at it.
  const bool tbl_priced_source =
      tbl && tbl_orient == TblOrientation::kWeightTables;

  // Resolve the blocked-GEMM {Mc, Kc, Nc} once per plan. Only the
  // packed-panel GEMM rungs block; bitserial, winograd, direct, reference
  // and the traditional GEMM keep their own schedules.
  if (algo == ConvAlgo::kGemm && kernel != ArmKernel::kTraditional) {
    const bool sdot = kernel == ArmKernel::kSdotExt;
    switch (opt.blocking) {
      case BlockingPolicy::kOff:
        break;
      case BlockingPolicy::kExplicit:
        plan.blocking =
            clamp_blocking(opt.explicit_blocking, m, n, k, sdot, tbl_grp);
        if (tbl_priced_source)
          tbl_source = tbl_source_at(s, opt.bits, plan.blocking, schedule,
                                     opt.input_range);
        break;
      case BlockingPolicy::kAuto:
        if (tbl_priced_source)
          tbl_source =
              choose_tbl_source(s, opt.bits, schedule, opt.input_range);
        plan.blocking = search_blocking(s, opt.bits, kernel, schedule,
                                        opt.input_range, tbl_source);
        break;
    }
    // Multicore extension: the jc column bands are the threading
    // dimension, so refine Nc until every requested worker gets at least
    // one band (the search optimizes the single-core schedule; the
    // paper's ARM evaluation is single-threaded).
    if (plan.blocking.enabled() && opt.threads > 1) {
      const i64 n_pad = round_up(n, kNr);
      const i64 per = round_up(ceil_div(n_pad, static_cast<i64>(opt.threads)),
                               kNr);
      if (plan.blocking.nc > per)
        plan.blocking = clamp_blocking(
            GemmBlocking{plan.blocking.mc, plan.blocking.kc, per}, m, n, k,
            sdot, tbl_grp);
    }
  }

  LBC_VALIDATE(
      !FaultInjector::instance().should_fire(FaultSite::kPlanCompileFail),
      kResourceExhausted,
      "conv plan compilation failed: weight prepack resources exhausted "
      "(injected fault)");

  // Weight prepack in the executing kernel's layout. pctx records what the
  // pack would cost per call — the cycles a compiled plan amortizes away.
  // It is never merged into execute-time counts (both APIs exclude weight
  // packing: weights are packed offline in deployment).
  Ctx pctx;
  if (algo == ConvAlgo::kWinograd) {
    plan.winograd = winograd_plan_weights(weight, s.out_c, s.in_c, &pctx);
    plan.packed_weight_bytes = plan.winograd.packed_bytes();
  } else if (algo == ConvAlgo::kBitserial) {
    plan.bitplanes = bitserial_plan_weights(weight.data(), m, k, opt.bits,
                                            &pctx);
    plan.packed_weight_bytes = plan.bitplanes.packed_bytes();
  } else if (algo == ConvAlgo::kGemm) {
    if (kernel == ArmKernel::kSdotExt) {
      plan.sdot_a = pack_sdot_a(weight.data(), m, k, &pctx);
      plan.packed_weight_bytes = static_cast<i64>(plan.sdot_a.data.size());
    } else if (kernel == ArmKernel::kTblGemm) {
      plan.tbl_a = pack_tbl_a(weight.data(), m, k, opt.bits, tbl_orient,
                              opt.input_range, tbl_source, &pctx);
      plan.packed_weight_bytes = plan.tbl_a.bytes();
    } else if (kernel == ArmKernel::kOursGemm ||
               kernel == ArmKernel::kNcnn) {
      plan.gemm_a = pack_a(&pctx, weight.data(), m, k);
      plan.packed_weight_bytes = static_cast<i64>(plan.gemm_a.data.size());
    }
    // kTraditional consumes the raw weight matrix — nothing to prepack.
  }
  // kDirect / kReference consume the raw weight tensor.
  plan.pack_cycles =
      CostModel::cortex_a53().cycles_for(pctx.counts, /*interleaved=*/true);
  return plan;
}

StatusOr<ArmConvResult> execute_conv(const ArmConvPlan& plan,
                                     const Tensor<i8>& input, Workspace& ws) {
  const ConvShape sb = plan.shape.with_batch(input.shape().n);
  const Shape4 want_in{sb.batch, sb.in_c, sb.in_h, sb.in_w};
  LBC_VALIDATE(input.shape() == want_in, kInvalidArgument,
               "input tensor is " << shape4_str(input.shape())
                                  << " but the shape needs "
                                  << shape4_str(want_in));
  LBC_VALIDATE(sb.valid(), kInvalidArgument,
               "invalid conv shape: " << describe(sb));
  ws.reset();

  ArmConvResult res;
  res.space.baseline_elems = sb.activation_elems() + sb.weight_elems();
  res.fallback = plan.planned_fallback;

  const ConvAlgo algo = plan.algo;
  const ArmKernel kernel = plan.kernel;
  const int bits = plan.requested.bits;
  const Tensor<i8>& weight = plan.weight;

  const CostModel cm = CostModel::cortex_a53();
  bool interleaved = true;
  Ctx serial_ctx;                  // im2col + packing pre-passes
  double parallel_cycles = 0;      // slowest worker of the kernel region
  bool threaded = false;
  FaultInjector& fi = FaultInjector::instance();

  // Checked execution: one verifier spans the whole execute — pre-passes,
  // packs, and kernels — so every ctx.mem access is bounds-checked against
  // the regions registered here and below.
  std::unique_ptr<Verifier> verifier;
  if (plan.requested.verify) {
    verifier = std::make_unique<Verifier>();
    serial_ctx.verifier = verifier.get();
    const i32 q = qmax_for_bits(bits);
    verifier->add_region(input.data(), input.elems(), "conv input",
                         input_floor(plan.requested), q,
                         /*overread_slack=*/16);
    verifier->add_region(weight.data(), weight.elems(), "conv weight", -q, q);
  }

  // Rung 2 (the ladder's floor): scalar reference conv. Used when
  // explicitly requested, and as the recovery path when a fault fires in
  // the optimized pipeline. Cost of any wasted optimized attempt stays
  // charged — degradation is not free.
  const auto run_reference = [&] {
    res.out = ref::conv2d_s32(sb, input, weight);
    Ctx ref_ctx;
    ref_ctx.model_cache = false;  // scalar loop, charged per-op below
    tally_reference(ref_ctx, sb);
    serial_ctx.counts.merge(ref_ctx.counts);
    res.executed_algo = "reference";
  };
  const auto degrade_to_reference = [&](const char* from, std::string why) {
    res.fallback.record(from, "reference", std::move(why));
    run_reference();
  };
  // Re-scatter C[oc][b*oh*ow] into NCHW for batch > 1 (bookkeeping copy;
  // its cost is charged as a streaming pass). Shared by the materialized
  // and fused GEMM paths.
  const auto scatter_batched = [&](const i32* cp, i64 m, i64 n) {
    const i64 ohw = sb.out_h() * sb.out_w();
    for (i64 oc = 0; oc < m; ++oc)
      for (i64 b = 0; b < sb.batch; ++b)
        for (i64 i = 0; i < ohw; ++i)
          res.out.data()[((b * m + oc) * ohw) + i] = cp[oc * n + b * ohw + i];
    serial_ctx.tally(Op::kLd1, static_cast<u64>(m * n / 4 + 1));
    serial_ctx.tally(Op::kSt1, static_cast<u64>(m * n / 4 + 1));
    serial_ctx.mem_range(res.out.data(), static_cast<u64>(m * n) * 4);
  };

  res.executed_algo = algo_name(algo);
  bool degraded = false;

  if (algo == ConvAlgo::kReference) {
    run_reference();
    interleaved = false;
  } else if (algo == ConvAlgo::kDirect) {
    const DirectConvStats ds =
        direct_conv_s32(sb, input, weight, res.out, verifier.get());
    res.counts.merge(ds.counts);
    parallel_cycles = cm.cycles_for(ds.counts, interleaved);
    // No im2col and no packing: zero space overhead (the algorithm's one
    // advantage; Sec. 2.2).
  } else if (algo == ConvAlgo::kWinograd) {
    const WinogradStats wstats = winograd_conv_prepacked(
        sb, input, plan.winograd, bits, res.out, &ws, verifier.get());
    res.counts.merge(wstats.counts);
    parallel_cycles = cm.cycles_for(wstats.counts, interleaved);
    res.space.im2col_elems = wstats.transform_buf_elems;  // transform scratch
  } else if (fi.should_fire(FaultSite::kAllocFail)) {
    // Injected allocation failure of the GEMM scratch (the im2col matrix,
    // or the fused path's pack-block buffers): the GEMM path cannot run,
    // but the reference rung needs no scratch buffer at all.
    degrade_to_reference(
        algo_name(algo),
        plan.blocking.enabled()
            ? "pack-block scratch allocation failed (injected fault)"
            : "im2col buffer allocation failed (injected fault)");
    degraded = true;
  } else if (plan.blocking.enabled()) {
    // Cache-blocked GEMM with fused im2col packing: the im2col matrix is
    // never materialized — each (Kc x Nc) B block is gathered straight
    // from the input tensor inside the blocked loop nest, so the live
    // activation scratch is one block buffer per modeled worker.
    const i64 m = sb.gemm_m(), n = sb.gemm_n();
    res.out = Tensor<i32>(Shape4{sb.batch, sb.out_c, sb.out_h(), sb.out_w()});
    i32* cptr = res.out.data();
    if (sb.batch > 1) cptr = ws.alloc_n<i32>(m * n);
    if (verifier != nullptr) {
      verifier->add_region(res.out.data(),
                           res.out.elems() * static_cast<i64>(sizeof(i32)),
                           "conv output");
      if (sb.batch > 1)
        verifier->add_region(cptr, m * n * static_cast<i64>(sizeof(i32)),
                             "conv C staging");
    }
    const BlockedLayout lay = plan.executed_layout(sb.batch);
    // Fig. 13 / 15 accounting: what the fused path holds instead of the
    // k x n im2col matrix.
    res.space.im2col_elems =
        blocked_threads(lay, plan.requested.threads, plan.requested.verify) *
        lay.block_elems();
    if (fi.should_fire(FaultSite::kPackMisalign)) {
      degrade_to_reference("gemm",
                           "packed panel alignment check failed "
                           "(injected fault)");
      degraded = true;
    } else {
      GemmOptions gopt;
      gopt.bits = bits;
      gopt.kernel = kernel;
      gopt.threads = plan.requested.threads;
      gopt.workspace = &ws;
      gopt.verifier = verifier.get();  // forces threads = 1 when set
      gopt.blocking = plan.blocking;
      GemmStats gs;
      if (kernel == ArmKernel::kSdotExt)
        gs = gemm_s8s32_sdot_conv_fused(plan.sdot_a.view(), sb, input.data(),
                                        cptr, gopt);
      else if (kernel == ArmKernel::kTblGemm)
        gs = gemm_s8s32_tbl_conv_fused(plan.tbl_a.view(), sb, input.data(),
                                       cptr, gopt);
      else
        gs = gemm_s8s32_conv_fused(plan.gemm_a.view(), sb, input.data(), cptr,
                                   gopt);
      LBC_RETURN_IF_ERROR(gs.status.with_context("conv execute"));
      res.counts.merge(gs.counts);
      res.space.pack_extra_elems = gs.pack_extra_elems;
      interleaved = gs.interleaved;
      for (const auto& tc : gs.thread_counts)
        parallel_cycles =
            std::max(parallel_cycles, cm.cycles_for(tc, interleaved));
      serial_ctx.counts.merge(gs.serial_counts);
      threaded = gs.thread_counts.size() > 1;
    }
    if (!degraded && sb.batch > 1) scatter_batched(cptr, m, n);
  } else {
    // Explicit GEMM path: materialize im2col (the paper materializes it for
    // every layer, including 1x1 — Fig. 13's conv18 ratio pins this down).
    const i64 m = sb.gemm_m(), n = sb.gemm_n(), k = sb.gemm_k();
    i8* bmat = ws.alloc_n<i8>(k * n);
    if (verifier != nullptr) {
      const i32 q = qmax_for_bits(bits);
      verifier->add_region(bmat, k * n, "im2col matrix", -q, q);
    }
    ref::im2col_into(sb, input, bmat);
    tally_im2col(serial_ctx, sb, input, bmat, k * n);
    res.space.im2col_elems = sb.im2col_elems();

    res.out = Tensor<i32>(Shape4{sb.batch, sb.out_c, sb.out_h(), sb.out_w()});
    // weight tensor [oc][ic][kh][kw] is already the row-major M x K matrix
    // with K ordered (ic, kh, kw), matching im2col's row order. The GEMM
    // writes C[M x N] = C[out_c][b*oh*ow]; for batch 1 that is exactly the
    // NCHW output layout, and for batch > 1 the rows are re-scattered into
    // NCHW below. (The paper's ARM evaluation uses batch 1, Sec. 5.2.)

    i32* cptr = res.out.data();
    if (sb.batch > 1) cptr = ws.alloc_n<i32>(m * n);
    if (verifier != nullptr) {
      verifier->add_region(res.out.data(),
                           res.out.elems() * static_cast<i64>(sizeof(i32)),
                           "conv output");
      if (sb.batch > 1)
        verifier->add_region(cptr, m * n * static_cast<i64>(sizeof(i32)),
                             "conv C staging");
    }
    if (fi.should_fire(FaultSite::kPackMisalign)) {
      // Injected packing misalignment: the panel layout the micro kernels
      // assume does not hold, so running them would read out of lane.
      degrade_to_reference("gemm",
                           "packed panel alignment check failed "
                           "(injected fault)");
      degraded = true;
    } else if (algo == ConvAlgo::kBitserial) {
      const BitserialStats bs = bitserial_gemm_prepacked(
          plan.bitplanes, bmat, cptr, n, &ws, verifier.get());
      res.counts.merge(bs.counts);
      parallel_cycles = cm.cycles_for(bs.counts, interleaved);
    } else {
      GemmOptions gopt;
      gopt.bits = bits;
      gopt.kernel = kernel;
      gopt.threads = plan.requested.threads;
      gopt.workspace = &ws;
      gopt.verifier = verifier.get();  // forces threads = 1 when set
      GemmStats gs;
      if (kernel == ArmKernel::kTraditional)
        gs = gemm_s8s32(weight.data(), bmat, cptr, m, n, k, gopt);
      else if (kernel == ArmKernel::kSdotExt)
        gs = gemm_s8s32_sdot_prepacked(plan.sdot_a.view(), bmat, cptr, m, n,
                                       k, gopt);
      else
        gs = gemm_s8s32_prepacked(plan.gemm_a.view(), bmat, cptr, m, n, k,
                                  gopt);
      res.counts.merge(gs.counts);
      res.space.pack_extra_elems = gs.pack_extra_elems;
      interleaved = gs.interleaved;
      // Multicore timing: the panel loop is split across workers; total
      // time follows the slowest one. The packing pre-pass stays serial.
      for (const auto& tc : gs.thread_counts)
        parallel_cycles =
            std::max(parallel_cycles, cm.cycles_for(tc, interleaved));
      serial_ctx.counts.merge(gs.serial_counts);
      threaded = gs.thread_counts.size() > 1;
    }
    if (!degraded && sb.batch > 1) scatter_batched(cptr, m, n);
  }

  // Post-run overflow self-check: a kernel that reports accumulator
  // overflow (injected here; a real deployment checks saturation flags)
  // has produced untrusted output — recompute on the reference rung.
  if (res.executed_algo != "reference" &&
      fi.should_fire(FaultSite::kKernelOverflow)) {
    degrade_to_reference(res.executed_algo.c_str(),
                         "kernel accumulator overflow self-check tripped "
                         "(injected fault); recomputed");
  }

  res.counts.merge(serial_ctx.counts);
  res.cycles = parallel_cycles + cm.cycles_for(serial_ctx.counts, interleaved) +
               (threaded ? kThreadSyncCycles : 0.0);
  res.seconds = res.cycles / cm.freq_hz;

  if (verifier != nullptr) {
    Status vstatus = verifier->to_status();
    if (!vstatus.ok()) {
      return vstatus.with_context(std::string("checked execution of ") +
                                  res.executed_algo + " conv, bits=" +
                                  std::to_string(bits));
    }
  }
  return res;
}

StatusOr<FusedConvResult> execute_conv_fused(const ArmConvPlan& plan,
                                             const i8* input, i32* c,
                                             i64 c_elems,
                                             const TileEpilogue& epi,
                                             Workspace& ws) {
  LBC_VALIDATE(input != nullptr && epi.fn != nullptr, kInvalidArgument,
               "execute_conv_fused: null operand");
  LBC_VALIDATE(plan.shape.batch == 1, kFailedPrecondition,
               "graph-fused execute is batch-1 (planned batch "
                   << plan.shape.batch << ")");
  LBC_VALIDATE(plan.algo == ConvAlgo::kGemm && plan.blocking.enabled() &&
                   plan.kernel != ArmKernel::kTraditional,
               kFailedPrecondition,
               "plan's resolved rung (" << algo_name(plan.algo) << "/"
                   << (plan.blocking.enabled() ? "blocked" : "unblocked")
                   << ") is not the blocked fused-pack GEMM");
  const i64 band = plan.fused_band_elems();
  LBC_VALIDATE(c_elems >= band && (band == 0 || c != nullptr),
               kInvalidArgument,
               "execute_conv_fused: C band holds "
                   << (c == nullptr ? 0 : c_elems)
                   << " i32 elements, the plan needs " << band);

  const ConvShape& sb = plan.shape;
  const int bits = plan.requested.bits;
  const CostModel cm = CostModel::cortex_a53();
  FusedConvResult res;
  res.space.baseline_elems = sb.activation_elems() + sb.weight_elems();

  // Checked execution: the driver registers the packed operands, the C
  // band, the epilogue output and the micro tile with this verifier.
  std::unique_ptr<Verifier> verifier;
  if (plan.requested.verify) {
    verifier = std::make_unique<Verifier>();
    const i32 q = qmax_for_bits(bits);
    verifier->add_region(input, sb.activation_elems(), "conv input",
                         input_floor(plan.requested), q,
                         /*overread_slack=*/16);
  }

  GemmOptions gopt;
  gopt.bits = bits;
  gopt.kernel = plan.kernel;
  gopt.threads = plan.requested.threads;
  gopt.workspace = &ws;
  gopt.verifier = verifier.get();  // forces threads = 1 when set
  gopt.blocking = plan.blocking;
  gopt.epilogue = &epi;
  GemmStats gs;
  if (plan.kernel == ArmKernel::kSdotExt)
    gs = gemm_s8s32_sdot_conv_fused(plan.sdot_a.view(), sb, input, c, gopt);
  else if (plan.kernel == ArmKernel::kTblGemm)
    gs = gemm_s8s32_tbl_conv_fused(plan.tbl_a.view(), sb, input, c, gopt);
  else
    gs = gemm_s8s32_conv_fused(plan.gemm_a.view(), sb, input, c, gopt);
  LBC_RETURN_IF_ERROR(gs.status.with_context("fused conv execute"));

  const BlockedLayout lay = plan.executed_layout(sb.batch);
  res.space.im2col_elems =
      blocked_threads(lay, plan.requested.threads, plan.requested.verify) *
      lay.block_elems();
  res.space.pack_extra_elems = gs.pack_extra_elems;
  res.counts.merge(gs.counts);
  double parallel_cycles = 0;
  for (const auto& tc : gs.thread_counts)
    parallel_cycles =
        std::max(parallel_cycles, cm.cycles_for(tc, gs.interleaved));
  res.cycles = parallel_cycles +
               cm.cycles_for(gs.serial_counts, gs.interleaved) +
               (gs.thread_counts.size() > 1 ? kThreadSyncCycles : 0.0);
  res.seconds = res.cycles / cm.freq_hz;

  if (verifier != nullptr) {
    Status vstatus = verifier->to_status();
    if (!vstatus.ok())
      return vstatus.with_context(
          std::string("checked execution of fused ") +
          algo_name(plan.algo) + " conv, bits=" + std::to_string(bits));
  }
  return res;
}

StatusOr<ArmConvResult> conv2d_s32(const ConvShape& s, const Tensor<i8>& input,
                                   const Tensor<i8>& weight,
                                   const ArmConvOptions& opt) {
  auto plan_or = plan_conv(s, weight, opt);
  if (!plan_or.ok()) {
    if (plan_or.status().code() != StatusCode::kResourceExhausted)
      return plan_or.status();
    // Plan compilation failed: the ladder's floor needs no compiled state.
    const Shape4 want_in{s.batch, s.in_c, s.in_h, s.in_w};
    LBC_VALIDATE(input.shape() == want_in, kInvalidArgument,
                 "input tensor is " << shape4_str(input.shape())
                                    << " but the shape needs "
                                    << shape4_str(want_in));
    ArmConvResult res;
    res.space.baseline_elems = s.activation_elems() + s.weight_elems();
    res.fallback.record(algo_name(opt.algo), "reference",
                        plan_or.status().message());
    res.out = ref::conv2d_s32(s, input, weight);
    Ctx ref_ctx;
    ref_ctx.model_cache = false;
    tally_reference(ref_ctx, s);
    res.counts.merge(ref_ctx.counts);
    const CostModel cm = CostModel::cortex_a53();
    res.cycles = cm.cycles_for(ref_ctx.counts, /*interleaved=*/true);
    res.seconds = res.cycles / cm.freq_hz;
    res.executed_algo = "reference";
    return res;
  }
  Workspace ws;
  return execute_conv(*plan_or, input, ws);
}

}  // namespace lbc::armkern
