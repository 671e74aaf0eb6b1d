// ARM-backend convolution driver: explicit im2col + re-designed low-bit
// GEMM (paper Sec. 3), with winograd and bit-serial alternatives, plus the
// cost-model evaluation and the Fig. 13 space accounting.
//
// The driver validates its inputs (shape, bit width, tensor dims) and
// returns a Status error instead of asserting; an ineligible algo request
// degrades along the ladder specialized -> GEMM -> reference conv, with
// the degradation recorded in ArmConvResult::fallback.
//
// Execution is split into plan and execute (the cuDNN descriptor /
// TVM build-then-run shape): plan_conv resolves the algo/kernel fallback
// ladder once and prepacks the weights in the chosen micro-kernel's
// layout; execute_conv runs any number of inputs against the immutable
// plan, drawing all activation scratch from a caller-owned Workspace.
// conv2d_s32 remains as the one-shot wrapper (plan + execute) and is
// bit-exact with the split API — including modeled cycle counts, because
// weight packing was already excluded from execute-time cost accounting
// (weights are packed offline in deployment).
#pragma once

#include "armkern/bitserial.h"
#include "armkern/gemm_lowbit.h"
#include "armkern/winograd23.h"
#include "armsim/cost_model.h"
#include "common/conv_shape.h"
#include "common/fallback.h"
#include "common/status.h"
#include "common/tensor.h"

namespace lbc {
class Workspace;
}  // namespace lbc

namespace lbc::armkern {

enum class ConvAlgo {
  kAuto,       ///< winograd when eligible and 4-6 bit, else GEMM
  kGemm,       ///< explicit im2col + re-designed GEMM
  kWinograd,   ///< F(2x2,3x3), requires 3x3/stride-1 and 4-6 bit
  kBitserial,  ///< popcount baseline, requires <= 2 bit
  kDirect,     ///< im2col-free direct convolution (Sec. 2.2 baseline)
  kReference,  ///< scalar reference conv — the fallback ladder's last rung
};

/// Stable lowercase name ("gemm", "winograd", ...) for reports.
const char* algo_name(ConvAlgo a);

/// Eligibility predicates for the specialized algos/kernels. The dispatch
/// fallback chain consults these; they are public so callers can predict
/// which rung will execute.
bool winograd_eligible_for(const ConvShape& s, int bits);
bool bitserial_eligible_for(int bits);
bool sdot_eligible_for(int bits);
bool tbl_eligible_for(int bits);

/// How plan_conv picks the blocked-GEMM {Mc, Kc, Nc} (GEMM-family algos
/// only; other rungs ignore it).
enum class BlockingPolicy {
  kAuto,      ///< tile auto-search per (shape, bits, scheme) — the default
  kExplicit,  ///< use ArmConvOptions::explicit_blocking (clamped to shape)
  kOff,       ///< legacy unblocked sweep with materialized im2col
};

struct ArmConvOptions {
  int bits = 8;
  ConvAlgo algo = ConvAlgo::kGemm;
  ArmKernel kernel = ArmKernel::kOursGemm;
  int threads = 1;
  /// Cache blocking of the low-bit GEMM (paper Sec. 3.2 discipline applied
  /// to the ARM path): Mc/Kc/Nc loop nest with the im2col rows gathered
  /// on the fly per (Kc x Nc) block instead of materialized up front.
  BlockingPolicy blocking = BlockingPolicy::kAuto;
  /// Consulted only under BlockingPolicy::kExplicit; clamped to the
  /// shape's GEMM view by plan_conv.
  GemmBlocking explicit_blocking{128, 64, 256};
  /// Checked execution (armsim/verifier.h): run every emulated kernel under
  /// the invariant verifier — overflow intervals, register budget, memory
  /// bounds, scheme conformance. A caught violation turns the execute into
  /// a kInvariantViolation Status. Debug option: forces single-threaded
  /// kernels and is off by default (off-mode cycles are bit-identical).
  bool verify = false;
  /// What the input activations can hold. kNonNegative declares them in
  /// [0, qmax] — a ReLU'd producer — so a weight-tables TBL plan folds
  /// tbl_nonneg_group(bits) of them into one index (schemes.h). Set only
  /// by the graph compiler, from the producer's clamp; execute never
  /// trusts it: an input value the plan's mode cannot encode fails the
  /// execute with kOutOfRange instead of summing wrongly.
  InputRange input_range = InputRange::kSigned;
};

/// Fig. 13 space accounting. The paper's ratios are
///   im2col overhead  = (act + weight + im2col) / (act + weight)
///   packing overhead = extra padded elements on top of that.
struct SpaceReport {
  i64 baseline_elems = 0;     ///< activation + weight
  i64 im2col_elems = 0;       ///< materialized im2col matrix
  i64 pack_extra_elems = 0;   ///< zero-padding added by pack
  double im2col_overhead() const {
    return static_cast<double>(baseline_elems + im2col_elems) /
           static_cast<double>(baseline_elems);
  }
  double pack_overhead() const {
    const double base = static_cast<double>(baseline_elems + im2col_elems);
    return (base + static_cast<double>(pack_extra_elems)) / base;
  }
  double total_overhead() const { return im2col_overhead() * pack_overhead(); }
};

/// The rung a request resolves to, before any weight is packed: the
/// dispatch ladder's algo and kernel, the degradations on the way, and
/// whether the rung runs the blocked GEMM driver (the rung a graph can
/// fuse, and the one whose blocking a search picks).
struct ConvRung {
  ConvAlgo algo = ConvAlgo::kGemm;
  ArmKernel kernel = ArmKernel::kOursGemm;
  FallbackRecord fallback;
  bool blocked = false;
};

/// Resolve the request's rung exactly as plan_conv does, without packing
/// or searching. Does not validate; plan_conv does.
ConvRung resolve_conv_rung(const ConvShape& s, const ArmConvOptions& opt);

struct ArmConvResult {
  Tensor<i32> out;
  armsim::Counters counts;
  double cycles = 0;
  double seconds = 0;
  SpaceReport space;
  std::string executed_algo;  ///< rung that produced `out` ("gemm", ...)
  FallbackRecord fallback;    ///< set when the request was degraded
};

/// Compiled convolution plan: the algo/kernel ladder resolved once, the
/// weights prepacked in the executing kernel's layout, and the exact
/// per-execute workspace requirement recorded.
///
/// Immutable after plan_conv returns — safe to share across threads; each
/// executing thread brings its own Workspace.
struct ArmConvPlan {
  ConvShape shape;           ///< geometry as planned (batch may differ at execute)
  ArmConvOptions requested;  ///< the original request
  ConvAlgo algo = ConvAlgo::kGemm;     ///< resolved rung
  ArmKernel kernel = ArmKernel::kOursGemm;  ///< resolved kernel
  /// Resolved {Mc, Kc, Nc} for the GEMM-family rungs (disabled under
  /// BlockingPolicy::kOff, for non-GEMM rungs, and for kTraditional).
  GemmBlocking blocking;
  FallbackRecord planned_fallback;     ///< eligibility degradations

  /// Original weights — kept for the rungs that consume them unpacked
  /// (reference recovery, direct, traditional GEMM).
  Tensor<i8> weight;

  /// Prepacked weights; exactly one is populated, per (algo, kernel).
  PackedA gemm_a;             ///< kGemm with kOursGemm / kNcnn
  PackedSdotA sdot_a;         ///< kGemm with kSdotExt
  PackedTblA tbl_a;           ///< kGemm with kTblGemm
  BitserialWeights bitplanes; ///< kBitserial
  WinogradWeights winograd;   ///< kWinograd

  i64 packed_weight_bytes = 0;
  /// Modeled cycles the weight pack would cost if run per call — what the
  /// plan amortizes away (reported by the serving bench; never merged into
  /// execute-time counts, which exclude weight packing in both APIs).
  double pack_cycles = 0;

  /// Exact Workspace bytes one execute_conv at batch `batch` consumes
  /// (cache-line-rounded, matching Workspace accounting).
  i64 workspace_bytes(i64 batch) const;
  /// The blocked driver's geometry at batch `batch` — what an execute
  /// runs; its blk equals `blocking` for every plan on the blocked rung.
  BlockedLayout executed_layout(i64 batch) const;
  /// i32 elements of the C band storage execute_conv_fused needs: one
  /// gemm_m x Nc band per modeled worker, or 0 when one K block covers K
  /// (the epilogue reads the micro tiles directly). 0 for plans that are
  /// not on the blocked GEMM rung.
  i64 fused_band_elems() const;
};

/// Resolve the ladder and prepack the weights. `schedule` is the blocked
/// schedule the plan will run (kFused when it executes through
/// execute_conv_fused): the per-conv priced choices — a kAuto blocking and
/// a weight-tables TBL plan's table source (choose_tbl_source, or
/// tbl_source_at an explicit blocking) — are made for it. Errors:
///  * kInvalidArgument — invalid shape, bits outside [2, 8], weight dims
///    that do not match the shape, or threads outside [1, 64];
///  * kResourceExhausted — plan compilation failed (injected via the
///    plan.compile_fail fault site). Callers degrade to the unplanned
///    path or surface the error.
StatusOr<ArmConvPlan> plan_conv(
    const ConvShape& s, const Tensor<i8>& weight, const ArmConvOptions& opt,
    BlockedSchedule schedule = BlockedSchedule::kStandalone);

/// Execute the plan against `input`, whose batch may differ from the
/// planned batch (weights pack identically for any batch; only the GEMM N
/// dimension changes). All scratch comes from `ws`, which is reset on
/// entry; pointers previously handed out by `ws` are invalidated.
/// Runtime faults degrade along the same ladder as conv2d_s32, appending
/// to the plan's fallback record.
StatusOr<ArmConvResult> execute_conv(const ArmConvPlan& plan,
                                     const Tensor<i8>& input, Workspace& ws);

/// Result of a graph-fused execute: no i32 output tensor — the epilogue
/// consumed the accumulators in-cache and wrote the requantized i8
/// activations itself.
struct FusedConvResult {
  armsim::Counters counts;
  double cycles = 0;
  double seconds = 0;
  SpaceReport space;
};

/// Graph-fusion execute: run a blocked-GEMM plan against a raw NCHW i8
/// activation buffer with `epi` applied to every C row segment right after
/// its final Kc accumulation (requantize/ReLU/residual-add while the rows
/// are cache-resident). No gemm_m x gemm_n i32 tensor exists: `c` is
/// caller-provided scratch of `c_elems` i32 elements holding the partial-K
/// C bands, of which the plan needs fused_band_elems() (0 when one K block
/// covers K; `c` may then be null). Its contents after the call are
/// unspecified. Unlike execute_conv, the Workspace is NOT reset: the graph
/// runner owns the arena layout (liveness-planned activation slots below,
/// per-node scratch above — released by Workspace::rewind). With
/// plan.requested.verify the run is checked: input, C band, epilogue
/// output and micro tile are registered with one verifier.
/// Errors: kInvalidArgument for a null operand or a band smaller than
/// fused_band_elems(); kFailedPrecondition when the plan's resolved rung is
/// not the blocked fused-pack GEMM (winograd/bitserial/direct/reference/
/// unblocked plans execute unfused via execute_conv), or when the planned
/// batch != 1 (graph forward is batch-1); kInvariantViolation when checked
/// execution finds a violation.
StatusOr<FusedConvResult> execute_conv_fused(const ArmConvPlan& plan,
                                             const i8* input, i32* c,
                                             i64 c_elems,
                                             const TileEpilogue& epi,
                                             Workspace& ws);

/// Quantized convolution to 32-bit accumulators. Bit-exact with
/// ref::conv2d_s32 for GEMM/bitserial algos and with
/// ref::winograd_conv_s32(kRoundedInt8) for the winograd algo.
/// One-shot wrapper over plan_conv + execute_conv; a plan-compile fault
/// degrades to the reference rung (the ladder's floor) and records it.
///
/// Errors (never asserts, also in release builds):
///  * kInvalidArgument — invalid shape, bits outside [2, 8], tensor dims
///    that do not match the shape, or threads < 1.
/// Ineligible algo/kernel requests do NOT error; they degrade and record.
StatusOr<ArmConvResult> conv2d_s32(const ConvShape& s, const Tensor<i8>& input,
                                   const Tensor<i8>& weight,
                                   const ArmConvOptions& opt);

}  // namespace lbc::armkern
