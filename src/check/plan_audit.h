// Post-compile auditor for compiled plans (ConvPlan / GraphPlan).
//
// GraphPlan::compile performs liveness analysis, in-place adds, arena
// packing, epilogue fusion, and TuningCache blocking resolution — places
// where a planning bug silently corrupts activations at execute time (an
// overlapping slot assignment reads a clobbered tensor; a fused epilogue
// writing past its slot tramples a neighbour). The auditor re-checks the
// *output* of planning against these invariants, from plain data the
// planner hands over, so a mutation in any of them shows up as a named
// rejection instead of wrong inference results:
//
//   audit.slot-overlap          simultaneously-live slots (activations
//                               and fused-conv scratch) occupy disjoint
//                               byte ranges of the arena, except a
//                               declared in-place pair
//   audit.slot-in-arena         every slot lies inside [0, arena bytes)
//                               and starts on a cache line
//   audit.in-place-last-reader  an add writes over an operand's bytes only
//                               as that operand's last reader, and a fused
//                               add never over its conv's own input
//   audit.epilogue-containment  fused writeback extents stay inside the
//                               declared destination slot
//   audit.packed-weight-bounds  declared prepacked-weight bytes match the
//                               backing allocations exactly
//   audit.blocking-clamped      every resolved blocking is a fixed point
//                               of clamp_blocking for its GEMM view and
//                               TBL group (i.e. TuningCache rows respect
//                               the clamp bounds, and the driver runs the
//                               blocking the plan records)
//   audit.input-range-from-clamp every conv planned with a non-negative
//                               input reads a producer whose output clamp
//                               has lo >= 0 (a conv or add with ReLU),
//                               directly or through 2x2 max pools
//
// Every GraphPlan::compile runs it; the mutation suite
// (tests/test_plan_audit.cpp) corrupts each invariant on hand-built inputs
// and asserts the named finding.
#pragma once

#include <string>
#include <vector>

#include "armkern/blocking.h"
#include "common/status.h"
#include "common/types.h"

namespace lbc::check {

/// One arena slot with its liveness interval: written first at node
/// `def`, read last at node `last` (inclusive, in execution order). A
/// scratch slot holds a fused conv's C bands and block buffers and is live
/// at that conv alone.
struct SlotInterval {
  int node = 0;  ///< node the slot belongs to (for findings)
  i64 off = 0;
  i64 bytes = 0;
  int def = 0;
  int last = 0;
  bool scratch = false;
};

/// An add that writes over an operand's slot — the same bytes, element j
/// read then written: legal only when the add is the operand's last reader
/// (the operand's slot is last read no later than the add's is first
/// written) and, for an add fused into a conv's epilogue, when the operand
/// is not that conv's input.
struct InPlaceWrite {
  int add = 0;
  int operand = 0;
  int conv_input = -1;  ///< the fused conv's input node; -1 when unfused
};

/// One fused-epilogue writeback: the byte extent the epilogue can touch
/// vs the arena slot it is declared to own.
struct EpilogueWrite {
  int node = 0;
  i64 slot_off = 0;
  i64 slot_bytes = 0;
  i64 write_off = 0;  ///< first byte the epilogue writes
  i64 write_bytes = 0;
};

/// Declared vs actual backing size of one prepacked weight buffer.
struct PackedRegion {
  int node = 0;
  i64 declared_bytes = 0;  ///< plan's packed_weight_bytes accounting
  i64 backing_bytes = 0;   ///< sum of the actual buffer allocations
};

/// One TuningCache-resolved (or searched) blocking with its GEMM view.
struct BlockingRecord {
  int node = 0;
  armkern::GemmBlocking blocking;
  i64 m = 0, n = 0, k = 0;
  bool sdot = false;
  int tbl_group = 0;  ///< the TBL plan's group (tbl_group of its mode); 0 else
};

/// A conv's declared input range beside what its producer guarantees. A
/// 2x2 max pool keeps its input's range, so the producer is the first
/// node past the pools the conv reads through.
struct InputRangeRecord {
  int node = 0;
  int producer = 0;
  bool nonneg = false;         ///< planned with InputRange::kNonNegative
  bool producer_clamps = false;  ///< the producer clamps its output (conv, add)
  i32 producer_lo = 0;         ///< that clamp's lower bound
  int pool = -1;  ///< the max pool the conv reads through (nearest), or -1
};

/// Everything the auditor sees — plain data, so GraphPlan::compile fills
/// it from real plan state and mutation tests corrupt it field by field.
struct PlanAuditInput {
  i64 arena_bytes = 0;  ///< arena extent the slots must fit in
  std::vector<SlotInterval> slots;
  std::vector<InPlaceWrite> in_place;
  std::vector<EpilogueWrite> epilogues;
  std::vector<PackedRegion> packed;
  std::vector<BlockingRecord> blockings;
  std::vector<InputRangeRecord> input_ranges;
};

struct AuditFinding {
  std::string invariant;  ///< "audit.slot-overlap", ...
  std::string detail;
};

struct AuditReport {
  std::vector<AuditFinding> findings;

  bool ok() const { return findings.empty(); }
  /// OK when clean; kInvariantViolation naming the first finding's
  /// invariant otherwise — the Status GraphPlan::compile surfaces.
  Status to_status() const;
  std::string summary() const;
};

/// Check every invariant over `in`. All findings are collected (no
/// short-circuit) so one audit lists every violated invariant.
AuditReport audit_plan(const PlanAuditInput& in);

}  // namespace lbc::check
