#include "check/plan_audit.h"

#include <sstream>

namespace lbc::check {
namespace {

void add(AuditReport& rep, const char* invariant, const std::string& detail) {
  rep.findings.push_back(AuditFinding{invariant, detail});
}

bool ranges_overlap(i64 a_off, i64 a_bytes, i64 b_off, i64 b_bytes) {
  return a_off < b_off + b_bytes && b_off < a_off + a_bytes;
}

}  // namespace

Status AuditReport::to_status() const {
  if (ok()) return Status();
  std::ostringstream os;
  os << "plan audit failed: invariant '" << findings.front().invariant
     << "' — " << findings.front().detail;
  if (findings.size() > 1)
    os << " (+" << findings.size() - 1 << " more findings)";
  return Status::invariant_violation(os.str());
}

std::string AuditReport::summary() const {
  if (ok()) return "plan audit clean";
  std::ostringstream os;
  os << findings.size() << " audit findings";
  for (const AuditFinding& f : findings)
    os << "\n  " << f.invariant << ": " << f.detail;
  return os.str();
}

AuditReport audit_plan(const PlanAuditInput& in) {
  AuditReport rep;

  // Slot containment + pairwise liveness/extent overlap. The planner's
  // first-fit packing is exactly the claim "lifetimes overlap => byte
  // ranges disjoint"; re-check it from the placed result.
  for (const SlotInterval& s : in.slots) {
    if (s.off < 0 || s.bytes <= 0 || s.off + s.bytes > in.activation_bytes) {
      std::ostringstream os;
      os << "node " << s.node << " slot [" << s.off << ", "
         << s.off + s.bytes << ") outside arena of " << in.activation_bytes
         << " bytes";
      add(rep, "audit.slot-in-arena", os.str());
    }
    if (s.def > s.last) {
      std::ostringstream os;
      os << "node " << s.node << " liveness interval [" << s.def << ", "
         << s.last << "] is inverted";
      add(rep, "audit.slot-in-arena", os.str());
    }
  }
  for (size_t i = 0; i < in.slots.size(); ++i)
    for (size_t j = i + 1; j < in.slots.size(); ++j) {
      const SlotInterval& a = in.slots[i];
      const SlotInterval& b = in.slots[j];
      const bool live_together = a.def <= b.last && b.def <= a.last;
      if (live_together && ranges_overlap(a.off, a.bytes, b.off, b.bytes)) {
        std::ostringstream os;
        os << "nodes " << a.node << " and " << b.node
           << " are live together (defs " << a.def << "/" << b.def
           << ", lasts " << a.last << "/" << b.last
           << ") but slots overlap: [" << a.off << ", " << a.off + a.bytes
           << ") vs [" << b.off << ", " << b.off + b.bytes << ")";
        add(rep, "audit.slot-overlap", os.str());
      }
    }

  // Fused epilogues write only their declared arena slot.
  for (const EpilogueWrite& e : in.epilogues) {
    if (e.write_off < e.slot_off ||
        e.write_off + e.write_bytes > e.slot_off + e.slot_bytes) {
      std::ostringstream os;
      os << "node " << e.node << " epilogue writes [" << e.write_off << ", "
         << e.write_off + e.write_bytes << ") outside its slot ["
         << e.slot_off << ", " << e.slot_off + e.slot_bytes << ")";
      add(rep, "audit.epilogue-containment", os.str());
    }
  }

  // Prepacked weight accounting matches the backing allocations. An
  // under-declared region means the executing kernel reads past what the
  // plan claims to own; an over-declaration corrupts registry budgeting.
  for (const PackedRegion& p : in.packed) {
    if (p.declared_bytes != p.backing_bytes) {
      std::ostringstream os;
      os << "node " << p.node << " declares " << p.declared_bytes
         << " packed-weight bytes but the backing buffers hold "
         << p.backing_bytes;
      add(rep, "audit.packed-weight-bounds", os.str());
    }
  }

  // Resolved blockings (TuningCache rows or fresh searches) must be fixed
  // points of clamp_blocking for their GEMM view and TBL group — i.e.
  // already inside the micro-tile grid and problem bounds a corrupt cache
  // row could escape, and exactly what the blocked driver will run.
  for (const BlockingRecord& b : in.blockings) {
    const armkern::GemmBlocking c = armkern::clamp_blocking(
        b.blocking, b.m, b.n, b.k, b.sdot, b.tbl_group);
    if (!(c == b.blocking)) {
      std::ostringstream os;
      os << "node " << b.node << " blocking {" << b.blocking.mc << ", "
         << b.blocking.kc << ", " << b.blocking.nc
         << "} escapes clamp bounds for m=" << b.m << " n=" << b.n
         << " k=" << b.k << " (clamps to {" << c.mc << ", " << c.kc << ", "
         << c.nc << "})";
      add(rep, "audit.blocking-clamped", os.str());
    }
  }

  // A non-negative input is a fact about the producer, never a default: a
  // signed value reaching a folded TBL plan has no index to encode.
  for (const InputRangeRecord& r : in.input_ranges) {
    if (r.nonneg && !(r.producer_clamps && r.producer_lo >= 0)) {
      std::ostringstream os;
      os << "node " << r.node << " is planned with a non-negative input but "
         << "its producer, node " << r.producer;
      if (r.pool >= 0) os << " (through max pool node " << r.pool << ")";
      os << ", ";
      if (r.producer_clamps)
        os << "clamps at lo = " << r.producer_lo;
      else
        os << "does not clamp its output";
      add(rep, "audit.input-range-from-clamp", os.str());
    }
  }

  return rep;
}

}  // namespace lbc::check
