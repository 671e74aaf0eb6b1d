// Post-compile plan auditor (check/plan_audit.h) tests.
//
// A clean hand-built PlanAuditInput passes; then each of the eight
// invariants is corrupted in isolation and the audit must surface the
// EXACT named finding. Finally the auditor runs end-to-end, inside every
// GraphPlan::compile, on real compiled graphs.
#include <gtest/gtest.h>

#include <string>

#include "armkern/blocking.h"
#include "check/plan_audit.h"
#include "common/rng.h"
#include "common/workspace.h"
#include "core/graph_plan.h"
#include "core/qnn_graph.h"

namespace lbc {
namespace {

using check::AuditFinding;
using check::AuditReport;
using check::BlockingRecord;
using check::EpilogueWrite;
using check::PackedRegion;
using check::PlanAuditInput;
using check::SlotInterval;

bool has_finding(const AuditReport& rep, const std::string& invariant) {
  for (const AuditFinding& f : rep.findings)
    if (f.invariant == invariant) return true;
  return false;
}

/// A small well-formed plan shape: two slots that are never live together
/// sharing bytes (legal reuse), an add written over its operand as its
/// last reader, a fused conv's scratch beside the slots live at its node,
/// one contained epilogue, exact packed accounting, one clamped blocking.
PlanAuditInput clean_input() {
  PlanAuditInput in;
  in.arena_bytes = 1024;
  in.slots = {
      {/*node=*/0, /*off=*/0, /*bytes=*/256, /*def=*/0, /*last=*/1},
      {/*node=*/1, /*off=*/256, /*bytes=*/256, /*def=*/1, /*last=*/2},
      // Reuses node 0's bytes: legal, the lifetimes [0,1] and [3,4] are
      // disjoint.
      {/*node=*/3, /*off=*/0, /*bytes=*/128, /*def=*/3, /*last=*/4},
      // Add node 2 reads node 1 last, and writes over it.
      {/*node=*/2, /*off=*/256, /*bytes=*/256, /*def=*/2, /*last=*/3},
      // Node 1's scratch, live at node 1 alone.
      {/*node=*/1, /*off=*/512, /*bytes=*/128, /*def=*/1, /*last=*/1,
       /*scratch=*/true},
  };
  in.in_place = {{/*add=*/2, /*operand=*/1, /*conv_input=*/-1}};
  in.epilogues = {{/*node=*/1, /*slot_off=*/256, /*slot_bytes=*/256,
                   /*write_off=*/256, /*write_bytes=*/256}};
  in.packed = {{/*node=*/0, /*declared_bytes=*/512, /*backing_bytes=*/512}};
  BlockingRecord b;
  b.node = 0;
  b.m = 64;
  b.n = 49;
  b.k = 576;
  b.sdot = false;
  b.blocking = armkern::default_blocking(b.m, b.n, b.k, b.sdot);
  in.blockings = {b};
  return in;
}

TEST(PlanAudit, CleanInputPasses) {
  const AuditReport rep = check::audit_plan(clean_input());
  EXPECT_TRUE(rep.ok()) << rep.summary();
  EXPECT_TRUE(rep.to_status().ok());
  EXPECT_EQ(rep.summary(), "plan audit clean");
}

// ---------------------------------------------------------------------------
// Mutations: each corrupted field yields its named invariant.
// ---------------------------------------------------------------------------

TEST(PlanAuditMutation, OverlappingLiveSlotsFlagged) {
  PlanAuditInput in = clean_input();
  // Make slot 2 live at the same time as slot 0 while sharing its bytes.
  in.slots[2].def = 1;
  const AuditReport rep = check::audit_plan(in);
  EXPECT_FALSE(rep.ok());
  EXPECT_TRUE(has_finding(rep, "audit.slot-overlap")) << rep.summary();
  const Status s = rep.to_status();
  EXPECT_EQ(s.code(), StatusCode::kInvariantViolation);
  EXPECT_NE(s.message().find("audit.slot-overlap"), std::string::npos)
      << s.message();
}

TEST(PlanAuditMutation, UndeclaredSharedBytesFlagged) {
  // Without its in-place declaration, the add's slot overlaps its operand's
  // at the node where both are live.
  PlanAuditInput in = clean_input();
  in.in_place.clear();
  const AuditReport rep = check::audit_plan(in);
  EXPECT_TRUE(has_finding(rep, "audit.slot-overlap")) << rep.summary();
}

TEST(PlanAuditMutation, OperandWithALaterReaderFlagged) {
  // Node 1 is still read at node 3, after the add wrote over it at node 2.
  PlanAuditInput in = clean_input();
  in.slots[1].last = 3;
  const AuditReport rep = check::audit_plan(in);
  ASSERT_FALSE(rep.ok());
  EXPECT_EQ(rep.findings.front().invariant, "audit.in-place-last-reader")
      << rep.summary();
  EXPECT_NE(rep.to_status().message().find("still read at node 3"),
            std::string::npos)
      << rep.summary();
}

TEST(PlanAuditMutation, FusedConvsOwnInputWrittenOverFlagged) {
  // The add is fused into a conv that gathers node 1 while its epilogue
  // writes node 1's bytes.
  PlanAuditInput in = clean_input();
  in.in_place[0].conv_input = 1;
  const AuditReport rep = check::audit_plan(in);
  ASSERT_FALSE(rep.ok());
  EXPECT_EQ(rep.findings.front().invariant, "audit.in-place-last-reader")
      << rep.summary();
}

TEST(PlanAuditMutation, InPlacePairOnShiftedBytesFlagged) {
  // An add writing element j over its operand's element j + 64 would
  // clobber what it has yet to read.
  PlanAuditInput in = clean_input();
  in.slots[3].off = 320;
  in.arena_bytes = 1024 + 64;
  const AuditReport rep = check::audit_plan(in);
  ASSERT_FALSE(rep.ok());
  EXPECT_EQ(rep.findings.front().invariant, "audit.in-place-last-reader")
      << rep.summary();
}

TEST(PlanAuditMutation, ScratchOverlappingALiveSlotFlagged) {
  // Node 1's scratch moved onto node 1's own output.
  PlanAuditInput in = clean_input();
  ASSERT_TRUE(in.slots[4].scratch);
  in.slots[4].off = 256;
  const AuditReport rep = check::audit_plan(in);
  ASSERT_FALSE(rep.ok());
  EXPECT_EQ(rep.findings.front().invariant, "audit.slot-overlap")
      << rep.summary();
  EXPECT_NE(rep.summary().find("scratch"), std::string::npos)
      << rep.summary();
}

TEST(PlanAuditMutation, UnalignedOffsetFlagged) {
  // Inside the arena and overlapping nothing live, but off a cache line.
  PlanAuditInput in = clean_input();
  in.slots[2].off = 8;
  const AuditReport rep = check::audit_plan(in);
  ASSERT_FALSE(rep.ok());
  EXPECT_EQ(rep.findings.front().invariant, "audit.slot-in-arena")
      << rep.summary();
  EXPECT_NE(rep.summary().find("does not start on a 64-byte line"),
            std::string::npos)
      << rep.summary();
}

TEST(PlanAuditMutation, SlotPastArenaEndFlagged) {
  PlanAuditInput in = clean_input();
  in.slots[1].off = 900;  // 900 + 256 > 1024
  const AuditReport rep = check::audit_plan(in);
  EXPECT_TRUE(has_finding(rep, "audit.slot-in-arena")) << rep.summary();
}

TEST(PlanAuditMutation, InvertedLivenessIntervalFlagged) {
  PlanAuditInput in = clean_input();
  in.slots[0].def = 2;  // def 2 > last 1
  const AuditReport rep = check::audit_plan(in);
  EXPECT_TRUE(has_finding(rep, "audit.slot-in-arena")) << rep.summary();
}

TEST(PlanAuditMutation, EpilogueWritePastSlotFlagged) {
  PlanAuditInput in = clean_input();
  in.epilogues[0].write_bytes = 320;  // 256 + 320 > slot end 512
  const AuditReport rep = check::audit_plan(in);
  EXPECT_FALSE(rep.ok());
  EXPECT_TRUE(has_finding(rep, "audit.epilogue-containment")) << rep.summary();
  EXPECT_NE(rep.to_status().message().find("audit.epilogue-containment"),
            std::string::npos);
}

TEST(PlanAuditMutation, PackedAccountingMismatchFlagged) {
  PlanAuditInput in = clean_input();
  in.packed[0].declared_bytes = 500;  // backing holds 512
  const AuditReport rep = check::audit_plan(in);
  EXPECT_TRUE(has_finding(rep, "audit.packed-weight-bounds")) << rep.summary();
}

TEST(PlanAuditMutation, UnclampedBlockingFlagged) {
  PlanAuditInput in = clean_input();
  // A corrupt TuningCache row: mc wildly past the problem's padded rows.
  in.blockings[0].blocking.mc = 1 << 20;
  const AuditReport rep = check::audit_plan(in);
  EXPECT_FALSE(rep.ok());
  EXPECT_TRUE(has_finding(rep, "audit.blocking-clamped")) << rep.summary();
}

TEST(PlanAuditMutation, AllFindingsCollectedAndStatusNamesFirst) {
  PlanAuditInput in = clean_input();
  in.slots[1].off = 900;                  // slot-in-arena
  in.epilogues[0].write_off = 0;          // epilogue-containment
  in.packed[0].declared_bytes = 1;        // packed-weight-bounds
  in.blockings[0].blocking.mc = 1 << 20;  // blocking-clamped
  const AuditReport rep = check::audit_plan(in);
  EXPECT_GE(rep.findings.size(), 4u) << rep.summary();
  const Status s = rep.to_status();
  EXPECT_EQ(s.code(), StatusCode::kInvariantViolation);
  // First finding is named; the rest are counted.
  EXPECT_NE(s.message().find("audit.slot-in-arena"), std::string::npos)
      << s.message();
  EXPECT_NE(s.message().find("more findings"), std::string::npos)
      << s.message();
}

// ---------------------------------------------------------------------------
// End-to-end: GraphPlan::compile with the opt-in audit flag.
// ---------------------------------------------------------------------------

TEST(PlanAudit, CompiledBottleneckGraphAuditsClean) {
  // At 2 bit the first two convs of this block price to TBL, whose weights
  // live in index and table containers rather than MLA panels; a graph
  // mixing both kernels must audit clean.
  for (const int bits : {2, 4}) {
    SCOPED_TRACE(bits);
    core::QnnGraph g;
    const auto in = g.add_input(8, 8);
    core::add_bottleneck_block(g, in, 8, 4, 16, 1, bits, /*seed=*/42);
    const Tensor<float> x =
        random_ftensor(Shape4{1, 8, 8, 8}, -1.0f, 1.0f, 7);
    ASSERT_TRUE(g.calibrate(x).ok());

    core::GraphPlanOptions opt;
    opt.fusion = core::FusionMode::kOn;
    opt.algo = armkern::ConvAlgo::kGemm;
    const auto plan = core::GraphPlan::compile(g, opt);
    ASSERT_TRUE(plan.ok()) << plan.status().message();

    // The audited plan still executes (the audit is a read-only gate).
    Workspace arena, scratch;
    EXPECT_TRUE(plan.value().forward(x, arena, scratch).ok());
  }
}

TEST(PlanAuditMutation, UnclampedTblBlockingFlagged) {
  // K = 576 on the TBL rung: a recorded Kc the group does not divide is
  // not the Kc the driver runs (it re-clamps with the group), so the audit
  // flags it — 63 at pairs, 62 at the 4-value fold; 60 is clean at both.
  for (const int group : {2, 4}) {
    PlanAuditInput in = clean_input();
    in.blockings[0].tbl_group = group;
    in.blockings[0].blocking = armkern::GemmBlocking{64, 60, 32};
    EXPECT_TRUE(check::audit_plan(in).ok()) << "group " << group;
    in.blockings[0].blocking.kc = group == 2 ? 63 : 62;
    const AuditReport rep = check::audit_plan(in);
    EXPECT_TRUE(has_finding(rep, "audit.blocking-clamped"))
        << "group " << group << ": " << rep.summary();
  }
}

TEST(PlanAuditMutation, NonNegativeFactOnSignedProducerFlagged) {
  PlanAuditInput in = clean_input();
  // Node 2 reads a conv with ReLU (clamp lo = 0): the fact holds.
  in.input_ranges = {{/*node=*/2, /*producer=*/1, /*nonneg=*/true,
                      /*producer_clamps=*/true, /*producer_lo=*/0}};
  EXPECT_TRUE(check::audit_plan(in).ok());
  // A producer without ReLU clamps at -qmax; an input node does not clamp.
  for (const check::InputRangeRecord bad :
       {check::InputRangeRecord{2, 1, true, true, -1},
        check::InputRangeRecord{1, 0, true, false, 0}}) {
    in.input_ranges = {bad};
    const AuditReport rep = check::audit_plan(in);
    EXPECT_TRUE(has_finding(rep, "audit.input-range-from-clamp"))
        << rep.summary();
    EXPECT_NE(rep.to_status().message().find("audit.input-range-from-clamp"),
              std::string::npos);
  }
}

TEST(PlanAuditMutation, FactForcedOntoConvFedByTheInputFailsTheAudit) {
  // A compiled ResNet bottleneck at 2 bit: n1 and the shortcut n4 read the
  // signed input node, n2 and n3 read ReLU'd convs. The plan's own audit
  // input is clean; forcing the non-negative fact onto n1 fails the audit
  // by name.
  core::QnnGraph g;
  const auto in = g.add_input(16, 10);
  core::add_bottleneck_block(g, in, 16, 8, 32, 1, 2, /*seed=*/5);
  ASSERT_TRUE(
      g.calibrate(random_ftensor(Shape4{1, 16, 10, 10}, -1, 1, 6)).ok());
  core::GraphPlanOptions opt;
  const core::GraphPlan plan = core::GraphPlan::compile(g, opt).value();
  PlanAuditInput audit = plan.audit_input();
  ASSERT_TRUE(check::audit_plan(audit).ok());
  ASSERT_EQ(audit.input_ranges.size(), 4u);
  for (const check::InputRangeRecord& r : audit.input_ranges)
    EXPECT_EQ(r.nonneg, r.node == 2 || r.node == 3) << "node " << r.node;
  audit.input_ranges[0].nonneg = true;  // n1, fed by the input node
  ASSERT_EQ(audit.input_ranges[0].node, 1);
  const AuditReport rep = check::audit_plan(audit);
  EXPECT_TRUE(has_finding(rep, "audit.input-range-from-clamp"))
      << rep.summary();
}

TEST(PlanAuditMutation, PoolPassesItsProducersRangeAndTheAuditWalksIt) {
  // Max pools pass their source's range on. A pool of a ReLU'd conv feeds
  // node 3 a non-negative input; a pool of the signed input, and a pool of
  // a conv without ReLU, feed nodes 5 and 7 signed ones. Each record names
  // the producer past the pool and the pool itself; forcing the fact onto
  // node 5 or 7 fails the audit by name.
  core::QnnGraph g;
  const auto in = g.add_input(8, 12);
  const auto w = [](i64 oc, i64 ic, u64 seed) {
    return random_ftensor(Shape4{oc, ic, 1, 1}, -0.4f, 0.4f, seed);
  };
  const auto relu = g.add_conv(in, 8, 1, 1, 0, 2, w(8, 8, 61), {}, true);
  g.add_conv(g.add_maxpool2(relu), 8, 1, 1, 0, 2, w(8, 8, 62), {}, false);
  g.add_conv(g.add_maxpool2(in), 8, 1, 1, 0, 2, w(8, 8, 63), {}, false);
  const auto plain = g.add_conv(in, 8, 1, 1, 0, 2, w(8, 8, 64), {}, false);
  g.add_conv(g.add_maxpool2(plain), 8, 1, 1, 0, 2, w(8, 8, 65), {}, false);
  ASSERT_TRUE(
      g.calibrate(random_ftensor(Shape4{1, 8, 12, 12}, -1, 1, 66)).ok());
  core::GraphPlanOptions opt;
  const core::GraphPlan plan = core::GraphPlan::compile(g, opt).value();
  EXPECT_EQ(plan.conv_plan(3)->requested.input_range,
            armkern::InputRange::kNonNegative);
  EXPECT_EQ(plan.conv_plan(5)->requested.input_range,
            armkern::InputRange::kSigned);
  EXPECT_EQ(plan.conv_plan(8)->requested.input_range,
            armkern::InputRange::kSigned);
  PlanAuditInput audit = plan.audit_input();
  ASSERT_TRUE(check::audit_plan(audit).ok());
  for (check::InputRangeRecord& r : audit.input_ranges) {
    if (r.node == 3) {
      EXPECT_EQ(r.producer, 1);
      EXPECT_EQ(r.pool, 2);
      EXPECT_TRUE(r.producer_clamps && r.producer_lo >= 0);
    }
    if (r.node != 5 && r.node != 8) continue;
    EXPECT_EQ(r.pool, r.node - 1) << "node " << r.node;
    PlanAuditInput forced = audit;
    for (check::InputRangeRecord& f : forced.input_ranges)
      if (f.node == r.node) f.nonneg = true;
    const AuditReport rep = check::audit_plan(forced);
    EXPECT_TRUE(has_finding(rep, "audit.input-range-from-clamp"))
        << "node " << r.node << ": " << rep.summary();
    EXPECT_NE(rep.summary().find("through max pool node"), std::string::npos)
        << rep.summary();
  }
}

}  // namespace
}  // namespace lbc
