// Differential fuzzing of the graph compiler: seeded random residual
// graphs go through QnnGraph::calibrate, GraphPlan::compile and forward,
// fused and unfused at one and three workers, with every compile audited
// (check::audit_plan). Each forward must memcmp-match the graph's
// ConvAlgo::kReference plan, and the arena's high water must equal the
// plan's arena_reserve_bytes() with no growth. The graphs draw 1x1 and 3x3
// convs at strides 1 and 2, 2x2 max pools, odd channel counts, DenseNet
// running sums (an add whose operand is also its fused conv's input), and
// adds whose operand is read again later — the cases the in-place add rule
// must refuse — beside bottleneck adds it may write in place. Half the
// fused compiles pin small joint blockings through a TuningCache, so split-K
// C bands and Nc % 16 != 0 land in the conv scratch slots.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/workspace.h"
#include "core/graph_plan.h"
#include "core/qnn_graph.h"
#include "gpukern/tuning_cache.h"

namespace lbc::core {
namespace {

// Bits 4-6 send 3x3 stride-1 convs to the rounded Winograd kernel, which
// is not exact against direct convolution (ROADMAP item 4).
constexpr int kBits[] = {2, 3, 7, 8};
// Graphs per run: the default budget.
constexpr u64 kGraphs = 64;

struct Value {
  QnnGraph::NodeId id = 0;
  Shape4 shape;
};

/// A random graph and what was drawn, for failure messages.
struct FuzzGraph {
  QnnGraph g;
  Tensor<float> x;
  std::string recipe;
};

class GraphMaker {
 public:
  GraphMaker(Rng& rng, FuzzGraph& fg, int bits)
      : rng_(rng), fg_(fg), bits_(bits) {}

  Value input(i64 c, i64 hw) {
    fg_.x = random_ftensor(Shape4{1, c, hw, hw}, -1, 1, rng_.next_u64());
    fg_.recipe += "in" + std::to_string(c) + "x" + std::to_string(hw);
    return keep(Value{fg_.g.add_input(c, hw), Shape4{1, c, hw, hw}});
  }

  Value conv(const Value& src, i64 out_c, i64 k, i64 stride, bool relu) {
    const i64 pad = k / 2;
    const Tensor<float> w = random_ftensor(Shape4{out_c, src.shape.c, k, k},
                                           -0.3f, 0.3f, rng_.next_u64());
    std::vector<float> bias;
    if (rng_.uniform(0, 1) == 1)
      for (i64 i = 0; i < out_c; ++i) bias.push_back(rng_.uniform_f(-1, 1));
    const i64 oh = (src.shape.h + 2 * pad - k) / stride + 1;
    fg_.recipe += " c" + std::to_string(k) + "s" + std::to_string(stride) +
                  "(" + std::to_string(src.id) + ")->" +
                  std::to_string(out_c) + (relu ? "r" : "");
    return keep(Value{
        fg_.g.add_conv(src.id, out_c, k, stride, pad, bits_, w, bias, relu),
        Shape4{1, out_c, oh, oh}});
  }

  Value add(const Value& a, const Value& b, bool relu) {
    fg_.recipe += " add(" + std::to_string(a.id) + "," +
                  std::to_string(b.id) + ")" + (relu ? "r" : "");
    return keep(Value{fg_.g.add_add(a.id, b.id, relu), a.shape});
  }

  Value pool(const Value& src) {
    fg_.recipe += " pool(" + std::to_string(src.id) + ")";
    return keep(Value{fg_.g.add_maxpool2(src.id),
                      Shape4{1, src.shape.c, src.shape.h / 2,
                             src.shape.w / 2}});
  }

  /// One of the last three values, the most recent most often.
  Value pick() {
    const i32 back = rng_.uniform(0, std::min<i32>(2, size() - 1));
    return values_[static_cast<size_t>(size() - 1 - back)];
  }
  i32 odd_channels() { return 2 * rng_.uniform(1, 7) + 1; }
  bool coin() { return rng_.uniform(0, 1) == 1; }
  i32 size() const { return static_cast<i32>(values_.size()); }
  const std::vector<Value>& values() const { return values_; }

 private:
  Value keep(Value v) {
    values_.push_back(v);
    return v;
  }

  Rng& rng_;
  FuzzGraph& fg_;
  int bits_;
  std::vector<Value> values_;
};

FuzzGraph random_graph(u64 seed) {
  FuzzGraph fg;
  Rng rng(seed);
  const int bits = kBits[rng.uniform(0, 3)];
  fg.recipe = "bits " + std::to_string(bits) + ": ";
  GraphMaker m(rng, fg, bits);
  m.input(m.odd_channels(), 2 * rng.uniform(3, 6));
  const i32 ops = rng.uniform(3, 6);
  for (i32 op = 0; op < ops; ++op) {
    const Value s = m.pick();
    const bool can_stride = s.shape.h >= 4;
    switch (rng.uniform(0, 5)) {
      case 0:  // a plain conv
        m.conv(s, m.odd_channels(), m.coin() ? 3 : 1,
               can_stride && m.coin() ? 2 : 1, m.coin());
        break;
      case 1: {  // DenseNet running sum: the operand is the conv's input
        const Value c = m.conv(s, s.shape.c, m.coin() ? 3 : 1, 1, m.coin());
        m.add(s, c, m.coin());
        break;
      }
      case 2: {  // bottleneck: the add may write over its shortcut
        const Value c1 = m.conv(s, m.odd_channels(), 1, 1, true);
        const Value c2 = m.conv(c1, s.shape.c, 3, 1, m.coin());
        if (m.coin())
          m.add(s, c2, true);
        else
          m.add(c2, s, true);
        break;
      }
      case 3: {  // the add's operand has a later reader
        const Value c = m.conv(m.conv(s, m.odd_channels(), 1, 1, true),
                               s.shape.c, 1, 1, m.coin());
        m.add(s, c, m.coin());
        m.conv(s, m.odd_channels(), 3, 1, true);
        break;
      }
      case 4:  // a 2x2 max pool, where the shape allows one
        if (s.shape.h % 2 == 0 && s.shape.h >= 4)
          m.pool(s);
        else
          m.conv(s, m.odd_channels(), 3, 1, true);
        break;
      default: {  // an add of two earlier values of one shape
        std::vector<Value> same;
        for (const Value& v : m.values())
          if (v.id != s.id && v.shape == s.shape) same.push_back(v);
        if (same.empty()) {
          m.conv(s, s.shape.c, 1, 1, m.coin());
        } else {
          const Value o = same[static_cast<size_t>(
              rng.uniform(0, static_cast<i32>(same.size()) - 1))];
          m.add(o, s, m.coin());
        }
        break;
      }
    }
  }
  EXPECT_TRUE(fg.g.calibrate(fg.x).ok()) << fg.recipe;
  return fg;
}

bool same_bits(const Tensor<float>& a, const Tensor<float>& b) {
  return a.elems() == b.elems() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.elems()) * sizeof(float)) == 0;
}

/// Two forwards against one arena: each must match `want`, and the arena
/// must take its one reservation and never grow.
void expect_forwards(const GraphPlan& plan, const Tensor<float>& x,
                     const Tensor<float>& want, const std::string& where) {
  Workspace arena, scratch;
  for (int rep = 0; rep < 2; ++rep) {
    const StatusOr<QnnGraph::RunResult> r = plan.forward(x, arena, scratch);
    ASSERT_TRUE(r.ok()) << where << ": " << r.status().to_string();
    EXPECT_TRUE(same_bits(r->out, want))
        << where << ", forward " << rep << ": differs from the reference";
    EXPECT_EQ(arena.high_water(), plan.arena_reserve_bytes()) << where;
    EXPECT_EQ(arena.grow_count(), 0) << where;
  }
}

TEST(GraphFuzz, RandomResidualGraphsMatchTheReferencePlan) {
  int fused_in_place = 0, unfused_in_place = 0;
  for (u64 seed = 1; seed <= kGraphs; ++seed) {
    const FuzzGraph fg = random_graph(seed);
    const std::string recipe =
        "seed " + std::to_string(seed) + " " + fg.recipe;
    GraphPlanOptions ro;
    ro.fusion = FusionMode::kOff;
    ro.joint_search = false;
    ro.algo = armkern::ConvAlgo::kReference;
    const StatusOr<GraphPlan> ref = GraphPlan::compile(fg.g, ro);
    ASSERT_TRUE(ref.ok()) << recipe << ": " << ref.status().to_string();
    Workspace a0, s0;
    const Tensor<float> want = ref->forward(fg.x, a0, s0).value().out;

    for (const FusionMode fusion : {FusionMode::kOn, FusionMode::kOff})
      for (const int threads : {1, 3}) {
        const std::string where =
            recipe + (fusion == FusionMode::kOn ? " | fused" : " | unfused") +
            ", threads " + std::to_string(threads);
        GraphPlanOptions opt;
        opt.fusion = fusion;
        opt.threads = threads;
        gpukern::TuningCache cache;
        opt.tuning = &cache;
        const StatusOr<GraphPlan> plan = GraphPlan::compile(fg.g, opt);
        ASSERT_TRUE(plan.ok()) << where << ": " << plan.status().to_string();
        expect_forwards(*plan, fg.x, want, where);
        for (const check::InPlaceWrite& w : plan->audit_input().in_place)
          ++(w.conv_input >= 0 ? fused_in_place : unfused_in_place);
        if (fusion == FusionMode::kOff || plan->fused_convs() == 0 ||
            seed % 2 == 0)
          continue;
        // Small joint rows: split K with a tail and Nc % 16 != 0.
        Rng rng(seed * 7919);
        std::vector<gpukern::ArmBlocking> rows;
        for (int l = 0; l < plan->fused_convs(); ++l)
          rows.push_back(gpukern::ArmBlocking{
              16, rng.uniform(0, 1) == 1 ? 8 : i64{1} << 20,
              4 * rng.uniform(2, 5)});
        cache.put_graph(plan->graph_hash(), rows);
        const StatusOr<GraphPlan> pinned = GraphPlan::compile(fg.g, opt);
        ASSERT_TRUE(pinned.ok())
            << where << ", pinned: " << pinned.status().to_string();
        expect_forwards(*pinned, fg.x, want, where + ", pinned");
      }
  }
  // The draws write in place from fused epilogues and unfused add loops.
  EXPECT_GT(fused_in_place, 0);
  EXPECT_GT(unfused_in_place, 0);
}

}  // namespace
}  // namespace lbc::core
