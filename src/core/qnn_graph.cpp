#include "core/qnn_graph.h"

#include <cmath>

#include "common/rng.h"
#include "common/status.h"
#include "core/graph_plan.h"
#include "refconv/conv_f32.h"

namespace lbc::core {

QnnGraph::NodeId QnnGraph::push(Node n) {
  nodes_.push_back(std::move(n));
  calibrated_ = false;
  plans_.clear();
  return static_cast<NodeId>(nodes_.size() - 1);
}

QnnGraph::NodeId QnnGraph::add_input(i64 channels, i64 hw) {
  Node n;
  n.kind = Kind::kInput;
  n.out_shape = Shape4{1, channels, hw, hw};
  return push(std::move(n));
}

QnnGraph::NodeId QnnGraph::add_conv(NodeId src, i64 out_c, i64 kernel,
                                    i64 stride, i64 pad, int bits,
                                    const Tensor<float>& weight,
                                    std::span<const float> bias, bool relu) {
  const Shape4 in = at(src).out_shape;
  Node n;
  n.kind = Kind::kConv;
  n.src0 = src;
  n.bits = bits;
  n.relu = relu;
  n.conv.name = "conv" + std::to_string(nodes_.size());
  n.conv.batch = 1;
  n.conv.in_c = in.c;
  n.conv.in_h = in.h;
  n.conv.in_w = in.w;
  n.conv.out_c = out_c;
  n.conv.kernel = kernel;
  n.conv.stride = stride;
  n.conv.pad = pad;
  LBC_CHECK_MSG(n.conv.valid(), "add_conv: invalid conv shape");
  LBC_CHECK_MSG(weight.shape() == (Shape4{out_c, in.c, kernel, kernel}),
                "add_conv: weight tensor does not match out_c/in_c/kernel");
  n.weight_f = weight;
  if (!bias.empty()) {
    LBC_CHECK_MSG(static_cast<i64>(bias.size()) == out_c,
                  "add_conv: bias size does not match out_c");
    n.bias_f.assign(bias.begin(), bias.end());
  }
  n.out_shape = Shape4{1, out_c, n.conv.out_h(), n.conv.out_w()};
  return push(std::move(n));
}

QnnGraph::NodeId QnnGraph::add_add(NodeId a, NodeId b, bool relu) {
  LBC_CHECK_MSG(at(a).out_shape == at(b).out_shape,
                "add_add: operand shapes differ");
  Node n;
  n.kind = Kind::kAdd;
  n.src0 = a;
  n.src1 = b;
  n.relu = relu;
  n.bits = std::max(at(a).bits, at(b).bits);
  n.out_shape = at(a).out_shape;
  return push(std::move(n));
}

QnnGraph::NodeId QnnGraph::add_maxpool2(NodeId src) {
  const Shape4 in = at(src).out_shape;
  LBC_CHECK_MSG(in.h % 2 == 0 && in.w % 2 == 0,
                "add_maxpool2: input height/width must be even");
  Node n;
  n.kind = Kind::kMaxPool2;
  n.src0 = src;
  n.bits = at(src).bits;
  n.out_shape = Shape4{1, in.c, in.h / 2, in.w / 2};
  return push(std::move(n));
}

QnnGraph::NodeId QnnGraph::add_global_avgpool(NodeId src) {
  const Shape4 in = at(src).out_shape;
  Node n;
  n.kind = Kind::kGlobalAvgPool;
  n.src0 = src;
  n.bits = at(src).bits;
  n.out_shape = Shape4{1, in.c, 1, 1};
  return push(std::move(n));
}

Shape4 QnnGraph::output_shape() const {
  LBC_CHECK_MSG(!nodes_.empty(), "output_shape: graph has no nodes");
  return nodes_.back().out_shape;
}

const quant::QScheme& QnnGraph::activation_scheme(NodeId id) const {
  LBC_CHECK_MSG(calibrated_, "activation_scheme: call calibrate() first");
  return at(id).scheme;
}

// ---------------------------------------------------------------------------
// fp32 executor: forward_fp32 and the calibration pass
// ---------------------------------------------------------------------------

StatusOr<Tensor<float>> QnnGraph::run_fp32(const Tensor<float>& x,
                                           const Fp32Hook& on_node) const {
  const auto relu = [](Tensor<float>& y) {
    for (float& v : y.span()) v = v > 0 ? v : 0.0f;
  };
  std::vector<Tensor<float>> acts(nodes_.size());
  for (size_t i = 0; i < nodes_.size(); ++i) {
    const Node& n = nodes_[i];
    Tensor<float>& y = acts[i];
    switch (n.kind) {
      case Kind::kInput:
        y = x;
        break;
      case Kind::kConv: {
        // Bias after the whole tap sum, as the oracle-based pass added it.
        y = ref::conv2d_f32_fast(n.conv, acts[static_cast<size_t>(n.src0)],
                                 n.weight_f);
        if (!n.bias_f.empty())
          for (i64 c = 0; c < y.shape().c; ++c)
            for (i64 h = 0; h < y.shape().h; ++h)
              for (i64 w = 0; w < y.shape().w; ++w)
                y.at(0, c, h, w) += n.bias_f[static_cast<size_t>(c)];
        if (n.relu) relu(y);
        break;
      }
      case Kind::kAdd: {
        const Tensor<float>& a = acts[static_cast<size_t>(n.src0)];
        const Tensor<float>& b = acts[static_cast<size_t>(n.src1)];
        y = Tensor<float>(a.shape());
        for (i64 j = 0; j < a.elems(); ++j)
          y.data()[j] = a.data()[j] + b.data()[j];
        if (n.relu) relu(y);
        break;
      }
      case Kind::kMaxPool2: {
        const Tensor<float>& a = acts[static_cast<size_t>(n.src0)];
        y = Tensor<float>(n.out_shape);
        for (i64 c = 0; c < y.shape().c; ++c)
          for (i64 h = 0; h < y.shape().h; ++h)
            for (i64 w = 0; w < y.shape().w; ++w)
              y.at(0, c, h, w) = std::max(
                  std::max(a.at(0, c, 2 * h, 2 * w), a.at(0, c, 2 * h, 2 * w + 1)),
                  std::max(a.at(0, c, 2 * h + 1, 2 * w),
                           a.at(0, c, 2 * h + 1, 2 * w + 1)));
        break;
      }
      case Kind::kGlobalAvgPool: {
        const Tensor<float>& a = acts[static_cast<size_t>(n.src0)];
        y = Tensor<float>(n.out_shape);
        const float inv = 1.0f / static_cast<float>(a.shape().h * a.shape().w);
        for (i64 c = 0; c < a.shape().c; ++c) {
          float sum = 0;
          for (i64 h = 0; h < a.shape().h; ++h)
            for (i64 w = 0; w < a.shape().w; ++w) sum += a.at(0, c, h, w);
          y.at(0, c, 0, 0) = sum * inv;
        }
        break;
      }
    }
    if (on_node) LBC_RETURN_IF_ERROR(on_node(i, y));
  }
  return std::move(acts.back());
}

Tensor<float> QnnGraph::forward_fp32(const Tensor<float>& x) const {
  LBC_CHECK_MSG(!nodes_.empty() && x.shape() == nodes_.front().out_shape,
                "forward_fp32: input shape does not match input node");
  return run_fp32(x, nullptr).value();
}

Status QnnGraph::calibrate(const Tensor<float>& x) {
  LBC_VALIDATE(!nodes_.empty(), kInvalidArgument,
               "calibrate: graph has no nodes");
  LBC_VALIDATE(nodes_.front().kind == Kind::kInput, kInvalidArgument,
               "calibrate: graph must start with an input node");
  LBC_VALIDATE(x.shape() == nodes_.front().out_shape, kInvalidArgument,
               "calibrate: input tensor does not match the input node");
  LBC_VALIDATE(std::isfinite(quant::absmax(x.span())), kInvalidArgument,
               "calibrate: non-finite calibration value");

  // Everything is staged and committed only once every node has
  // calibrated, so a failure leaves the graph as it was.
  struct Staged {
    int act_bits = 8;
    quant::QScheme scheme, weight_scheme;
    Tensor<i8> weight_q;
  };
  std::vector<Staged> staged(nodes_.size());

  // Weights first, so a non-finite weight or bias fails before the fp32
  // pass would spread it into the activations.
  for (size_t i = 0; i < nodes_.size(); ++i) {
    const Node& n = nodes_[i];
    if (n.kind != Kind::kConv) continue;
    const float wmax = quant::absmax(n.weight_f.span());
    LBC_VALIDATE(std::isfinite(wmax), kInvalidArgument,
                 "calibrate: conv node " << i << " has a non-finite weight");
    LBC_VALIDATE(std::isfinite(quant::absmax(n.bias_f)), kInvalidArgument,
                 "calibrate: conv node " << i << " has a non-finite bias");
    LBC_ASSIGN_OR_RETURN(staged[i].weight_scheme,
                         quant::choose_scheme(wmax, n.bits));
    staged[i].weight_q = quant::quantize(n.weight_f, staged[i].weight_scheme);
  }

  // A node feeding a lower-bit consumer must already emit activations in
  // that consumer's range (the paper's QNNs quantize both operands of a
  // b-bit conv to b bits), so propagate consumer bit widths backwards.
  for (size_t i = 0; i < nodes_.size(); ++i) staged[i].act_bits = nodes_[i].bits;
  for (size_t i = nodes_.size(); i-- > 0;) {
    const Node& n = nodes_[i];
    for (NodeId src : {n.src0, n.src1})
      if (src >= 0)
        staged[static_cast<size_t>(src)].act_bits = std::min(
            staged[static_cast<size_t>(src)].act_bits, staged[i].act_bits);
  }

  // fp32 pass, recording absmax per node output.
  LBC_RETURN_IF_ERROR(
      run_fp32(x, [&staged](size_t i, const Tensor<float>& y) -> Status {
        LBC_ASSIGN_OR_RETURN(staged[i].scheme,
                             quant::choose_scheme(quant::absmax(y.span()),
                                                  staged[i].act_bits));
        return Status();
      }).status());

  // The bias GraphPlan folds must fit the i32 accumulator; reject it here
  // so forward() never meets an uncompilable graph.
  for (size_t i = 0; i < nodes_.size(); ++i) {
    const Node& n = nodes_[i];
    if (n.kind != Kind::kConv) continue;
    LBC_RETURN_IF_ERROR(
        quant::quantize_bias(n.bias_f, n.conv.out_c,
                             staged[static_cast<size_t>(n.src0)].scheme,
                             staged[i].weight_scheme, n.conv.gemm_k())
            .status());
  }

  for (size_t i = 0; i < nodes_.size(); ++i) {
    Node& n = nodes_[i];
    n.act_bits = staged[i].act_bits;
    n.scheme = staged[i].scheme;
    n.weight_scheme = staged[i].weight_scheme;
    n.weight_q = std::move(staged[i].weight_q);
  }
  calibrated_ = true;
  plans_.clear();
  return Status();
}

// ---------------------------------------------------------------------------
// integer forward
// ---------------------------------------------------------------------------

QnnGraph::RunResult QnnGraph::forward(const Tensor<float>& x,
                                      armkern::ConvAlgo algo) const {
  LBC_CHECK_MSG(calibrated_, "forward: call calibrate() first");
  // Compile-once, execute-many: the whole net is compiled into a GraphPlan
  // (fused epilogues + joint blocking + liveness-packed arena) the first
  // time each algo is requested. Graph construction already validated the
  // convs; a compile failure here is a programming error, so .value()
  // (fatal, defined) is correct.
  std::shared_ptr<const GraphPlan>& plan = plans_[static_cast<int>(algo)];
  if (plan == nullptr) {
    GraphPlanOptions opt;
    opt.algo = algo;
    plan = std::make_shared<const GraphPlan>(
        GraphPlan::compile(*this, opt).value());
  }
  return plan->forward(x, arena_, scratch_).value();
}

// ---------------------------------------------------------------------------
// Block builder
// ---------------------------------------------------------------------------

QnnGraph::NodeId add_bottleneck_block(QnnGraph& g, QnnGraph::NodeId src,
                                      i64 in_c, i64 mid_c, i64 out_c,
                                      i64 stride, int bits, u64 seed) {
  auto rand_w = [&](i64 oc, i64 ic, i64 k, u64 s) {
    return random_ftensor(Shape4{oc, ic, k, k}, -0.25f, 0.25f, s);
  };
  const auto c1 = g.add_conv(src, mid_c, 1, stride, 0, bits,
                             rand_w(mid_c, in_c, 1, seed), {}, /*relu=*/true);
  const auto c2 = g.add_conv(c1, mid_c, 3, 1, 1, bits,
                             rand_w(mid_c, mid_c, 3, seed + 1), {}, true);
  const auto c3 = g.add_conv(c2, out_c, 1, 1, 0, bits,
                             rand_w(out_c, mid_c, 1, seed + 2), {}, false);
  QnnGraph::NodeId shortcut = src;
  if (in_c != out_c || stride != 1)
    shortcut = g.add_conv(src, out_c, 1, stride, 0, bits,
                          rand_w(out_c, in_c, 1, seed + 3), {}, false);
  return g.add_add(c3, shortcut, /*relu=*/true);
}

}  // namespace lbc::core
