// End-to-end quantized-network graph runner.
//
// The paper evaluates isolated convolution kernels; a deployment runs whole
// quantized networks: quantize once at the input, keep activations in int8
// through conv / ReLU / residual-add / pooling nodes (re-quantizing at each
// producer), and dequantize once at the output — exactly the fusion regime
// Sec. 4.4 assumes. This module provides that runtime on the simulated ARM
// backend, with:
//
//  * two-pass calibration: a fp32 forward pass records per-node absmax,
//    fixing every activation scheme (standard post-training calibration);
//    it is the same single-threaded fp32 executor forward_fp32 runs, with
//    a per-node hook, so the schemes derive from forward_fp32's values;
//  * integer-only inference afterwards: convs run through the bit-width-
//    dispatched kernels (Sec. 3) and re-quantize with fixed-point
//    multipliers; residual adds rescale both operands into the output
//    scheme; ReLU folds into the producer's clamp range;
//  * a fp32 reference forward pass over the same weights, so tests can
//    bound the end-to-end quantization error;
//  * modeled latency aggregation per node.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "armkern/conv_arm.h"
#include "common/conv_shape.h"
#include "common/tensor.h"
#include "common/workspace.h"
#include "quant/quantize.h"

namespace lbc::core {

class GraphPlan;  // core/graph_plan.h

class QnnGraph {
 public:
  /// Node handle.
  using NodeId = int;

  /// Input node (batch fixed at 1, like the paper's ARM evaluation).
  NodeId add_input(i64 channels, i64 hw);

  /// Convolution (+ optionally fused ReLU). Weight/bias are fp32 and are
  /// quantized at calibration time with the node's bit width.
  NodeId add_conv(NodeId src, i64 out_c, i64 kernel, i64 stride, i64 pad,
                  int bits, const Tensor<float>& weight,
                  std::span<const float> bias = {}, bool relu = false);

  /// Residual add (+ optional ReLU): both inputs rescaled into the output
  /// scheme with fixed-point multipliers.
  NodeId add_add(NodeId a, NodeId b, bool relu = false);

  /// 2x2/stride-2 max pooling (order-preserving: runs directly on int8).
  NodeId add_maxpool2(NodeId src);

  /// Global average pooling (int32 accumulate, requantize once).
  NodeId add_global_avgpool(NodeId src);

  /// Record activation schemes from a fp32 forward pass. Must run once
  /// before forward(); uses the node bit widths given at construction.
  /// All or nothing: the schemes and quantized weights are staged and
  /// committed only when every node calibrates, so on error the graph
  /// keeps its previous calibration (or stays uncalibrated).
  /// Errors (clean Status, never UB): kInvalidArgument on an empty graph,
  /// an input tensor that does not match the input node, a non-finite
  /// calibration value, conv weight or bias, or a non-finite node output;
  /// kOutOfRange when a conv bias does not fit the i32 accumulator
  /// (quant::quantize_bias). An all-zero calibration input is NOT an
  /// error: choose_scheme maps the degenerate absmax to the identity scale.
  Status calibrate(const Tensor<float>& x);

  struct RunResult {
    Tensor<float> out;        ///< dequantized final activation
    double seconds = 0;       ///< modeled ARM latency (convs + epilogues)
    std::vector<double> node_seconds;
  };

  /// Integer-only forward pass (requires calibrate()). Executes through a
  /// compiled, cached GraphPlan (core/graph_plan.h) with fused epilogues
  /// on — the per-layer loop this method used to run is GraphPlan with
  /// FusionMode::kOff. NOT thread-safe: the cached plan and its arenas are
  /// single-owner (one QnnGraph per worker).
  RunResult forward(const Tensor<float>& x,
                    armkern::ConvAlgo algo = armkern::ConvAlgo::kAuto) const;

  /// fp32 reference forward over the same (unquantized) weights.
  Tensor<float> forward_fp32(const Tensor<float>& x) const;

  i64 node_count() const { return static_cast<i64>(nodes_.size()); }
  bool calibrated() const { return calibrated_; }
  /// Output activation scheme calibrate() fixed for node `id`.
  const quant::QScheme& activation_scheme(NodeId id) const;
  Shape4 output_shape() const;

 private:
  friend class GraphPlan;  // compiles the node list (core/graph_plan.h)

  enum class Kind { kInput, kConv, kAdd, kMaxPool2, kGlobalAvgPool };

  struct Node {
    Kind kind;
    NodeId src0 = -1, src1 = -1;
    Shape4 out_shape;
    int bits = 8;
    bool relu = false;

    // conv only
    ConvShape conv;
    Tensor<float> weight_f;
    std::vector<float> bias_f;

    // set by calibrate()
    int act_bits = 8;  ///< output activation width: min(bits, consumers')
    quant::QScheme scheme;          // activation scheme of this node's output
    quant::QScheme weight_scheme;   // conv only
    Tensor<i8> weight_q;            // conv only
  };

  NodeId push(Node n);
  const Node& at(NodeId id) const { return nodes_[static_cast<size_t>(id)]; }

  /// The graph's one fp32 executor (forward_fp32 and calibrate): runs the
  /// nodes in order over the unquantized weights, single-threaded, and
  /// hands each node's output to `on_node` as soon as it exists. Stops at
  /// the first error the hook returns. `x` must match the input node.
  using Fp32Hook = std::function<Status(size_t node, const Tensor<float>& y)>;
  StatusOr<Tensor<float>> run_fp32(const Tensor<float>& x,
                                   const Fp32Hook& on_node) const;

  std::vector<Node> nodes_;
  bool calibrated_ = false;

  // forward() caches one compiled GraphPlan per requested algo and reuses
  // the arenas across calls (zero steady-state allocations on the fused
  // path). Invalidated by push() and calibrate().
  mutable std::map<int, std::shared_ptr<const GraphPlan>> plans_;
  mutable Workspace arena_;
  mutable Workspace scratch_;
};

/// A quantized ResNet bottleneck block (1x1 reduce -> 3x3 -> 1x1 expand,
/// with projection shortcut when shapes differ), with random but
/// deterministic fp32 weights — the building block of the example network.
QnnGraph::NodeId add_bottleneck_block(QnnGraph& g, QnnGraph::NodeId src,
                                      i64 in_c, i64 mid_c, i64 out_c,
                                      i64 stride, int bits, u64 seed);

}  // namespace lbc::core
