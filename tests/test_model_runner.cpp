// Whole-model runner tests on shrunken network tables.
#include <gtest/gtest.h>

#include "core/model_runner.h"

namespace lbc::core {
namespace {

TEST(ModelRunner, ArmStackRunsAndVerifies) {
  const auto layers = nets::shrink_for_tests(nets::resnet50_layers(), 8, 16);
  ModelRunOptions opt;
  opt.bits = 4;
  opt.verify = true;
  const ModelRunReport rep = run_model(layers, opt).value();
  ASSERT_EQ(rep.layers.size(), 19u);
  EXPECT_GT(rep.total_seconds, 0);
  EXPECT_GT(rep.total_macs, 0);
  for (const auto& l : rep.layers) EXPECT_TRUE(l.verified) << l.name;
}

TEST(ModelRunner, BitserialStackVerifies) {
  const auto layers =
      nets::shrink_for_tests(nets::densenet121_layers(), 8, 16);
  ModelRunOptions opt;
  opt.bits = 2;
  opt.arm_impl = ArmImpl::kTvmBitserial;
  opt.arm_algo = armkern::ConvAlgo::kBitserial;
  opt.verify = true;
  const ModelRunReport rep = run_model(layers, opt).value();
  for (const auto& l : rep.layers) EXPECT_TRUE(l.verified) << l.name;
}

TEST(ModelRunner, GpuStackTimesAllLayers) {
  ModelRunOptions opt;
  opt.backend = Backend::kGpuTU102;
  opt.bits = 4;
  const ModelRunReport rep = run_model(nets::scr_resnet50_layers(), opt).value();
  ASSERT_EQ(rep.layers.size(), 13u);
  for (const auto& l : rep.layers) EXPECT_GT(l.seconds, 0) << l.name;
}

TEST(ModelRunner, LowerBitsNoSlowerEndToEndOnArm) {
  const auto layers = nets::shrink_for_tests(nets::scr_resnet50_layers(), 8, 32);
  ModelRunOptions o2, o8;
  o2.bits = 2;
  o8.bits = 8;
  const double t2 = run_model(layers, o2).value().total_seconds;
  const double t8 = run_model(layers, o8).value().total_seconds;
  EXPECT_LT(t2, t8);
}

TEST(ModelRunner, BatchScalesWorkAndStaysBitExact) {
  const auto layers = nets::shrink_for_tests(nets::resnet50_layers(), 8, 16);
  ModelRunOptions o1, o4;
  o1.bits = 4;
  o1.verify = true;
  o4 = o1;
  o4.batch = 4;
  const ModelRunReport r1 = run_model(layers, o1).value();
  const ModelRunReport r4 = run_model(layers, o4).value();
  // MAC count scales exactly with the micro-batch...
  EXPECT_EQ(r4.total_macs, 4 * r1.total_macs);
  EXPECT_GT(r4.total_seconds, r1.total_seconds);
  // ...and every batched layer still matches the int32 reference.
  for (const auto& l : r4.layers) EXPECT_TRUE(l.verified) << l.name;
}

TEST(ModelRunner, RejectsBadBatch) {
  const auto layers = nets::shrink_for_tests(nets::resnet50_layers(), 8, 16);
  ModelRunOptions opt;
  opt.batch = 0;
  EXPECT_EQ(run_model(layers, opt).status().code(),
            StatusCode::kInvalidArgument);
  opt.batch = 65;
  EXPECT_EQ(run_model(layers, opt).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ModelRunner, DeterministicAcrossRuns) {
  const auto layers = nets::shrink_for_tests(nets::resnet50_layers(), 6, 8);
  ModelRunOptions opt;
  opt.bits = 8;
  const ModelRunReport a = run_model(layers, opt).value();
  const ModelRunReport b = run_model(layers, opt).value();
  ASSERT_EQ(a.layers.size(), b.layers.size());
  for (size_t i = 0; i < a.layers.size(); ++i)
    EXPECT_DOUBLE_EQ(a.layers[i].seconds, b.layers[i].seconds);
}

TEST(ModelRunner, NativeHostReportsMeasuredNanoseconds) {
  const auto layers = nets::shrink_for_tests(nets::resnet50_layers(), 6, 8);
  ModelRunOptions opt;
  opt.backend = Backend::kNativeHost;
  opt.bits = 4;
  const ModelRunReport rep = run_model(layers, opt).value();
  double sum = 0;
  for (const auto& l : rep.layers) {
    EXPECT_GT(l.measured_ns, 0) << l.name << ": native layer lost its "
                                   "wall-clock measurement";
    EXPECT_NEAR(l.seconds, l.measured_ns * 1e-9, 1e-12) << l.name;
    sum += l.measured_ns;
  }
  EXPECT_DOUBLE_EQ(rep.total_measured_ns, sum);
}

TEST(ModelRunner, ModeledBackendHasNoMeasuredNanoseconds) {
  const auto layers = nets::shrink_for_tests(nets::resnet50_layers(), 6, 8);
  ModelRunOptions opt;
  opt.bits = 4;  // default modeled ARM backend
  const ModelRunReport rep = run_model(layers, opt).value();
  for (const auto& l : rep.layers) EXPECT_EQ(l.measured_ns, 0) << l.name;
  EXPECT_EQ(rep.total_measured_ns, 0);
}

}  // namespace
}  // namespace lbc::core
