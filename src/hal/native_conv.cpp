#include "hal/native_conv.h"

#include <chrono>
#include <cstring>

#include "common/workspace.h"
#include "hal/cpu_features.h"

namespace lbc::hal {

namespace {

double now_ns() {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

i64 NativeConvPlan::workspace_bytes(i64 batch) const {
  const ConvShape sb = shape.with_batch(batch);
  i64 total =
      workspace_rounded(native_packed_b_bytes(sb.gemm_k(), sb.gemm_n(), bits));
  // Batch > 1 needs a staging C: the GEMM's M x N row-major output only
  // coincides with NCHW for a single image.
  if (batch > 1)
    total += workspace_rounded(sb.gemm_m() * sb.gemm_n() *
                               static_cast<i64>(sizeof(i32)));
  return total;
}

StatusOr<NativeConvPlan> plan_native_conv(const ConvShape& s,
                                          const Tensor<i8>& weight, int bits,
                                          const NativeBlocking* blocking) {
  LBC_VALIDATE(s.valid(), kInvalidArgument,
               "plan_native_conv: invalid shape '" << s.name << "'");
  LBC_VALIDATE(bits >= 2 && bits <= 8, kInvalidArgument,
               "plan_native_conv: bits must be in [2, 8], got " << bits);
  const Shape4 want{s.out_c, s.in_c, s.kernel, s.kernel};
  LBC_VALIDATE(weight.shape() == want, kInvalidArgument,
               "plan_native_conv: weight dims do not match shape '" << s.name
                                                                    << "'");
  const char* backend = native_backend_name();
  LBC_VALIDATE(backend != nullptr, kUnavailable,
               "plan_native_conv: no native backend on this host "
               "(LBC_HAL_DISABLE=native?)");

  NativeConvPlan plan;
  plan.shape = s;
  plan.bits = bits;
  plan.scheme = native_scheme_for(bits);
  plan.backend_name = backend;
  // The NCHW weight layout (out_c x in_c x kh x kw, row-major) is exactly
  // the GEMM's M x K view, so packing consumes it in place.
  LBC_ASSIGN_OR_RETURN(
      plan.packed_a,
      native_pack_a(weight.data(), s.gemm_m(), s.gemm_k(), bits));
  plan.blocking = blocking != nullptr
                      ? *blocking
                      : search_native_blocking(s.gemm_m(), s.gemm_n(),
                                               s.gemm_k(), bits);
  return plan;
}

StatusOr<NativeConvResult> execute_native_conv(const NativeConvPlan& plan,
                                               const Tensor<i8>& input,
                                               Workspace& ws) {
  const i64 batch = input.shape().n;
  LBC_VALIDATE(batch >= 1, kInvalidArgument,
               "execute_native_conv: empty input batch");
  const ConvShape sb = plan.shape.with_batch(batch);
  const Shape4 want{batch, sb.in_c, sb.in_h, sb.in_w};
  LBC_VALIDATE(input.shape() == want, kInvalidArgument,
               "execute_native_conv: input dims do not match plan '"
                   << plan.shape.name << "'");

  const i64 m = sb.gemm_m(), n = sb.gemm_n(), k = sb.gemm_k();
  ws.reset();
  i8* pb = ws.alloc_n<i8>(native_packed_b_bytes(k, n, plan.bits));
  const i64 ohw = sb.out_h() * sb.out_w();
  NativeConvResult r;
  r.out = Tensor<i32>(Shape4{batch, sb.out_c, sb.out_h(), sb.out_w()});
  i32* c = batch == 1 ? r.out.data() : ws.alloc_n<i32>(m * n);

  const double t0 = now_ns();
  native_pack_b_from_conv(sb, input, plan.bits, pb);
  const NativeGemmResult g =
      native_gemm_packed_b(plan.packed_a, pb, c, n, plan.blocking);
  if (batch > 1) {
    // Scatter M x N (col = (img, oy, ox)) to NCHW: one contiguous
    // oh*ow run per (img, out-channel).
    i32* out = r.out.data();
    for (i64 img = 0; img < batch; ++img)
      for (i64 oc = 0; oc < m; ++oc)
        std::memcpy(out + (img * m + oc) * ohw, c + oc * n + img * ohw,
                    static_cast<size_t>(ohw) * sizeof(i32));
  }
  r.ns = now_ns() - t0;
  r.kernel = g.kernel;
  return r;
}

}  // namespace lbc::hal
