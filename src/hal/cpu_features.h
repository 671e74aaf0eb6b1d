// Host CPU capability probing for the native x86 backend, and the one
// rule that names the native kernel family a process runs.
//
// Probing happens once, lazily, and combines two sources:
//  * the hardware (GCC/Clang __builtin_cpu_supports on x86-64; other
//    architectures report no x86 features), and
//  * the LBC_HAL_DISABLE environment variable — a comma-separated list of
//    feature/backend tokens ("avx2", "native") that masks capabilities off.
//    This is how CI keeps the portable scalar fallback honest on AVX2
//    machines: LBC_HAL_DISABLE=avx2 forces every native GEMM through the
//    scalar kernels without recompiling.
//
// Tests that need to flip features *after* the first probe use
// force_cpu_features / clear_cpu_feature_override; production code never
// calls these.
#pragma once

namespace lbc::hal {

struct CpuFeatures {
  bool x86_64 = false;  ///< compiled for and running on x86-64
  bool ssse3 = false;   ///< pshufb (LUT scheme)
  bool avx2 = false;    ///< 256-bit integer SIMD (both native schemes)
  /// LBC_HAL_DISABLE contained "native": native_backend_name() returns
  /// null, hal::plan_native_conv reports kUnavailable and
  /// core::plan_native_conv degrades to the emulated plan.
  bool native_disabled = false;
};

/// The probed (and env-masked) capabilities of this process. Cached after
/// the first call; the environment is read once. Returned by value so a
/// racing test override can never invalidate a held reference.
CpuFeatures cpu_features();

/// Whether the AVX2 kernels may run right now (probe minus env mask minus
/// any test override).
bool avx2_enabled();

/// The native kernel family this process runs right now: "x86-avx2" when
/// AVX2 is enabled, "x86-scalar" otherwise, null when native_disabled.
/// Reads the bit the kernel dispatch reads (avx2_enabled), so a plan's
/// label names the kernel family its executes run.
const char* native_backend_name();

/// Test hook: replace the probed features until clear_cpu_feature_override.
/// Forcing avx2 = true on a machine without AVX2 is undefined behavior —
/// tests only ever force features *off*.
void force_cpu_features(const CpuFeatures& f);
void clear_cpu_feature_override();

/// Human-readable "x86-64 avx2 ssse3" / "scalar-only" summary for reports.
const char* cpu_features_describe();

}  // namespace lbc::hal
