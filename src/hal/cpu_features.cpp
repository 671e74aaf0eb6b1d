#include "hal/cpu_features.h"

#include <cstdlib>
#include <cstring>
#include <mutex>
#include <optional>
#include <string>

namespace lbc::hal {

namespace {

bool env_disables(const char* token) {
  const char* env = std::getenv("LBC_HAL_DISABLE");
  if (env == nullptr || env[0] == '\0') return false;
  const std::string list(env);
  size_t pos = 0;
  while (pos < list.size()) {
    size_t comma = list.find(',', pos);
    if (comma == std::string::npos) comma = list.size();
    // Trim surrounding spaces so "avx2, native" parses as expected.
    size_t b = pos, e = comma;
    while (b < e && list[b] == ' ') ++b;
    while (e > b && list[e - 1] == ' ') --e;
    if (list.compare(b, e - b, token) == 0) return true;
    pos = comma + 1;
  }
  return false;
}

CpuFeatures probe() {
  CpuFeatures f;
#if defined(__x86_64__) || defined(_M_X64)
  f.x86_64 = true;
#if defined(__GNUC__) || defined(__clang__)
  f.ssse3 = __builtin_cpu_supports("ssse3") != 0;
  f.avx2 = __builtin_cpu_supports("avx2") != 0;
#endif
#endif
  if (env_disables("avx2")) f.avx2 = false;
  if (env_disables("ssse3")) f.ssse3 = false;
  if (env_disables("native")) f.native_disabled = true;
  return f;
}

std::mutex g_mu;
std::optional<CpuFeatures> g_probed;
std::optional<CpuFeatures> g_override;

}  // namespace

CpuFeatures cpu_features() {
  std::lock_guard<std::mutex> lock(g_mu);
  if (g_override.has_value()) return *g_override;
  if (!g_probed.has_value()) g_probed = probe();
  return *g_probed;
}

bool avx2_enabled() { return cpu_features().avx2; }

const char* native_backend_name() {
  const CpuFeatures f = cpu_features();
  if (f.native_disabled) return nullptr;
  return f.avx2 ? "x86-avx2" : "x86-scalar";
}

void force_cpu_features(const CpuFeatures& f) {
  std::lock_guard<std::mutex> lock(g_mu);
  g_override = f;
}

void clear_cpu_feature_override() {
  std::lock_guard<std::mutex> lock(g_mu);
  g_override.reset();
}

const char* cpu_features_describe() {
  const CpuFeatures& f = cpu_features();
  if (!f.x86_64) return "scalar-only (non-x86)";
  if (f.avx2) return "x86-64 avx2 ssse3";
  if (f.ssse3) return "x86-64 ssse3 (avx2 off)";
  return "x86-64 scalar-only";
}

}  // namespace lbc::hal
