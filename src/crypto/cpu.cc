#include "crypto/cpu.h"

#include <cstdlib>

namespace pinscope::crypto::cpu {
namespace {

bool EnvSet(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr && v[0] != '\0' && !(v[0] == '0' && v[1] == '\0');
}

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))

bool HostHasAvx2() {
  static const bool supported = __builtin_cpu_supports("avx2");
  return supported;
}

bool HostHasShaNi() {
  static const bool supported = __builtin_cpu_supports("sha") &&
                                __builtin_cpu_supports("sse4.1") &&
                                __builtin_cpu_supports("ssse3");
  return supported;
}

SimdLevel HostSimdLevel() {
  if (EnvSet("PINSCOPE_NO_SIMD")) return SimdLevel::kPortable;
  if (!EnvSet("PINSCOPE_NO_AVX2") && HostHasAvx2()) return SimdLevel::kAvx2;
  return SimdLevel::kSse2;  // x86-64 baseline, always present
}

bool HostShaNiAllowed() {
  return !EnvSet("PINSCOPE_NO_SIMD") && HostHasShaNi();
}

#else

SimdLevel HostSimdLevel() { return SimdLevel::kPortable; }
bool HostShaNiAllowed() { return false; }

#endif

}  // namespace

const char* SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kAvx2:
      return "avx2";
    case SimdLevel::kSse2:
      return "sse2";
    case SimdLevel::kPortable:
      return "portable";
  }
  return "unknown";
}

SimdLevel DetectSimdLevel() { return HostSimdLevel(); }

bool ShaNiAllowed() { return HostShaNiAllowed(); }

}  // namespace pinscope::crypto::cpu
