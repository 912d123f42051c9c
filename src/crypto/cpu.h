// Shared runtime CPU-feature dispatch for the SIMD hot paths.
//
// Every accelerated kernel in the tree (the SHA-NI SHA-256 block function,
// the multi-literal scan prefilter) asks this one helper which instruction
// sets it may use, so feature detection, env kill-switches, and the
// portable-fallback policy live in a single place instead of being
// re-derived per kernel.
//
// Kill-switches (read from the environment):
//   PINSCOPE_NO_SIMD   — force the portable scalar path everywhere.
//   PINSCOPE_NO_AVX2   — cap vector scanning at SSE2 (AVX2 stays unused).
//
// SimdLevel() re-reads the environment on every call (CPUID results are
// cached; getenv is cheap), so tests can flip a knob with setenv and have
// objects *constructed afterwards* — e.g. a Scanner and its compiled
// prefilter — dispatch differently within one process. The SIMD and
// portable paths are required to be byte-for-byte equivalent; `ctest -L
// simd` proves it at the study-export level.
#pragma once

namespace pinscope::crypto::cpu {

/// Vector-scan tiers for the byte-scanning kernels, best first.
enum class SimdLevel {
  kAvx2,      ///< 32-byte lanes (x86 AVX2).
  kSse2,      ///< 16-byte lanes (x86-64 baseline).
  kPortable,  ///< Scalar fallback; always available.
};

/// Human-readable tier name ("avx2", "sse2", "portable").
[[nodiscard]] const char* SimdLevelName(SimdLevel level);

/// The best vector tier the host supports *and* the environment allows.
/// Non-x86 builds always report kPortable.
[[nodiscard]] SimdLevel DetectSimdLevel();

/// True when the SHA-256 SHA-NI block function may be used (hardware
/// support present and PINSCOPE_NO_SIMD not set).
[[nodiscard]] bool ShaNiAllowed();

}  // namespace pinscope::crypto::cpu
