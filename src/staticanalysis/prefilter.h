// SIMD multi-literal scan prefilter (the Teddy/memchr-style batch sweep).
//
// Each scanner rule starts with a fixed literal: the PEM BEGIN marker, and
// the pin pattern's "sha". This class finds every occurrence of all of them
// in a single pass: a vectorized candidate filter over 2-byte probes marks
// the few positions where any literal could occur, and an exact memcmp
// confirms which literal(s) actually begin there. One traversal of the
// haystack replaces one per rule, and the candidate filter runs 16 (SSE2) or
// 32 (AVX2) subject positions per instruction.
//
// Each literal's probe pair is chosen at the lowest-noise offset *inside*
// the literal, not blindly at its head: "-----BEGIN CERTIFICATE-----" would
// otherwise anchor on "--" and fire at every position of every dash run the
// subject contains. A candidate match of the pair at position i is verified
// at literal start i - offset.
//
// The kernel tier is chosen at construction from the shared dispatch helper
// (crypto/cpu.h) — honoring PINSCOPE_NO_SIMD / PINSCOPE_NO_AVX2 — so tests
// can force the portable path with setenv and compare outputs. All tiers are
// exact and byte-identical: hits are every occurrence (overlapping included)
// of every literal, ordered by position, ties by pattern index.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "crypto/cpu.h"

namespace pinscope::staticanalysis {

/// One literal occurrence found by the prefilter.
struct PrefilterHit {
  std::size_t pos = 0;        ///< Byte offset of the literal in the subject.
  std::uint32_t pattern = 0;  ///< Index into the constructor's literal list.

  bool operator==(const PrefilterHit&) const = default;
};

/// Batch multi-literal searcher. Compile once per rule set; sweep many
/// subjects. Thread-safe after construction (FindAll is const and keeps no
/// mutable state).
class MultiLiteralPrefilter {
 public:
  /// Builds the filter for `literals` (pattern i = literals[i]). Empty
  /// literals are legal but never reported. The SIMD tier is fixed here,
  /// from crypto::cpu::DetectSimdLevel().
  explicit MultiLiteralPrefilter(std::vector<std::string> literals);

  /// Clears `out` and fills it with every occurrence of every non-empty
  /// literal in `text` — overlapping occurrences included — sorted by
  /// (pos, pattern). `out` is caller-provided so a scan loop can reuse one
  /// buffer's capacity across files.
  void FindAll(std::string_view text, std::vector<PrefilterHit>& out) const;

  /// The literal list, as given.
  [[nodiscard]] const std::vector<std::string>& literals() const {
    return literals_;
  }

  /// The kernel tier selected at construction.
  [[nodiscard]] crypto::cpu::SimdLevel level() const { return level_; }

  /// Human-readable tier ("avx2" / "sse2" / "portable"), for benchmarks.
  [[nodiscard]] const char* level_name() const {
    return crypto::cpu::SimdLevelName(level_);
  }

 private:
  /// Candidate filter unit: each literal of length >= 2 contributes the
  /// 2-byte probe at its chosen offset; duplicate probes are collapsed.
  struct BytePair {
    unsigned char b0 = 0;
    unsigned char b1 = 0;
  };

  void FindAllPortable(std::string_view text, std::size_t from,
                       std::vector<PrefilterHit>& out) const;
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  void FindAllSse2(std::string_view text, std::vector<PrefilterHit>& out) const;
  void FindAllAvx2(std::string_view text, std::vector<PrefilterHit>& out) const;
#endif
  /// Exact confirmation at one candidate (probe-pair) position: each literal
  /// is tested at pos - its probe offset. Kernels may therefore append hits
  /// out of (pos, pattern) order; FindAll sorts before returning.
  void VerifyAt(std::string_view text, std::size_t pos,
                std::vector<PrefilterHit>& out) const;

  std::vector<std::string> literals_;
  std::vector<std::size_t> probe_offsets_;  ///< Per-literal probe position.
  crypto::cpu::SimdLevel level_ = crypto::cpu::SimdLevel::kPortable;
  std::vector<BytePair> pairs_;          ///< Distinct 2-byte probes.
  std::vector<unsigned char> singles_;   ///< Distinct 1-byte literals.
  bool first_byte_[256] = {};            ///< Portable candidate table.
};

/// One maximal printable-ASCII run in a binary blob.
struct PrintableRun {
  std::size_t offset = 0;  ///< Byte offset of the run start.
  std::size_t length = 0;  ///< Run length (>= the caller's min_len).

  bool operator==(const PrintableRun&) const = default;
};

/// Vectorized replacement for the scanner's printable-run byte loop
/// (ForEachPrintableRun): classifies 16/32 bytes per instruction into a
/// printable bitmask and walks its transitions. Clears `out` and fills it
/// with every maximal run of printable bytes (0x20..0x7e) of at least
/// `min_len`, in order — exactly the runs the scalar loop visits. `level`
/// picks the kernel (pass crypto::cpu::DetectSimdLevel(), or kPortable to
/// force the scalar reference).
void FindPrintableRuns(std::string_view data, std::size_t min_len,
                       crypto::cpu::SimdLevel level,
                       std::vector<PrintableRun>& out);

}  // namespace pinscope::staticanalysis
