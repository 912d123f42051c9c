// Package scanner (§4.1.2): the ripgrep + radare2 substitute.
//
// Walks an app's file tree looking for (a) certificate files by extension,
// (b) PEM blobs by their BEGIN delimiter, and (c) SPKI pin hashes matching
// the paper's pattern sha(1|256)/[a-zA-Z0-9+/=]{28,64}. Binary files (native
// libs, executables) are first reduced to their printable string runs, like
// radare2's string extraction.
//
// One SIMD multi-literal sweep (prefilter.h) finds every PEM BEGIN marker
// and every "sha" in a file; a purpose-built matcher then checks the rest of
// the pin pattern at each "sha" hit.
//
// The scan inner loop is zero-copy and single-pass: file contents are viewed
// as std::string_view over the package's own bytes (no per-file string
// copies), and binary files yield printable runs through ForEachPrintableRun
// instead of materializing a vector of strings. With a ScanCache (see
// scan_cache.h) attached, files whose content was already scanned anywhere
// in the corpus replay their cached outcome instead of being rescanned —
// shared SDK artifacts are scanned once per study, not once per app.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "appmodel/package.h"
#include "obs/metrics.h"
#include "staticanalysis/prefilter.h"
#include "tls/pinning.h"
#include "x509/certificate.h"

namespace pinscope::staticanalysis {

class ScanCache;  // scan_cache.h

/// The pin-hash pattern of §4.1.2, as the paper writes it. The scanner
/// implements it directly (leftmost-longest, non-overlapping matches); the
/// text is quoted verbatim in the decision journal's "rule" field.
inline constexpr std::string_view kPinPattern =
    "sha(1|256)/[a-zA-Z0-9+/=]{28,64}";

/// A certificate discovered in a package.
struct FoundCertificate {
  std::string path;          ///< File where it was found.
  x509::Certificate cert;
  bool from_pem = false;     ///< Found via PEM armor (vs raw DER file).
};

/// A pin string discovered in a package.
struct FoundPin {
  std::string path;          ///< File where it was found.
  std::string pin_string;    ///< Raw "sha256/..." text as matched.
  std::optional<tls::Pin> parsed;  ///< Decoded pin (nullopt if malformed).
  /// Byte offset of the match within the file — in binary files, the
  /// absolute offset of the match inside the printable run it was found in.
  /// Content-derived, so cached and uncached scans agree.
  std::size_t offset = 0;
};

/// Path-independent scan outcome of one file's *content* — what the
/// corpus-wide ScanCache packs into an entry. The `path` fields inside are
/// empty; they are rebound to the observing file's path when the outcome is
/// appended to a ScanResult, so cached and uncached scans are
/// byte-identical.
struct CachedFileScan {
  std::vector<FoundCertificate> certificates;
  std::vector<FoundPin> pins;
};

/// Everything the scanner extracted from one package.
struct ScanResult {
  std::vector<FoundCertificate> certificates;
  std::vector<FoundPin> pins;
  std::size_t files_scanned = 0;
  std::size_t bytes_scanned = 0;

  /// Diagnostic scan-cache counters for this package (zero when scanning
  /// without a cache). Deliberately excluded from exports: which app takes
  /// the miss for a shared SDK file depends on scheduling, so these are
  /// observability counters, not results.
  std::size_t cache_hits = 0;
  std::size_t cache_bytes_deduped = 0;

  /// True if any certificate or well-formed pin was found — the paper's
  /// "embedded certificates" static-detection signal.
  [[nodiscard]] bool HasPinningEvidence() const;
};

/// Calls `fn(std::string_view)` for every printable-ASCII run of at least
/// `min_len` bytes in `data`. The views alias `data` — no copies are made —
/// so they are valid only for the duration of the callback. This is the
/// scalar definition of a string run; the scanner's vectorized
/// FindPrintableRuns (prefilter.h) yields the same runs, and ExtractStrings
/// is the materializing wrapper for callers that want owned strings.
template <typename Fn>
void ForEachPrintableRun(const util::Bytes& data, std::size_t min_len, Fn&& fn) {
  const char* base = reinterpret_cast<const char*>(data.data());
  const std::size_t n = data.size();
  std::size_t run_start = 0;
  bool in_run = false;
  for (std::size_t i = 0; i < n; ++i) {
    const bool printable = data[i] >= 0x20 && data[i] <= 0x7e;
    if (printable) {
      if (!in_run) {
        run_start = i;
        in_run = true;
      }
    } else if (in_run) {
      if (i - run_start >= min_len) fn(std::string_view(base + run_start, i - run_start));
      in_run = false;
    }
  }
  if (in_run && n - run_start >= min_len) {
    fn(std::string_view(base + run_start, n - run_start));
  }
}

/// Extracts printable ASCII runs of at least `min_len` characters from a
/// binary blob (radare2-equivalent string extraction).
[[nodiscard]] std::vector<std::string> ExtractStrings(const util::Bytes& data,
                                                      std::size_t min_len = 6);

/// As above, but refills `out` (clearing it first) so a caller looping over
/// many files reuses one scratch vector's capacity instead of reallocating
/// per file.
void ExtractStrings(const util::Bytes& data, std::size_t min_len,
                    std::vector<std::string>& out);

/// The certificate-file extensions §4.1.2 searches for.
[[nodiscard]] const std::vector<std::string>& CertFileSuffixes();

/// True if `path` ends with one of CertFileSuffixes(), compared
/// case-insensitively without copying or lowercasing the path.
[[nodiscard]] bool HasCertFileSuffix(std::string_view path);

/// Package scanner. Construct once; the prefilter is built at construction.
class Scanner {
 public:
  Scanner();

  /// Scans a (decoded, decrypted) package tree. With `cache` non-null,
  /// per-content outcomes are looked up / deposited there, keyed by
  /// SHA-256(content) + cert-file flag; results are byte-identical with the
  /// cache on or off. The cache may be shared across threads. With `metrics`
  /// non-null the per-package tallies are also added to the study-wide
  /// `static.*` counters (observational only — the returned ScanResult is
  /// identical either way).
  [[nodiscard]] ScanResult Scan(const appmodel::PackageFiles& files,
                                ScanCache* cache = nullptr,
                                obs::MetricsRegistry* metrics = nullptr) const;

  /// The batched literal sweep shared by all rules (tests and benchmarks).
  [[nodiscard]] const MultiLiteralPrefilter& prefilter() const {
    return prefilter_;
  }

 private:
  void ConsumeHits(const PrefilterHit* begin, const PrefilterHit* end,
                   std::string_view text, std::size_t base,
                   CachedFileScan& out) const;
  void ScanBinary(const std::vector<PrefilterHit>& hits, std::string_view text,
                  CachedFileScan& out) const;
  void ScanFile(const util::Bytes& content, bool is_cert_file,
                CachedFileScan& out) const;

  MultiLiteralPrefilter prefilter_;  ///< [0]=PEM BEGIN, [1]="sha".
};

}  // namespace pinscope::staticanalysis
