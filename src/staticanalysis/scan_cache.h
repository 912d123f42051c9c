// Corpus-wide static-scan cache (the "scan once per study" layer).
//
// The paper attributes most pinning to a small set of third-party SDKs
// shipped identically across thousands of apps (IMC '22 §5, Table 7), which
// makes per-file scan work massively redundant at corpus scale: the same
// OkHttp smali, the same bundled PEM roots, the same native lib appear in
// app after app. This cache memoizes the scanner's per-content outcome,
// keyed by SHA-256 of the file bytes (src/crypto/sha256) plus the cert-file
// flag, so any given content is scanned once per study no matter how many
// apps ship it.
//
// Thread safety & determinism: the map is an obs::ShardedMemo (first insert
// wins; shard chosen by digest byte 8, bucket by digest bytes 0-7) shared by
// every worker. A racing worker that scanned the same content deposits an
// *identical* outcome (the scan is a pure function of the key), so which
// insert lands is unobservable. Cached entries store no paths — Unpack
// rebinds them on every hit — which is why cached and uncached studies
// export byte-identical results (see DESIGN.md §9 and the `ctest -L static`
// equivalence suite).
//
// An entry keeps its pins packed in exactly the `.pscf` pin-record format,
// so saving copies each entry's pin region once, loading validates and
// copies it once, and a hit decodes it straight into the ScanResult.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "obs/sharded_memo.h"

#include "crypto/sha256.h"
#include "staticanalysis/scanner.h"
#include "util/bytes.h"

namespace pinscope::staticanalysis {

/// Counter snapshot. Schedule-dependent in the per-app breakdown but stable
/// in aggregate: for every distinct (content, flag) exactly one scan misses.
/// Lookups are files that consulted the cache; entries are distinct
/// (content, flag) outcomes stored.
struct ScanCacheStats : obs::MemoStats {
  std::size_t bytes_deduped = 0;  ///< Content bytes never rescanned.
};

/// Thread-safe, deterministic content-hash → scan-outcome map. One instance
/// lives for the duration of a Study and is shared by every worker.
class ScanCache {
 public:
  /// Cache key: content digest + the suffix-dependent scan branch.
  struct Key {
    crypto::Sha256Digest digest{};
    bool cert_file = false;

    bool operator==(const Key& o) const {
      return cert_file == o.cert_file && digest == o.digest;
    }
  };

  /// One resident outcome. The certificates stay parsed (files carry few),
  /// their paths empty. The pins are one buffer in the `.pscf` pin-record
  /// format: a u32 count, then per pin a u32 length and the pin string, the
  /// u64 offset, a u8 parsed flag (0/1) and, when parsed, a u8 PinForm, a
  /// u32 length and the decoded material.
  struct Entry {
    std::vector<FoundCertificate> certificates;
    util::Bytes pins;
  };

  /// Builds the key for one file.
  [[nodiscard]] static Key MakeKey(const util::Bytes& content, bool cert_file);

  /// Looks up a cached outcome. Counts one lookup; on a hit also counts
  /// `content_size` toward bytes_deduped. Returns nullptr on miss.
  [[nodiscard]] std::shared_ptr<const Entry> Find(const Key& key,
                                                 std::size_t content_size);

  /// Packs `scan` and deposits it (first insert wins); returns the resident
  /// entry. A racing worker's entry is identical, because the scan is a
  /// pure function of the key, so a caller may go on with its own `scan`.
  std::shared_ptr<const Entry> Insert(const Key& key,
                                      const CachedFileScan& scan);

  /// Appends `entry` to `out` with every path rebound to `path`. Cannot
  /// fail: each resident entry was packed by Insert or had every record
  /// validated by LoadFromFile.
  static void Unpack(const Entry& entry, const std::string& path,
                     ScanResult& out);

  [[nodiscard]] ScanCacheStats Stats() const {
    return {memo_.Stats(), bytes_deduped_.load(std::memory_order_relaxed)};
  }

  /// Resident entry count, measured by walking the shards.
  [[nodiscard]] std::size_t EntryCount() const { return memo_.EntryCount(); }

  /// Persists every entry to `path` through util::WriteCacheFile (versioned
  /// header, checksum, atomic rename; DESIGN.md §15): per entry in sorted
  /// key order, the key, the certificates' DER and the packed pin region,
  /// into a payload sized up front. Two caches holding the same outcomes
  /// write byte-identical files — which is what makes concurrent
  /// last-writer-wins saves into one cache dir unobservable. Returns false
  /// on I/O failure.
  bool SaveToFile(const std::string& path) const;

  /// Merges entries from a file written by SaveToFile (first-wins against
  /// anything already resident). Every record is validated once here —
  /// lengths in bounds, flags 0/1, a known PinForm, parseable certificates —
  /// and each entry's pin region is kept as one copied buffer. A missing,
  /// foreign, version-mismatched, or corrupt file returns false and loads
  /// nothing — the cold-start path.
  /// Loaded entries count toward entries (they are resident), never toward
  /// lookups/hits: warm-start provenance is reported by the caller's
  /// cache.persist.* gauges instead.
  bool LoadFromFile(const std::string& path);

  /// Binds the shard locks to the `lock.scan_cache.*` family (see
  /// obs::ShardedMemo::AttachMetrics).
  void AttachMetrics(obs::MetricsRegistry* metrics) {
    memo_.AttachMetrics(metrics, "scan_cache");
  }

  static constexpr std::uint32_t kFileKind = 0x314e4353;  // "SCN1"
  static constexpr std::uint32_t kFileVersion = 1;

 private:
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      // The digest is already uniform; fold in the flag.
      std::size_t h = 0;
      std::memcpy(&h, k.digest.data(), sizeof(h));
      return k.cert_file ? h ^ 0x9e3779b97f4a7c15ULL : h;
    }
  };

  /// A digest byte KeyHash does not read (it reads bytes 0-7).
  struct ShardOf {
    std::size_t operator()(const Key& k) const { return k.digest[8]; }
  };

  obs::ShardedMemo<Key, std::shared_ptr<const Entry>, KeyHash, ShardOf> memo_;
  std::atomic<std::size_t> bytes_deduped_{0};
};

}  // namespace pinscope::staticanalysis
