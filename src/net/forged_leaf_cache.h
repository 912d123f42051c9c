// Study-wide forged-leaf chain cache.
//
// mitmproxy keeps a per-process certificate cache so each SNI is forged
// once; at study scale the same hostnames recur across *apps* (shared SDK
// endpoints, CDNs), so pinscope hoists that cache to study scope: one
// sharded hostname → forged-chain map shared by every app and worker
// thread. This is sound because forged-leaf bytes are a pure function of
// (CA label, study seed, hostname) — see MitmProxy, which derives issuance
// randomness from a stable per-hostname fork instead of any caller stream —
// so every would-be issuer deposits identical bytes.
//
// Thread safety & determinism mirror staticanalysis/scan_cache.h: an
// obs::ShardedMemo (first insert wins; shard chosen by the hostname hash)
// holding shared_ptr entries so readers never copy a chain.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "obs/sharded_memo.h"
#include "x509/certificate.h"

namespace pinscope::net {

/// Counter snapshot: lookups are interceptions that consulted the cache,
/// misses are hostnames that had to be forged, entries distinct hostnames.
using ForgedLeafCacheStats = obs::MemoStats;

/// Thread-safe, deterministic hostname → forged-chain map. One instance can
/// be shared by every MitmProxy view of a study.
class ForgedLeafCache {
 public:
  /// Looks up the forged chain for `hostname`. Counts one lookup; nullptr on
  /// miss.
  [[nodiscard]] std::shared_ptr<const x509::CertificateChain> Find(
      std::string_view hostname) {
    return memo_.Find(hostname).value_or(nullptr);
  }

  /// Deposits a forged chain (first insert wins) and returns the resident
  /// entry — racing forgers all observe one canonical chain (their inputs
  /// are identical, so so are their bytes).
  std::shared_ptr<const x509::CertificateChain> Insert(
      std::string_view hostname, x509::CertificateChain chain) {
    return memo_.Insert(
        std::string(hostname),
        std::make_shared<const x509::CertificateChain>(std::move(chain)));
  }

  [[nodiscard]] ForgedLeafCacheStats Stats() const { return memo_.Stats(); }

  /// Binds the shard locks to the `lock.forged_leaf_cache.*` family (see
  /// obs::ShardedMemo::AttachMetrics).
  void AttachMetrics(obs::MetricsRegistry* metrics) {
    memo_.AttachMetrics(metrics, "forged_leaf_cache");
  }

 private:
  /// Buckets and picks the shard alike; transparent, so lookups by
  /// string_view build no string.
  struct StringHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  obs::ShardedMemo<std::string, std::shared_ptr<const x509::CertificateChain>,
                   StringHash, StringHash>
      memo_;
};

}  // namespace pinscope::net
