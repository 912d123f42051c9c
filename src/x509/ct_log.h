// Simulated Certificate Transparency log (crt.sh substitute).
//
// §4.1.3: the paper resolves SPKI hashes found in app binaries to the
// certificates they pin by querying crt.sh. We model the same query surface:
// an index from SPKI digest (SHA-1 or SHA-256, raw bytes; hex and base64
// spellings decode into it) to every logged certificate carrying that key.
// The corpus generator logs the certificates of all simulated public
// endpoints; private/staging certificates stay unlogged — reproducing the
// paper's ~50% hash-resolution rate.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/bytes.h"
#include "x509/certificate.h"

namespace pinscope::x509 {

/// An append-only certificate transparency log with SPKI-hash search.
class CtLog {
 public:
  /// Logs a certificate (idempotent per fingerprint).
  void Add(const Certificate& cert);

  /// Number of logged certificates.
  [[nodiscard]] std::size_t size() const { return certs_.size(); }

  /// Looks up certificates whose SPKI digest matches `digest`, where `digest`
  /// is hex or (un)padded base64 of a SHA-1 or SHA-256 SPKI hash — the forms
  /// found in app binaries. Unknown digests yield an empty vector.
  [[nodiscard]] std::vector<Certificate> FindBySpkiDigest(std::string_view digest) const;

  /// Calls `fn(const Certificate&)` on every logged certificate whose SPKI
  /// SHA-1 or SHA-256 digest is `digest` (raw bytes), in log order, without
  /// copying it; FindBySpkiDigest returns the same certificates. Returns the
  /// number of matches.
  template <typename Fn>
  std::size_t ForEachBySpkiDigest(const util::Bytes& digest, Fn&& fn) const {
    const auto it = by_digest_.find(std::string_view(
        reinterpret_cast<const char*>(digest.data()), digest.size()));
    if (it == by_digest_.end()) return 0;
    for (std::size_t idx : it->second) fn(certs_[idx]);
    return it->second.size();
  }

  /// Looks up certificates by exact subject common name.
  [[nodiscard]] std::vector<Certificate> FindBySubjectCn(std::string_view cn) const;

 private:
  /// Heterogeneous lookup, so a raw digest is found without a key copy.
  struct DigestHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view key) const {
      return std::hash<std::string_view>{}(key);
    }
  };

  std::vector<Certificate> certs_;
  std::unordered_map<std::string, std::vector<std::size_t>, DigestHash,
                     std::equal_to<>>
      by_digest_;  // key: raw digest bytes
  std::map<std::string, std::vector<std::size_t>> by_cn_;
  std::map<std::string, std::size_t> by_fingerprint_;
};

}  // namespace pinscope::x509
