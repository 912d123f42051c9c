#include "x509/ct_log.h"

#include <optional>
#include <span>

#include "util/base64.h"
#include "util/hex.h"

namespace pinscope::x509 {
namespace {

// Decodes any accepted digest spelling to its raw bytes; nullopt for an
// unknown form, which matches nothing.
std::optional<util::Bytes> DecodeDigest(std::string_view digest) {
  if (util::IsHexString(digest) && (digest.size() == 40 || digest.size() == 64)) {
    return util::HexDecode(digest);
  }
  if (auto raw = util::Base64Decode(digest);
      raw && (raw->size() == 20 || raw->size() == 32)) {
    return raw;
  }
  return std::nullopt;
}

std::string DigestKey(std::span<const std::uint8_t> digest) {
  return std::string(digest.begin(), digest.end());
}

}  // namespace

void CtLog::Add(const Certificate& cert) {
  const std::string fp = DigestKey(cert.FingerprintSha256());
  if (by_fingerprint_.contains(fp)) return;
  const std::size_t idx = certs_.size();
  certs_.push_back(cert);
  by_fingerprint_[fp] = idx;

  by_digest_[DigestKey(cert.SpkiSha256())].push_back(idx);
  by_digest_[DigestKey(cert.SpkiSha1())].push_back(idx);
  by_cn_[std::string(cert.subject().common_name())].push_back(idx);
}

std::vector<Certificate> CtLog::FindBySpkiDigest(std::string_view digest) const {
  std::vector<Certificate> out;
  if (const auto raw = DecodeDigest(digest)) {
    ForEachBySpkiDigest(*raw, [&](const Certificate& cert) { out.push_back(cert); });
  }
  return out;
}

std::vector<Certificate> CtLog::FindBySubjectCn(std::string_view cn) const {
  std::vector<Certificate> out;
  const auto it = by_cn_.find(std::string(cn));
  if (it == by_cn_.end()) return out;
  out.reserve(it->second.size());
  for (std::size_t idx : it->second) out.push_back(certs_[idx]);
  return out;
}

}  // namespace pinscope::x509
