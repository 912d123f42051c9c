#include "x509/ct_log.h"

#include <gtest/gtest.h>

#include "staticanalysis/static_report.h"
#include "tls/pinning.h"
#include "util/base64.h"
#include "util/hex.h"
#include "x509/issuer.h"

namespace pinscope::x509 {
namespace {

Certificate MakeCert(const std::string& cn) {
  IssueSpec spec;
  spec.subject.set_common_name(cn);
  return CertificateIssuer::SelfSignedLeaf("ct:" + cn, spec);
}

TEST(CtLogTest, FindsBySha256HexDigest) {
  CtLog log;
  const Certificate cert = MakeCert("ct.example.com");
  log.Add(cert);
  const auto digest = cert.SpkiSha256();
  const auto found =
      log.FindBySpkiDigest(util::HexEncode(util::Bytes(digest.begin(), digest.end())));
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0], cert);
}

TEST(CtLogTest, FindsBySha256Base64Digest) {
  CtLog log;
  const Certificate cert = MakeCert("b64.example.com");
  log.Add(cert);
  const auto digest = cert.SpkiSha256();
  const auto found = log.FindBySpkiDigest(
      util::Base64Encode(util::Bytes(digest.begin(), digest.end())));
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0], cert);
}

TEST(CtLogTest, FindsBySha1Digest) {
  CtLog log;
  const Certificate cert = MakeCert("sha1.example.com");
  log.Add(cert);
  const auto digest = cert.SpkiSha1();
  EXPECT_EQ(log.FindBySpkiDigest(
                   util::HexEncode(util::Bytes(digest.begin(), digest.end())))
                .size(),
            1u);
}

TEST(CtLogTest, UnknownDigestYieldsEmpty) {
  CtLog log;
  log.Add(MakeCert("known.example.com"));
  EXPECT_TRUE(log.FindBySpkiDigest(std::string(64, 'a')).empty());
  EXPECT_TRUE(log.FindBySpkiDigest("not a digest at all").empty());
}

TEST(CtLogTest, AddIsIdempotentPerFingerprint) {
  CtLog log;
  const Certificate cert = MakeCert("dup.example.com");
  log.Add(cert);
  log.Add(cert);
  EXPECT_EQ(log.size(), 1u);
}

/// Two certificates for one reused key, as a renewal produces.
std::vector<Certificate> RenewedPair(const crypto::KeyPair& key) {
  const CertificateIssuer ca = CertificateIssuer::SelfSignedRoot(
      "ct-ca", DistinguishedName{"CT CA", "", "US"}, -util::kMillisPerYear,
      util::kMillisPerYear * 10);
  IssueSpec s1;
  s1.subject.set_common_name("renewed.example.com");
  IssueSpec s2 = s1;
  s2.not_after = 2 * util::kMillisPerYear;
  return {ca.IssueForKey(s1, key), ca.IssueForKey(s2, key)};
}

TEST(CtLogTest, SharedKeyReturnsAllCertificates) {
  // Renewal with key reuse: two certs, one SPKI — a digest query must return
  // both (exactly what crt.sh does).
  CtLog log;
  const crypto::KeyPair key = crypto::KeyPair::FromLabel("reused");
  for (const Certificate& cert : RenewedPair(key)) log.Add(cert);
  const auto digest = key.SpkiSha256();
  EXPECT_EQ(log.FindBySpkiDigest(
                   util::HexEncode(util::Bytes(digest.begin(), digest.end())))
                .size(),
            2u);
}

TEST(CtLogTest, FindBySubjectCn) {
  CtLog log;
  const Certificate cert = MakeCert("by-cn.example.com");
  log.Add(cert);
  EXPECT_EQ(log.FindBySubjectCn("by-cn.example.com").size(), 1u);
  EXPECT_TRUE(log.FindBySubjectCn("missing.example.com").empty());
}

std::vector<Certificate> RawLookup(const CtLog& log, const util::Bytes& digest) {
  std::vector<Certificate> out;
  const std::size_t n = log.ForEachBySpkiDigest(
      digest, [&](const Certificate& cert) { out.push_back(cert); });
  EXPECT_EQ(n, out.size());
  return out;
}

std::string Unpadded(std::string b64) {
  while (!b64.empty() && b64.back() == '=') b64.pop_back();
  return b64;
}

TEST(CtLogTest, RawDigestLookupMatchesEverySpelling) {
  CtLog log;
  const std::vector<Certificate> renewed =
      RenewedPair(crypto::KeyPair::FromLabel("spellings"));
  log.Add(MakeCert("before.example.com"));
  for (const Certificate& cert : renewed) log.Add(cert);
  log.Add(MakeCert("after.example.com"));

  for (const Certificate& cert : {renewed[0], MakeCert("after.example.com")}) {
    const auto sha256 = cert.SpkiSha256();
    const auto sha1 = cert.SpkiSha1();
    for (const util::Bytes& raw : {util::Bytes(sha256.begin(), sha256.end()),
                                   util::Bytes(sha1.begin(), sha1.end())}) {
      const std::vector<Certificate> found = RawLookup(log, raw);
      ASSERT_FALSE(found.empty());
      EXPECT_EQ(found, log.FindBySpkiDigest(util::HexEncode(raw)));
      EXPECT_EQ(found, log.FindBySpkiDigest(util::Base64Encode(raw)));
      EXPECT_EQ(found, log.FindBySpkiDigest(Unpadded(util::Base64Encode(raw))));
    }
  }
  // The renewed pair comes back whole, in log order.
  const auto key_digest = renewed[0].SpkiSha256();
  EXPECT_EQ(RawLookup(log, util::Bytes(key_digest.begin(), key_digest.end())),
            renewed);
}

TEST(CtLogTest, UnknownFormsMatchNothing) {
  CtLog log;
  const Certificate cert = MakeCert("known.example.com");
  log.Add(cert);
  const auto digest = cert.SpkiSha256();
  const util::Bytes raw(digest.begin(), digest.end());
  // A truncated digest, and a digest's hex text passed as if it were raw.
  EXPECT_TRUE(RawLookup(log, util::Bytes(raw.begin(), raw.begin() + 20)).empty());
  EXPECT_TRUE(RawLookup(log, util::ToBytes(util::HexEncode(raw))).empty());
  // Spellings of the right digest at the wrong length or in no known form.
  EXPECT_TRUE(log.FindBySpkiDigest(util::HexEncode(raw).substr(0, 62)).empty());
  EXPECT_TRUE(log.FindBySpkiDigest(util::Base64Encode(util::Bytes(
                                       raw.begin(), raw.begin() + 30)))
                  .empty());
  EXPECT_TRUE(log.FindBySpkiDigest(
                     std::string(reinterpret_cast<const char*>(raw.data()),
                                 raw.size()))
                  .empty());
}

TEST(CtLogTest, StaticReportResolvesPinsToSharedCertificates) {
  // An app pinning a renewed key (SHA-256 padded and unpadded, SHA-1), an
  // unrelated logged key, a repeat, and an unlogged key: the CT resolution
  // counts distinct well-formed pins and lists each certificate once, in
  // first-resolved order.
  CtLog log;
  const std::vector<Certificate> renewed =
      RenewedPair(crypto::KeyPair::FromLabel("shared"));
  const Certificate other = MakeCert("other.example.com");
  for (const Certificate& cert : renewed) log.Add(cert);
  log.Add(other);

  const auto pin = [](const Certificate& cert, tls::PinForm form) {
    return tls::Pin::ForCertificate(cert, form).ToPinString();
  };
  const std::string shared256 = pin(renewed[0], tls::PinForm::kSpkiSha256);
  std::string smali;
  for (const std::string& p :
       {pin(other, tls::PinForm::kSpkiSha256), shared256,
        pin(renewed[1], tls::PinForm::kSpkiSha1), shared256,
        Unpadded(shared256),
        pin(MakeCert("unlogged.example.com"), tls::PinForm::kSpkiSha256)}) {
    smali += "const-string v0, \"" + p + "\"\n";
  }
  appmodel::App app;
  app.meta.app_id = "com.example.ctpins";
  app.meta.platform = appmodel::Platform::kAndroid;
  app.package.AddText("smali/com/example/Pins.smali", smali);

  staticanalysis::StaticAnalysisOptions options;
  options.ct_log = &log;
  const staticanalysis::StaticReport report =
      staticanalysis::AnalyzeStatically(app, options);
  EXPECT_EQ(report.scan.pins.size(), 6u);
  EXPECT_EQ(report.pins_total, 5u);
  EXPECT_EQ(report.pins_resolved, 4u);
  EXPECT_EQ(report.ct_resolved,
            (std::vector<Certificate>{other, renewed[0], renewed[1]}));
}

}  // namespace
}  // namespace pinscope::x509
