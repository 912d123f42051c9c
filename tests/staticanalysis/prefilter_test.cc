// MultiLiteralPrefilter contract tests: exactness against a naive reference
// over random haystacks × literal sets, the documented (pos, pattern) hit
// ordering, overlapping occurrences, SIMD-vs-forced-portable equivalence via
// the PINSCOPE_NO_SIMD / PINSCOPE_NO_AVX2 env knobs (read at construction,
// so each test builds fresh filters after setenv), and the prefiltered
// Scanner against the two-sweep oracle.
#include "staticanalysis/prefilter.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include "crypto/cpu.h"
#include "staticanalysis/scanner.h"
#include "testing/legacy_scan.h"
#include "x509/issuer.h"
#include "x509/pem.h"

namespace pinscope::staticanalysis {
namespace {

/// Scoped setenv/unsetenv so a failing assertion cannot leak a knob into
/// later tests in this binary.
class ScopedEnv {
 public:
  explicit ScopedEnv(const char* name) : name_(name) {
    ::setenv(name, "1", /*overwrite=*/1);
  }
  ~ScopedEnv() { ::unsetenv(name_); }

 private:
  const char* name_;
};

/// The obviously-correct O(n·k) reference the kernels must agree with.
std::vector<PrefilterHit> Reference(const std::vector<std::string>& literals,
                                    std::string_view text) {
  std::vector<PrefilterHit> out;
  for (std::size_t pos = 0; pos < text.size(); ++pos) {
    for (std::uint32_t id = 0; id < literals.size(); ++id) {
      const std::string& lit = literals[id];
      if (lit.empty() || pos + lit.size() > text.size()) continue;
      if (text.compare(pos, lit.size(), lit) == 0) out.push_back({pos, id});
    }
  }
  return out;
}

std::vector<PrefilterHit> Hits(const MultiLiteralPrefilter& filter,
                              std::string_view text) {
  std::vector<PrefilterHit> hits;
  filter.FindAll(text, hits);
  return hits;
}

TEST(PrefilterTest, EmptyTextAndEmptyLiterals) {
  const MultiLiteralPrefilter filter({"abc", "", "x"});
  EXPECT_TRUE(Hits(filter, "").empty());
  // The empty literal never matches; others do.
  const auto hits = Hits(filter, "xabc");
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0], (PrefilterHit{0, 2}));
  EXPECT_EQ(hits[1], (PrefilterHit{1, 0}));
}

TEST(PrefilterTest, NoLiteralsMeansNoHits) {
  const MultiLiteralPrefilter filter({});
  EXPECT_TRUE(Hits(filter, "anything at all").empty());
}

TEST(PrefilterTest, FindsOverlappingOccurrences) {
  const MultiLiteralPrefilter filter({"aaa"});
  const auto hits = Hits(filter, "aaaaaa");
  ASSERT_EQ(hits.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(hits[i].pos, i);
}

TEST(PrefilterTest, OrdersByPositionThenPattern) {
  // Three literals that all start at position 0 of "abcd", plus one later.
  const MultiLiteralPrefilter filter({"abc", "a", "ab", "cd"});
  const auto hits = Hits(filter, "abcd");
  const std::vector<PrefilterHit> expected = {
      {0, 0}, {0, 1}, {0, 2}, {2, 3}};
  EXPECT_EQ(hits, expected);
}

TEST(PrefilterTest, RepeatedPrefixLiteralsUseInteriorProbes) {
  // "-----BEGIN"-shaped literals anchor their probe pair inside the literal
  // (a "--" probe would fire at every dash-run position), so occurrences
  // whose probe lands mid-literal must still be reported at the literal
  // start, in (pos, pattern) order, overlapping dash runs included.
  const std::vector<std::string> literals = {"---ab", "--a"};
  const MultiLiteralPrefilter filter(literals);
  const std::string text = "-------ab----a---ab--a-";
  EXPECT_EQ(Hits(filter, text), Reference(literals, text));
  // Occurrence flush at the very start: probe offset > 0 must not push the
  // verified start below zero or skip position 0.
  EXPECT_EQ(Hits(filter, "---ab"), Reference(literals, "---ab"));
  EXPECT_EQ(Hits(filter, "--a"), Reference(literals, "--a"));
}

TEST(PrefilterTest, LiteralAtVeryEndOfText) {
  const MultiLiteralPrefilter filter({"end", "d"});
  const auto hits = Hits(filter, std::string(100, 'x') + "end");
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0], (PrefilterHit{100, 0}));
  EXPECT_EQ(hits[1], (PrefilterHit{102, 1}));
}

TEST(PrefilterTest, MatchesReferenceOnRandomHaystacks) {
  std::mt19937 rng(0x5eed);
  // Small alphabet so literals actually occur; lengths crossing the 16/32
  // byte kernel block sizes and their tails.
  const std::string alphabet = "abcs-";
  std::uniform_int_distribution<std::size_t> len_dist(0, 700);
  std::uniform_int_distribution<std::size_t> lit_count_dist(1, 5);
  std::uniform_int_distribution<std::size_t> lit_len_dist(1, 8);
  std::uniform_int_distribution<std::size_t> chr(0, alphabet.size() - 1);

  for (int round = 0; round < 200; ++round) {
    std::vector<std::string> literals(lit_count_dist(rng));
    for (std::string& lit : literals) {
      lit.resize(lit_len_dist(rng));
      for (char& c : lit) c = alphabet[chr(rng)];
    }
    std::string text(len_dist(rng), '\0');
    for (char& c : text) c = alphabet[chr(rng)];

    const MultiLiteralPrefilter filter(literals);
    EXPECT_EQ(Hits(filter, text), Reference(literals, text))
        << "round " << round << " level " << filter.level_name();
  }
}

TEST(PrefilterTest, ForcedPortableMatchesSimd) {
  std::mt19937 rng(0xf00d);
  const std::vector<std::string> literals = {
      std::string(x509::kPemBegin), "sha", "-----", "s"};
  std::uniform_int_distribution<int> chr(0x20, 0x7e);

  for (int round = 0; round < 50; ++round) {
    std::string text(513, '\0');
    for (char& c : text) c = static_cast<char>(chr(rng));
    // Plant some literal occurrences so the comparison is not vacuous.
    text.replace(17, 3, "sha");
    text.replace(101, x509::kPemBegin.size(), x509::kPemBegin);

    const MultiLiteralPrefilter simd(literals);
    std::vector<PrefilterHit> simd_hits = Hits(simd, text);
    {
      const ScopedEnv no_simd("PINSCOPE_NO_SIMD");
      const MultiLiteralPrefilter portable(literals);
      ASSERT_EQ(portable.level(), crypto::cpu::SimdLevel::kPortable);
      EXPECT_EQ(Hits(portable, text), simd_hits) << "round " << round;
    }
  }
}

TEST(PrefilterTest, NoAvx2KnobCapsLevelAtSse2) {
#if defined(__x86_64__)
  const ScopedEnv no_avx2("PINSCOPE_NO_AVX2");
  const MultiLiteralPrefilter filter({"sha"});
  EXPECT_EQ(filter.level(), crypto::cpu::SimdLevel::kSse2);
  EXPECT_EQ(Hits(filter, "xxshaxxsha"),
            (std::vector<PrefilterHit>{{2, 0}, {7, 0}}));
#else
  GTEST_SKIP() << "x86-only knob";
#endif
}

// --- Scanner-level equivalence: prefiltered scan vs the two-sweep oracle --

using pinscope::testing::ExpectSameScan;
using pinscope::testing::LegacyScan;

x509::Certificate ScanTestCert(const std::string& cn) {
  x509::IssueSpec spec;
  spec.subject.set_common_name(cn);
  return x509::CertificateIssuer::SelfSignedLeaf("prefilter:" + cn, spec);
}

TEST(PrefilterTest, ScannerPrefilterMatchesLegacySweep) {
  // A package exercising every scan shape at once: PEM bundles (with a
  // decoy BEGIN inside a body region), pins in text and binary files,
  // truncated PEM armor, and near-miss pin strings.
  const x509::Certificate c1 = ScanTestCert("one.example.com");
  const x509::Certificate c2 = ScanTestCert("two.example.com");
  const std::string pin =
      tls::Pin::ForCertificate(c1, tls::PinForm::kSpkiSha256).ToPinString();

  appmodel::PackageFiles files;
  // .txt, not .pem: the cert-file fast path would stop at the first block
  // instead of content-scanning the whole bundle.
  files.AddText("assets/bundle.txt",
                x509::PemEncode(c1) + "garbage between blocks sha1/short\n" +
                    x509::PemEncode(c2));
  files.AddText("assets/truncated.txt",
                std::string(x509::kPemBegin) + "\nAAAA no end marker");
  files.AddText("smali/Pins.smali",
                "const-string v0, \"" + pin + "\"\nsha256/not-a-pin shash\n");
  util::Bytes blob = {0x00, 0x01, 0x7f};
  util::Append(blob, "lib-strings " + pin + " tail");
  blob.push_back(0x00);
  files.Add("lib/libnative.so", blob);

  const ScanResult with_prefilter = Scanner().Scan(files);
  ExpectSameScan(with_prefilter, LegacyScan(files));
  // Sanity: the corpus produced real findings.
  EXPECT_EQ(with_prefilter.certificates.size(), 2u);
  GTEST_ASSERT_GE(with_prefilter.pins.size(), 1u);
}

TEST(PrefilterTest, ScannerFuzzPrefilterMatchesLegacy) {
  std::mt19937 rng(0xca11);
  const std::string pieces[] = {
      "sha256/", "sha1/", "sha", "-----BEGIN CERTIFICATE-----",
      "-----END CERTIFICATE-----", "AAAA", "====", "abc", "/",
      std::string(40, 'Q'), "\n"};
  std::uniform_int_distribution<std::size_t> piece(0, std::size(pieces) - 1);
  std::uniform_int_distribution<std::size_t> count(0, 60);

  for (int round = 0; round < 40; ++round) {
    std::string content;
    const std::size_t n = count(rng);
    for (std::size_t i = 0; i < n; ++i) content += pieces[piece(rng)];
    appmodel::PackageFiles files;
    files.AddText("assets/fuzz.txt", content);

    ExpectSameScan(Scanner().Scan(files), LegacyScan(files));
  }
}

}  // namespace
}  // namespace pinscope::staticanalysis
