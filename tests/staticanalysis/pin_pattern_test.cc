// The paper's pin-hash pattern sha(1|256)/[a-zA-Z0-9+/=]{28,64}, as
// Scanner::Scan implements it: each part of the pattern (the literal head,
// the 1|256 alternation, the body class and its {28,64} bounds), its
// leftmost-longest non-overlapping match positions, agreement with a
// brute-force expansion of the pattern on random subjects, and agreement
// with the std::regex oracle (testing/legacy_scan.h) on pin-like subjects.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "staticanalysis/scanner.h"
#include "testing/legacy_scan.h"
#include "util/bytes.h"
#include "util/rng.h"

namespace pinscope::staticanalysis {
namespace {

const Scanner& TheScanner() {
  static const Scanner scanner;
  return scanner;
}

/// The pins Scanner::Scan finds in one text file holding `text`.
std::vector<FoundPin> PinsIn(const std::string& text) {
  appmodel::PackageFiles files;
  files.AddText("smali/Pins.smali", text);
  return TheScanner().Scan(files).pins;
}

std::vector<std::string> PinStringsIn(const std::string& text) {
  std::vector<std::string> out;
  for (const FoundPin& pin : PinsIn(text)) out.push_back(pin.pin_string);
  return out;
}

using Strings = std::vector<std::string>;

TEST(RegexTest, LiteralMatching) {
  // The head "sha" is a case-sensitive, contiguous literal.
  const std::string body(44, 'A');
  EXPECT_EQ(PinStringsIn("sha256/" + body), Strings{"sha256/" + body});
  EXPECT_TRUE(PinsIn("SHA256/" + body).empty());
  EXPECT_TRUE(PinsIn("Sha256/" + body).empty());
  EXPECT_TRUE(PinsIn("sh a256/" + body).empty());
  EXPECT_TRUE(PinsIn("").empty());
}

TEST(RegexTest, CharacterClasses) {
  // Every character of [a-zA-Z0-9+/=] extends the body; anything else ends it.
  const std::string mixed = "aZ09+/=aZ09+/=aZ09+/=aZ09+/=";  // 28 characters
  EXPECT_EQ(PinStringsIn("sha256/" + mixed), Strings{"sha256/" + mixed});
  const std::string a20(20, 'A');
  for (const char stop : {'-', '_', '.', ' ', '"', '\n'}) {
    SCOPED_TRACE(std::string(1, stop));
    EXPECT_TRUE(PinsIn("sha256/" + a20 + stop + a20).empty());
    EXPECT_EQ(PinStringsIn("sha256/" + std::string(30, 'A') + stop + "x"),
              Strings{"sha256/" + std::string(30, 'A')});
  }
}

TEST(RegexTest, Alternation) {
  const std::string body(28, 'A');
  EXPECT_EQ(PinStringsIn("sha1/" + body), Strings{"sha1/" + body});
  EXPECT_EQ(PinStringsIn("sha256/" + body), Strings{"sha256/" + body});
  EXPECT_TRUE(PinsIn("sha512/" + body).empty());
  EXPECT_TRUE(PinsIn("sha2/" + body).empty());
  EXPECT_TRUE(PinsIn("sha25/" + body).empty());
  EXPECT_TRUE(PinsIn("sha1256/" + body).empty());
}

TEST(RegexTest, BoundedQuantifiers) {
  EXPECT_TRUE(PinsIn("sha256/" + std::string(27, 'A')).empty());
  EXPECT_EQ(PinStringsIn("sha256/" + std::string(28, 'A')),
            Strings{"sha256/" + std::string(28, 'A')});
  EXPECT_EQ(PinStringsIn("sha1/" + std::string(64, 'A')),
            Strings{"sha1/" + std::string(64, 'A')});
  // Greedy, capped at 64: the 65th body character is left behind.
  EXPECT_EQ(PinStringsIn("sha256/" + std::string(65, 'A')),
            Strings{"sha256/" + std::string(64, 'A')});
}

TEST(RegexTest, ThePaperPinPattern) {
  const std::string sha256_pin =
      "sha256/AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA=";
  const std::string sha1_pin = "sha1/BBBBBBBBBBBBBBBBBBBBBBBBBBB=";
  EXPECT_EQ(PinStringsIn("pin: " + sha256_pin), Strings{sha256_pin});
  EXPECT_EQ(PinStringsIn(sha1_pin), Strings{sha1_pin});
  EXPECT_TRUE(PinsIn("sha256/short").empty());
  EXPECT_TRUE(PinsIn("md5/AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA").empty());

  const std::vector<FoundPin> pins =
      PinsIn("a " + sha256_pin + " b " + sha1_pin);
  ASSERT_EQ(pins.size(), 2u);
  EXPECT_EQ(pins[0].pin_string, sha256_pin);
  EXPECT_EQ(pins[1].pin_string, sha1_pin);
  EXPECT_TRUE(pins[0].parsed.has_value());
  EXPECT_TRUE(pins[1].parsed.has_value());
}

TEST(RegexTest, PinPatternAlsoMatchesHexDigests) {
  // The paper's 28-64 length window covers hex-encoded SHA-1 (40) and
  // SHA-256 (64) digests too.
  EXPECT_EQ(PinStringsIn("sha256/" + std::string(64, 'a')),
            Strings{"sha256/" + std::string(64, 'a')});
  EXPECT_EQ(PinStringsIn("sha1/" + std::string(40, '0')),
            Strings{"sha1/" + std::string(40, '0')});
}

TEST(RegexTest, FindAllIsNonOverlapping) {
  // "sha1/..." lies inside the first match's body, so it is not reported.
  const std::string nested = "sha256/sha1/" + std::string(40, 'B');
  EXPECT_EQ(PinStringsIn(nested), Strings{nested});
  // The first body stops at its 64-character cap, right where the next
  // pin starts, so both are reported.
  const std::string first = "sha256/" + std::string(64, 'A');
  const std::string second = "sha1/" + std::string(28, 'C');
  EXPECT_EQ(PinStringsIn(first + second), (Strings{first, second}));
}

TEST(RegexTest, FindAllReportsPositions) {
  const std::string a28(28, 'A');
  const std::string a44(44, 'A');
  const std::vector<FoundPin> text_pins =
      PinsIn("ab sha1/" + a28 + " cd sha256/" + a44);
  ASSERT_EQ(text_pins.size(), 2u);
  EXPECT_EQ(text_pins[0].offset, 3u);
  EXPECT_EQ(text_pins[1].offset, 40u);

  // In binary files the offset is absolute within the file, not relative
  // to the printable run holding the match.
  util::Bytes blob = {0x00, 0x01};
  util::Append(blob, "lib: sha1/" + a28);
  blob.push_back(0x00);
  util::Append(blob, "sha256/" + a44);
  appmodel::PackageFiles files;
  files.Add("lib/libpins.so", blob);
  const ScanResult scan = TheScanner().Scan(files);
  ASSERT_EQ(scan.pins.size(), 2u);
  EXPECT_EQ(scan.pins[0].offset, 7u);
  EXPECT_EQ(scan.pins[0].pin_string, "sha1/" + a28);
  EXPECT_EQ(scan.pins[1].offset, 41u);
  EXPECT_EQ(scan.pins[1].pin_string, "sha256/" + a44);
}

// Brute-force expansion of the pattern: at each position try both heads,
// then every body length from 64 down to 28, checking each character
// against the class spelled out; leftmost, longest, non-overlapping.
bool InBodyClass(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '+' || c == '/' || c == '=';
}

std::size_t BruteForceMatchAt(const std::string& text, std::size_t pos) {
  for (const std::string head : {"sha1/", "sha256/"}) {
    if (text.compare(pos, head.size(), head) != 0) continue;
    for (std::size_t n = 64; n >= 28; --n) {
      const std::size_t end = pos + head.size() + n;
      if (end > text.size()) continue;
      bool all = true;
      for (std::size_t i = pos + head.size(); i < end; ++i) {
        all = all && InBodyClass(text[i]);
      }
      if (all) return head.size() + n;
    }
  }
  return 0;
}

std::vector<FoundPin> BruteForceFindAll(const std::string& text) {
  std::vector<FoundPin> out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t len = BruteForceMatchAt(text, pos);
    if (len == 0) {
      ++pos;
      continue;
    }
    FoundPin pin;
    pin.pin_string = text.substr(pos, len);
    pin.offset = pos;
    out.push_back(std::move(pin));
    pos += len;
  }
  return out;
}

/// A subject built from the pattern's own pieces and near misses, with
/// body runs around both bounds.
std::string RandomSubject(util::Rng& rng) {
  static const std::vector<std::string> pieces = {
      "sha", "sha1/", "sha256/", "sh", "1", "256", "/", "=", "-", " ", "a"};
  std::string out;
  const int n = rng.UniformInt(0, 12);
  for (int i = 0; i < n; ++i) {
    if (rng.Bernoulli(0.3)) {
      out += std::string(static_cast<std::size_t>(rng.UniformInt(20, 70)),
                         rng.Bernoulli(0.5) ? 'Q' : '+');
    } else {
      out += rng.Pick(pieces);
    }
  }
  return out;
}

class RegexReference : public ::testing::TestWithParam<int> {};

TEST_P(RegexReference, AgreesWithBruteForce) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919);
  std::size_t total = 0;
  for (int round = 0; round < 400; ++round) {
    const std::string text = RandomSubject(rng);
    const std::vector<FoundPin> expected = BruteForceFindAll(text);
    const std::vector<FoundPin> actual = PinsIn(text);
    ASSERT_EQ(expected.size(), actual.size()) << "text='" << text << "'";
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(expected[i].pin_string, actual[i].pin_string) << text;
      EXPECT_EQ(expected[i].offset, actual[i].offset) << text;
    }
    total += expected.size();
  }
  EXPECT_GT(total, 0u);  // the subjects really contain pins
}

INSTANTIATE_TEST_SUITE_P(Seeds, RegexReference, ::testing::Values(1, 2, 3, 4, 5));

TEST(RegexPrefilterTest, FindAllMatchesReferenceOnPinLikeSubjects) {
  const std::string pin44 = "sha256/" + std::string(43, 'A') + "=";
  const std::vector<std::string> subjects = {
      "",
      "no pins here at all",
      pin44,
      "prefix " + pin44 + " suffix",
      pin44 + pin44,                       // adjacent matches
      "sha sha2 sha25 sha256/short",       // many near-miss literals
      "sha256/" + std::string(27, 'B'),    // one char below the minimum
      "sha1/" + std::string(28, 'C'),
      std::string(500, 'x') + pin44,       // literal deep in the subject
      pin44.substr(0, pin44.size() - 1),   // truncated at end of subject
  };
  for (const std::string& s : subjects) {
    SCOPED_TRACE(s.substr(0, 40));
    appmodel::PackageFiles files;
    files.AddText("smali/Pins.smali", s);
    pinscope::testing::ExpectSameScan(TheScanner().Scan(files),
                                      pinscope::testing::LegacyScan(files));
  }
}

TEST(RegexPrefilterTest, SearchBailsOutWithoutTheLiteral) {
  // Without a "sha" (or a PEM marker) the sweep yields no hit at all, and
  // the scan finds nothing rather than crashing or looping.
  std::string sh_runs;
  for (int i = 0; i < 5000; ++i) sh_runs += "sh";
  const std::vector<std::string> subjects = {
      std::string(10000, 'n'), sh_runs, "1/256/" + std::string(60, 'A') + "sh"};
  std::vector<PrefilterHit> hits;
  for (const std::string& s : subjects) {
    SCOPED_TRACE(s.substr(0, 20));
    TheScanner().prefilter().FindAll(s, hits);
    EXPECT_TRUE(hits.empty());
    EXPECT_TRUE(PinsIn(s).empty());
  }
  EXPECT_EQ(PinsIn("xx sha256/" + std::string(44, 'A') + " yy").size(), 1u);
}

}  // namespace
}  // namespace pinscope::staticanalysis
