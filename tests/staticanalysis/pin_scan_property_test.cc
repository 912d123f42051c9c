// Pin matcher property tests: Scanner::Scan against the two-sweep oracle
// (testing/legacy_scan.h) on seeded random text and binary files built from
// the shapes where a hand-written matcher could drift from the pattern —
// body runs of 27/28/64/65 characters, sha1 vs sha256 heads, '=' inside a
// run, back-to-back pins, pins split by a short printable run, and PEM
// blocks interleaved with pins.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "staticanalysis/scanner.h"
#include "testing/legacy_scan.h"
#include "util/rng.h"
#include "x509/issuer.h"
#include "x509/pem.h"

namespace pinscope::staticanalysis {
namespace {

std::string Body(util::Rng& rng, int len) {
  static const std::string alphabet =
      "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/=";
  std::string out;
  for (int i = 0; i < len; ++i) {
    out += alphabet[static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<int>(alphabet.size()) - 1))];
  }
  return out;
}

std::string Pem(const std::string& cn) {
  x509::IssueSpec spec;
  spec.subject.set_common_name(cn);
  return x509::PemEncode(
      x509::CertificateIssuer::SelfSignedLeaf("pin-scan:" + cn, spec));
}

/// One random fragment. `binary` adds non-printable separators, so runs
/// shorter than the scanner's 6-byte minimum split and drop pins.
std::string Fragment(util::Rng& rng, bool binary) {
  static const std::vector<std::string> heads = {"sha1/", "sha256/", "sha",
                                                 "sha2/", "sha256", "ssha1/"};
  static const std::vector<int> run_lengths = {27, 28, 43, 44, 64, 65};
  switch (rng.UniformInt(0, binary ? 9 : 7)) {
    case 0:
    case 1:  // a boundary-length run behind a head
      return rng.Pick(heads) + Body(rng, rng.Pick(run_lengths));
    case 2:  // any length, '=' anywhere
      return rng.Pick(heads) + Body(rng, rng.UniformInt(0, 70));
    case 3: {  // '=' mid-run
      const std::string left = Body(rng, rng.UniformInt(1, 40));
      return "sha256/" + left + "=" + Body(rng, rng.UniformInt(0, 40));
    }
    case 4: {  // back-to-back pins
      const std::string first = "sha1/" + Body(rng, 28);
      return first + "sha256/" + Body(rng, 44);
    }
    case 5: {
      static const std::vector<std::string> pems = {
          Pem("one.example"), Pem("two.example"), Pem("three.example")};
      return rng.Pick(pems);
    }
    case 6:
      return std::string(x509::kPemBegin) + "\n" + Body(rng, 20);
    case 7: {
      static const std::vector<std::string> separators = {" ", "\n", "\"", ",",
                                                          "-", "sh"};
      return rng.Pick(separators);
    }
    case 8: {  // a pin split by a short printable run between non-printables
      const std::string head = "sha256/" + Body(rng, 20);
      return head + "\x01" + "ab" + std::string(1, '\0') + Body(rng, 30);
    }
    default: {
      static const std::vector<std::string> breaks = {
          std::string(1, '\0'), "\x01\x02", "\xff", std::string("sha\0", 4)};
      return rng.Pick(breaks);
    }
  }
}

std::string RandomContent(util::Rng& rng, bool binary) {
  std::string out = binary ? std::string(1, '\0') : std::string();
  const int fragments = rng.UniformInt(0, 40);
  for (int i = 0; i < fragments; ++i) out += Fragment(rng, binary);
  return out;
}

void ExpectMatchesOracle(const appmodel::PackageFiles& files) {
  const ScanResult scanned = Scanner().Scan(files);
  pinscope::testing::ExpectSameScan(scanned,
                                    pinscope::testing::LegacyScan(files));
}

TEST(PinScanPropertyTest, TextFilesMatchOracle) {
  util::Rng rng(0x7e47);
  std::size_t pins = 0;
  for (int round = 0; round < 300; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    appmodel::PackageFiles files;
    files.AddText("assets/a.txt", RandomContent(rng, false));
    files.AddText("smali/B.smali", RandomContent(rng, false));
    ExpectMatchesOracle(files);
    pins += Scanner().Scan(files).pins.size();
  }
  EXPECT_GT(pins, 300u);  // not vacuous
}

TEST(PinScanPropertyTest, BinaryFilesMatchOracle) {
  util::Rng rng(0xb1a7);
  std::size_t pins = 0;
  for (int round = 0; round < 300; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const std::string content = RandomContent(rng, true);
    appmodel::PackageFiles files;
    files.Add("lib/libnative.so", util::Bytes(content.begin(), content.end()));
    ExpectMatchesOracle(files);
    pins += Scanner().Scan(files).pins.size();
  }
  EXPECT_GT(pins, 300u);
}

TEST(PinScanPropertyTest, BoundaryShapes) {
  const auto pins_in = [](const std::string& text) {
    appmodel::PackageFiles files;
    files.Add("f.bin", util::Bytes(text.begin(), text.end()));
    ExpectMatchesOracle(files);
    std::vector<std::string> out;
    for (const FoundPin& pin : Scanner().Scan(files).pins) {
      out.push_back(pin.pin_string);
    }
    return out;
  };
  using Pins = std::vector<std::string>;
  const std::string a27(27, 'A'), a28(28, 'A'), a44(44, 'A');
  const std::string b64(64, 'B'), b65(65, 'B');
  EXPECT_EQ(pins_in("sha256/" + a27), Pins{});
  EXPECT_EQ(pins_in("sha256/" + a28), Pins{"sha256/" + a28});
  EXPECT_EQ(pins_in("sha1/" + a28), Pins{"sha1/" + a28});
  EXPECT_EQ(pins_in("sha2/" + a28), Pins{});
  EXPECT_EQ(pins_in("md5/" + a28), Pins{});
  // The 28-64 window also admits hex digests: SHA-1 (40), SHA-256 (64).
  EXPECT_EQ(pins_in("sha1/" + std::string(40, '0')),
            Pins{"sha1/" + std::string(40, '0')});
  EXPECT_EQ(pins_in("sha1/" + b64), Pins{"sha1/" + b64});
  EXPECT_EQ(pins_in("sha1/" + b65), Pins{"sha1/" + b64});
  EXPECT_EQ(pins_in("sha1/AAAA=AAAA" + a27), Pins{"sha1/AAAA=AAAA" + a27});
  // Back to back, the first run swallows the next head (its bytes are all
  // in the body class) up to 64 characters; a separator keeps both.
  EXPECT_EQ(pins_in("sha256/" + a44 + "sha256/" + a44),
            Pins{"sha256/" + a44 + "sha256/" + std::string(13, 'A')});
  EXPECT_EQ(pins_in("sha1/" + a28 + ",sha1/" + a28),
            (Pins{"sha1/" + a28, "sha1/" + a28}));
  // In a binary, a non-printable byte ends the run and the pin with it.
  EXPECT_EQ(pins_in(std::string("\0sha256/", 8) + a27 + '\0' + a28), Pins{});
  EXPECT_EQ(pins_in(std::string("\0sha1/", 6) + a28 + '\x01' + "sha1/" + a27),
            Pins{"sha1/" + a28});
}

TEST(PinScanPropertyTest, PemBlocksInterleavedWithPins) {
  const std::string pin = "sha256/" + std::string(43, 'x') + "=";
  const std::string text = Pem("one.example") + pin + "\n" +
                           Pem("two.example") + pin + Pem("three.example");
  appmodel::PackageFiles files;
  files.AddText("assets/bundle.txt", text);
  ExpectMatchesOracle(files);
  const ScanResult result = Scanner().Scan(files);
  EXPECT_EQ(result.certificates.size(), 3u);
  EXPECT_EQ(result.pins.size(), 2u);
}

}  // namespace
}  // namespace pinscope::staticanalysis
