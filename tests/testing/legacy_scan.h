// Test-only oracle for staticanalysis::Scanner: the two-sweep content scan —
// x509::PemDecodeAll for certificates, then std::regex over kPinPattern for
// pins — applied file by file the way Scanner::Scan walks a package. For
// this pattern std::regex's leftmost-greedy match is the leftmost-longest
// one, because the alternatives 1|256 are mutually exclusive.
#pragma once

#include <gtest/gtest.h>

// GCC 12 reports a false -Wmaybe-uninitialized inside <regex>'s std::function
// state under -fsanitize=address,undefined; this header is test-only.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include <regex>
#include <string>
#include <string_view>

#include "appmodel/package.h"
#include "staticanalysis/scanner.h"
#include "x509/pem.h"

namespace pinscope::testing {

/// Appends the certificates, then the pins, found in `text`, which starts at
/// offset `base` of the file at `path`.
inline void LegacyScanText(std::string_view text, std::size_t base,
                           const std::string& path,
                           staticanalysis::ScanResult& out) {
  static const std::regex pin_pattern{std::string(staticanalysis::kPinPattern)};
  for (x509::Certificate& cert : x509::PemDecodeAll(text)) {
    out.certificates.push_back({path, std::move(cert), true});
  }
  for (auto it = std::cregex_iterator(text.data(), text.data() + text.size(),
                                      pin_pattern);
       it != std::cregex_iterator(); ++it) {
    staticanalysis::FoundPin pin;
    pin.path = path;
    pin.pin_string = it->str();
    pin.parsed = tls::Pin::FromPinString(pin.pin_string);
    pin.offset = base + static_cast<std::size_t>(it->position());
    out.pins.push_back(std::move(pin));
  }
}

/// The scanner's binary-content heuristic: a NUL, or more than 10%
/// non-printable bytes, in the first 512 bytes.
inline bool LegacyLooksBinary(std::string_view text) {
  const std::string_view head = text.substr(0, 512);
  std::size_t nonprint = 0;
  for (const char ch : head) {
    const auto c = static_cast<unsigned char>(ch);
    if (c == 0) return true;
    if (c < 0x09 || (c > 0x0d && c < 0x20) || c > 0x7e) ++nonprint;
  }
  return !head.empty() && nonprint * 10 > head.size();
}

/// Scans `files` as Scanner::Scan does (no cache): a parseable file with a
/// certificate suffix yields its one certificate; any other file is swept
/// whole, or, when it looks binary, printable run by printable run.
inline staticanalysis::ScanResult LegacyScan(
    const appmodel::PackageFiles& files) {
  staticanalysis::ScanResult out;
  for (const auto& [path, content] : files.files()) {
    ++out.files_scanned;
    out.bytes_scanned += content.size();
    const std::string_view text(reinterpret_cast<const char*>(content.data()),
                                content.size());
    if (staticanalysis::HasCertFileSuffix(path)) {
      if (auto cert = x509::PemDecode(text)) {
        out.certificates.push_back({path, std::move(*cert), true});
        continue;
      }
      if (auto cert = x509::Certificate::ParseDer(content)) {
        out.certificates.push_back({path, std::move(*cert), false});
        continue;
      }
    }
    if (!LegacyLooksBinary(text)) {
      LegacyScanText(text, 0, path, out);
      continue;
    }
    staticanalysis::ForEachPrintableRun(
        content, 6, [&](std::string_view run) {
          LegacyScanText(run, static_cast<std::size_t>(run.data() - text.data()),
                         path, out);
        });
  }
  return out;
}

/// Expects two scans to agree on every exported field of every finding.
inline void ExpectSameScan(const staticanalysis::ScanResult& a,
                           const staticanalysis::ScanResult& b) {
  ASSERT_EQ(a.certificates.size(), b.certificates.size());
  for (std::size_t i = 0; i < a.certificates.size(); ++i) {
    EXPECT_EQ(a.certificates[i].path, b.certificates[i].path);
    EXPECT_EQ(a.certificates[i].cert, b.certificates[i].cert);
    EXPECT_EQ(a.certificates[i].from_pem, b.certificates[i].from_pem);
  }
  ASSERT_EQ(a.pins.size(), b.pins.size());
  for (std::size_t i = 0; i < a.pins.size(); ++i) {
    EXPECT_EQ(a.pins[i].path, b.pins[i].path);
    EXPECT_EQ(a.pins[i].pin_string, b.pins[i].pin_string);
    EXPECT_EQ(a.pins[i].offset, b.pins[i].offset);
    EXPECT_EQ(a.pins[i].parsed, b.pins[i].parsed);
  }
}

}  // namespace pinscope::testing

#pragma GCC diagnostic pop
