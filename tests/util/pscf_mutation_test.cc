// Hostile `.pscf` payloads: the checksum only guards against accidental
// damage, so each cache decoder must also survive a container that is
// checksum-valid, of the right kind and version, and still lies. Real saved
// ScanCache and ValidationCache payloads are mutated — every u32 field
// inflated (by one, and to 0xffffffff) at every offset, the entry count
// inflated, every truncation, and seeded random bit flips — re-wrapped with
// util::WriteCacheFile, and loaded. Each load must either fail with an
// empty cache or succeed; it must never crash, hang or throw. Carries the
// `robust` ctest label so it also runs under the sanitizer presets.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <functional>
#include <optional>
#include <string>

#include "appmodel/package.h"
#include "staticanalysis/scan_cache.h"
#include "staticanalysis/scanner.h"
#include "tls/pinning.h"
#include "util/cache_file.h"
#include "util/clock.h"
#include "util/rng.h"
#include "x509/issuer.h"
#include "x509/pem.h"
#include "x509/root_store.h"
#include "x509/validation_cache.h"

namespace pinscope {
namespace {

constexpr int kRandomFlips = 300;

class PscfMutationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("pinscope_pscf_mutation_" +
            std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->name()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  [[nodiscard]] std::string PathFor(const std::string& name) const {
    return (dir_ / name).string();
  }

  /// The payload of the `kind`/`version` container at `path`.
  static util::Bytes SavedPayload(const std::string& path, std::uint32_t kind,
                                  std::uint32_t version) {
    const std::optional<util::Bytes> payload =
        util::ReadCacheFile(path, kind, version);
    EXPECT_TRUE(payload.has_value());
    return payload.value_or(util::Bytes{});
  }

  /// Loads every mutation of `payload` into a fresh Cache and checks the
  /// all-or-nothing contract. Returns how many mutations loaded cleanly.
  template <typename Cache>
  static std::size_t Sweep(const std::string& path, const util::Bytes& payload,
                           std::uint64_t seed) {
    std::size_t accepted = 0;
    const auto check = [&](const util::Bytes& mutated, const std::string& what) {
      SCOPED_TRACE(what);
      ASSERT_TRUE(util::WriteCacheFile(path, Cache::kFileKind,
                                       Cache::kFileVersion, mutated));
      Cache cache;
      bool loaded = false;
      EXPECT_NO_THROW(loaded = cache.LoadFromFile(path));
      if (loaded) {
        ++accepted;
      } else {
        EXPECT_EQ(cache.EntryCount(), 0u);
      }
    };

    // Inflated fields: every u32 window, whatever field it overlaps.
    for (std::size_t at = 0; at + 4 <= payload.size(); ++at) {
      std::uint32_t field = 0;
      for (int b = 0; b < 4; ++b) {
        field |= static_cast<std::uint32_t>(payload[at + b]) << (8 * b);
      }
      for (const std::uint32_t value : {field + 1, 0xffffffffU}) {
        util::Bytes mutated = payload;
        for (int b = 0; b < 4; ++b) {
          mutated[at + b] = static_cast<std::uint8_t>(value >> (8 * b));
        }
        check(mutated, "u32 at " + std::to_string(at) + " = " +
                           std::to_string(value));
      }
    }
    // The leading u64 entry count.
    for (const std::uint64_t count :
         {std::uint64_t{1} << 32, std::uint64_t{1} << 63, ~std::uint64_t{0}}) {
      util::Bytes mutated = payload;
      for (int b = 0; b < 8; ++b) {
        mutated[b] = static_cast<std::uint8_t>(count >> (8 * b));
      }
      check(mutated, "count = " + std::to_string(count));
    }
    // Every truncation.
    for (std::size_t size = 0; size < payload.size(); ++size) {
      check(util::Bytes(payload.begin(),
                        payload.begin() + static_cast<std::ptrdiff_t>(size)),
            "truncated to " + std::to_string(size));
    }
    // Seeded random bit flips, one to eight per payload.
    util::Rng rng(seed);
    for (int i = 0; i < kRandomFlips; ++i) {
      util::Bytes mutated = payload;
      const int flips = rng.UniformInt(1, 8);
      for (int f = 0; f < flips; ++f) {
        const auto at = static_cast<std::size_t>(
            rng.UniformU64(0, mutated.size() - 1));
        mutated[at] ^= static_cast<std::uint8_t>(1U << rng.UniformInt(0, 7));
      }
      check(mutated, "bit flips #" + std::to_string(i));
    }
    return accepted;
  }

  std::filesystem::path dir_;
};

x509::Certificate TestCert(const std::string& cn) {
  x509::IssueSpec spec;
  spec.subject.set_common_name(cn);
  return x509::CertificateIssuer::SelfSignedLeaf("mutation:" + cn, spec);
}

TEST_F(PscfMutationTest, ScanCachePayloadMutationsLoadAllOrNothing) {
  // A PEM certificate, a parsed pin and a malformed pin: every serialized
  // field of a scan entry is present.
  const std::string pin =
      tls::Pin::ForCertificate(TestCert("pin.example"),
                               tls::PinForm::kSpkiSha256)
          .ToPinString();
  appmodel::PackageFiles files;
  files.AddText("assets/ca.pem", x509::PemEncode(TestCert("pem.example")));
  files.AddText("config/pins.json",
                "{\"pin\": \"" + pin +
                    "\", \"bad\": \"sha256/!!notbase64suchaninvalidpin!!\"}");
  const staticanalysis::Scanner scanner;
  staticanalysis::ScanCache original;
  (void)scanner.Scan(files, &original);
  ASSERT_GT(original.EntryCount(), 0u);
  const std::string path = PathFor("scan.pscf");
  ASSERT_TRUE(original.SaveToFile(path));
  const util::Bytes payload =
      SavedPayload(path, staticanalysis::ScanCache::kFileKind,
                   staticanalysis::ScanCache::kFileVersion);
  ASSERT_GT(payload.size(), 8u);

  (void)Sweep<staticanalysis::ScanCache>(path, payload, /*seed=*/11);
}

TEST_F(PscfMutationTest, ValidationCachePayloadMutationsLoadAllOrNothing) {
  const x509::CertificateIssuer root = x509::CertificateIssuer::SelfSignedRoot(
      "mutation-root",
      x509::DistinguishedName{"Mutation Root CA", "TestOrg", "US"},
      -5 * util::kMillisPerYear, 10 * util::kMillisPerYear);
  const x509::RootStore store("test", {root.certificate()});
  x509::ValidationCache original;
  for (const std::string host : {"api.mutation.com", "www.mutation.com"}) {
    util::Rng rng(std::hash<std::string>{}(host));
    x509::IssueSpec spec;
    spec.subject.set_common_name(host);
    spec.san_dns = {host};
    spec.not_before = -30 * util::kMillisPerDay;
    spec.not_after = util::kMillisPerYear;
    (void)x509::CachedValidateChain(&original,
                                    {root.Issue(spec, rng), root.certificate()},
                                    host, 0, store, x509::ValidationOptions{});
  }
  ASSERT_EQ(original.EntryCount(), 2u);
  const std::string path = PathFor("validation.pscf");
  ASSERT_TRUE(original.SaveToFile(path));
  const util::Bytes payload =
      SavedPayload(path, x509::ValidationCache::kFileKind,
                   x509::ValidationCache::kFileVersion);
  ASSERT_GT(payload.size(), 8u);

  // Most fields of a validation entry are free-form (fingerprints, tokens,
  // times, hostnames), so some mutations must decode cleanly: the sweep
  // reaches the decoder's success path, not only its rejections.
  EXPECT_GT(Sweep<x509::ValidationCache>(path, payload, /*seed=*/13), 0u);
}

}  // namespace
}  // namespace pinscope
