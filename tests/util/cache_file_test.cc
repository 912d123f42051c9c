// Unit tests for the versioned on-disk cache container (DESIGN.md §15):
// header round trip, every rejection path (missing, foreign kind, version
// skew, a revision-1 file, truncation, an appended byte, flipped payload
// byte), the lane checksum's single-bit and word-swap sensitivity, atomic
// write-replace, and the little-endian payload codec. Carries the `stream` ctest label so it also
// runs under the sanitizer presets.
#include "util/cache_file.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>

namespace pinscope::util {
namespace {

constexpr std::uint32_t kKind = 0x31545354;  // "TST1"
constexpr std::uint32_t kVersion = 3;

class CacheFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("pinscope_cache_file_test_" +
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

  static Bytes SamplePayload() {
    Bytes payload;
    for (int i = 0; i < 300; ++i) {
      payload.push_back(static_cast<std::uint8_t>(i * 7));
    }
    return payload;
  }

  std::filesystem::path dir_;
};

TEST_F(CacheFileTest, RoundTripsPayloadBytes) {
  const std::string path = PathFor("cache.pscf");
  const Bytes payload = SamplePayload();
  ASSERT_TRUE(WriteCacheFile(path, kKind, kVersion, payload));

  const auto read = ReadCacheFile(path, kKind, kVersion);
  ASSERT_TRUE(read.has_value());
  EXPECT_EQ(*read, payload);
}

TEST_F(CacheFileTest, EmptyPayloadRoundTrips) {
  const std::string path = PathFor("empty.pscf");
  ASSERT_TRUE(WriteCacheFile(path, kKind, kVersion, {}));
  const auto read = ReadCacheFile(path, kKind, kVersion);
  ASSERT_TRUE(read.has_value());
  EXPECT_TRUE(read->empty());
}

TEST_F(CacheFileTest, MissingFileIsColdStart) {
  EXPECT_FALSE(ReadCacheFile(PathFor("absent.pscf"), kKind, kVersion)
                   .has_value());
}

TEST_F(CacheFileTest, ForeignKindIsRejected) {
  const std::string path = PathFor("kind.pscf");
  ASSERT_TRUE(WriteCacheFile(path, kKind, kVersion, SamplePayload()));
  EXPECT_FALSE(ReadCacheFile(path, kKind + 1, kVersion).has_value());
}

TEST_F(CacheFileTest, VersionSkewIsRejectedBothWays) {
  const std::string path = PathFor("version.pscf");
  ASSERT_TRUE(WriteCacheFile(path, kKind, kVersion, SamplePayload()));
  EXPECT_FALSE(ReadCacheFile(path, kKind, kVersion + 1).has_value());
  EXPECT_FALSE(ReadCacheFile(path, kKind, kVersion - 1).has_value());
}

TEST_F(CacheFileTest, TruncationAnywhereIsRejected) {
  const std::string path = PathFor("trunc.pscf");
  ASSERT_TRUE(WriteCacheFile(path, kKind, kVersion, SamplePayload()));
  const auto full = std::filesystem::file_size(path);
  // Cut mid-payload, mid-header, and to nothing.
  for (const std::uintmax_t keep : {full - 1, full / 2, std::uintmax_t{7},
                                    std::uintmax_t{0}}) {
    ASSERT_TRUE(WriteCacheFile(path, kKind, kVersion, SamplePayload()));
    std::filesystem::resize_file(path, keep);
    EXPECT_FALSE(ReadCacheFile(path, kKind, kVersion).has_value())
        << "kept " << keep << " of " << full << " bytes";
  }
}

TEST_F(CacheFileTest, RevisionOneFileLoadsNothing) {
  // A file as the first container revision wrote it: the caller's version
  // alone in the version word and an FNV-1a checksum. It must start cold.
  const Bytes payload = SamplePayload();
  std::uint64_t fnv = 0xcbf29ce484222325ULL;
  for (const std::uint8_t b : payload) {
    fnv ^= b;
    fnv *= 0x100000001b3ULL;
  }
  Bytes file;
  AppendU32(file, 0x46435350);  // "PSCF"
  AppendU32(file, kKind);
  AppendU32(file, kVersion);
  AppendU64(file, payload.size());
  AppendU64(file, fnv);
  Append(file, payload);
  const std::string path = PathFor("v1.pscf");
  {
    std::ofstream f(path, std::ios::binary);
    f.write(reinterpret_cast<const char*>(file.data()),
            static_cast<std::streamsize>(file.size()));
  }
  EXPECT_FALSE(ReadCacheFile(path, kKind, kVersion).has_value());
}

TEST_F(CacheFileTest, AppendedByteIsRejected) {
  const std::string path = PathFor("long.pscf");
  ASSERT_TRUE(WriteCacheFile(path, kKind, kVersion, SamplePayload()));
  {
    std::ofstream f(path, std::ios::binary | std::ios::app);
    f.put('\0');
  }
  EXPECT_FALSE(ReadCacheFile(path, kKind, kVersion).has_value());
}

TEST_F(CacheFileTest, FlippedPayloadByteFailsTheChecksum) {
  const std::string path = PathFor("corrupt.pscf");
  const Bytes payload = SamplePayload();
  ASSERT_TRUE(WriteCacheFile(path, kKind, kVersion, payload));
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(-1, std::ios::end);  // last payload byte
    const char flipped = static_cast<char>(payload.back() ^ 0x01);
    f.write(&flipped, 1);
  }
  EXPECT_FALSE(ReadCacheFile(path, kKind, kVersion).has_value());
}

TEST_F(CacheFileTest, RewriteReplacesAtomicallyAndLeavesNoTempFiles) {
  const std::string path = PathFor("replace.pscf");
  ASSERT_TRUE(WriteCacheFile(path, kKind, kVersion, SamplePayload()));
  Bytes second = {1, 2, 3};
  ASSERT_TRUE(WriteCacheFile(path, kKind, kVersion, second));

  const auto read = ReadCacheFile(path, kKind, kVersion);
  ASSERT_TRUE(read.has_value());
  EXPECT_EQ(*read, second);

  std::size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    (void)entry;
    ++files;
  }
  EXPECT_EQ(files, 1u);  // the destination only; every temp was renamed away
}

TEST_F(CacheFileTest, EqualPayloadsWriteIdenticalFiles) {
  const std::string a = PathFor("a.pscf");
  const std::string b = PathFor("b.pscf");
  ASSERT_TRUE(WriteCacheFile(a, kKind, kVersion, SamplePayload()));
  ASSERT_TRUE(WriteCacheFile(b, kKind, kVersion, SamplePayload()));
  std::ifstream fa(a, std::ios::binary), fb(b, std::ios::binary);
  const std::string bytes_a((std::istreambuf_iterator<char>(fa)),
                            std::istreambuf_iterator<char>());
  const std::string bytes_b((std::istreambuf_iterator<char>(fb)),
                            std::istreambuf_iterator<char>());
  EXPECT_EQ(bytes_a, bytes_b);
}

TEST(CacheChecksumTest, EverySingleBitFlipIsCaught) {
  // Lengths 0-72 cover no stripe, one and two full 32-byte stripes of the
  // four lanes, and every byte-tail length in between.
  for (std::size_t size = 0; size <= 72; ++size) {
    Bytes data(size);
    for (std::size_t i = 0; i < size; ++i) {
      data[i] = static_cast<std::uint8_t>(i * 37 + size);
    }
    const std::uint64_t clean = CacheChecksum(data.data(), data.size());
    for (std::size_t bit = 0; bit < size * 8; ++bit) {
      data[bit / 8] ^= static_cast<std::uint8_t>(1U << (bit % 8));
      EXPECT_NE(CacheChecksum(data.data(), data.size()), clean)
          << "size " << size << " bit " << bit;
      data[bit / 8] ^= static_cast<std::uint8_t>(1U << (bit % 8));
    }
  }
}

TEST(CacheChecksumTest, SwappingTwoWordsChangesIt) {
  // Nine distinct 8-byte words: two full stripes and a byte tail, so the
  // swaps cover one lane across stripes, two lanes, and a lane with the tail.
  Bytes data;
  for (std::uint64_t w = 1; w <= 9; ++w) {
    AppendU64(data, 0x0101010101010101ULL * w);
  }
  const std::uint64_t clean = CacheChecksum(data.data(), data.size());
  for (std::size_t a = 0; a < 9; ++a) {
    for (std::size_t b = a + 1; b < 9; ++b) {
      Bytes swapped = data;
      std::swap_ranges(swapped.begin() + static_cast<std::ptrdiff_t>(8 * a),
                       swapped.begin() + static_cast<std::ptrdiff_t>(8 * a + 8),
                       swapped.begin() + static_cast<std::ptrdiff_t>(8 * b));
      EXPECT_NE(CacheChecksum(swapped.data(), swapped.size()), clean)
          << "words " << a << " and " << b;
    }
  }
}

TEST(CacheFileCodecTest, RoundTripsEveryFieldType) {
  Bytes out;
  AppendU8(out, 0xAB);
  AppendU32(out, 0xDEADBEEFu);
  AppendU64(out, 0x0123456789ABCDEFull);
  AppendI64(out, -42);
  AppendString(out, "pin-string");
  AppendBlob(out, {9, 8, 7});
  AppendString(out, "");  // empty values must survive too

  ByteReader r(out);
  EXPECT_EQ(r.U8(), 0xAB);
  EXPECT_EQ(r.U32(), 0xDEADBEEFu);
  EXPECT_EQ(r.U64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.I64(), -42);
  EXPECT_EQ(r.String(), "pin-string");
  EXPECT_EQ(r.Blob(), (Bytes{9, 8, 7}));
  EXPECT_EQ(r.String(), "");
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.AtEnd());
}

TEST(CacheFileCodecTest, OverReadTurnsStickyNotUndefined) {
  Bytes out;
  AppendU32(out, 5);
  ByteReader r(out);
  EXPECT_EQ(r.U32(), 5u);
  EXPECT_EQ(r.U64(), 0u);  // past the end: zero value, ok() drops
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.String(), "");  // stays zero-valued afterwards
  EXPECT_FALSE(r.ok());
}

TEST(CacheFileCodecTest, TruncatedLengthPrefixedStringFailsCleanly) {
  Bytes out;
  AppendString(out, "0123456789");
  out.resize(4 + 6);  // length says 10, only 6 bytes remain
  ByteReader r(out);
  EXPECT_EQ(r.String(), "");
  EXPECT_FALSE(r.ok());
}

}  // namespace
}  // namespace pinscope::util
