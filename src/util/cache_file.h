// Versioned on-disk container for persistent caches (DESIGN.md §15).
//
// Both persistent caches (the static-scan cache and the chain-validation
// memo) serialize through this one container so the durability rules live in
// a single place:
//
//   - Header (28 bytes): magic, a per-cache kind tag, a version word (the
//     container revision above the caller's payload version), the payload
//     size, and a CacheChecksum of the payload. Any mismatch — wrong kind,
//     unknown version, a file shorter or longer than header + payload,
//     flipped payload byte — makes ReadCacheFile return nullopt, and the
//     caller starts cold. A cache file can make a run slower, never wrong,
//     and never crash it.
//   - One read, one write: the payload is read with a single fread into a
//     buffer of exactly its size, and written with one fwrite after the
//     header, so a load or save costs little more than the I/O itself.
//   - Atomic write-replace: WriteCacheFile writes a unique temporary next
//     to the destination and std::rename()s it into place, so concurrent
//     writers into one --cache-dir are last-writer-wins and readers never
//     observe a torn file. (Callers serialize entries in sorted key order,
//     which makes equal caches produce equal bytes — so "last writer" is
//     unobservable when the writers analyzed the same corpus.)
//
// The checksum guards against corruption, not adversaries; a cache dir is
// local scratch state with the same trust level as the build tree.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>

#include "util/bytes.h"

namespace pinscope::util {

/// The container's payload checksum: 64-bit, word-at-a-time over four
/// independent lanes plus a byte tail (xxHash64-style). Any change confined
/// to one 8-byte word of a 32-byte stripe, or to one tail byte — so every
/// single-bit flip — changes it.
[[nodiscard]] std::uint64_t CacheChecksum(const std::uint8_t* data,
                                          std::size_t size);

/// Writes `payload` under a versioned, checksummed header and atomically
/// replaces `path`. `version` is the caller's payload version and must be
/// below 2^16. Returns false on any I/O failure (callers treat that as
/// "cache not persisted", never as an error).
bool WriteCacheFile(const std::string& path, std::uint32_t kind,
                    std::uint32_t version, const Bytes& payload);

/// Reads `path`, verifies magic + kind + version + size + checksum, and
/// returns the payload. nullopt on a missing, foreign, version-mismatched,
/// truncated, or corrupt file — the cold-start signal.
[[nodiscard]] std::optional<Bytes> ReadCacheFile(const std::string& path,
                                                 std::uint32_t kind,
                                                 std::uint32_t version);

// --- Little-endian payload codec helpers -----------------------------------
// Shared by the cache serializers so both payload formats are trivially
// byte-stable across platforms.

void AppendU8(Bytes& out, std::uint8_t v);
void AppendU32(Bytes& out, std::uint32_t v);
void AppendU64(Bytes& out, std::uint64_t v);
void AppendI64(Bytes& out, std::int64_t v);
/// Length-prefixed (u32) string.
void AppendString(Bytes& out, std::string_view s);
/// Length-prefixed (u32) blob.
void AppendBlob(Bytes& out, const Bytes& b);

/// Sequential payload reader. Every accessor returns a zero value once a
/// read has run past the end; check ok() (and AtEnd()) after decoding. The
/// fixed-width reads are inline: record walks call them per field.
class ByteReader {
 public:
  explicit ByteReader(const Bytes& data) : data_(&data) {}

  [[nodiscard]] std::uint8_t U8() { return Le<std::uint8_t>(); }
  [[nodiscard]] std::uint32_t U32() { return Le<std::uint32_t>(); }
  [[nodiscard]] std::uint64_t U64() { return Le<std::uint64_t>(); }
  [[nodiscard]] std::int64_t I64() { return static_cast<std::int64_t>(U64()); }
  [[nodiscard]] std::string String();
  [[nodiscard]] Bytes Blob();
  /// Copies exactly `n` raw bytes into `dst`.
  bool Raw(std::uint8_t* dst, std::size_t n);
  /// Steps over the next `n` bytes and returns a pointer to them (into the
  /// reader's buffer), or nullptr once past the end.
  const std::uint8_t* Take(std::size_t n) {
    if (!ok_ || data_->size() - pos_ < n) {
      ok_ = false;
      return nullptr;
    }
    const std::uint8_t* at = data_->data() + pos_;
    pos_ += n;
    return at;
  }

  /// Bytes consumed so far.
  [[nodiscard]] std::size_t pos() const { return pos_; }
  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] bool AtEnd() const { return pos_ == data_->size(); }

 private:
  /// The next sizeof(T) bytes as a little-endian unsigned value.
  template <typename T>
  T Le() {
    T v = 0;
    if (const std::uint8_t* p = Take(sizeof(T))) {
      if constexpr (std::endian::native == std::endian::little) {
        std::memcpy(&v, p, sizeof(T));
      } else {
        for (std::size_t i = 0; i < sizeof(T); ++i) {
          v |= static_cast<T>(static_cast<T>(p[i]) << (8 * i));
        }
      }
    }
    return v;
  }

  const Bytes* data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace pinscope::util
