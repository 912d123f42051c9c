#include "util/cache_file.h"

#include <atomic>
#include <bit>
#include <cstdio>
#include <cstring>
#include <memory>

namespace pinscope::util {

namespace {

constexpr std::uint32_t kMagic = 0x46435350;  // "PSCF" little-endian.
constexpr std::size_t kHeaderBytes = 4 + 4 + 4 + 8 + 8;

/// Container revision, carried in the high 16 bits of the header's version
/// word above the caller's payload version. Revision 1 (FNV-1a checksum)
/// wrote the payload version alone, so its files fail the version check and
/// the run starts cold.
constexpr std::uint32_t kContainerRevision = 2;

std::uint32_t VersionWord(std::uint32_t version) {
  return kContainerRevision << 16 | version;
}

struct FileCloser {
  void operator()(std::FILE* f) const { std::fclose(f); }
};

constexpr std::uint64_t kP1 = 0x9e3779b185ebca87ULL;
constexpr std::uint64_t kP2 = 0xc2b2ae3d27d4eb4fULL;
constexpr std::uint64_t kP3 = 0x165667b19e3779f9ULL;

/// Little-endian 8-byte load, so the checksum is the same on every host.
std::uint64_t LoadU64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::big) {
    v = __builtin_bswap64(v);
  }
  return v;
}

/// One lane step: a bijection of `lane` for a fixed word, and injective in
/// the word for a fixed lane.
std::uint64_t Round(std::uint64_t lane, const std::uint8_t* word) {
  return std::rotl(lane + LoadU64(word) * kP2, 31) * kP1;
}

void AppendHeader(Bytes& out, std::uint32_t kind, std::uint32_t version,
                  const Bytes& payload) {
  AppendU32(out, kMagic);
  AppendU32(out, kind);
  AppendU32(out, VersionWord(version));
  AppendU64(out, payload.size());
  AppendU64(out, CacheChecksum(payload.data(), payload.size()));
}

}  // namespace

std::uint64_t CacheChecksum(const std::uint8_t* data, std::size_t size) {
  // Four independent lanes, one 8-byte word each per 32-byte stripe, so a
  // change confined to one word reaches exactly one lane and the sum below.
  std::uint64_t v0 = kP1 + kP2, v1 = kP2, v2 = 0, v3 = 0 - kP1;
  std::size_t i = 0;
  for (; i + 32 <= size; i += 32) {
    v0 = Round(v0, data + i);
    v1 = Round(v1, data + i + 8);
    v2 = Round(v2, data + i + 16);
    v3 = Round(v3, data + i + 24);
  }
  std::uint64_t h = std::rotl(v0, 1) + std::rotl(v1, 7) + std::rotl(v2, 12) +
                    std::rotl(v3, 18) + size;
  // Byte tail: again a bijection of `h` per byte, injective in the byte.
  for (; i < size; ++i) h = std::rotl(h ^ (data[i] * kP3), 11) * kP1;
  h ^= h >> 33;
  h *= kP2;
  h ^= h >> 29;
  h *= kP3;
  return h ^ (h >> 32);
}

void AppendU8(Bytes& out, std::uint8_t v) { out.push_back(v); }

void AppendU32(Bytes& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void AppendU64(Bytes& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void AppendI64(Bytes& out, std::int64_t v) {
  AppendU64(out, static_cast<std::uint64_t>(v));
}

void AppendString(Bytes& out, std::string_view s) {
  AppendU32(out, static_cast<std::uint32_t>(s.size()));
  out.insert(out.end(), s.begin(), s.end());
}

void AppendBlob(Bytes& out, const Bytes& b) {
  AppendU32(out, static_cast<std::uint32_t>(b.size()));
  out.insert(out.end(), b.begin(), b.end());
}

std::string ByteReader::String() {
  const std::uint32_t n = U32();
  const std::uint8_t* p = Take(n);
  return p == nullptr ? std::string()
                      : std::string(reinterpret_cast<const char*>(p), n);
}

Bytes ByteReader::Blob() {
  const std::uint32_t n = U32();
  const std::uint8_t* p = Take(n);
  return p == nullptr ? Bytes() : Bytes(p, p + n);
}

bool ByteReader::Raw(std::uint8_t* dst, std::size_t n) {
  const std::uint8_t* p = Take(n);
  if (p == nullptr) {
    std::memset(dst, 0, n);
    return false;
  }
  std::memcpy(dst, p, n);
  return true;
}

bool WriteCacheFile(const std::string& path, std::uint32_t kind,
                    std::uint32_t version, const Bytes& payload) {
  Bytes header;
  header.reserve(kHeaderBytes);
  AppendHeader(header, kind, version, payload);

  // Unique temp name per writer so two studies saving into one cache dir
  // never scribble on the same in-progress file; rename() then publishes
  // whole files only.
  static std::atomic<std::uint64_t> counter{0};
  const std::string tmp = path + ".tmp." +
                          std::to_string(counter.fetch_add(1)) + "." +
                          std::to_string(reinterpret_cast<std::uintptr_t>(&counter));
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return false;
  const bool written =
      std::fwrite(header.data(), 1, header.size(), f) == header.size() &&
      std::fwrite(payload.data(), 1, payload.size(), f) == payload.size();
  const bool flushed = std::fclose(f) == 0;
  if (!written || !flushed) {
    std::remove(tmp.c_str());
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

std::optional<Bytes> ReadCacheFile(const std::string& path, std::uint32_t kind,
                                   std::uint32_t version) {
  const std::unique_ptr<std::FILE, FileCloser> f(std::fopen(path.c_str(), "rb"));
  if (f == nullptr) return std::nullopt;
  // Unbuffered: the header is one small read and the payload one read
  // straight into its final buffer.
  std::setvbuf(f.get(), nullptr, _IONBF, 0);
  Bytes header(kHeaderBytes);
  if (std::fread(header.data(), 1, header.size(), f.get()) != header.size()) {
    return std::nullopt;
  }
  ByteReader fields(header);
  if (fields.U32() != kMagic || fields.U32() != kind ||
      fields.U32() != VersionWord(version)) {
    return std::nullopt;
  }
  const std::uint64_t payload_size = fields.U64();
  const std::uint64_t checksum = fields.U64();

  // The exact size is checked before the allocation, so a lying header
  // cannot ask for more memory than the file holds.
  if (std::fseek(f.get(), 0, SEEK_END) != 0) return std::nullopt;
  const long file_size = std::ftell(f.get());
  if (file_size < 0 ||
      static_cast<std::uint64_t>(file_size) - kHeaderBytes != payload_size ||
      std::fseek(f.get(), static_cast<long>(kHeaderBytes), SEEK_SET) != 0) {
    return std::nullopt;
  }
  Bytes payload(payload_size);
  if (std::fread(payload.data(), 1, payload.size(), f.get()) != payload.size() ||
      CacheChecksum(payload.data(), payload.size()) != checksum) {
    return std::nullopt;
  }
  return payload;
}

}  // namespace pinscope::util
