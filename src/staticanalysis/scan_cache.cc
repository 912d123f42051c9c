#include "staticanalysis/scan_cache.h"

#include <algorithm>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include "util/cache_file.h"

namespace pinscope::staticanalysis {

namespace {

// --- The pin-record codec ---------------------------------------------------
// One encoding of a found pin (layout on ScanCache::Entry), shared by the
// miss path (pack), the save (copy the packed region), the load (validate
// every record) and the hit path (unpack).

std::size_t PinRecordSize(const FoundPin& pin) {
  return 4 + pin.pin_string.size() + 8 + 1 +
         (pin.parsed.has_value() ? 1 + 4 + pin.parsed->material.size() : 0);
}

void AppendPinRecord(util::Bytes& out, const FoundPin& pin) {
  util::AppendString(out, pin.pin_string);
  util::AppendU64(out, pin.offset);
  util::AppendU8(out, pin.parsed.has_value() ? 1 : 0);
  if (pin.parsed.has_value()) {
    util::AppendU8(out, static_cast<std::uint8_t>(pin.parsed->form));
    util::AppendBlob(out, pin.parsed->material);
  }
}

/// One record as read, viewing the bytes it was read from.
struct PinRecord {
  std::string_view pin_string;
  std::uint64_t offset = 0;
  bool parsed = false;
  tls::PinForm form = tls::PinForm::kSpkiSha256;
  const std::uint8_t* material = nullptr;
  std::uint32_t material_size = 0;
};

/// Reads the next record into `rec`. False when a length runs past the end,
/// the parsed flag is not 0/1, or the form is not a PinForm.
bool NextPinRecord(util::ByteReader& r, PinRecord& rec) {
  const std::uint32_t length = r.U32();
  const std::uint8_t* text = r.Take(length);
  rec.offset = r.U64();
  const std::uint8_t flag = r.U8();
  if (!r.ok() || flag > 1) return false;
  rec.pin_string = {reinterpret_cast<const char*>(text), length};
  rec.parsed = flag == 1;
  if (rec.parsed) {
    const std::uint8_t form = r.U8();
    if (form > static_cast<std::uint8_t>(tls::PinForm::kPublicKey)) return false;
    rec.form = static_cast<tls::PinForm>(form);
    rec.material_size = r.U32();
    rec.material = r.Take(rec.material_size);
  }
  return r.ok();
}

}  // namespace

ScanCache::Key ScanCache::MakeKey(const util::Bytes& content, bool cert_file) {
  return Key{crypto::Sha256(content), cert_file};
}

std::shared_ptr<const ScanCache::Entry> ScanCache::Find(
    const Key& key, std::size_t content_size) {
  std::optional<std::shared_ptr<const Entry>> found = memo_.Find(key);
  if (!found.has_value()) return nullptr;
  bytes_deduped_.fetch_add(content_size, std::memory_order_relaxed);
  return std::move(*found);
}

std::shared_ptr<const ScanCache::Entry> ScanCache::Insert(
    const Key& key, const CachedFileScan& scan) {
  auto entry = std::make_shared<Entry>();
  entry->certificates = scan.certificates;
  std::size_t size = 4;
  for (const FoundPin& pin : scan.pins) size += PinRecordSize(pin);
  entry->pins.reserve(size);
  util::AppendU32(entry->pins, static_cast<std::uint32_t>(scan.pins.size()));
  for (const FoundPin& pin : scan.pins) AppendPinRecord(entry->pins, pin);
  return memo_.Insert(key, std::move(entry));
}

void ScanCache::Unpack(const Entry& entry, const std::string& path,
                       ScanResult& out) {
  out.certificates.reserve(out.certificates.size() + entry.certificates.size());
  for (const FoundCertificate& c : entry.certificates) {
    out.certificates.push_back(c);
    out.certificates.back().path = path;
  }
  util::ByteReader reader(entry.pins);
  const std::uint32_t count = reader.U32();
  out.pins.reserve(out.pins.size() + count);
  PinRecord rec;
  for (std::uint32_t i = 0; i < count; ++i) {
    (void)NextPinRecord(reader, rec);
    FoundPin& pin = out.pins.emplace_back();
    pin.path = path;
    pin.pin_string.assign(rec.pin_string);
    pin.offset = rec.offset;
    if (rec.parsed) {
      pin.parsed = tls::Pin{
          rec.form, util::Bytes(rec.material, rec.material + rec.material_size)};
    }
  }
}

bool ScanCache::SaveToFile(const std::string& path) const {
  // Order by key: equal caches ⇒ equal bytes.
  auto entries = memo_.Snapshot();
  std::sort(entries.begin(), entries.end(), [](const auto& a, const auto& b) {
    if (a.first.digest != b.first.digest) return a.first.digest < b.first.digest;
    return a.first.cert_file < b.first.cert_file;
  });

  std::size_t size = 8;
  for (const auto& [key, entry] : entries) {
    size += key.digest.size() + 1 + 4 + entry->pins.size();
    for (const FoundCertificate& c : entry->certificates) {
      size += 1 + 4 + c.cert.DerSize();
    }
  }
  util::Bytes payload;
  payload.reserve(size);
  util::AppendU64(payload, entries.size());
  for (const auto& [key, entry] : entries) {
    payload.insert(payload.end(), key.digest.begin(), key.digest.end());
    util::AppendU8(payload, key.cert_file ? 1 : 0);
    util::AppendU32(payload,
                    static_cast<std::uint32_t>(entry->certificates.size()));
    for (const FoundCertificate& c : entry->certificates) {
      util::AppendU8(payload, c.from_pem ? 1 : 0);
      util::AppendBlob(payload, c.cert.DerBytes());
    }
    util::Append(payload, entry->pins);
  }
  return util::WriteCacheFile(path, kFileKind, kFileVersion, payload);
}

bool ScanCache::LoadFromFile(const std::string& path) {
  const std::optional<util::Bytes> payload =
      util::ReadCacheFile(path, kFileKind, kFileVersion);
  if (!payload.has_value()) return false;

  util::ByteReader reader(*payload);
  const std::uint64_t count = reader.U64();
  std::vector<std::pair<Key, std::shared_ptr<const Entry>>> loaded;
  for (std::uint64_t i = 0; i < count && reader.ok(); ++i) {
    Key key;
    reader.Raw(key.digest.data(), key.digest.size());
    const std::uint8_t cert_file = reader.U8();
    if (cert_file > 1) return false;
    key.cert_file = cert_file == 1;
    auto entry = std::make_shared<Entry>();
    const std::uint32_t n_certs = reader.U32();
    for (std::uint32_t c = 0; c < n_certs && reader.ok(); ++c) {
      const std::uint8_t from_pem = reader.U8();
      std::optional<x509::Certificate> cert =
          x509::Certificate::ParseDer(reader.Blob());
      if (from_pem > 1 || !cert.has_value()) return false;
      entry->certificates.push_back({std::string(), std::move(*cert),
                                     from_pem == 1});
    }
    // The pin region is validated record by record, then kept as it lies.
    const std::size_t pins_begin = reader.pos();
    const std::uint32_t n_pins = reader.U32();
    PinRecord rec;
    for (std::uint32_t p = 0; p < n_pins; ++p) {
      if (!NextPinRecord(reader, rec)) return false;
    }
    if (!reader.ok()) return false;
    entry->pins.assign(payload->begin() + static_cast<std::ptrdiff_t>(pins_begin),
                       payload->begin() + static_cast<std::ptrdiff_t>(reader.pos()));
    loaded.emplace_back(key, std::move(entry));
  }
  if (!reader.ok() || !reader.AtEnd()) return false;

  // All-or-nothing: deposit only after the whole payload validated.
  for (auto& [key, entry] : loaded) (void)memo_.Insert(key, std::move(entry));
  return true;
}

}  // namespace pinscope::staticanalysis
