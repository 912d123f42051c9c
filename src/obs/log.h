// Deterministic structured event journal for the study pipeline
// (DESIGN.md §12).
//
// An EventLog collects *decision events* — which static rule fired, which
// config pin-set was parsed, why a chain failed validation, which run pair
// diverged — so every exported verdict can be traced back to the evidence
// that produced it. Unlike the trace sink, the journal is part of the
// determinism contract: its JSONL export is stably ordered by logical keys
// (platform, app id, phase, sequence-within-scope), never wall-clock, so the
// bytes are identical across thread counts and across runs.
//
// Thread safety mirrors TraceSink: events land in an obs::ThreadBuffer (one
// of 16 per-thread vectors, each under its own mutex) and are merged and
// sorted only at serialization time. Emission goes through an EventScope
// — one scope per (platform, app, phase), used by exactly one thread — whose
// local sequence counter provides the within-scope order. A default
// constructed EventScope is a no-op, so call sites stay unconditional when
// journaling is off.
//
// Severity filtering never reorders: the scope allocates a sequence number
// for every Emit() *before* the min-severity check, so a journal captured at
// a higher level is a byte-exact subsequence of the full journal.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/thread_buffer.h"

namespace pinscope::obs {

/// Event severity, ordered. kDecision sits above kInfo so a journal captured
/// at `decision` keeps exactly the verdict-attributing events plus warnings
/// and errors.
enum class Severity {
  kDebug,
  kInfo,
  kDecision,
  kWarn,
  kError,
};

/// Lowercase severity label ("debug", "info", "decision", "warn", "error").
[[nodiscard]] std::string_view SeverityName(Severity s);

/// Parses a severity label (the exact SeverityName spellings). Returns
/// nullopt for anything else — callers reject bad --log-level values.
[[nodiscard]] std::optional<Severity> ParseSeverity(std::string_view name);

/// Typed field value. Implicitly constructible from the types call sites
/// actually pass so emission reads as a brace list of key/value pairs.
class LogValue {
 public:
  enum class Type { kString, kInt, kUint, kBool, kDouble };

  LogValue(std::string v) : type_(Type::kString), str_(std::move(v)) {}  // NOLINT(google-explicit-constructor)
  LogValue(std::string_view v) : type_(Type::kString), str_(v) {}        // NOLINT(google-explicit-constructor)
  LogValue(const char* v) : type_(Type::kString), str_(v) {}             // NOLINT(google-explicit-constructor)
  LogValue(bool v) : type_(Type::kBool), bool_(v) {}                     // NOLINT(google-explicit-constructor)
  LogValue(int v) : type_(Type::kInt), int_(v) {}                        // NOLINT(google-explicit-constructor)
  LogValue(std::int64_t v) : type_(Type::kInt), int_(v) {}               // NOLINT(google-explicit-constructor)
  LogValue(std::uint64_t v) : type_(Type::kUint), uint_(v) {}            // NOLINT(google-explicit-constructor)
  LogValue(double v) : type_(Type::kDouble), double_(v) {}               // NOLINT(google-explicit-constructor)

  [[nodiscard]] Type type() const { return type_; }
  [[nodiscard]] const std::string& AsString() const { return str_; }
  [[nodiscard]] std::int64_t AsInt() const { return int_; }
  [[nodiscard]] std::uint64_t AsUint() const { return uint_; }
  [[nodiscard]] bool AsBool() const { return bool_; }
  [[nodiscard]] double AsDouble() const { return double_; }

  /// JSON rendering of the value alone (strings escaped and quoted; numbers
  /// and booleans bare). Deterministic — no locale, no float wobble.
  [[nodiscard]] std::string RenderJson() const;

 private:
  Type type_;
  std::string str_;
  std::int64_t int_ = 0;
  std::uint64_t uint_ = 0;
  bool bool_ = false;
  double double_ = 0.0;
};

/// One named field of an event.
struct LogField {
  std::string key;
  LogValue value;
};

/// One journal entry. Ordering keys are the scope identity plus `seq`;
/// wall-clock never appears.
struct LogEvent {
  std::string platform;  ///< "android", "ios", or "" for study-level events.
  std::string app_id;    ///< Package / bundle id ("" for study-level events).
  std::string phase;     ///< "static", "dynamic.mitm", "dynamic.detect", ...
  std::uint32_t seq = 0; ///< Emission index within the scope (filter-stable).
  Severity severity = Severity::kInfo;
  std::string name;      ///< Event type, e.g. "nsc.pin_set".
  std::vector<LogField> fields;
};

/// Finds a field by key (first match) or returns nullptr.
[[nodiscard]] const LogValue* FindField(const LogEvent& event,
                                        std::string_view key);

/// Thread-safe deterministic event journal for one run.
class EventLog {
 public:
  explicit EventLog(Severity min_severity = Severity::kInfo);
  EventLog(const EventLog&) = delete;
  EventLog& operator=(const EventLog&) = delete;

  [[nodiscard]] Severity min_severity() const { return min_severity_; }
  [[nodiscard]] bool Enabled(Severity s) const { return s >= min_severity_; }

  /// Deposits one event (severity already admitted by the caller, normally
  /// an EventScope).
  void Add(LogEvent event);

  /// Events recorded so far (approximate while workers are running).
  [[nodiscard]] std::size_t EventCount() const;

  /// Merged events sorted by (platform, app_id, phase, seq), with the
  /// rendered line as the final tiebreak so the order is total even if two
  /// scopes share an identity.
  [[nodiscard]] std::vector<LogEvent> SortedEvents() const;

  /// One JSON object per line, sorted as SortedEvents(). Byte-identical
  /// across thread counts for a deterministic study.
  [[nodiscard]] std::string ToJsonl() const;

  /// Renders one event as its JSONL line (no trailing newline).
  [[nodiscard]] static std::string RenderJsonLine(const LogEvent& event);

 private:
  Severity min_severity_;
  ThreadBuffer<LogEvent> events_;
};

/// Emission handle for one (platform, app, phase) scope. Owned and used by a
/// single thread; the local sequence counter orders its events. Default
/// constructed (or built over a null log) scopes drop everything but still
/// count sequence numbers, keeping filtered journals subsequence-exact.
class EventScope {
 public:
  EventScope() = default;
  EventScope(EventLog* log, std::string platform, std::string app_id,
             std::string phase)
      : log_(log),
        platform_(std::move(platform)),
        app_id_(std::move(app_id)),
        phase_(std::move(phase)) {}

  EventScope(const EventScope&) = delete;
  EventScope& operator=(const EventScope&) = delete;
  EventScope(EventScope&&) noexcept = default;
  EventScope& operator=(EventScope&&) noexcept = default;

  [[nodiscard]] EventLog* log() const { return log_; }

  /// Emits one event. The sequence number is allocated unconditionally —
  /// before the severity check — so raising min_severity filters lines
  /// without renumbering the survivors.
  void Emit(Severity severity, std::string_view name,
            std::vector<LogField> fields = {});

 private:
  EventLog* log_ = nullptr;
  std::string platform_;
  std::string app_id_;
  std::string phase_;
  std::uint32_t next_seq_ = 0;
};

/// Null-safe pointer emission for leaf layers (tls, net, device) that carry
/// a bare `EventScope*` the way they carry a bare `MetricsRegistry*`.
inline void EmitTo(EventScope* scope, Severity severity, std::string_view name,
                   std::vector<LogField> fields = {}) {
  if (scope != nullptr) scope->Emit(severity, name, std::move(fields));
}

}  // namespace pinscope::obs
