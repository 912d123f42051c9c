#include "obs/log.h"

#include <algorithm>
#include <cstdio>
#include <tuple>

#include "obs/metrics.h"

namespace pinscope::obs {

std::string_view SeverityName(Severity s) {
  switch (s) {
    case Severity::kDebug: return "debug";
    case Severity::kInfo: return "info";
    case Severity::kDecision: return "decision";
    case Severity::kWarn: return "warn";
    case Severity::kError: return "error";
  }
  return "info";
}

std::optional<Severity> ParseSeverity(std::string_view name) {
  if (name == "debug") return Severity::kDebug;
  if (name == "info") return Severity::kInfo;
  if (name == "decision") return Severity::kDecision;
  if (name == "warn") return Severity::kWarn;
  if (name == "error") return Severity::kError;
  return std::nullopt;
}

std::string LogValue::RenderJson() const {
  switch (type_) {
    case Type::kString: return '"' + JsonEscape(str_) + '"';
    case Type::kInt: return std::to_string(int_);
    case Type::kUint: return std::to_string(uint_);
    case Type::kBool: return bool_ ? "true" : "false";
    case Type::kDouble: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%g", double_);
      return buf;
    }
  }
  return "null";
}

const LogValue* FindField(const LogEvent& event, std::string_view key) {
  for (const LogField& f : event.fields) {
    if (f.key == key) return &f.value;
  }
  return nullptr;
}

EventLog::EventLog(Severity min_severity) : min_severity_(min_severity) {}

void EventLog::Add(LogEvent event) { events_.Add(std::move(event)); }

std::size_t EventLog::EventCount() const { return events_.Count(); }

std::string EventLog::RenderJsonLine(const LogEvent& event) {
  std::string out = "{\"platform\": \"";
  out += JsonEscape(event.platform);
  out += "\", \"app\": \"";
  out += JsonEscape(event.app_id);
  out += "\", \"phase\": \"";
  out += JsonEscape(event.phase);
  out += "\", \"seq\": ";
  out += std::to_string(event.seq);
  out += ", \"severity\": \"";
  out += SeverityName(event.severity);
  out += "\", \"event\": \"";
  out += JsonEscape(event.name);
  out += '"';
  if (!event.fields.empty()) {
    out += ", \"fields\": {";
    for (std::size_t i = 0; i < event.fields.size(); ++i) {
      if (i > 0) out += ", ";
      out += '"';
      out += JsonEscape(event.fields[i].key);
      out += "\": ";
      out += event.fields[i].value.RenderJson();
    }
    out += "}";
  }
  out += "}";
  return out;
}

std::vector<LogEvent> EventLog::SortedEvents() const {
  std::vector<LogEvent> events = events_.Collect();
  // Sort by logical keys only. The rendered line breaks the (rare) tie of
  // two same-identity scopes reusing a sequence number, keeping the order
  // total and schedule-independent.
  struct Keyed {
    LogEvent event;
    std::string line;
  };
  std::vector<Keyed> keyed;
  keyed.reserve(events.size());
  for (LogEvent& e : events) {
    std::string line = RenderJsonLine(e);
    keyed.push_back(Keyed{std::move(e), std::move(line)});
  }
  std::sort(keyed.begin(), keyed.end(), [](const Keyed& a, const Keyed& b) {
    return std::tie(a.event.platform, a.event.app_id, a.event.phase,
                    a.event.seq, a.line) <
           std::tie(b.event.platform, b.event.app_id, b.event.phase,
                    b.event.seq, b.line);
  });
  events.clear();
  for (Keyed& k : keyed) events.push_back(std::move(k.event));
  return events;
}

std::string EventLog::ToJsonl() const {
  std::string out;
  for (const LogEvent& e : SortedEvents()) {
    out += RenderJsonLine(e);
    out += '\n';
  }
  return out;
}

void EventScope::Emit(Severity severity, std::string_view name,
                      std::vector<LogField> fields) {
  // Allocate the sequence number before filtering: a journal captured at a
  // higher min severity must be a byte-exact subsequence of the full one.
  const std::uint32_t seq = next_seq_++;
  if (log_ == nullptr || !log_->Enabled(severity)) return;
  LogEvent event;
  event.platform = platform_;
  event.app_id = app_id_;
  event.phase = phase_;
  event.seq = seq;
  event.severity = severity;
  event.name = std::string(name);
  event.fields = std::move(fields);
  log_->Add(event);
}

}  // namespace pinscope::obs
