#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <thread>

namespace pinscope::obs {

namespace internal {

std::size_t ThisThreadShard() {
  static thread_local const std::size_t shard =
      std::hash<std::thread::id>{}(std::this_thread::get_id()) % kShards;
  return shard;
}

void AtomicAddDouble(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}

void AtomicMinDouble(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (v < cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void AtomicMaxDouble(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (v > cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

HistogramCell::HistogramCell(std::vector<double> bucket_bounds)
    : bounds(std::move(bucket_bounds)),
      buckets(std::make_unique<std::atomic<std::uint64_t>[]>(bounds.size() + 1)),
      min(std::numeric_limits<double>::infinity()),
      max(-std::numeric_limits<double>::infinity()) {
  for (std::size_t i = 0; i <= bounds.size(); ++i) buckets[i] = 0;
}

void HistogramCell::Record(double value) {
  // First bucket whose upper bound covers the value; past-the-end = overflow.
  const std::size_t index = static_cast<std::size_t>(
      std::lower_bound(bounds.begin(), bounds.end(), value) - bounds.begin());
  buckets[index].fetch_add(1, std::memory_order_relaxed);
  AtomicAddDouble(sum, value);
  AtomicMinDouble(min, value);
  AtomicMaxDouble(max, value);
}

}  // namespace internal

double HistogramSnapshot::Quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count);
  std::uint64_t below = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i] == 0) continue;
    const double prev = static_cast<double>(below);
    below += buckets[i];
    if (static_cast<double>(below) < target) continue;
    const double lower = i == 0 ? 0.0 : bounds[i - 1];
    const double upper = i < bounds.size() ? bounds[i] : max;
    const double fraction =
        (target - prev) / static_cast<double>(buckets[i]);
    return std::clamp(lower + (upper - lower) * fraction, min, max);
  }
  return max;  // unreachable for consistent snapshots; safe fallback
}

Counter MetricsRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_
             .emplace(std::string(name),
                      std::make_unique<internal::CounterCell>())
             .first;
  }
  return Counter(it->second.get());
}

Gauge MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_
             .emplace(std::string(name), std::make_unique<internal::GaugeCell>())
             .first;
  }
  return Gauge(it->second.get());
}

Histogram MetricsRegistry::histogram(std::string_view name,
                                     std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    if (bounds.empty()) bounds = DefaultDurationBoundsUs();
    it = histograms_
             .emplace(std::string(name),
                      std::make_unique<internal::HistogramCell>(std::move(bounds)))
             .first;
  }
  return Histogram(it->second.get());
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snap;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, cell] : counters_) {
    snap.counters.emplace(name, cell->Sum());
  }
  for (const auto& [name, cell] : gauges_) {
    snap.gauges.emplace(name, cell->value.load(std::memory_order_relaxed));
  }
  for (const auto& [name, cell] : histograms_) {
    HistogramSnapshot h;
    h.bounds = cell->bounds;
    h.buckets.resize(cell->bounds.size() + 1);
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      h.buckets[i] = cell->buckets[i].load(std::memory_order_relaxed);
      h.count += h.buckets[i];
    }
    h.sum = cell->sum.load(std::memory_order_relaxed);
    if (h.count > 0) {
      h.min = cell->min.load(std::memory_order_relaxed);
      h.max = cell->max.load(std::memory_order_relaxed);
    }
    snap.histograms.emplace(name, std::move(h));
  }
  return snap;
}

const std::vector<double>& MetricsRegistry::DefaultDurationBoundsUs() {
  static const std::vector<double> bounds = {
      50,      100,     250,       500,       1'000,     2'500,
      5'000,   10'000,  25'000,    50'000,    100'000,   250'000,
      500'000, 1'000'000, 2'500'000, 5'000'000};
  return bounds;
}

const std::vector<double>& MetricsRegistry::Log2DurationBoundsUs() {
  static const std::vector<double> bounds = [] {
    std::vector<double> b;
    for (int e = 4; e <= 26; ++e) {  // 16 µs .. ~67 s
      b.push_back(static_cast<double>(std::uint64_t{1} << e));
    }
    return b;
  }();
  return bounds;
}

namespace {

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

}  // namespace

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string WriteMetricsJson(const MetricsSnapshot& snapshot) {
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : snapshot.counters) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"";
    out += JsonEscape(name);
    out += "\": ";
    out += std::to_string(value);
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : snapshot.gauges) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"";
    out += JsonEscape(name);
    out += "\": ";
    out += std::to_string(value);
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : snapshot.histograms) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"";
    out += JsonEscape(name);
    out += "\": {\"count\": ";
    out += std::to_string(h.count);
    out += ", \"sum\": ";
    out += JsonNumber(h.sum);
    out += ", \"min\": ";
    out += JsonNumber(h.count > 0 ? h.min : 0.0);
    out += ", \"max\": ";
    out += JsonNumber(h.count > 0 ? h.max : 0.0);
    out += ", \"mean\": ";
    out += JsonNumber(h.Mean());
    out += ",\n      \"buckets\": [";
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      if (i > 0) out += ", ";
      out += "{\"le\": ";
      out += i < h.bounds.size() ? JsonNumber(h.bounds[i]) : "\"inf\"";
      out += ", \"count\": ";
      out += std::to_string(h.buckets[i]);
      out += "}";
    }
    out += "]}";
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

namespace {

/// OpenMetrics metric name: `pinscope_` + name with every non-alphanumeric
/// character folded to '_'.
std::string OpenMetricsName(std::string_view name) {
  std::string out = "pinscope_";
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9');
    out += ok ? c : '_';
  }
  return out;
}

/// OpenMetrics float rendering: integral values print without a fraction,
/// everything else with the shortest %g form. Deterministic either way.
std::string OpenMetricsNumber(double v) {
  if (!std::isfinite(v)) return v > 0 ? "+Inf" : "-Inf";
  char buf[64];
  if (v == static_cast<double>(static_cast<long long>(v))) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%g", v);
  }
  return buf;
}

}  // namespace

std::string WriteMetricsOpenMetrics(const MetricsSnapshot& snapshot) {
  std::string out;
  for (const auto& [name, value] : snapshot.counters) {
    const std::string metric = OpenMetricsName(name);
    out += "# TYPE " + metric + " counter\n";
    out += metric + "_total " + std::to_string(value) + "\n";
  }
  for (const auto& [name, value] : snapshot.gauges) {
    const std::string metric = OpenMetricsName(name);
    out += "# TYPE " + metric + " gauge\n";
    out += metric + " " + std::to_string(value) + "\n";
  }
  for (const auto& [name, h] : snapshot.histograms) {
    const std::string metric = OpenMetricsName(name);
    out += "# TYPE " + metric + " histogram\n";
    // Prometheus buckets are cumulative; ours are per-interval.
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      cumulative += h.buckets[i];
      const std::string le =
          i < h.bounds.size() ? OpenMetricsNumber(h.bounds[i]) : "+Inf";
      out += metric + "_bucket{le=\"" + le + "\"} " +
             std::to_string(cumulative) + "\n";
    }
    out += metric + "_sum " + OpenMetricsNumber(h.sum) + "\n";
    out += metric + "_count " + std::to_string(h.count) + "\n";
    if (h.count > 0) {
      // Derived percentile gauges (OpenMetrics histograms have no native
      // quantile series): bucket-interpolated, bounded-error with log2
      // bounds. Separate families, so each needs its own TYPE line.
      for (const auto& [suffix, q] :
           {std::pair<const char*, double>{"_p50", 0.50},
            {"_p90", 0.90},
            {"_p99", 0.99}}) {
        out += "# TYPE " + metric + suffix + " gauge\n";
        out += metric + suffix + " " + OpenMetricsNumber(h.Quantile(q)) + "\n";
      }
    }
  }
  out += "# EOF\n";
  return out;
}

std::string WritePhaseBreakdownJson(const MetricsSnapshot& snapshot,
                                    std::string_view prefix) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, h] : snapshot.histograms) {
    if (name.compare(0, prefix.size(), prefix) != 0) continue;
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"";
    out += JsonEscape(name);
    out += "\": {\"count\": ";
    out += std::to_string(h.count);
    out += ", \"total_ms\": ";
    out += JsonNumber(h.sum / 1000.0);
    out += ", \"mean_ms\": ";
    out += JsonNumber(h.Mean() / 1000.0);
    out += ", \"max_ms\": ";
    out += JsonNumber((h.count > 0 ? h.max : 0.0) / 1000.0);
    out += "}";
  }
  out += first ? "}" : "\n  }";
  return out;
}

namespace {

std::string PercentOf(std::uint64_t part, std::uint64_t whole) {
  if (whole == 0) return "-";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f%%",
                100.0 * static_cast<double>(part) / static_cast<double>(whole));
  return buf;
}

std::string Millis(double us) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f ms", us / 1000.0);
  return buf;
}

}  // namespace

std::string RenderSummary(const MetricsSnapshot& snapshot) {
  std::string out;
  char line[384];

  // Cache families (published as gauges "cache.<family>.<field>") render as
  // one unified table — the replacement for the per-cache bespoke printfs.
  std::map<std::string, std::map<std::string, std::uint64_t>> caches;
  for (const auto& [name, value] : snapshot.gauges) {
    if (name.rfind("cache.", 0) != 0) continue;
    const std::size_t dot = name.find('.', 6);
    if (dot == std::string::npos) continue;
    caches[name.substr(6, dot - 6)][name.substr(dot + 1)] = value;
  }
  if (!caches.empty()) {
    out += "caches:\n";
    for (const auto& [family, fields] : caches) {
      auto field = [&](const char* key) -> std::uint64_t {
        const auto it = fields.find(key);
        return it == fields.end() ? 0 : it->second;
      };
      const std::uint64_t lookups = field("lookups");
      const std::uint64_t hits = field("hits");
      std::snprintf(line, sizeof(line),
                    "  %-12s %8llu lookups  %8llu hits (%s)  %7llu entries\n",
                    family.c_str(), static_cast<unsigned long long>(lookups),
                    static_cast<unsigned long long>(hits),
                    PercentOf(hits, lookups).c_str(),
                    static_cast<unsigned long long>(field("entries")));
      out += line;
    }
  }

  bool header = false;
  for (const auto& [name, h] : snapshot.histograms) {
    if (name.rfind("phase.", 0) != 0 || h.count == 0) continue;
    if (!header) {
      out += "phases (wall time):\n";
      header = true;
    }
    std::snprintf(
        line, sizeof(line),
        "  %-24s %8llu x  total %12s  mean %10s  p50 %10s  p90 %10s  "
        "p99 %10s  max %10s\n",
        name.c_str() + 6, static_cast<unsigned long long>(h.count),
        Millis(h.sum).c_str(), Millis(h.Mean()).c_str(),
        Millis(h.Quantile(0.50)).c_str(), Millis(h.Quantile(0.90)).c_str(),
        Millis(h.Quantile(0.99)).c_str(), Millis(h.max).c_str());
    out += line;
  }

  header = false;
  for (const auto& [name, value] : snapshot.counters) {
    if (!header) {
      out += "counters:\n";
      header = true;
    }
    std::snprintf(line, sizeof(line), "  %-36s %12llu\n", name.c_str(),
                  static_cast<unsigned long long>(value));
    out += line;
  }
  return out;
}

}  // namespace pinscope::obs
