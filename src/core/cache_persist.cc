#include "core/cache_persist.h"

#include <cstdint>
#include <filesystem>

#include "core/study.h"

namespace pinscope::core {

namespace {

void SetGauge(obs::Observer* observer, const char* name, std::uint64_t value) {
  if (obs::MetricsRegistry* metrics = obs::MetricsOf(observer)) {
    metrics->gauge(name).Set(value);
  }
}

void PublishCacheGauges(obs::Observer* observer,
                        const staticanalysis::ScanCache* scan_cache,
                        const dynamicanalysis::SimFixtures* fixtures) {
  obs::MetricsRegistry* metrics = obs::MetricsOf(observer);
  if (metrics == nullptr) return;
  if (scan_cache != nullptr) {
    const staticanalysis::ScanCacheStats s = scan_cache->Stats();
    metrics->gauge("cache.scan.lookups").Set(s.lookups);
    metrics->gauge("cache.scan.hits").Set(s.hits);
    metrics->gauge("cache.scan.misses").Set(s.misses);
    metrics->gauge("cache.scan.entries").Set(s.entries);
    metrics->gauge("cache.scan.bytes_deduped").Set(s.bytes_deduped);
  }
  if (fixtures != nullptr) {
    const net::ForgedLeafCacheStats f = fixtures->forged_cache_stats();
    metrics->gauge("cache.forged_leaf.lookups").Set(f.lookups);
    metrics->gauge("cache.forged_leaf.hits").Set(f.hits);
    metrics->gauge("cache.forged_leaf.misses").Set(f.misses);
    metrics->gauge("cache.forged_leaf.entries").Set(f.entries);
    const x509::ValidationCacheStats v = fixtures->validation_cache_stats();
    metrics->gauge("cache.validation.lookups").Set(v.lookups);
    metrics->gauge("cache.validation.hits").Set(v.hits);
    metrics->gauge("cache.validation.misses").Set(v.misses);
    metrics->gauge("cache.validation.inserts").Set(v.inserts);
    metrics->gauge("cache.validation.entries").Set(v.entries);
  }
}

}  // namespace

std::string ScanCachePathFor(const std::string& cache_dir) {
  return cache_dir + "/scan_cache.pscf";
}

std::string ValidationCachePathFor(const std::string& cache_dir) {
  return cache_dir + "/validation_cache.pscf";
}

StudyCacheBaseline LoadStudyCaches(const std::string& cache_dir,
                                   staticanalysis::ScanCache* scan_cache,
                                   x509::ValidationCache* validation_cache,
                                   obs::Observer* observer) {
  StudyCacheBaseline baseline;
  if (cache_dir.empty()) return baseline;
  if (scan_cache != nullptr) {
    const bool warm = scan_cache->LoadFromFile(ScanCachePathFor(cache_dir));
    if (warm) baseline.scan_entries = scan_cache->EntryCount();
    SetGauge(observer, "cache.persist.scan_loaded", warm ? 1 : 0);
  }
  if (validation_cache != nullptr) {
    const bool warm =
        validation_cache->LoadFromFile(ValidationCachePathFor(cache_dir));
    if (warm) baseline.validation_entries = validation_cache->EntryCount();
    SetGauge(observer, "cache.persist.validation_loaded", warm ? 1 : 0);
  }
  return baseline;
}

void SaveStudyCaches(const std::string& cache_dir,
                     const staticanalysis::ScanCache* scan_cache,
                     const x509::ValidationCache* validation_cache,
                     obs::Observer* observer,
                     const StudyCacheBaseline& baseline) {
  if (cache_dir.empty()) return;
  std::error_code ec;
  std::filesystem::create_directories(cache_dir, ec);
  if (scan_cache != nullptr) {
    const bool unchanged = scan_cache->EntryCount() == baseline.scan_entries;
    const bool saved =
        unchanged ||
        (!ec && scan_cache->SaveToFile(ScanCachePathFor(cache_dir)));
    SetGauge(observer, "cache.persist.scan_saved", saved ? 1 : 0);
  }
  if (validation_cache != nullptr) {
    const bool unchanged =
        validation_cache->EntryCount() == baseline.validation_entries;
    const bool saved =
        unchanged ||
        (!ec && validation_cache->SaveToFile(ValidationCachePathFor(cache_dir)));
    SetGauge(observer, "cache.persist.validation_saved", saved ? 1 : 0);
  }
}

StudyCaches::StudyCaches(const StudyOptions& options)
    : observer_(options.observer), cache_dir_(options.cache_dir) {
  if (options.scan_cache) {
    scan_ = std::make_unique<staticanalysis::ScanCache>();
  }
  if (options.sim_cache) {
    // Fixtures must share the pipeline's seed so shared forged leaves match
    // what an unshared pipeline would forge.
    fixtures_ =
        std::make_unique<dynamicanalysis::SimFixtures>(options.dynamic.seed);
  }
  // Bind the shard locks to contention metrics (and, via the retained lock
  // names, to the run autopsy's lock-wait attribution).
  if (obs::MetricsRegistry* metrics = obs::MetricsOf(observer_)) {
    if (scan_) scan_->AttachMetrics(metrics);
    if (fixtures_) fixtures_->AttachMetrics(metrics);
  }
  baseline_ = LoadStudyCaches(
      cache_dir_, scan_.get(),
      fixtures_ ? fixtures_->validation_cache() : nullptr, observer_);
}

void StudyCaches::Finish() const {
  PublishCacheGauges(observer_, scan_.get(), fixtures_.get());
  SaveStudyCaches(cache_dir_, scan_.get(),
                  fixtures_ ? fixtures_->validation_cache() : nullptr,
                  observer_, baseline_);
}

}  // namespace pinscope::core
