// Warm-start persistence for the two content-keyed study caches.
//
// A study's expensive work is dominated by two pure functions: the static
// scanner (content digest → scan outcome, staticanalysis/scan_cache.h) and
// chain validation (validation tuple → verdict, x509/validation_cache.h).
// Both are keyed purely by content, so their memos are valid across process
// boundaries: a second study over an overlapping corpus can skip every scan
// and validation the first one already did. StudyCaches below is the one
// place a study builds, loads and saves them, rooted at a --cache-dir.
//
// Failure policy (DESIGN.md §15): persistence is an accelerator, never a
// dependency. A missing, truncated, corrupt, or version-skewed cache file
// loads nothing and the study runs cold; a failed save leaves the previous
// file intact (atomic write-replace in util/cache_file). Neither path can
// change study results — only how fast they are recomputed.
#pragma once

#include <cstddef>
#include <limits>
#include <memory>
#include <string>

#include "dynamicanalysis/sim_fixtures.h"
#include "obs/obs.h"
#include "staticanalysis/scan_cache.h"
#include "x509/validation_cache.h"

namespace pinscope::core {

/// File locations inside a cache dir. Fixed names: a cache dir holds exactly
/// one scan cache and one validation memo, shared by every study that points
/// at it.
[[nodiscard]] std::string ScanCachePathFor(const std::string& cache_dir);
[[nodiscard]] std::string ValidationCachePathFor(const std::string& cache_dir);

/// Entry counts right after a successful load — the "nothing new learned"
/// baseline SaveStudyCaches uses to skip rewriting an unchanged file. The
/// sentinel (no successful load) never equals a real count, so cold starts
/// always save. Valid because cache entries are immutable once inserted:
/// new information always shows up as entry-count growth.
struct StudyCacheBaseline {
  static constexpr std::size_t kNotLoaded =
      std::numeric_limits<std::size_t>::max();
  std::size_t scan_entries = kNotLoaded;
  std::size_t validation_entries = kNotLoaded;
};

/// Loads both caches from `cache_dir` (each independently; one file may be
/// warm while the other is cold). Publishes cache.persist.scan_loaded /
/// cache.persist.validation_loaded gauges (1 = warm, 0 = cold start) when an
/// observer with metrics is attached. Returns the post-load baseline to hand
/// back to SaveStudyCaches.
StudyCacheBaseline LoadStudyCaches(const std::string& cache_dir,
                                   staticanalysis::ScanCache* scan_cache,
                                   x509::ValidationCache* validation_cache,
                                   obs::Observer* observer);

/// Saves both caches into `cache_dir`, creating the directory if needed.
/// A cache still at its loaded entry count is skipped — a fully warm run
/// rewrites nothing. Publishes cache.persist.scan_saved /
/// cache.persist.validation_saved gauges (1 = persisted or unchanged, 0 =
/// save failed). Concurrent saves from separate studies are safe: each
/// writes a private temp file and renames, and equal caches serialize
/// byte-identically, so last-writer-wins is unobservable.
void SaveStudyCaches(const std::string& cache_dir,
                     const staticanalysis::ScanCache* scan_cache,
                     const x509::ValidationCache* validation_cache,
                     obs::Observer* observer,
                     const StudyCacheBaseline& baseline = {});

struct StudyOptions;

/// A study's shared caches, built from its options in one place: the
/// corpus-wide scan cache (options.scan_cache) and the simulation fixtures
/// (options.sim_cache), their shard locks bound to the observer's
/// contention metrics, and both warm-started from options.cache_dir.
/// Study owns one for its lifetime; RunStreamingStudy builds one per run.
class StudyCaches {
 public:
  explicit StudyCaches(const StudyOptions& options);

  /// nullptr when the options turned the cache off.
  [[nodiscard]] staticanalysis::ScanCache* scan() const { return scan_.get(); }
  [[nodiscard]] dynamicanalysis::SimFixtures* fixtures() const {
    return fixtures_.get();
  }

  /// End of a run: publishes the caches' counters as `cache.<family>.<field>`
  /// gauges (republishing, not double-counting, on a second run) and, with a
  /// cache_dir, saves whatever the run added to the warm-loaded caches.
  void Finish() const;

 private:
  obs::Observer* observer_ = nullptr;
  std::string cache_dir_;
  std::unique_ptr<staticanalysis::ScanCache> scan_;
  std::unique_ptr<dynamicanalysis::SimFixtures> fixtures_;
  /// Entry counts from the warm load; Finish() skips unchanged caches.
  StudyCacheBaseline baseline_;
};

}  // namespace pinscope::core
