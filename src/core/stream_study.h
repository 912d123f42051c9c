// The streaming study driver (DESIGN.md §15).
//
// Study (core/study.h) materializes its whole universe in an Ecosystem and
// keeps every AppResult resident until export. RunStreamingStudy replaces
// both residencies: apps are pulled one at a time from a CorpusSource
// (hydrate → static → dynamic → verdict per-item chains over the same
// barrier-free scheduler), each app's payload is freed the moment its
// verdict lands, and results leave through a StreamExporter as serialized
// rows. Peak hydrated-app memory is bounded by the scheduler's in-flight
// window (one app per worker), independent of corpus size.
//
// Determinism: identical contract to Study::Run. Stage bodies touch only
// per-item state, every RNG derives from the study seed + app identity, the
// journal orders by logical keys, and the exporter replays rows in the batch
// export order — so a streamed study's exports, journal, and run reports are
// byte-identical to the materialized path across thread counts
// (tests/core/stream_equivalence_test.cc).
//
// StudyOptions fields honored: dynamic, common_ios_settle_seconds (via
// CorpusSource::NeedsCommonIosSettle), threads, scan_cache, sim_cache,
// observer, stage_retries, fault_plan, on_result, cache_dir,
// app_filter. `scheduler` is ignored — streaming is inherently pipelined.
#pragma once

#include <cstddef>

#include "core/corpus_source.h"
#include "core/stream_export.h"
#include "core/study.h"

namespace pinscope::core {

/// Aggregate outcome of one streaming run.
struct StreamStudyResult {
  std::size_t apps = 0;      ///< Results delivered (including failed apps).
  std::size_t failures = 0;  ///< Apps whose chain recorded a stage failure.
};

/// Streams every app of `source` through the four-stage chain, delivering
/// results to `exporter` (and options.on_result) as chains complete.
StreamStudyResult RunStreamingStudy(const CorpusSource& source,
                                    const StudyOptions& options,
                                    StreamExporter& exporter);

}  // namespace pinscope::core
