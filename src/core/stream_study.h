// The study chain (DESIGN.md §13, §15): the one place a study's per-app work
// is defined and scheduled.
//
// Every app pulled from a CorpusSource runs hydrate → static → dynamic →
// verdict as one chain on one worker (util::RunPipeline), with chains
// overlapping across workers and both platforms. Hydrate borrows the app
// when the source keeps it resident (CorpusSource::Resident) and otherwise
// materializes it; the verdict hands the finished AppResult to a sink and
// frees whatever the chain hydrated. Peak hydrated-app memory is therefore
// bounded by the in-flight window (one app per worker), independent of
// corpus size.
//
// Two entry points share it. Study::Run (core/study.h) runs it over its own
// ecosystem with a sink that keeps every result for the analyses and the
// batch exports. RunStreamingStudy runs it over any source with a
// StreamExporter sink that keeps serialized rows only.
//
// Determinism: stage bodies touch only per-item state, every RNG derives
// from the study seed + app identity, the journal orders by logical keys,
// and both sinks merge or replay by (platform, universe index) — so exports,
// journal and run reports are byte-identical across thread counts, caches,
// and streamed vs materialized runs (tests/core/sched_equivalence_test.cc,
// tests/core/stream_equivalence_test.cc).
#pragma once

#include <cstddef>
#include <functional>

#include "core/cache_persist.h"
#include "core/corpus_source.h"
#include "core/stream_export.h"
#include "core/study.h"

namespace pinscope::core {

/// Aggregate outcome of one streaming run.
struct StreamStudyResult {
  std::size_t apps = 0;      ///< Results delivered (including failed apps).
  std::size_t failures = 0;  ///< Apps whose chain recorded a stage failure.
};

/// Receives each finished app, once, in completion order — on the worker
/// that finished it (must be thread-safe), or on the calling thread for an
/// app whose chain failed. The result may be moved from.
using ResultSink = std::function<void(appmodel::Platform, AppResult&&)>;

/// Runs the chain over every app of `source` that options.app_filter
/// admits, using (and at the end publishing and saving) `caches`.
/// `apps` in the outcome counts results handed to `sink`.
StreamStudyResult RunStudyChain(const CorpusSource& source,
                                const StudyOptions& options,
                                StudyCaches& caches, const ResultSink& sink);

/// Streams every app of `source` through the chain with fresh caches built
/// from `options`, delivering results to `exporter` (and options.on_result)
/// as chains complete.
StreamStudyResult RunStreamingStudy(const CorpusSource& source,
                                    const StudyOptions& options,
                                    StreamExporter& exporter);

}  // namespace pinscope::core
