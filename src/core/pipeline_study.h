// Barrier-free pipelined study execution (DESIGN.md §13).
//
// The phase-barrier scheduler (Study::RunPhased) fans every platform's apps
// out with one ParallelMap and joins before touching the next platform — a
// corpus-wide barrier per platform. The pipelined scheduler instead submits
// one stage chain per app (static → dynamic → verdict) to
// util::RunPipeline, which runs each chain to completion on one worker, so
// app N can be in dynamic analysis while app N+1 is still being statically
// scanned, across both platforms at once, and per-app results stream out
// (StudyOptions::on_result) as each chain completes.
//
// Determinism: both schedulers run the same per-app stage bodies with the
// same options, and both merge by universe index, so exports, the decision
// journal, and run reports are byte-identical between them at any thread
// count and cache setting (tests/core/sched_equivalence_test.cc).
#pragma once

#include <cstddef>
#include <vector>

#include "appmodel/platform.h"

namespace pinscope::core {

class Study;

/// One app of the pipelined work list.
struct PipelineWorkItem {
  appmodel::Platform platform = appmodel::Platform::kAndroid;
  std::size_t universe_index = 0;
};

/// The deterministic work list the pipelined scheduler runs: every pending
/// dataset member of both platforms (Android first, then iOS, each in
/// ascending universe-index order — the same order the phase scheduler
/// visits them, so merge results are identical).
[[nodiscard]] std::vector<PipelineWorkItem> BuildPipelineWorkList(
    const Study& study);

}  // namespace pinscope::core
