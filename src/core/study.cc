#include "core/study.h"

#include <mutex>
#include <utility>

#include "core/stream_study.h"
#include "util/error.h"

namespace pinscope::core {

Study::Study(const store::Ecosystem& eco, StudyOptions options)
    : eco_(&eco), source_(eco), options_(std::move(options)), caches_(options_) {}

std::map<std::size_t, AppResult> MergeByIndex(std::vector<AppResult> results) {
  std::map<std::size_t, AppResult> out;
  for (AppResult& r : results) {
    const std::size_t index = r.universe_index;
    if (!out.emplace(index, std::move(r)).second) {
      throw util::Error("MergeByIndex: duplicate universe index " +
                        std::to_string(index));
    }
  }
  return out;
}

void Study::Run() {
  StudyOptions run_options = options_;
  run_options.app_filter = [this](appmodel::Platform p, std::size_t idx) {
    return !results(p).contains(idx) &&
           (!options_.app_filter || options_.app_filter(p, idx));
  };
  // The sink keeps every result; completion order is erased by the merge.
  std::mutex mu;
  std::vector<AppResult> android;
  std::vector<AppResult> ios;
  (void)RunStudyChain(source_, run_options, caches_,
                      [&](appmodel::Platform p, AppResult&& r) {
                        const std::lock_guard<std::mutex> lock(mu);
                        (p == appmodel::Platform::kAndroid ? android : ios)
                            .push_back(std::move(r));
                      });
  auto merged_android = MergeByIndex(std::move(android));
  android_results_.merge(merged_android);
  auto merged_ios = MergeByIndex(std::move(ios));
  ios_results_.merge(merged_ios);
}

const AppResult& Study::result(appmodel::Platform p, std::size_t universe_index) const {
  const auto& by_index = results(p);
  const auto it = by_index.find(universe_index);
  if (it == by_index.end()) throw util::Error("Study::result: app not analyzed");
  return it->second;
}

std::vector<const AppResult*> Study::DatasetResults(store::DatasetId id,
                                                    appmodel::Platform p) const {
  std::vector<const AppResult*> out;
  for (std::size_t idx : eco_->dataset(id, p).app_indices) {
    out.push_back(&result(p, idx));
  }
  return out;
}

std::vector<const AppResult*> Study::AllResults(appmodel::Platform p) const {
  const auto& by_index = results(p);
  std::vector<const AppResult*> out;
  out.reserve(by_index.size());
  for (const auto& [_, r] : by_index) out.push_back(&r);
  return out;
}

}  // namespace pinscope::core
