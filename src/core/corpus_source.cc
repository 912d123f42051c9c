#include "core/corpus_source.h"

#include <algorithm>

#include "store/dataset.h"

namespace pinscope::core {

EcosystemCorpusSource::EcosystemCorpusSource(const store::Ecosystem& eco)
    : eco_(eco) {
  common_ios_ =
      eco.dataset(store::DatasetId::kCommon, appmodel::Platform::kIos)
          .app_indices;
  std::sort(common_ios_.begin(), common_ios_.end());
}

const appmodel::ServerWorld& EcosystemCorpusSource::world() const {
  return eco_.world();
}

const x509::CtLog& EcosystemCorpusSource::ct_log() const {
  return eco_.ct_log();
}

std::vector<std::size_t> EcosystemCorpusSource::Indices(
    appmodel::Platform p) const {
  std::vector<std::size_t> indices;
  for (const store::DatasetId id : store::AllDatasets()) {
    const store::Dataset& ds = eco_.dataset(id, p);
    indices.insert(indices.end(), ds.app_indices.begin(), ds.app_indices.end());
  }
  std::sort(indices.begin(), indices.end());
  indices.erase(std::unique(indices.begin(), indices.end()), indices.end());
  return indices;
}

appmodel::App EcosystemCorpusSource::Hydrate(appmodel::Platform p,
                                             std::size_t index) const {
  return eco_.apps(p)[index];
}

const appmodel::App* EcosystemCorpusSource::Resident(appmodel::Platform p,
                                                    std::size_t index) const {
  return &eco_.apps(p)[index];
}

bool EcosystemCorpusSource::NeedsCommonIosSettle(std::size_t index) const {
  return std::binary_search(common_ios_.begin(), common_ios_.end(), index);
}

}  // namespace pinscope::core
