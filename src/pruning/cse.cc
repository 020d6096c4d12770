#include "pruning/cse.h"

#include <algorithm>

#include "query/intra_query.h"

namespace edr {

double MaxTriangleViolation(const PairwiseEdrMatrix& matrix) {
  const size_t n = matrix.num_refs();
  double worst = 0.0;
  for (size_t x = 0; x < n; ++x) {
    for (size_t y = 0; y < n; ++y) {
      if (y == x) continue;
      for (size_t z = 0; z < n; ++z) {
        const double violation =
            static_cast<double>(matrix.at(x, static_cast<uint32_t>(z))) -
            static_cast<double>(matrix.at(x, static_cast<uint32_t>(y))) -
            static_cast<double>(matrix.at(y, static_cast<uint32_t>(z)));
        worst = std::max(worst, violation);
      }
    }
  }
  return worst;
}

CseSearcher::CseSearcher(const TrajectoryDataset& db, double epsilon,
                         PairwiseEdrMatrix matrix)
    : db_(db), epsilon_(epsilon), matrix_(std::move(matrix)) {
  shift_ = MaxTriangleViolation(matrix_);
}

KnnResult CseSearcher::Knn(const Trajectory& query, size_t k,
                           const KnnOptions& options) const {
  // The reference distances computed so far, shared by all worker slots
  // as in NearTriangleSearcher::Knn; a lower-bound value only weakens
  // (never unsounds) the shifted triangle prune.
  SharedRefDistances refs(matrix_.num_refs());
  const auto prune = [&](StageCounters& st, uint32_t id, double threshold) {
    return TrianglePrunes(st, matrix_, refs, id, shift_, threshold);
  };
  return FilterAndRefine(
      RefineRequest{db_, query, options, KnnTrace(options)}, k, InDbOrder{},
      prune, BoundedEdr(db_, query, epsilon_, &refs));
}

}  // namespace edr
