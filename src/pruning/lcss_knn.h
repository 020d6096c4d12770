#ifndef EDR_PRUNING_LCSS_KNN_H_
#define EDR_PRUNING_LCSS_KNN_H_

#include <string>
#include <vector>

#include "core/dataset.h"
#include "pruning/histogram.h"
#include "pruning/qgram.h"
#include "query/knn.h"

namespace edr {

/// Which lossless filters the LCSS searcher applies.
enum class LcssFilter {
  kNone,       ///< plain sequential scan (the baseline)
  kHistogram,  ///< transport upper bound on the LCSS score
  kQgram,      ///< element-match-count upper bound (q = 1 mean grams)
  kBoth,       ///< histogram first, then the count bound
};

/// k-NN search under the LCSS *distance* 1 - LCSS(Q,S)/min(m,n),
/// realizing the paper's remark that "the pruning techniques that we
/// propose in this paper can also be applied to LCSS (details omitted)".
///
/// Both filters are upper bounds on the LCSS score, hence lower bounds on
/// the distance:
///  - every pair matched by an optimal common subsequence lies within
///    epsilon, i.e. in the same or adjacent histogram bins, and each
///    element is used at most once — so the matched pairs form a feasible
///    transport and LCSS(Q,S) <= T*(Q,S) <= FastTransportBound;
///  - each matched query element matches at least one database element,
///    so LCSS(Q,S) <= #(query elements with some epsilon-match in S),
///    which is exactly the q = 1 mean-value gram count.
///
/// Candidates are visited in ascending histogram-bound order (HSR) when
/// the histogram filter is active; the scan stops at the first bound
/// exceeding the current k-th distance.
class LcssKnnSearcher {
 public:
  LcssKnnSearcher(const TrajectoryDataset& db, double epsilon,
                  LcssFilter filter);

  /// KnnFused for a group of one.
  KnnResult Knn(const Trajectory& query, size_t k,
                const KnnOptions& options = {}) const;

  /// The query path: when the histogram filter is active, one
  /// cache-blocked table pass computes the whole group's bounds; then each
  /// member runs the count filter and exact-LCSS refinement. A member's
  /// answer is the same for every group size, filter configuration and
  /// worker count. `options` shards the bound sweep, count filter and
  /// refinement over the thread pool.
  std::vector<KnnResult> KnnFused(
      const std::vector<const Trajectory*>& queries, size_t k,
      const KnnOptions& options = {}) const;

  /// Occupied-bin signature for the similarity-aware fusion grouper,
  /// delegated to the histogram table (the structure the fused sweep
  /// shares). Purely advisory.
  uint64_t FusionFingerprint(const Trajectory& query) const {
    return histograms_.QueryBinSignature(query);
  }

  std::string name() const;

 private:
  const TrajectoryDataset& db_;
  double epsilon_;
  LcssFilter filter_;
  HistogramTable histograms_;
  QgramMeansTable qgram_means_;  // q = 1 element means, flat and sorted
};

}  // namespace edr

#endif  // EDR_PRUNING_LCSS_KNN_H_
