#ifndef EDR_PRUNING_COMBINED_H_
#define EDR_PRUNING_COMBINED_H_

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "core/dataset.h"
#include "pruning/histogram.h"
#include "pruning/near_triangle.h"
#include "pruning/qgram.h"
#include "query/knn.h"

namespace edr {

/// The three orthogonal pruning techniques of Section 4, combinable in any
/// order (Section 4.4).
enum class PruneStep {
  kHistogram,     ///< histogram lower bound ("H")
  kQgram,         ///< mean-value Q-gram count filter, merge-join form ("P")
  kNearTriangle,  ///< near triangle inequality ("N")
};

/// Configuration of a combined searcher.
struct CombinedOptions {
  /// Application order; the paper's best (Figure 11) is H, then P, then N:
  /// cheap high-power filters first leave fewer candidates for the rest.
  std::array<PruneStep, 3> order = {PruneStep::kHistogram, PruneStep::kQgram,
                                    PruneStep::kNearTriangle};
  /// 2-D trajectory histograms ("2HPN") or per-dimension 1-D histograms
  /// ("1HPN", the overall winner in Figures 12-13).
  HistogramTable::Kind histogram_kind = HistogramTable::Kind::k2D;
  int histogram_delta = 1;
  /// Q-gram size; the experiments pick the merge-join PS2 filter with
  /// q = 1 (Section 5.4), the best stand-alone Q-gram configuration.
  int q = 1;
  /// Reference-trajectory budget for near-triangle pruning.
  size_t max_triangle = 400;
  /// When the histogram filter runs first, visit candidates in ascending
  /// histogram-bound order (the HSR strategy adopted by Section 5.4's
  /// combined method). Disable to scan in database order regardless, which
  /// makes the pruning power identical across all six filter orders (the
  /// Figure 11 setting).
  bool sorted_histogram_scan = true;
};

/// k-NN searcher combining histogram, Q-gram, and near-triangle pruning
/// (the Figure 6 skeleton, generalized to all six application orders).
///
/// When histogram pruning is the first step, candidates are visited in
/// ascending histogram-distance order (the HSR strategy chosen for the
/// combined method in Section 5.4) and the scan stops at the first bound
/// exceeding the k-th distance; otherwise candidates are visited in
/// database order and every filter is evaluated lazily.
///
/// All three filters are lossless, so any order returns exactly the
/// sequential-scan answer; order only changes the running time.
class CombinedKnnSearcher {
 public:
  /// Builds all filter structures, including the reference columns of the
  /// pairwise EDR matrix (offline preprocessing, as in the paper).
  CombinedKnnSearcher(const TrajectoryDataset& db, double epsilon,
                      const CombinedOptions& options);

  /// Variant sharing a pre-built pairwise matrix across searchers.
  CombinedKnnSearcher(const TrajectoryDataset& db, double epsilon,
                      const CombinedOptions& options,
                      PairwiseEdrMatrix matrix);

  /// KnnFused for a group of one.
  KnnResult Knn(const Trajectory& query, size_t k,
                const KnnOptions& options = {}) const;

  /// The query path: answers a fusion group of queries with one
  /// cache-blocked pass over the histogram table (the only whole-database
  /// filter sweep the combined searcher runs up front; Q-gram counts and
  /// near-triangle bounds are evaluated lazily per candidate and stay
  /// per member). A member's answer is the same for every group size and
  /// worker count. `options` shards the bound sweep and refinement over
  /// the thread pool.
  std::vector<KnnResult> KnnFused(
      const std::vector<const Trajectory*>& queries, size_t k,
      const KnnOptions& options = {}) const;

  /// Occupied-bin signature for the similarity-aware fusion grouper,
  /// delegated to the histogram table (the structure the fused sweep
  /// shares). Purely advisory.
  uint64_t FusionFingerprint(const Trajectory& query) const {
    return histograms_.QueryBinSignature(query);
  }

  /// Range query combining all three filters against the fixed `radius`
  /// bound; with sorted histogram scanning the scan stops at the first
  /// bound above the radius. Lossless. A nonzero `max_results` keeps only
  /// that many nearest matches via partial selection instead of a full
  /// sort of the result list.
  KnnResult Range(const Trajectory& query, int radius,
                  size_t max_results = 0) const;

  /// e.g. "2HPN", "1HPN", "2PNH" — histogram kind prefix plus the order.
  std::string name() const;

  const CombinedOptions& options() const { return options_; }

 private:
  /// Answers one query from its precomputed histogram bounds and sorted
  /// Q-gram means: returns scan(order, prune, distance) with the configured
  /// candidate order, the filter chain in options_.order and bounded EDR
  /// (recording the reference distances) — scan is FilterAndRefine for Knn
  /// and ScanRange for Range.
  template <typename ScanFn>
  KnnResult Search(const Trajectory& query, const std::vector<int>& bounds,
                   const std::vector<Point2>& query_means,
                   ScanFn&& scan) const;

  /// The query's Q-gram means, sorted for the merge-join count.
  std::vector<Point2> SortedMeans(const Trajectory& query) const;

  const TrajectoryDataset& db_;
  double epsilon_;
  CombinedOptions options_;
  HistogramTable histograms_;
  QgramMeansTable qgram_means_;  // flat sorted per-trajectory Q-gram means
  PairwiseEdrMatrix matrix_;
};

/// All six orderings of {H, P, N}, for the Figure 11 sweep.
std::vector<std::array<PruneStep, 3>> AllPruneOrders();

/// One-letter code of a step ("H", "P", "N").
char PruneStepCode(PruneStep step);

}  // namespace edr

#endif  // EDR_PRUNING_COMBINED_H_
