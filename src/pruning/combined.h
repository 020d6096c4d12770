#ifndef EDR_PRUNING_COMBINED_H_
#define EDR_PRUNING_COMBINED_H_

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "core/dataset.h"
#include "pruning/histogram.h"
#include "pruning/qgram.h"
#include "query/knn.h"

namespace edr {

/// The pruning steps of the combined searcher (Section 4.4), applied in
/// either order. The paper's third step, the near triangle inequality
/// ("N", Theorem 5), is not one of them: its bound EDR(Q,R) - EDR(S,R) - |S|
/// never exceeds max(0, |Q| - |S|), and the histogram bound never falls
/// below that, so N cannot prune a candidate H keeps (docs/ALGORITHMS.md §3).
enum class PruneStep {
  kHistogram,  ///< histogram lower bound ("H")
  kQgram,      ///< mean-value Q-gram count filter, merge-join form ("P")
};

/// Configuration of a combined searcher.
struct CombinedOptions {
  /// Application order; the paper's best (Figure 11) starts with H: the
  /// cheap high-power filter first leaves fewer candidates for the Q-gram
  /// merge.
  std::array<PruneStep, 2> order = {PruneStep::kHistogram, PruneStep::kQgram};
  /// 2-D trajectory histograms ("2HP", the paper's 2HPN) or per-dimension
  /// 1-D histograms ("1HP", the paper's 1HPN, its overall winner in
  /// Figures 12-13).
  HistogramTable::Kind histogram_kind = HistogramTable::Kind::k2D;
  int histogram_delta = 1;
  /// Q-gram size; the experiments pick the merge-join PS2 filter with
  /// q = 1 (Section 5.4), the best stand-alone Q-gram configuration.
  int q = 1;
  /// Ignored: no step reads reference trajectories. ledger/ledger.cc still
  /// assigns it; delete the field once it no longer does.
  size_t max_triangle = 400;
  /// When the histogram filter runs first, visit candidates in ascending
  /// histogram-bound order (the HSR strategy adopted by Section 5.4's
  /// combined method). Disable to scan in database order regardless, which
  /// makes the pruning power identical across both filter orders (the
  /// Figure 11 setting).
  bool sorted_histogram_scan = true;
};

/// k-NN searcher combining histogram and Q-gram pruning (the Figure 6
/// skeleton, in either application order).
///
/// When histogram pruning is the first step, candidates are visited in
/// ascending histogram-distance order (the HSR strategy chosen for the
/// combined method in Section 5.4) and the scan stops at the first bound
/// exceeding the k-th distance; otherwise candidates are visited in
/// database order and every filter is evaluated lazily.
///
/// Both filters are lossless, so either order returns exactly the
/// sequential-scan answer; order only changes the running time.
class CombinedKnnSearcher {
 public:
  /// Builds the histogram table and the Q-gram means (offline
  /// preprocessing, as in the paper).
  CombinedKnnSearcher(const TrajectoryDataset& db, double epsilon,
                      const CombinedOptions& options);

  /// Answers one k-NN query. The histogram bounds are the only
  /// whole-database filter the combined searcher computes up front (Q-gram
  /// counts are evaluated lazily per candidate). The sorted scan on one
  /// worker sweeps only the blocks it reaches; on several workers, or in
  /// database order, one cache-blocked pass sweeps the whole table first.
  /// The answer is the same for every worker count. `options` shards the
  /// bound sweep and refinement over the thread pool.
  KnnResult Knn(const Trajectory& query, size_t k,
                const KnnOptions& options = {}) const;

  /// Range query combining both filters against the fixed `radius`
  /// bound; with sorted histogram scanning the scan stops at the first
  /// bound above the radius. Lossless. A nonzero `max_results` keeps only
  /// that many nearest matches via partial selection instead of a full
  /// sort of the result list.
  KnnResult Range(const Trajectory& query, int radius,
                  size_t max_results = 0) const;

  /// e.g. "2HP", "1HP", "2PH" — histogram kind prefix plus the order.
  std::string name() const;

  const CombinedOptions& options() const { return options_; }

 private:
  /// Answers one query from its histogram and sorted Q-gram means:
  /// returns scan(order, prune, distance) with the configured candidate
  /// order, the filter chain in options_.order and bounded EDR — scan is
  /// FilterAndRefine for Knn and ScanRange for Range. `swept` holds the
  /// query's bound on every id, or is null for the sorted scan to sweep
  /// only the blocks it reaches.
  template <typename ScanFn>
  KnnResult Search(const Trajectory& query,
                   const HistogramTable::QueryHistogram& qh,
                   const std::vector<int>* swept,
                   const std::vector<Point2>& query_means,
                   ScanFn&& scan) const;

  /// Whether candidates are visited in ascending histogram-bound order.
  bool SortedScan() const;

  /// The query's Q-gram means, sorted for the merge-join count.
  std::vector<Point2> SortedMeans(const Trajectory& query) const;

  const TrajectoryDataset& db_;
  double epsilon_;
  CombinedOptions options_;
  HistogramTable histograms_;
  QgramMeansTable qgram_means_;  // flat sorted per-trajectory Q-gram means
};

/// Both orderings of {H, P}, for the Figure 11 sweep.
std::vector<std::array<PruneStep, 2>> AllPruneOrders();

/// One-letter code of a step ("H", "P").
char PruneStepCode(PruneStep step);

}  // namespace edr

#endif  // EDR_PRUNING_COMBINED_H_
