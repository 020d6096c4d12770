#ifndef EDR_PRUNING_HISTOGRAM_KNN_H_
#define EDR_PRUNING_HISTOGRAM_KNN_H_

#include <string>
#include <vector>

#include "core/dataset.h"
#include "pruning/histogram.h"
#include "query/knn.h"

namespace edr {

/// Scan orders for histogram pruning (Section 4.3):
enum class HistogramScan {
  kSequential,  ///< "HSE": visit trajectories in database order.
  kSorted,      ///< "HSR": visit in ascending histogram-distance order.
};

/// k-NN searcher using the histogram lower bound (Theorem 6 / Corollary 1).
///
/// HSE visits candidates in database order and computes the true EDR only
/// when the histogram distance does not exceed the current k-th distance.
/// HSR visits them in ascending histogram-distance order and stops the
/// entire scan at the first candidate whose lower bound exceeds the
/// (monotonically non-increasing) k-th distance — every later candidate
/// has an even larger lower bound. A query of its own builds that order
/// as the scan reaches it (HistogramTable::BoundOrder), sweeping only the
/// table's rows whose length lies within reach of the query's.
class HistogramKnnSearcher {
 public:
  /// `kind`/`delta` select the embedding: {k2D, delta} covers the paper's
  /// 2HE (delta=1) through 2H4E (delta=4); {k1D, 1} is 1HE.
  HistogramKnnSearcher(const TrajectoryDataset& db, double epsilon,
                       HistogramTable::Kind kind, int delta,
                       HistogramScan scan);

  /// Answers one k-NN query. HSR on one worker builds its order as the
  /// scan reaches it, sweeping only the blocks within reach of the query's
  /// length; HSE, and HSR on several workers, sweep the whole table up
  /// front in one cache-blocked pass first. The answer is the same for
  /// every worker count. `options` shards the bound sweep and refinement
  /// over the thread pool.
  KnnResult Knn(const Trajectory& query, size_t k,
                const KnnOptions& options = {}) const;

  /// Range query: prunes every candidate whose histogram lower bound
  /// exceeds `radius`, computes EDR for the rest, in the searcher's scan
  /// order (HSR stops at the first bound above the radius). Lossless.
  KnnResult Range(const Trajectory& query, int radius) const;

  const HistogramTable& table() const { return table_; }
  std::string name() const;

 private:
  const TrajectoryDataset& db_;
  double epsilon_;
  HistogramScan scan_;
  HistogramTable table_;
};

}  // namespace edr

#endif  // EDR_PRUNING_HISTOGRAM_KNN_H_
