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
/// HSR first computes all histogram distances, sorts them ascending, and
/// stops the entire scan at the first candidate whose lower bound exceeds
/// the (monotonically non-increasing) k-th distance — every later
/// candidate has an even larger lower bound.
class HistogramKnnSearcher {
 public:
  /// `kind`/`delta` select the embedding: {k2D, delta} covers the paper's
  /// 2HE (delta=1) through 2H4E (delta=4); {k1D, 1} is 1HE.
  HistogramKnnSearcher(const TrajectoryDataset& db, double epsilon,
                       HistogramTable::Kind kind, int delta,
                       HistogramScan scan);

  /// KnnFused for a group of one.
  KnnResult Knn(const Trajectory& query, size_t k,
                const KnnOptions& options = {}) const;

  /// The query path: answers a fusion group of queries with one
  /// cache-blocked pass over the histogram table, which streams every
  /// column block once and evaluates all members' transport bounds against
  /// it; then each member runs its own refinement. A member's answer is
  /// the same for every group size and worker count — fusing changes only
  /// how often the table is streamed, never any member's bound sequence.
  /// `options` shards the bound sweep and refinement over the thread pool.
  std::vector<KnnResult> KnnFused(
      const std::vector<const Trajectory*>& queries, size_t k,
      const KnnOptions& options = {}) const;

  /// Range query: prunes every candidate whose histogram lower bound
  /// exceeds `radius`, computes EDR for the rest. Lossless.
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
