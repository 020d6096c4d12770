#ifndef EDR_PRUNING_QGRAM_KNN_H_
#define EDR_PRUNING_QGRAM_KNN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/dataset.h"
#include "index/bplus_tree.h"
#include "index/rstar_tree.h"
#include "pruning/qgram.h"
#include "query/knn.h"

namespace edr {

/// The four implementations of mean-value Q-gram pruning compared in
/// Figures 7 and 8 of the paper.
enum class QgramVariant {
  kRtree2D,  ///< "PR": R*-tree over 2-D Q-gram means.
  kBtree1D,  ///< "PB": B+-tree over means of the projected x sequence.
  kMerge2D,  ///< "PS2": merge join on sorted 2-D means, no index.
  kMerge1D,  ///< "PS1": merge join on sorted 1-D (x) means, no index.
};

/// Short display name matching the paper ("PR", "PB", "PS2", "PS1").
const char* QgramVariantName(QgramVariant variant);

/// k-NN searcher using the mean-value Q-gram count filter (Section 4.1).
///
/// Build phase: extracts the Q-grams of every database trajectory and
/// stores either their mean value pairs in an R*-tree (PR), the means of
/// the x-projection in a B+-tree (PB), or per-trajectory sorted mean lists
/// for merge joins (PS2/PS1).
///
/// Query phase (the Figure 3 skeleton generalized to all variants):
///   1. Count, for each database trajectory S, how many Q-gram means of
///      the query match at least one mean of S.
///   2. Visit trajectories in descending count order; seed the result with
///      the first k true EDR distances.
///   3. For each remaining S, skip it if its count is below the Theorem 1
///      threshold max(|Q|, |S|) - q + 1 - bestSoFar * q; stop the whole
///      scan once the count drops below the smallest threshold any
///      remaining trajectory could have (Theorem 3 guarantees no false
///      dismissals).
class QgramKnnSearcher {
 public:
  QgramKnnSearcher(const TrajectoryDataset& db, double epsilon, int q,
                   QgramVariant variant);

  /// Answers one k-NN query: one counting pass (MatchCounts), then a
  /// count-ordered refinement. The answer is the same for every worker
  /// count. `options` shards the counting (merge variants) and the
  /// refinement over the thread pool. Thread-compatible: concurrent calls
  /// on distinct searchers are safe; a single searcher is read-only at
  /// query time.
  KnnResult Knn(const Trajectory& query, size_t k,
                const KnnOptions& options = {}) const;

  /// Answers a range query (all S with EDR(query, S) <= radius, ascending
  /// distance order) using the Theorem 1 count filter in its original
  /// range form: S is pruned when its matching-gram count falls below
  /// max(|Q|, |S|) - q + 1 - radius * q. Lossless. A nonzero `max_results`
  /// keeps only that many nearest matches, selected with partial selection
  /// instead of a full sort of the result list.
  KnnResult Range(const Trajectory& query, int radius,
                  size_t max_results = 0) const;

  /// Per-trajectory matching-gram counts: `counts[id]` counts the grams of
  /// `query` matching some gram of db[id]. The merge-join variants
  /// (PS2/PS1) merge each trajectory's posting slice against the query's
  /// sorted means, and `options` shards the ids over the pool. The tree
  /// variants (PR/PB) probe the shared read-only index once per query
  /// gram; they stay sequential. Exposed for tests.
  std::vector<size_t> MatchCounts(const Trajectory& query,
                                  const KnnOptions& options = {}) const;

  QgramVariant variant() const { return variant_; }
  int q() const { return q_; }
  std::string name() const;

 private:
  const TrajectoryDataset& db_;
  double epsilon_;
  int q_;
  QgramVariant variant_;
  /// FeatureCache config key for this searcher's query mean vector —
  /// encodes the dimensionality, sortedness, and q, the only inputs
  /// besides the query itself. PS2's sorted-2D key matches the combined
  /// and LCSS searchers at equal q, so they share cache entries.
  std::string feature_key_;

  // PR: one entry per Q-gram mean, payload = trajectory id.
  std::unique_ptr<RStarTree> rtree_;
  // PB: one entry per projected Q-gram mean, payload = trajectory id.
  std::unique_ptr<BPlusTree> btree_;
  // PS2 / PS1: flat sorted posting arrays of per-trajectory means.
  std::unique_ptr<QgramMeansTable> means_;
};

}  // namespace edr

#endif  // EDR_PRUNING_QGRAM_KNN_H_
