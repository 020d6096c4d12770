#ifndef EDR_PRUNING_NEAR_TRIANGLE_H_
#define EDR_PRUNING_NEAR_TRIANGLE_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/dataset.h"
#include "obs/stage_counters.h"
#include "query/intra_query.h"
#include "query/knn.h"

namespace edr {

/// Precomputed EDR distances between a prefix of the database (the
/// candidate reference trajectories) and every database trajectory.
///
/// This materializes exactly the columns of the paper's pairwise distance
/// matrix `pmatrix` that near-triangle pruning can touch: the paper picks
/// "the first maxTriangle trajectories that fill up procArray" as
/// references and pages their columns into a buffer (Section 4.2), so only
/// `num_refs * N` of the `N * N` matrix is ever needed.
class PairwiseEdrMatrix {
 public:
  /// Computes EDR(db[r], db[s]) for r < num_refs and all s. This is the
  /// offline preprocessing step; its cost is excluded from query-time
  /// measurements, as in the paper.
  static PairwiseEdrMatrix Build(const TrajectoryDataset& db, double epsilon,
                                 size_t num_refs);

  /// Multi-threaded Build: rows are distributed over `threads` workers
  /// (0 = hardware concurrency). Bitwise-identical to Build.
  static PairwiseEdrMatrix BuildParallel(const TrajectoryDataset& db,
                                         double epsilon, size_t num_refs,
                                         unsigned threads = 0);

  /// Row-major distance payload (num_refs x db_size).
  const std::vector<int>& data() const { return distances_; }

  size_t num_refs() const { return num_refs_; }
  size_t db_size() const { return db_size_; }

  /// EDR distance between reference `ref` (< num_refs) and trajectory `id`.
  int at(size_t ref, uint32_t id) const {
    return distances_[ref * db_size_ + id];
  }

 private:
  size_t num_refs_ = 0;
  size_t db_size_ = 0;
  std::vector<int> distances_;
};

/// The near-triangle filter step (Figure 4, lines 2-4) for S = db[id]:
/// prunes S, bumping triangle_pruned, when some reference R in `refs`
/// gives EDR(Q, R) - EDR(S, R) - slack > threshold, a lower bound on
/// EDR(Q, S) above the threshold. NTR uses slack |S| (Theorem 5); CSE
/// uses its shift constant.
inline bool TrianglePrunes(StageCounters& st, const PairwiseEdrMatrix& matrix,
                           const SharedRefDistances& refs, uint32_t id,
                           double slack, double threshold) {
  double max_prune_dist = 0.0;
  refs.ForEach([&](uint32_t ref, double ref_dist) {
    const double bound = ref_dist - matrix.at(ref, id) - slack;
    max_prune_dist = std::max(max_prune_dist, bound);
  });
  if (max_prune_dist <= threshold) return false;
  st.Bump(&StageCounters::triangle_pruned);
  return true;
}

/// k-NN searcher using the near triangle inequality (Theorem 5):
///
///   EDR(Q, S) + EDR(S, R) + |S| >= EDR(Q, R)
///   =>  EDR(Q, S) >= EDR(Q, R) - EDR(S, R) - |S|,
///
/// a lower bound on EDR(Q, S) from the already-computed EDR(Q, R) of a
/// reference trajectory R and the precomputed EDR(S, R). The Figure 4
/// algorithm: maintain `procArray` of references with known true distances;
/// a candidate S is pruned when the maximum lower bound over references
/// exceeds the current k-th distance.
///
/// The |S| slack makes this a weak filter that can only fire when lengths
/// differ (Section 5.2 confirms ~0 power on fixed-length datasets).
class NearTriangleSearcher {
 public:
  /// `max_triangle` is the reference budget (the paper uses 400).
  NearTriangleSearcher(const TrajectoryDataset& db, double epsilon,
                       size_t max_triangle = 400);

  /// Constructs with a pre-built matrix (shared across searchers).
  NearTriangleSearcher(const TrajectoryDataset& db, double epsilon,
                       PairwiseEdrMatrix matrix);

  /// `options` shards the refinement scan over the thread pool (one
  /// reference array shared by the workers); results are bit-identical for
  /// every worker count.
  KnnResult Knn(const Trajectory& query, size_t k,
                const KnnOptions& options = {}) const;

  /// Range query: prunes candidates whose reference-based lower bound
  /// exceeds `radius`. Lossless.
  KnnResult Range(const Trajectory& query, int radius) const;

  const PairwiseEdrMatrix& matrix() const { return matrix_; }
  std::string name() const { return "NTR"; }

 private:
  const TrajectoryDataset& db_;
  double epsilon_;
  PairwiseEdrMatrix matrix_;
};

}  // namespace edr

#endif  // EDR_PRUNING_NEAR_TRIANGLE_H_
