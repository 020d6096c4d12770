#ifndef EDR_PRUNING_QGRAM_H_
#define EDR_PRUNING_QGRAM_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/dataset.h"
#include "core/trajectory.h"

namespace edr {

/// Mean value pairs of all Q-grams of size `q` of a trajectory.
///
/// A Q-gram of a trajectory is a window of q consecutive elements
/// (Section 4.1); its mean value pair is the per-dimension average. By
/// Theorem 2, if two Q-grams match element-wise (Definition 3) then their
/// mean value pairs match within the same threshold — so storing only the
/// means loses no pruning soundness while collapsing a 2q-dimensional
/// object to two dimensions. Returns an empty vector when q exceeds the
/// trajectory length.
std::vector<Point2> MeanValueQgrams(const Trajectory& t, int q);

/// Mean values of all Q-grams of the projected one-dimensional sequence
/// (x when `use_x`, else y). Theorem 4 transfers the count bound to
/// projections, enabling a plain B+-tree index.
std::vector<double> MeanValueQgrams1D(const Trajectory& t, int q, bool use_x);

/// The Q-gram count filter (Theorem 1 adapted in Theorems 3/4): if
/// EDR(R, S) <= k then R and S share at least
///
///   p = max(m, n) - q + 1 - k * q
///
/// common Q-grams. Returns p (possibly negative, in which case the filter
/// cannot prune).
long QgramCountThreshold(size_t m, size_t n, int q, long k);

/// Number of Q-gram means of `query_means` that match at least one entry
/// of `data_means`, both sorted ascending by x (ties by y). This
/// upper-bounds the number of common Q-grams in the Theorem 1 sense — a
/// surviving (unedited) query gram matches the corresponding data gram
/// element-wise, hence its mean matches — so comparing it against
/// QgramCountThreshold never causes a false dismissal.
size_t CountMatchingMeans2D(const std::vector<Point2>& query_means,
                            const std::vector<Point2>& data_means,
                            double epsilon);

/// One-dimensional analogue of CountMatchingMeans2D; both inputs sorted
/// ascending.
size_t CountMatchingMeans1D(const std::vector<double>& query_means,
                            const std::vector<double>& data_means,
                            double epsilon);

/// Sorts means into the order expected by CountMatchingMeans2D.
void SortMeans(std::vector<Point2>& means);

/// Per-trajectory sorted Q-gram mean lists for a whole dataset, stored as
/// flat posting arrays: every trajectory's sorted means are concatenated
/// into contiguous parallel buffers (`xs_` / `ys_`) sliced by n + 1
/// offsets, instead of one heap-allocated vector per trajectory. A
/// database-order counting pass (MatchCounts in the PS1/PS2 searchers, the
/// LCSS count bound) then streams one flat array front to back; the "P"
/// step of the combined searcher only decides the count against its
/// threshold (AtLeastMatches2D).
///
/// The count kernels mirror CountMatchingMeans2D/1D exactly — the same
/// query means matched against the same sorted data means — but advance
/// the merge window by *galloping* (exponential probe + binary search), so
/// a query mean far past the window costs O(log gap) rather than O(gap).
class QgramMeansTable {
 public:
  /// Builds the table over every trajectory of `db`. `dims` == 2 stores
  /// (x, y) mean pairs sorted by x then y; `dims` == 1 stores means of the
  /// x-projection sorted ascending (Theorem 4), leaving ys() empty.
  QgramMeansTable(const TrajectoryDataset& db, int q, int dims);

  size_t size() const { return offsets_.size() - 1; }
  int dims() const { return dims_; }

  /// Number of means stored for trajectory `id`.
  size_t count(uint32_t id) const {
    return offsets_[id + 1] - offsets_[id];
  }

  /// CountMatchingMeans2D(query_means, <means of id>, epsilon), off the
  /// flat slice; `query_means` must be sorted with SortMeans.
  size_t CountMatches2D(const std::vector<Point2>& query_means,
                        double epsilon, uint32_t id) const;

  /// CountMatchingMeans1D analogue; `query_means` sorted ascending.
  size_t CountMatches1D(const std::vector<double>& query_means,
                        double epsilon, uint32_t id) const;

  /// Exactly `CountMatches2D(query_means, epsilon, id) >= threshold`,
  /// decided early: the merge stops once the count reaches `threshold`,
  /// or once the query means left (or the data means left) can no longer
  /// lift it there. The count filter only needs this decision, not the
  /// count.
  bool AtLeastMatches2D(const std::vector<Point2>& query_means,
                        double epsilon, uint32_t id, size_t threshold) const;

 private:
  int dims_;
  std::vector<double> xs_;
  std::vector<double> ys_;  ///< parallel to xs_; empty when dims_ == 1
  std::vector<uint32_t> offsets_;
};

}  // namespace edr

#endif  // EDR_PRUNING_QGRAM_H_
