#include "pruning/near_triangle.h"

#include <algorithm>
#include <chrono>

#include "distance/edr_kernel.h"
#include "query/thread_pool.h"

namespace edr {

PairwiseEdrMatrix PairwiseEdrMatrix::Build(const TrajectoryDataset& db,
                                           double epsilon, size_t num_refs) {
  PairwiseEdrMatrix m;
  m.num_refs_ = std::min(num_refs, db.size());
  m.db_size_ = db.size();
  m.distances_.assign(m.num_refs_ * m.db_size_, 0);
  // Matrix entries feed the near-triangle prune bound in both directions,
  // so they must be exact — no early abandoning here, only the fast kernel.
  const EdrKernel kernel = DefaultEdrKernel();
  EdrScratch& scratch = ThreadLocalEdrScratch();
  for (size_t r = 0; r < m.num_refs_; ++r) {
    for (size_t s = 0; s < m.db_size_; ++s) {
      if (s < r) {
        // EDR is symmetric; reuse the transposed entry.
        m.distances_[r * m.db_size_ + s] = m.distances_[s * m.db_size_ + r];
      } else if (s == r) {
        m.distances_[r * m.db_size_ + s] = 0;
      } else {
        m.distances_[r * m.db_size_ + s] =
            EdrDistanceWith(kernel, scratch, db[r], db[s], epsilon);
      }
    }
  }
  return m;
}

PairwiseEdrMatrix PairwiseEdrMatrix::BuildParallel(const TrajectoryDataset& db,
                                                   double epsilon,
                                                   size_t num_refs,
                                                   unsigned threads) {
  PairwiseEdrMatrix m;
  m.num_refs_ = std::min(num_refs, db.size());
  m.db_size_ = db.size();
  m.distances_.assign(m.num_refs_ * m.db_size_, 0);
  if (m.num_refs_ == 0) return m;

  // Each pool item fills the s > r part of one row, exactly the entries
  // Build computes; the s < r block is mirrored from the rows that computed
  // it once all rows are done, as Build does, so results are identical.
  // The persistent pool workers keep their ThreadLocalEdrScratch buffers
  // warm across rows and across builds.
  const EdrKernel kernel = DefaultEdrKernel();
  ThreadPool::Global().ParallelFor(
      m.num_refs_,
      [&](size_t r) {
        EdrScratch& scratch = ThreadLocalEdrScratch();
        for (size_t s = r + 1; s < m.db_size_; ++s) {
          m.distances_[r * m.db_size_ + s] =
              EdrDistanceWith(kernel, scratch, db[r], db[s], epsilon);
        }
      },
      threads);
  for (size_t r = 1; r < m.num_refs_; ++r) {
    for (size_t s = 0; s < r; ++s) {
      m.distances_[r * m.db_size_ + s] = m.distances_[s * m.db_size_ + r];
    }
  }
  return m;
}

NearTriangleSearcher::NearTriangleSearcher(const TrajectoryDataset& db,
                                           double epsilon,
                                           size_t max_triangle)
    : db_(db),
      epsilon_(epsilon),
      matrix_(PairwiseEdrMatrix::Build(db, epsilon, max_triangle)) {}

NearTriangleSearcher::NearTriangleSearcher(const TrajectoryDataset& db,
                                           double epsilon,
                                           PairwiseEdrMatrix matrix)
    : db_(db), epsilon_(epsilon), matrix_(std::move(matrix)) {}

namespace {

/// NTR's filter chain: the near-triangle step with slack |S| (Theorem 5).
auto TriangleFilter(const TrajectoryDataset& db,
                    const PairwiseEdrMatrix& matrix,
                    const SharedRefDistances& refs) {
  return [&db, &matrix, &refs](StageCounters& st, uint32_t id,
                               double threshold) {
    return TrianglePrunes(st, matrix, refs, id,
                          static_cast<double>(db[id].size()), threshold);
  };
}

}  // namespace

KnnResult NearTriangleSearcher::Knn(const Trajectory& query, size_t k,
                                    const KnnOptions& options) const {
  // procArray: references (ids < num_refs) whose distance to the query has
  // been computed, with that distance. A bounded-refinement value may be a
  // lower bound on EDR(Q, ref); substituting it into the Figure 4 prune
  // bound only shrinks the bound, so pruning stays lossless (it just
  // prunes a little less than with the exact reference distance). All
  // worker slots share the array.
  SharedRefDistances refs(matrix_.num_refs());
  return FilterAndRefine(
      RefineRequest{db_, query, options, KnnTrace(options)}, k, InDbOrder{},
      TriangleFilter(db_, matrix_, refs),
      BoundedEdr(db_, query, epsilon_, &refs));
}

KnnResult NearTriangleSearcher::Range(const Trajectory& query,
                                      int radius) const {
  const auto start = std::chrono::steady_clock::now();
  SharedRefDistances refs(matrix_.num_refs());
  return ScanRange(db_, query, start, radius, /*max_results=*/0, InDbOrder{},
                   TriangleFilter(db_, matrix_, refs),
                   BoundedEdr(db_, query, epsilon_, &refs));
}

}  // namespace edr
