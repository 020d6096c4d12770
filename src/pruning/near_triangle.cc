#include "pruning/near_triangle.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "distance/edr_kernel.h"
#include "obs/trace.h"
#include "query/intra_query.h"
#include "query/thread_pool.h"
#include "query/topk.h"

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

PairwiseEdrMatrix PairwiseEdrMatrix::FromParts(size_t num_refs,
                                               size_t db_size,
                                               std::vector<int> distances) {
  PairwiseEdrMatrix m;
  m.num_refs_ = num_refs;
  m.db_size_ = db_size;
  m.distances_ = std::move(distances);
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

KnnResult NearTriangleSearcher::Knn(const Trajectory& query, size_t k,
                                    const KnnOptions& options) const {
  const auto start = std::chrono::steady_clock::now();
  KnnResult out;
  out.stats.db_size = db_.size();
  if (k == 0) {
    out.stats.stages.FinalizeNotVisited(db_.size());
    return out;
  }
  const EdrKernel kernel = DefaultEdrKernel();
  std::shared_ptr<QueryTrace> trace = MakeQueryTrace();
  RecordSchedBudget(trace.get(), options);

  // procArray: references (ids < num_refs) whose distance to the query has
  // been computed, with that distance. A bounded-refinement value may be a
  // lower bound on EDR(Q, ref); substituting it into the Figure 4 prune
  // bound only shrinks the bound, so pruning stays lossless (it just
  // prunes a little less than with the exact reference distance). All
  // worker slots share the array.
  const unsigned slots = ResolveIntraQueryWorkers(options);
  SharedRefDistances refs(matrix_.num_refs());
  std::vector<size_t> computed(slots, 0);
  std::vector<StageCounters> slot_stages(slots);
  // Filter and refinement interleave in this scan, so the phase split is
  // derived from the per-slot DP time.
  SlotDpTimer dp_timer(slots);

  const auto refine = [&](unsigned slot, uint32_t id, double threshold,
                          double* dist) {
    const Trajectory& s = db_[id];
    StageCounters& st = slot_stages[slot];
    st.Bump(&StageCounters::considered);
    // Lower-bound EDR(Q, S) via every reference with a known distance
    // (Figure 4, lines 2-4).
    double max_prune_dist = 0.0;
    refs.ForEach([&](uint32_t ref_id, double ref_dist) {
      const double bound = ref_dist - matrix_.at(ref_id, id) -
                           static_cast<double>(s.size());
      max_prune_dist = std::max(max_prune_dist, bound);
    });
    if (max_prune_dist > threshold) {  // No false dismissal.
      st.Bump(&StageCounters::triangle_pruned);
      return false;
    }

    const int bound = EdrBoundFromKthDistance(threshold);
    const int d = dp_timer.Time(slot, [&] {
      return EdrDistanceBoundedWith(kernel, ThreadLocalEdrScratch(), query, s,
                                    epsilon_, bound);
    });
    ++computed[slot];
    st.CountDp(query.size(), s.size());
    if (id < matrix_.num_refs()) refs.Add(id, static_cast<double>(d));
    if (d > bound) {
      st.Bump(&StageCounters::dp_early_abandoned);
      return false;
    }
    *dist = static_cast<double>(d);
    return true;
  };
  TraceSpan scan_span(trace.get(), "scan");
  out.neighbors = RefineInDbOrder(db_.size(), k, options, refine,
                                  {trace.get(), scan_span.id()});
  scan_span.End();

  const auto stop = std::chrono::steady_clock::now();
  for (const size_t c : computed) out.stats.edr_computed += c;
  for (const StageCounters& st : slot_stages) out.stats.stages.Add(st);
  out.stats.stages.FinalizeNotVisited(db_.size());
  out.stats.elapsed_seconds =
      std::chrono::duration<double>(stop - start).count();
  out.stats.refine_seconds = out.stats.elapsed_seconds;
  dp_timer.SplitPhases(&out.stats, trace.get());
  out.trace = std::move(trace);
  RecordQueryMetrics(out.stats);
  return out;
}


KnnResult NearTriangleSearcher::Range(const Trajectory& query,
                                      int radius) const {
  const auto start = std::chrono::steady_clock::now();
  const EdrKernel kernel = DefaultEdrKernel();
  EdrScratch& scratch = ThreadLocalEdrScratch();
  std::vector<std::pair<uint32_t, double>> proc_array;
  proc_array.reserve(matrix_.num_refs());

  KnnResult out;
  size_t computed = 0;
  StageCounters& stages = out.stats.stages;
  for (const Trajectory& s : db_) {
    stages.Bump(&StageCounters::considered);
    double max_prune_dist = 0.0;
    for (const auto& [ref_id, ref_dist] : proc_array) {
      const double bound = ref_dist - matrix_.at(ref_id, s.id()) -
                           static_cast<double>(s.size());
      max_prune_dist = std::max(max_prune_dist, bound);
    }
    if (max_prune_dist > static_cast<double>(radius)) {
      stages.Bump(&StageCounters::triangle_pruned);
      continue;
    }

    const int dist =
        EdrDistanceBoundedWith(kernel, scratch, query, s, epsilon_, radius);
    ++computed;
    stages.CountDp(query.size(), s.size());
    if (s.id() < matrix_.num_refs() &&
        proc_array.size() < matrix_.num_refs()) {
      proc_array.emplace_back(s.id(), static_cast<double>(dist));
    }
    if (dist <= radius) {
      out.neighbors.push_back({s.id(), static_cast<double>(dist)});
    } else {
      stages.Bump(&StageCounters::dp_early_abandoned);
    }
  }
  SortNeighborsAscending(&out.neighbors);
  const auto stop = std::chrono::steady_clock::now();
  out.stats.db_size = db_.size();
  out.stats.edr_computed = computed;
  stages.FinalizeNotVisited(db_.size());
  out.stats.elapsed_seconds =
      std::chrono::duration<double>(stop - start).count();
  RecordQueryMetrics(out.stats);
  return out;
}

}  // namespace edr
