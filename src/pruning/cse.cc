#include "pruning/cse.h"

#include <algorithm>
#include <chrono>

#include "distance/edr_kernel.h"
#include "obs/trace.h"
#include "query/intra_query.h"

namespace edr {

double MaxTriangleViolation(const PairwiseEdrMatrix& matrix) {
  const size_t n = matrix.num_refs();
  double worst = 0.0;
  for (size_t x = 0; x < n; ++x) {
    for (size_t y = 0; y < n; ++y) {
      if (y == x) continue;
      for (size_t z = 0; z < n; ++z) {
        const double violation =
            static_cast<double>(matrix.at(x, static_cast<uint32_t>(z))) -
            static_cast<double>(matrix.at(x, static_cast<uint32_t>(y))) -
            static_cast<double>(matrix.at(y, static_cast<uint32_t>(z)));
        worst = std::max(worst, violation);
      }
    }
  }
  return worst;
}

CseSearcher::CseSearcher(const TrajectoryDataset& db, double epsilon,
                         PairwiseEdrMatrix matrix)
    : db_(db), epsilon_(epsilon), matrix_(std::move(matrix)) {
  shift_ = MaxTriangleViolation(matrix_);
}

KnnResult CseSearcher::Knn(const Trajectory& query, size_t k,
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

  // The reference distances computed so far, shared by all worker slots
  // as in NearTriangleSearcher::Knn.
  const unsigned slots = ResolveIntraQueryWorkers(options);
  SharedRefDistances refs(matrix_.num_refs());
  std::vector<size_t> computed(slots, 0);
  std::vector<StageCounters> slot_stages(slots);
  // Interleaved scan: phase split derived from the per-slot DP time, as in
  // NearTriangleSearcher::Knn.
  SlotDpTimer dp_timer(slots);

  const auto refine = [&](unsigned slot, uint32_t id, double threshold,
                          double* dist) {
    StageCounters& st = slot_stages[slot];
    st.Bump(&StageCounters::considered);
    double max_prune_dist = 0.0;
    refs.ForEach([&](uint32_t ref_id, double ref_dist) {
      const double bound = ref_dist - matrix_.at(ref_id, id) - shift_;
      max_prune_dist = std::max(max_prune_dist, bound);
    });
    if (max_prune_dist > threshold) {
      st.Bump(&StageCounters::triangle_pruned);
      return false;
    }

    // Bounded refinement; a lower-bound reference distance in `refs` only
    // weakens (never unsounds) the shifted triangle prune.
    const int bound = EdrBoundFromKthDistance(threshold);
    const int d = dp_timer.Time(slot, [&] {
      return EdrDistanceBoundedWith(kernel, ThreadLocalEdrScratch(), query,
                                    db_[id], epsilon_, bound);
    });
    ++computed[slot];
    st.CountDp(query.size(), db_[id].size());
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

}  // namespace edr
