#include "pruning/histogram_knn.h"

#include <algorithm>
#include <chrono>
#include <vector>

#include "distance/edr_kernel.h"
#include "obs/trace.h"
#include "query/feature_cache.h"
#include "query/intra_query.h"
#include "query/topk.h"

namespace edr {

HistogramKnnSearcher::HistogramKnnSearcher(const TrajectoryDataset& db,
                                           double epsilon,
                                           HistogramTable::Kind kind,
                                           int delta, HistogramScan scan)
    : db_(db),
      epsilon_(epsilon),
      scan_(scan),
      table_(db, epsilon, kind, delta) {}

KnnResult HistogramKnnSearcher::Knn(const Trajectory& query, size_t k,
                                    const KnnOptions& options) const {
  return std::move(KnnFused({&query}, k, options)[0]);
}

std::vector<KnnResult> HistogramKnnSearcher::KnnFused(
    const std::vector<const Trajectory*>& queries, size_t k,
    const KnnOptions& options) const {
  const auto start = std::chrono::steady_clock::now();
  const size_t group = queries.size();
  std::vector<KnnResult> results(group);
  if (group == 0) return results;
  if (k == 0) {
    for (KnnResult& r : results) {
      r.stats.db_size = db_.size();
      r.stats.stages.FinalizeNotVisited(db_.size());
    }
    return results;
  }

  // Every member's trace records the one shared database pass, feature
  // fetch included, as its "bound_sweep" span.
  std::vector<std::shared_ptr<QueryTrace>> traces(group);
  std::vector<int32_t> span_ids(group, -1);
  std::vector<std::shared_ptr<const HistogramTable::QueryHistogram>> features(
      group);
  std::vector<const HistogramTable::QueryHistogram*> qhs(group);
  std::vector<std::vector<int>> bounds(group);
  std::vector<std::vector<int>*> outs(group);
  for (size_t f = 0; f < group; ++f) {
    traces[f] = MakeQueryTrace();
    RecordSchedBudget(traces[f].get(), options);
    if (traces[f] != nullptr) span_ids[f] = traces[f]->Begin("bound_sweep");
    features[f] = GetOrBuildFeature<HistogramTable::QueryHistogram>(
        options.feature_cache, table_.feature_key(), *queries[f],
        [&] { return table_.MakeQueryHistogram(*queries[f]); });
    qhs[f] = features[f].get();
    outs[f] = &bounds[f];
  }
  // Both scans consume the whole bound array anyway, so it is produced by
  // one vectorized sweep over the column stores instead of n per-row
  // calls. (The exact max-flow bound prunes almost nothing beyond the fast
  // bound at ~25x the cost, so the searchers do not consult it; see
  // bench_ablation for the measured tightness gap.)
  table_.FastLowerBoundSweep(qhs, outs, options);
  for (size_t f = 0; f < group; ++f) {
    if (traces[f] != nullptr) traces[f]->End(span_ids[f]);
  }
  const double filter_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  for (size_t f = 0; f < group; ++f) {
    results[f] = RefineWithBounds(*queries[f], k, options, bounds[f],
                                  std::move(traces[f]), filter_seconds);
  }
  return results;
}

KnnResult HistogramKnnSearcher::RefineWithBounds(
    const Trajectory& query, size_t k, const KnnOptions& options,
    const std::vector<int>& bounds, std::shared_ptr<QueryTrace> trace,
    double filter_seconds) const {
  const auto refine_start = std::chrono::steady_clock::now();
  KnnResult out;
  out.stats.db_size = db_.size();
  const EdrKernel kernel = DefaultEdrKernel();
  const unsigned slots = ResolveIntraQueryWorkers(options);
  std::vector<size_t> computed(slots, 0);
  std::vector<StageCounters> slot_stages(slots);
  // Refines one candidate against the running k-th distance; true iff the
  // bounded DP ran to an exact value (<= the bound it was given).
  const auto refine = [&](unsigned slot, uint32_t id, double threshold,
                          double* dist) {
    StageCounters& st = slot_stages[slot];
    st.Bump(&StageCounters::considered);
    if (static_cast<double>(bounds[id]) > threshold) {
      st.Bump(&StageCounters::histogram_pruned);
      return false;
    }
    const int bound = EdrBoundFromKthDistance(threshold);
    const int d = EdrDistanceBoundedWith(kernel, ThreadLocalEdrScratch(),
                                         query, db_[id], epsilon_, bound);
    ++computed[slot];
    st.CountDp(query.size(), db_[id].size());
    if (d > bound) {  // Abandoned: a lower bound, not exact.
      st.Bump(&StageCounters::dp_early_abandoned);
      return false;
    }
    *dist = static_cast<double>(d);
    return true;
  };

  TraceSpan refine_span(trace.get(), "refine");
  const TraceContext tc{trace.get(), refine_span.id()};
  if (scan_ == HistogramScan::kSequential) {
    // HSE: one pass in database order, filtering with the linear-time
    // transport bound.
    out.neighbors = RefineInDbOrder(db_.size(), k, options, refine, tc);
  } else {
    // HSR: visit candidates in ascending bound order; the scan stops
    // outright once the bound exceeds the k-th distance — every later
    // candidate has an even larger bound.
    std::vector<StreamingOrder<int>::Entry> entries(db_.size());
    for (size_t i = 0; i < db_.size(); ++i) {
      entries[i] = {bounds[i], static_cast<uint32_t>(i)};
    }
    const auto stop = [](int key, double threshold) {
      return static_cast<double>(key) > threshold;
    };
    out.neighbors = RefineInKeyOrder<int>(std::move(entries), k, options,
                                          refine, stop, tc);
  }
  refine_span.End();

  const auto stop_time = std::chrono::steady_clock::now();
  for (const size_t c : computed) out.stats.edr_computed += c;
  for (const StageCounters& st : slot_stages) out.stats.stages.Add(st);
  out.stats.stages.FinalizeNotVisited(db_.size());
  out.trace = std::move(trace);
  out.stats.filter_seconds = filter_seconds;
  out.stats.refine_seconds =
      std::chrono::duration<double>(stop_time - refine_start).count();
  out.stats.elapsed_seconds =
      out.stats.filter_seconds + out.stats.refine_seconds;
  RecordQueryMetrics(out.stats);
  return out;
}

std::string HistogramKnnSearcher::name() const {
  std::string base = table_.kind() == HistogramTable::Kind::k2D
                         ? "2H" + std::to_string(table_.delta()) + "E"
                         : "1HE";
  if (table_.kind() == HistogramTable::Kind::k2D && table_.delta() == 1) {
    base = "2HE";
  }
  return (scan_ == HistogramScan::kSorted ? "HSR-" : "HSE-") + base;
}


KnnResult HistogramKnnSearcher::Range(const Trajectory& query,
                                      int radius) const {
  const auto start = std::chrono::steady_clock::now();
  const HistogramTable::QueryHistogram qh = table_.MakeQueryHistogram(query);

  const EdrKernel kernel = DefaultEdrKernel();
  EdrScratch& scratch = ThreadLocalEdrScratch();
  std::vector<int> bounds;
  table_.FastLowerBoundSweep({&qh}, {&bounds});
  KnnResult out;
  size_t computed = 0;
  StageCounters& stages = out.stats.stages;
  for (const Trajectory& s : db_) {
    stages.Bump(&StageCounters::considered);
    if (bounds[s.id()] > radius) {
      stages.Bump(&StageCounters::histogram_pruned);
      continue;
    }
    const int dist =
        EdrDistanceBoundedWith(kernel, scratch, query, s, epsilon_, radius);
    ++computed;
    stages.CountDp(query.size(), s.size());
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
