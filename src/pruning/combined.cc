#include "pruning/combined.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <numeric>

#include "distance/edr_kernel.h"
#include "obs/trace.h"
#include "pruning/qgram.h"
#include "query/feature_cache.h"
#include "query/intra_query.h"
#include "query/topk.h"

namespace edr {

std::vector<std::array<PruneStep, 3>> AllPruneOrders() {
  const PruneStep h = PruneStep::kHistogram;
  const PruneStep p = PruneStep::kQgram;
  const PruneStep n = PruneStep::kNearTriangle;
  return {{h, p, n}, {h, n, p}, {p, h, n}, {p, n, h}, {n, h, p}, {n, p, h}};
}

char PruneStepCode(PruneStep step) {
  switch (step) {
    case PruneStep::kHistogram: return 'H';
    case PruneStep::kQgram: return 'P';
    case PruneStep::kNearTriangle: return 'N';
  }
  return '?';
}

CombinedKnnSearcher::CombinedKnnSearcher(const TrajectoryDataset& db,
                                         double epsilon,
                                         const CombinedOptions& options)
    : CombinedKnnSearcher(
          db, epsilon, options,
          PairwiseEdrMatrix::Build(db, epsilon, options.max_triangle)) {}

CombinedKnnSearcher::CombinedKnnSearcher(const TrajectoryDataset& db,
                                         double epsilon,
                                         const CombinedOptions& options,
                                         PairwiseEdrMatrix matrix)
    : db_(db),
      epsilon_(epsilon),
      options_(options),
      histograms_(db, epsilon, options.histogram_kind,
                  options.histogram_delta),
      qgram_means_(db, options.q, /*dims=*/2),
      matrix_(std::move(matrix)) {}

KnnResult CombinedKnnSearcher::Knn(const Trajectory& query, size_t k,
                                   const KnnOptions& options) const {
  return std::move(KnnFused({&query}, k, options)[0]);
}

std::vector<KnnResult> CombinedKnnSearcher::KnnFused(
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

  std::vector<std::shared_ptr<QueryTrace>> traces(group);
  std::vector<int32_t> span_ids(group, -1);
  std::vector<std::shared_ptr<const HistogramTable::QueryHistogram>> features(
      group);
  std::vector<std::shared_ptr<const std::vector<Point2>>> mean_features(
      group);
  std::vector<const HistogramTable::QueryHistogram*> qhs(group);
  std::vector<std::vector<int>> bounds(group);
  std::vector<std::vector<int>*> outs(group);
  for (size_t f = 0; f < group; ++f) {
    traces[f] = MakeQueryTrace();
    RecordSchedBudget(traces[f].get(), options);
    if (traces[f] != nullptr) span_ids[f] = traces[f]->Begin("bound_sweep");
    // Both query features go through the cache under the same keys the
    // standalone histogram and PS2 searchers use, so a mixed workload
    // shares entries across methods.
    features[f] = GetOrBuildFeature<HistogramTable::QueryHistogram>(
        options.feature_cache, histograms_.feature_key(), *queries[f],
        [&] { return histograms_.MakeQueryHistogram(*queries[f]); });
    mean_features[f] = GetOrBuildFeature<std::vector<Point2>>(
        options.feature_cache,
        "qgram.means2d.sorted/q=" + std::to_string(options_.q), *queries[f],
        [&] {
          std::vector<Point2> m = MeanValueQgrams(*queries[f], options_.q);
          SortMeans(m);
          return m;
        });
    qhs[f] = features[f].get();
    outs[f] = &bounds[f];
  }
  // Every prune order contains the histogram step, so all fast lower
  // bounds are produced up front by one sweep for the whole group (sharded
  // over the pool): far cheaper than per-row calls, even for ids a
  // preceding filter would have pruned. The lazy Q-gram and near-triangle
  // filters run inside each member's refinement. When the histogram
  // filter runs first (and sorted scanning is enabled), refinement adopts
  // the HSR strategy: candidates in ascending-bound order, hard stop at
  // the first bound above the k-th distance.
  histograms_.FastLowerBoundSweep(qhs, outs, options);
  for (size_t f = 0; f < group; ++f) {
    if (traces[f] != nullptr) traces[f]->End(span_ids[f]);
  }
  const double filter_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  for (size_t f = 0; f < group; ++f) {
    results[f] =
        RefineWithBounds(*queries[f], k, options, bounds[f],
                         *mean_features[f], std::move(traces[f]),
                         filter_seconds);
  }
  return results;
}

KnnResult CombinedKnnSearcher::RefineWithBounds(
    const Trajectory& query, size_t k, const KnnOptions& options,
    const std::vector<int>& bounds, const std::vector<Point2>& query_means,
    std::shared_ptr<QueryTrace> trace, double filter_seconds) const {
  const auto refine_start = std::chrono::steady_clock::now();
  KnnResult out;
  out.stats.db_size = db_.size();
  const bool histogram_first = options_.order[0] == PruneStep::kHistogram &&
                               options_.sorted_histogram_scan;
  const EdrKernel kernel = DefaultEdrKernel();
  const unsigned slots = ResolveIntraQueryWorkers(options);
  // Reference distances for the near-triangle step, shared by all slots.
  SharedRefDistances refs(matrix_.num_refs());
  std::vector<size_t> computed(slots, 0);
  std::vector<StageCounters> slot_stages(slots);
  // The lazy Q-gram and triangle checks interleave with the DPs, so, as in
  // NearTriangleSearcher, refine is the per-slot DP time and filter the
  // sweep plus the rest.
  SlotDpTimer dp_timer(slots);

  const auto refine = [&](unsigned slot, uint32_t id, double best,
                          double* dist) {
    const Trajectory& s = db_[id];
    StageCounters& st = slot_stages[slot];
    st.Bump(&StageCounters::considered);
    for (const PruneStep step : options_.order) {
      switch (step) {
        case PruneStep::kHistogram: {
          // The linear-time transport bound; the exact max-flow bound adds
          // almost no pruning at many times the cost (see bench_ablation)
          // and is not consulted on the query path.
          if (static_cast<double>(bounds[id]) > best) {
            st.Bump(&StageCounters::histogram_pruned);
            return false;
          }
          break;
        }
        case PruneStep::kQgram: {
          if (std::isinf(best)) break;  // Cannot prune before k seeds.
          const long best_k = static_cast<long>(best);
          const long threshold = QgramCountThreshold(
              query.size(), s.size(), options_.q, best_k);
          if (threshold <= 0) break;
          if (!qgram_means_.AtLeastMatches2D(
                  query_means, epsilon_, id,
                  static_cast<size_t>(threshold))) {
            st.Bump(&StageCounters::qgram_pruned);
            return false;
          }
          break;
        }
        case PruneStep::kNearTriangle: {
          double max_prune_dist = 0.0;
          refs.ForEach([&](uint32_t ref_id, double ref_dist) {
            const double bound = ref_dist - matrix_.at(ref_id, id) -
                                 static_cast<double>(s.size());
            max_prune_dist = std::max(max_prune_dist, bound);
          });
          if (max_prune_dist > best) {
            st.Bump(&StageCounters::triangle_pruned);
            return false;
          }
          break;
        }
      }
    }

    // Bounded refinement; lower-bound reference distances only weaken the
    // near-triangle prune bound, never unsound it.
    const int bound = EdrBoundFromKthDistance(best);
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

  TraceSpan refine_span(trace.get(), "refine");
  const TraceContext tc{trace.get(), refine_span.id()};
  if (histogram_first) {
    std::vector<StreamingOrder<int>::Entry> entries(db_.size());
    for (size_t i = 0; i < db_.size(); ++i) {
      entries[i] = {bounds[i], static_cast<uint32_t>(i)};
    }
    // In sorted order every remaining fast bound is >= the stopping one.
    const auto stop = [](int key, double threshold) {
      return static_cast<double>(key) > threshold;
    };
    out.neighbors = RefineInKeyOrder<int>(std::move(entries), k, options,
                                          refine, stop, tc);
  } else {
    out.neighbors = RefineInDbOrder(db_.size(), k, options, refine, tc);
  }
  refine_span.End();

  const auto stop_time = std::chrono::steady_clock::now();
  for (const size_t c : computed) out.stats.edr_computed += c;
  for (const StageCounters& st : slot_stages) out.stats.stages.Add(st);
  out.stats.stages.FinalizeNotVisited(db_.size());
  out.stats.filter_seconds = filter_seconds;
  out.stats.refine_seconds =
      std::chrono::duration<double>(stop_time - refine_start).count();
  out.stats.elapsed_seconds =
      out.stats.filter_seconds + out.stats.refine_seconds;
  dp_timer.SplitPhases(&out.stats, trace.get());
  out.trace = std::move(trace);
  RecordQueryMetrics(out.stats);
  return out;
}

KnnResult CombinedKnnSearcher::Range(const Trajectory& query, int radius,
                                     size_t max_results) const {
  const auto start = std::chrono::steady_clock::now();
  const HistogramTable::QueryHistogram qh =
      histograms_.MakeQueryHistogram(query);
  std::vector<Point2> query_means = MeanValueQgrams(query, options_.q);
  SortMeans(query_means);

  const bool histogram_first =
      options_.order[0] == PruneStep::kHistogram &&
      options_.sorted_histogram_scan;
  std::vector<int> bounds;
  histograms_.FastLowerBoundSweep({&qh}, {&bounds});
  std::vector<uint32_t> order(db_.size());
  std::iota(order.begin(), order.end(), 0);
  if (histogram_first) {
    std::sort(order.begin(), order.end(), [&bounds](uint32_t a, uint32_t b) {
      return bounds[a] < bounds[b];
    });
  }

  const EdrKernel kernel = DefaultEdrKernel();
  EdrScratch& scratch = ThreadLocalEdrScratch();
  std::vector<std::pair<uint32_t, double>> proc_array;
  proc_array.reserve(matrix_.num_refs());
  KnnResult out;
  size_t computed = 0;
  StageCounters& stages = out.stats.stages;

  for (const uint32_t id : order) {
    const Trajectory& s = db_[id];
    bool pruned = false;
    bool stop_scan = false;
    PruneStep pruned_by = PruneStep::kHistogram;
    for (const PruneStep step : options_.order) {
      switch (step) {
        case PruneStep::kHistogram: {
          const int fast = bounds[id];
          if (fast > radius) {
            pruned = true;
            if (histogram_first) stop_scan = true;
          }
          break;
        }
        case PruneStep::kQgram: {
          const long threshold = QgramCountThreshold(
              query.size(), s.size(), options_.q, radius);
          if (threshold <= 0) break;
          pruned = !qgram_means_.AtLeastMatches2D(
              query_means, epsilon_, id, static_cast<size_t>(threshold));
          break;
        }
        case PruneStep::kNearTriangle: {
          double max_prune_dist = 0.0;
          for (const auto& [ref_id, ref_dist] : proc_array) {
            const double bound = ref_dist - matrix_.at(ref_id, id) -
                                 static_cast<double>(s.size());
            max_prune_dist = std::max(max_prune_dist, bound);
          }
          if (max_prune_dist > static_cast<double>(radius)) pruned = true;
          break;
        }
      }
      if (pruned) {
        pruned_by = step;
        break;
      }
    }
    // A stop_scan candidate is never visited — the hard stop fires before
    // its filter chain is charged.
    if (stop_scan) break;
    stages.Bump(&StageCounters::considered);
    if (pruned) {
      switch (pruned_by) {
        case PruneStep::kHistogram:
          stages.Bump(&StageCounters::histogram_pruned);
          break;
        case PruneStep::kQgram:
          stages.Bump(&StageCounters::qgram_pruned);
          break;
        case PruneStep::kNearTriangle:
          stages.Bump(&StageCounters::triangle_pruned);
          break;
      }
      continue;
    }

    const int dist =
        EdrDistanceBoundedWith(kernel, scratch, query, s, epsilon_, radius);
    ++computed;
    stages.CountDp(query.size(), s.size());
    if (id < matrix_.num_refs() && proc_array.size() < matrix_.num_refs()) {
      proc_array.emplace_back(id, static_cast<double>(dist));
    }
    if (dist <= radius) {
      out.neighbors.push_back({id, static_cast<double>(dist)});
    } else {
      stages.Bump(&StageCounters::dp_early_abandoned);
    }
  }

  SortNeighborsAscending(&out.neighbors, max_results);
  const auto stop = std::chrono::steady_clock::now();
  out.stats.db_size = db_.size();
  out.stats.edr_computed = computed;
  stages.FinalizeNotVisited(db_.size());
  out.stats.elapsed_seconds =
      std::chrono::duration<double>(stop - start).count();
  RecordQueryMetrics(out.stats);
  return out;
}

std::string CombinedKnnSearcher::name() const {
  std::string out =
      options_.histogram_kind == HistogramTable::Kind::k2D ? "2" : "1";
  for (const PruneStep step : options_.order) out += PruneStepCode(step);
  return out;
}

}  // namespace edr
