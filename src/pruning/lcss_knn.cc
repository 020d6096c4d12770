#include "pruning/lcss_knn.h"

#include <algorithm>

#include "distance/lcss.h"
#include "pruning/qgram.h"
#include "query/feature_cache.h"
#include "query/intra_query.h"

namespace edr {
namespace {

/// Distance lower bound from an upper bound `score_cap` on LCSS(Q, S) for
/// lengths m (query) and n (candidate).
double LcssDistanceBoundFromCap(size_t m, size_t n, long score_cap) {
  const double denom = static_cast<double>(std::min(m, n));
  if (denom == 0.0) return 1.0;
  const double capped = std::min(static_cast<double>(score_cap), denom);
  return 1.0 - capped / denom;
}

}  // namespace

LcssKnnSearcher::LcssKnnSearcher(const TrajectoryDataset& db, double epsilon,
                                 LcssFilter filter)
    : db_(db),
      epsilon_(epsilon),
      filter_(filter),
      histograms_(db, epsilon, HistogramTable::Kind::k2D, 1),
      qgram_means_(db, /*q=*/1, /*dims=*/2) {}

KnnResult LcssKnnSearcher::Knn(const Trajectory& query, size_t k,
                               const KnnOptions& options) const {
  return std::move(KnnFused({&query}, k, options)[0]);
}

std::vector<KnnResult> LcssKnnSearcher::KnnFused(
    const std::vector<const Trajectory*>& queries, size_t k,
    const KnnOptions& options) const {
  const size_t group = queries.size();
  const bool use_histogram =
      filter_ == LcssFilter::kHistogram || filter_ == LcssFilter::kBoth;
  const bool use_qgram =
      filter_ == LcssFilter::kQgram || filter_ == LcssFilter::kBoth;
  std::vector<std::vector<double>> bounds(group);
  std::vector<std::shared_ptr<const std::vector<Point2>>> means(group);
  // The histogram bound sweep is the only whole-database filter pass, one
  // for the whole group (sharded over the pool). Each member's distance
  // lower bounds come from its sweep output; refinement later visits
  // candidates in ascending-bound (HSR) order.
  const auto sweep = [&] {
    std::vector<std::shared_ptr<const HistogramTable::QueryHistogram>>
        features(group);
    std::vector<const HistogramTable::QueryHistogram*> qhs(group);
    std::vector<std::vector<int>> edr_bounds(group);
    std::vector<std::vector<int>*> outs(group);
    for (size_t f = 0; f < group; ++f) {
      // Cached under the same keys the EDR searchers use (the table
      // geometry and q=1 sorted means are method-agnostic), so an EDR query
      // warming the cache also warms the LCSS path and vice versa.
      if (use_histogram) {
        features[f] = GetOrBuildFeature<HistogramTable::QueryHistogram>(
            options.feature_cache, histograms_.feature_key(), *queries[f],
            [&] { return histograms_.MakeQueryHistogram(*queries[f]); });
      }
      if (use_qgram) {
        means[f] = GetOrBuildFeature<std::vector<Point2>>(
            options.feature_cache, "qgram.means2d.sorted/q=1", *queries[f],
            [&] {
              std::vector<Point2> m = MeanValueQgrams(*queries[f], 1);
              SortMeans(m);
              return m;
            });
      }
      qhs[f] = features[f].get();
      outs[f] = &edr_bounds[f];
    }
    if (!use_histogram) return;
    histograms_.FastLowerBoundSweep(qhs, outs, options);
    for (size_t f = 0; f < group; ++f) {
      const size_t m = queries[f]->size();
      bounds[f].resize(db_.size());
      for (size_t i = 0; i < db_.size(); ++i) {
        const size_t n = db_[i].size();
        // The sweep returns max(m, n) - U with U >= T* >= LCSS; recover
        // the score cap U (clamped to min(m, n) inside the bound).
        const long total = static_cast<long>(std::max(m, n));
        const long transport_cap = total - edr_bounds[f][i];
        bounds[f][i] = LcssDistanceBoundFromCap(m, n, transport_cap);
      }
    }
  };
  const auto refine = [&](size_t f, RefineRequest<> req) {
    const Trajectory& query = *queries[f];
    const auto prune = [&](StageCounters& st, uint32_t id,
                           double threshold) {
      if (!use_qgram) return false;
      const long count = static_cast<long>(
          qgram_means_.CountMatches2D(*means[f], epsilon_, id));
      if (LcssDistanceBoundFromCap(query.size(), db_[id].size(), count) <=
          threshold) {
        return false;
      }
      // The score-cap filter is the Q-gram count bound specialized to
      // LCSS, so it shares the qgram_pruned bucket.
      st.Bump(&StageCounters::qgram_pruned);
      return true;
    };
    // LcssDistance is always exact (no early abandoning), so refinement
    // never rejects a computed candidate.
    const auto lcss = [&](uint32_t id, double) {
      return Refined{LcssDistance(query, db_[id], epsilon_), true};
    };
    if (use_histogram) {
      const std::vector<double>& b = bounds[f];
      return FilterAndRefine(std::move(req), k,
                             InBoundOrder([&b](uint32_t id) { return b[id]; }),
                             prune, lcss);
    }
    return FilterAndRefine(std::move(req), k, InDbOrder{}, prune, lcss);
  };
  return RunFusionGroup(db_, queries, k, options, "bound_sweep", sweep,
                        refine);
}

std::string LcssKnnSearcher::name() const {
  switch (filter_) {
    case LcssFilter::kNone: return "LCSS-Scan";
    case LcssFilter::kHistogram: return "LCSS-H";
    case LcssFilter::kQgram: return "LCSS-P";
    case LcssFilter::kBoth: return "LCSS-HP";
  }
  return "LCSS-?";
}

}  // namespace edr
