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
  const bool use_histogram =
      filter_ == LcssFilter::kHistogram || filter_ == LcssFilter::kBoth;
  const bool use_qgram =
      filter_ == LcssFilter::kQgram || filter_ == LcssFilter::kBoth;
  std::vector<double> bounds;
  std::shared_ptr<const std::vector<Point2>> means;
  // The histogram bound sweep is the only whole-database filter pass
  // (sharded over the pool). The distance lower bounds come from its
  // output; refinement later visits candidates in ascending-bound (HSR)
  // order.
  const auto sweep = [&] {
    // Cached under the same keys the EDR searchers use (the table geometry
    // and q=1 sorted means are method-agnostic), so an EDR query warming
    // the cache also warms the LCSS path and vice versa.
    std::shared_ptr<const HistogramTable::QueryHistogram> feature;
    if (use_histogram) {
      feature = GetOrBuildFeature<HistogramTable::QueryHistogram>(
          options.feature_cache, histograms_.feature_key(), query,
          [&] { return histograms_.MakeQueryHistogram(query); });
    }
    if (use_qgram) {
      means = GetOrBuildFeature<std::vector<Point2>>(
          options.feature_cache, "qgram.means2d.sorted/q=1", query, [&] {
            std::vector<Point2> m = MeanValueQgrams(query, 1);
            SortMeans(m);
            return m;
          });
    }
    if (!use_histogram) return;
    std::vector<int> edr_bounds;
    histograms_.FastLowerBoundSweep(*feature, &edr_bounds, options);
    const size_t m = query.size();
    bounds.resize(db_.size());
    for (size_t i = 0; i < db_.size(); ++i) {
      const size_t n = db_[i].size();
      // The sweep returns max(m, n) - U with U >= T* >= LCSS; recover the
      // score cap U (clamped to min(m, n) inside the bound).
      const long total = static_cast<long>(std::max(m, n));
      const long transport_cap = total - edr_bounds[i];
      bounds[i] = LcssDistanceBoundFromCap(m, n, transport_cap);
    }
  };
  const auto refine = [&](RefineRequest<> req) {
    const auto prune = [&](StageCounters& st, uint32_t id,
                           double threshold) {
      if (!use_qgram) return false;
      const long count = static_cast<long>(
          qgram_means_.CountMatches2D(*means, epsilon_, id));
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
      return FilterAndRefine(
          std::move(req), k,
          InBoundOrder([&bounds](uint32_t id) { return bounds[id]; }), prune,
          lcss);
    }
    return FilterAndRefine(std::move(req), k, InDbOrder{}, prune, lcss);
  };
  return RunWithPass(db_, query, k, options, "bound_sweep", sweep, refine);
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
