#include "pruning/lcss_knn.h"

#include <algorithm>
#include <chrono>

#include "distance/lcss.h"
#include "obs/trace.h"
#include "pruning/qgram.h"
#include "query/feature_cache.h"
#include "query/intra_query.h"
#include "query/topk.h"

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
  const bool use_histogram =
      filter_ == LcssFilter::kHistogram || filter_ == LcssFilter::kBoth;
  const bool use_qgram =
      filter_ == LcssFilter::kQgram || filter_ == LcssFilter::kBoth;

  std::vector<std::shared_ptr<QueryTrace>> traces(group);
  std::vector<int32_t> span_ids(group, -1);
  std::vector<std::shared_ptr<const HistogramTable::QueryHistogram>> features(
      group);
  std::vector<std::shared_ptr<const std::vector<Point2>>> mean_features(
      group);
  for (size_t f = 0; f < group; ++f) {
    traces[f] = MakeQueryTrace();
    RecordSchedBudget(traces[f].get(), options);
    if (traces[f] != nullptr) span_ids[f] = traces[f]->Begin("bound_sweep");
    // Cached under the same keys the EDR searchers use (the table geometry
    // and q=1 sorted means are method-agnostic), so an EDR query warming
    // the cache also warms the LCSS path and vice versa.
    if (use_histogram) {
      features[f] = GetOrBuildFeature<HistogramTable::QueryHistogram>(
          options.feature_cache, histograms_.feature_key(), *queries[f],
          [&] { return histograms_.MakeQueryHistogram(*queries[f]); });
    }
    if (use_qgram) {
      mean_features[f] = GetOrBuildFeature<std::vector<Point2>>(
          options.feature_cache, "qgram.means2d.sorted/q=1", *queries[f],
          [&] {
            std::vector<Point2> m = MeanValueQgrams(*queries[f], 1);
            SortMeans(m);
            return m;
          });
    } else {
      mean_features[f] = std::make_shared<const std::vector<Point2>>();
    }
  }

  // The histogram bound sweep is the only whole-database filter pass, one
  // for the whole group (sharded over the pool). Each member's distance
  // lower bounds come from its sweep output; refinement later visits
  // candidates in ascending-bound (HSR) order.
  std::vector<std::vector<double>> bounds(group);
  if (use_histogram) {
    std::vector<const HistogramTable::QueryHistogram*> qhs(group);
    std::vector<std::vector<int>> edr_bounds(group);
    std::vector<std::vector<int>*> outs(group);
    for (size_t f = 0; f < group; ++f) {
      qhs[f] = features[f].get();
      outs[f] = &edr_bounds[f];
    }
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
  }
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

KnnResult LcssKnnSearcher::RefineWithBounds(
    const Trajectory& query, size_t k, const KnnOptions& options,
    const std::vector<double>& bounds,
    const std::vector<Point2>& query_means, std::shared_ptr<QueryTrace> trace,
    double filter_seconds) const {
  const auto refine_start = std::chrono::steady_clock::now();
  KnnResult out;
  out.stats.db_size = db_.size();
  const size_t m = query.size();
  const bool use_histogram =
      filter_ == LcssFilter::kHistogram || filter_ == LcssFilter::kBoth;
  const bool use_qgram =
      filter_ == LcssFilter::kQgram || filter_ == LcssFilter::kBoth;
  const unsigned slots = ResolveIntraQueryWorkers(options);
  std::vector<size_t> computed(slots, 0);
  std::vector<StageCounters> slot_stages(slots);
  // LcssDistance is always exact (no early abandoning), so refinement
  // never rejects a computed candidate.
  const auto refine = [&](unsigned slot, uint32_t id, double threshold,
                          double* dist) {
    const Trajectory& s = db_[id];
    StageCounters& st = slot_stages[slot];
    st.Bump(&StageCounters::considered);
    if (use_qgram) {
      const long count = static_cast<long>(
          qgram_means_.CountMatches2D(query_means, epsilon_, id));
      if (LcssDistanceBoundFromCap(m, s.size(), count) > threshold) {
        // The score-cap filter is the Q-gram count bound specialized to
        // LCSS, so it shares the qgram_pruned bucket.
        st.Bump(&StageCounters::qgram_pruned);
        return false;
      }
    }
    *dist = LcssDistance(query, s, epsilon_);
    ++computed[slot];
    st.CountDp(query.size(), s.size());
    return true;
  };

  TraceSpan refine_span(trace.get(), "refine");
  const TraceContext tc{trace.get(), refine_span.id()};
  if (use_histogram) {
    std::vector<StreamingOrder<double>::Entry> entries(db_.size());
    for (size_t i = 0; i < db_.size(); ++i) {
      entries[i] = {bounds[i], static_cast<uint32_t>(i)};
    }
    // In sorted order every remaining bound is >= the stopping one.
    const auto stop = [](double key, double threshold) {
      return key > threshold;
    };
    out.neighbors = RefineInKeyOrder<double>(std::move(entries), k, options,
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
  out.trace = std::move(trace);
  RecordQueryMetrics(out.stats);
  return out;
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
