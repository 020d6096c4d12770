#include "pruning/combined.h"

#include <chrono>
#include <cmath>
#include <optional>

#include "pruning/qgram.h"
#include "query/feature_cache.h"
#include "query/intra_query.h"

namespace edr {

std::vector<std::array<PruneStep, 2>> AllPruneOrders() {
  const PruneStep h = PruneStep::kHistogram;
  const PruneStep p = PruneStep::kQgram;
  return {{h, p}, {p, h}};
}

char PruneStepCode(PruneStep step) {
  switch (step) {
    case PruneStep::kHistogram: return 'H';
    case PruneStep::kQgram: return 'P';
  }
  return '?';
}

CombinedKnnSearcher::CombinedKnnSearcher(const TrajectoryDataset& db,
                                         double epsilon,
                                         const CombinedOptions& options)
    : db_(db),
      epsilon_(epsilon),
      options_(options),
      histograms_(db, epsilon, options.histogram_kind,
                  options.histogram_delta),
      qgram_means_(db, options.q, /*dims=*/2) {}

KnnResult CombinedKnnSearcher::Knn(const Trajectory& query, size_t k,
                                   const KnnOptions& options) const {
  return std::move(KnnFused({&query}, k, options)[0]);
}

bool CombinedKnnSearcher::SortedScan() const {
  return options_.order[0] == PruneStep::kHistogram &&
         options_.sorted_histogram_scan;
}

template <typename ScanFn>
KnnResult CombinedKnnSearcher::Search(
    const Trajectory& query, const HistogramTable::QueryHistogram& qh,
    const std::vector<int>* swept, const std::vector<Point2>& query_means,
    ScanFn&& scan) const {
  // When the histogram filter runs first (and sorted scanning is enabled),
  // candidates are visited in ascending-bound order with a hard stop at
  // the first bound above the threshold (the HSR strategy); otherwise in
  // database order with every filter evaluated lazily.
  std::optional<HistogramTable::BoundOrder> order;
  if (SortedScan()) order.emplace(histograms_, qh, swept);
  const int* bounds = order ? order->bounds() : swept->data();
  const auto prune = [&](StageCounters& st, uint32_t id, double threshold) {
    for (const PruneStep step : options_.order) {
      switch (step) {
        case PruneStep::kHistogram:
          // The linear-time transport bound; the exact max-flow bound adds
          // almost no pruning at many times the cost (see bench_ablation)
          // and is not consulted on the query path.
          if (static_cast<double>(bounds[id]) > threshold) {
            st.Bump(&StageCounters::histogram_pruned);
            return true;
          }
          break;
        case PruneStep::kQgram: {
          if (std::isinf(threshold)) break;  // Cannot prune before k seeds.
          const long count_threshold =
              QgramCountThreshold(query.size(), db_[id].size(), options_.q,
                                  static_cast<long>(threshold));
          if (count_threshold <= 0) break;
          if (!qgram_means_.AtLeastMatches2D(
                  query_means, epsilon_, id,
                  static_cast<size_t>(count_threshold))) {
            st.Bump(&StageCounters::qgram_pruned);
            return true;
          }
          break;
        }
      }
    }
    return false;
  };
  const BoundedEdr edr(db_, query, epsilon_);
  if (order) return scan(InLazyOrder{*order}, prune, edr);
  return scan(InDbOrder{}, prune, edr);
}

std::vector<KnnResult> CombinedKnnSearcher::KnnFused(
    const std::vector<const Trajectory*>& queries, size_t k,
    const KnnOptions& options) const {
  const size_t group = queries.size();
  // A query of its own on one worker in the sorted scan sweeps only the
  // blocks its scan reaches (HistogramTable::BoundOrder); several workers
  // shard the whole sweep between them instead, since the windowed sweeps
  // run one at a time under the order's lock. Otherwise every prune order
  // contains the histogram step, so all fast lower bounds are produced up
  // front by one sweep for the whole group (sharded over the pool): far
  // cheaper than per-row calls, even for ids a preceding filter would have
  // pruned. The lazy Q-gram filter runs inside each member's refinement.
  const bool windowed =
      SortedScan() && group == 1 && ResolveIntraQueryWorkers(options) == 1;
  std::vector<std::vector<int>> bounds(group);
  std::vector<std::shared_ptr<const HistogramTable::QueryHistogram>> features(
      group);
  std::vector<std::shared_ptr<const std::vector<Point2>>> means(group);
  const auto sweep = [&] {
    std::vector<const HistogramTable::QueryHistogram*> qhs(group);
    std::vector<std::vector<int>*> outs(group);
    for (size_t f = 0; f < group; ++f) {
      // Both query features go through the cache under the same keys the
      // standalone histogram and PS2 searchers use, so a mixed workload
      // shares entries across methods.
      features[f] = GetOrBuildFeature<HistogramTable::QueryHistogram>(
          options.feature_cache, histograms_.feature_key(), *queries[f],
          [&] { return histograms_.MakeQueryHistogram(*queries[f]); });
      means[f] = GetOrBuildFeature<std::vector<Point2>>(
          options.feature_cache,
          "qgram.means2d.sorted/q=" + std::to_string(options_.q),
          *queries[f], [&] { return SortedMeans(*queries[f]); });
      qhs[f] = features[f].get();
      outs[f] = &bounds[f];
    }
    if (!windowed) histograms_.FastLowerBoundSweep(qhs, outs, options);
  };
  const auto refine = [&](size_t f, RefineRequest<> req) {
    return Search(*queries[f], *features[f], windowed ? nullptr : &bounds[f],
                  *means[f],
                  [&](const auto& order, const auto& prune,
                      const auto& distance) {
                    return FilterAndRefine(std::move(req), k, order, prune,
                                           distance);
                  });
  };
  return RunFusionGroup(db_, queries, k, options, "bound_sweep", sweep,
                        refine);
}

KnnResult CombinedKnnSearcher::Range(const Trajectory& query, int radius,
                                     size_t max_results) const {
  const auto start = std::chrono::steady_clock::now();
  const HistogramTable::QueryHistogram qh =
      histograms_.MakeQueryHistogram(query);
  std::vector<int> bounds;
  if (!SortedScan()) histograms_.FastLowerBoundSweep({&qh}, {&bounds});
  const std::vector<Point2> query_means = SortedMeans(query);
  return Search(query, qh, SortedScan() ? nullptr : &bounds, query_means,
                [&](const auto& order, const auto& prune,
                    const auto& distance) {
                  return ScanRange(db_, query, start, radius, max_results,
                                   order, prune, distance);
                });
}

std::vector<Point2> CombinedKnnSearcher::SortedMeans(
    const Trajectory& query) const {
  std::vector<Point2> means = MeanValueQgrams(query, options_.q);
  SortMeans(means);
  return means;
}

std::string CombinedKnnSearcher::name() const {
  std::string out =
      options_.histogram_kind == HistogramTable::Kind::k2D ? "2" : "1";
  for (const PruneStep step : options_.order) out += PruneStepCode(step);
  return out;
}

}  // namespace edr
