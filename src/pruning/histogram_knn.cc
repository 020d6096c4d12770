#include "pruning/histogram_knn.h"

#include <chrono>
#include <vector>

#include "query/feature_cache.h"
#include "query/intra_query.h"

namespace edr {

HistogramKnnSearcher::HistogramKnnSearcher(const TrajectoryDataset& db,
                                           double epsilon,
                                           HistogramTable::Kind kind,
                                           int delta, HistogramScan scan)
    : db_(db),
      epsilon_(epsilon),
      scan_(scan),
      table_(db, epsilon, kind, delta) {}

namespace {

/// The histogram searchers' one filter: the linear-time transport lower
/// bound (Theorem 6 / Corollary 1) against the threshold. (The exact
/// max-flow bound prunes almost nothing beyond it at ~25x the cost, so the
/// searchers do not consult it; see bench_ablation for the measured
/// tightness gap.)
auto BoundFilter(const int* bounds) {
  return [bounds](StageCounters& st, uint32_t id, double threshold) {
    if (static_cast<double>(bounds[id]) <= threshold) return false;
    st.Bump(&StageCounters::histogram_pruned);
    return true;
  };
}

}  // namespace

KnnResult HistogramKnnSearcher::Knn(const Trajectory& query, size_t k,
                                    const KnnOptions& options) const {
  // HSR on one worker builds its order from sweeps of only the blocks its
  // scan reaches. HSE reads every bound, and several workers shard the
  // whole sweep between them (the windowed sweeps run one at a time, under
  // the order's lock), so these sweep the whole table up front in one
  // vectorized pass.
  const bool windowed = scan_ == HistogramScan::kSorted &&
                        ResolveIntraQueryWorkers(options) == 1;
  std::shared_ptr<const HistogramTable::QueryHistogram> feature;
  std::vector<int> bounds;
  const auto sweep = [&] {
    feature = GetOrBuildFeature<HistogramTable::QueryHistogram>(
        options.feature_cache, table_.feature_key(), query,
        [&] { return table_.MakeQueryHistogram(query); });
    if (!windowed) table_.FastLowerBoundSweep(*feature, &bounds, options);
  };
  const auto refine = [&](RefineRequest<> req) {
    const BoundedEdr edr(db_, query, epsilon_);
    // HSE: database order. HSR: ascending bound order, stopping outright
    // once the bound exceeds the k-th distance.
    if (scan_ == HistogramScan::kSequential) {
      return FilterAndRefine(std::move(req), k, InDbOrder{},
                             BoundFilter(bounds.data()), edr);
    }
    HistogramTable::BoundOrder order(table_, *feature,
                                     windowed ? nullptr : &bounds);
    return FilterAndRefine(std::move(req), k, InLazyOrder{order},
                           BoundFilter(order.bounds()), edr);
  };
  return RunWithPass(db_, query, k, options, "bound_sweep", sweep, refine);
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
  const BoundedEdr edr(db_, query, epsilon_);
  if (scan_ == HistogramScan::kSorted) {
    HistogramTable::BoundOrder order(table_, qh, nullptr);
    return ScanRange(db_, query, start, radius, /*max_results=*/0,
                     InLazyOrder{order}, BoundFilter(order.bounds()), edr);
  }
  std::vector<int> bounds;
  table_.FastLowerBoundSweep(qh, &bounds);
  return ScanRange(db_, query, start, radius, /*max_results=*/0, InDbOrder{},
                   BoundFilter(bounds.data()), edr);
}

}  // namespace edr
