#include "pruning/qgram_knn.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <type_traits>

#include "pruning/qgram.h"
#include "query/feature_cache.h"
#include "query/intra_query.h"

namespace edr {

const char* QgramVariantName(QgramVariant variant) {
  switch (variant) {
    case QgramVariant::kRtree2D: return "PR";
    case QgramVariant::kBtree1D: return "PB";
    case QgramVariant::kMerge2D: return "PS2";
    case QgramVariant::kMerge1D: return "PS1";
  }
  return "?";
}

QgramKnnSearcher::QgramKnnSearcher(const TrajectoryDataset& db,
                                   double epsilon, int q,
                                   QgramVariant variant)
    : db_(db), epsilon_(epsilon), q_(q), variant_(variant) {
  switch (variant_) {
    case QgramVariant::kRtree2D:
      feature_key_ = "qgram.means2d.raw/q=" + std::to_string(q_);
      break;
    case QgramVariant::kBtree1D:
      feature_key_ = "qgram.means1d.raw/q=" + std::to_string(q_);
      break;
    case QgramVariant::kMerge2D:
      feature_key_ = "qgram.means2d.sorted/q=" + std::to_string(q_);
      break;
    case QgramVariant::kMerge1D:
      feature_key_ = "qgram.means1d.sorted/q=" + std::to_string(q_);
      break;
  }
  switch (variant_) {
    case QgramVariant::kRtree2D: {
      rtree_ = std::make_unique<RStarTree>();
      for (const Trajectory& t : db_) {
        for (const Point2& mean : MeanValueQgrams(t, q_)) {
          rtree_->Insert(mean, t.id());
        }
      }
      break;
    }
    case QgramVariant::kBtree1D: {
      btree_ = std::make_unique<BPlusTree>();
      for (const Trajectory& t : db_) {
        for (const double mean : MeanValueQgrams1D(t, q_, /*use_x=*/true)) {
          btree_->Insert(mean, t.id());
        }
      }
      break;
    }
    case QgramVariant::kMerge2D: {
      means_ = std::make_unique<QgramMeansTable>(db_, q_, /*dims=*/2);
      break;
    }
    case QgramVariant::kMerge1D: {
      means_ = std::make_unique<QgramMeansTable>(db_, q_, /*dims=*/1);
      break;
    }
  }
}

namespace {

/// The query's Q-gram mean vector, through the feature cache under `key`.
template <typename Build>
auto QueryMeans(const Trajectory& query, const KnnOptions& options,
                const std::string& key, const Build& build) {
  using Means = std::invoke_result_t<const Build&, const Trajectory&>;
  return GetOrBuildFeature<Means>(options.feature_cache, key, query,
                                  [&] { return build(query); });
}

/// The tree variants' count: the query's grams probe the shared read-only
/// index in ascending probe coordinate, so neighbouring probes descend
/// warm tree paths. `search(mean, visit)` visits the id of every indexed
/// gram within epsilon of `mean`. A gram counts a trajectory at most once
/// (a gram of Q either matches some gram of S or it does not). Each gram is
/// probed exactly once, so no count depends on the probe order.
template <typename Mean, typename KeyFn, typename SearchFn>
void CountByProbes(const std::vector<Mean>& means, const KeyFn& key,
                   const SearchFn& search, std::vector<size_t>* counts) {
  struct Probe {
    double key;
    uint32_t g;
  };
  std::vector<Probe> probes;
  probes.reserve(means.size());
  for (uint32_t g = 0; g < means.size(); ++g) {
    probes.push_back({key(means[g]), g});
  }
  std::sort(probes.begin(), probes.end(), [](const Probe& a, const Probe& b) {
    return a.key != b.key ? a.key < b.key : a.g < b.g;
  });
  std::vector<size_t> last_gram(counts->size(), static_cast<size_t>(-1));
  for (const Probe& p : probes) {
    search(means[p.g], [&](uint32_t id) {
      if (last_gram[id] != p.g) {
        last_gram[id] = p.g;
        ++(*counts)[id];
      }
    });
  }
}

}  // namespace

std::vector<size_t> QgramKnnSearcher::MatchCounts(
    const Trajectory& query, const KnnOptions& options) const {
  std::vector<size_t> counts(db_.size(), 0);
  const auto raw_2d = [this](const Trajectory& t) {
    return MeanValueQgrams(t, q_);
  };
  const auto raw_1d = [this](const Trajectory& t) {
    return MeanValueQgrams1D(t, q_, /*use_x=*/true);
  };
  switch (variant_) {
    case QgramVariant::kRtree2D:
      CountByProbes(
          *QueryMeans(query, options, feature_key_, raw_2d),
          [](const Point2& m) { return m.x; },
          [this](const Point2& m, const std::function<void(uint32_t)>& visit) {
            rtree_->SearchRange(Rect::Around(m, epsilon_), visit);
          },
          &counts);
      break;
    case QgramVariant::kBtree1D:
      CountByProbes(
          *QueryMeans(query, options, feature_key_, raw_1d),
          [](double m) { return m; },
          [this](double m, const std::function<void(uint32_t)>& visit) {
            btree_->SearchRange(m - epsilon_, m + epsilon_,
                                [&](double, uint32_t id) { visit(id); });
          },
          &counts);
      break;
    case QgramVariant::kMerge2D: {
      const auto means =
          QueryMeans(query, options, feature_key_, [&](const Trajectory& t) {
            std::vector<Point2> m = raw_2d(t);
            SortMeans(m);
            return m;
          });
      // A count reads only its own posting slice and writes only its own
      // element, so the ids shard over the pool.
      IntraQueryParallelFor(db_.size(), options, [&](size_t i) {
        counts[i] = means_->CountMatches2D(*means, epsilon_,
                                           static_cast<uint32_t>(i));
      });
      break;
    }
    case QgramVariant::kMerge1D: {
      const auto means =
          QueryMeans(query, options, feature_key_, [&](const Trajectory& t) {
            std::vector<double> m = raw_1d(t);
            std::sort(m.begin(), m.end());
            return m;
          });
      IntraQueryParallelFor(db_.size(), options, [&](size_t i) {
        counts[i] = means_->CountMatches1D(*means, epsilon_,
                                           static_cast<uint32_t>(i));
      });
      break;
    }
  }
  return counts;
}

namespace {

/// The Q-gram searchers' filter (Theorems 1 and 3): fewer matching grams
/// than max(|Q|, |S|) - q + 1 - threshold * q means EDR(Q, S) > threshold.
/// Nothing prunes before the threshold is finite.
auto CountFilter(const TrajectoryDataset& db, const Trajectory& query, int q,
                 const std::vector<size_t>& counts) {
  return [&db, &query, &counts, q](StageCounters& st, uint32_t id,
                                   double threshold) {
    if (std::isinf(threshold)) return false;
    const long th = QgramCountThreshold(query.size(), db[id].size(), q,
                                        static_cast<long>(threshold));
    if (static_cast<long>(counts[id]) >= th) return false;
    st.Bump(&StageCounters::qgram_pruned);
    return true;
  };
}

}  // namespace

KnnResult QgramKnnSearcher::Knn(const Trajectory& query, size_t k,
                                const KnnOptions& options) const {
  std::vector<size_t> counts;
  const auto count = [&] { counts = MatchCounts(query, options); };
  const auto refine = [&](RefineRequest<> req) {
    // Canonical visit order: descending count, ties by ascending id.
    const auto key = [&counts](uint32_t id) {
      return -static_cast<long>(counts[id]);
    };
    // Smallest Theorem-3 threshold any remaining trajectory can have:
    // lengths are at least |Q| inside max(|Q|, |S|). Counts only decrease
    // from here, so once the count falls below it, everything remaining is
    // pruned and the whole scan stops.
    const long query_len = static_cast<long>(query.size());
    const auto stop = [this, query_len](long key, double threshold) {
      if (std::isinf(threshold)) return false;
      const long universal_threshold =
          query_len - static_cast<long>(q_) + 1 -
          static_cast<long>(threshold) * static_cast<long>(q_);
      return -key < universal_threshold;
    };
    return FilterAndRefine(std::move(req), k, InKeyOrder{key, stop},
                           CountFilter(db_, query, q_, counts),
                           BoundedEdr(db_, query, epsilon_));
  };
  return RunWithPass(db_, query, k, options, "match_count", count, refine);
}

std::string QgramKnnSearcher::name() const {
  return std::string(QgramVariantName(variant_)) + "(q=" +
         std::to_string(q_) + ")";
}

KnnResult QgramKnnSearcher::Range(const Trajectory& query, int radius,
                                  size_t max_results) const {
  const auto start = std::chrono::steady_clock::now();
  const std::vector<size_t> counts = MatchCounts(query);
  return ScanRange(db_, query, start, radius, max_results, InDbOrder{},
                   CountFilter(db_, query, q_, counts),
                   BoundedEdr(db_, query, epsilon_));
}

}  // namespace edr
