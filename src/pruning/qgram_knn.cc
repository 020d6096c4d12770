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

/// Each member's Q-gram mean vector, through the feature cache under `key`.
template <typename Build>
auto MemberMeans(const std::vector<const Trajectory*>& queries,
                 const KnnOptions& options, const std::string& key,
                 const Build& build) {
  using Means = std::invoke_result_t<const Build&, const Trajectory&>;
  std::vector<std::shared_ptr<const Means>> means(queries.size());
  for (size_t f = 0; f < queries.size(); ++f) {
    means[f] = GetOrBuildFeature<Means>(options.feature_cache, key,
                                        *queries[f],
                                        [&] { return build(*queries[f]); });
  }
  return means;
}

/// The tree variants' count: the whole group's grams probe the shared
/// read-only index in one pass, sorted by probe coordinate so neighbouring
/// probes descend warm tree paths. `search(mean, visit)` visits the id of
/// every indexed gram within epsilon of `mean`. A gram counts a trajectory
/// at most once (a gram of Q either matches some gram of S or it does
/// not), against its own member's last-gram array. Each (member, gram) is
/// probed exactly once, so no count depends on the probe order.
template <typename Mean, typename KeyFn, typename SearchFn>
void CountByProbes(const std::vector<std::shared_ptr<const std::vector<Mean>>>&
                       means,
                   size_t n, const KeyFn& key, const SearchFn& search,
                   std::vector<std::vector<size_t>>* counts) {
  struct Probe {
    double key;
    uint32_t f;
    uint32_t g;
  };
  std::vector<Probe> probes;
  for (uint32_t f = 0; f < means.size(); ++f) {
    for (uint32_t g = 0; g < means[f]->size(); ++g) {
      probes.push_back({key((*means[f])[g]), f, g});
    }
  }
  std::sort(probes.begin(), probes.end(), [](const Probe& a, const Probe& b) {
    if (a.key != b.key) return a.key < b.key;
    return a.f != b.f ? a.f < b.f : a.g < b.g;
  });
  std::vector<std::vector<size_t>> last_gram(
      means.size(), std::vector<size_t>(n, static_cast<size_t>(-1)));
  for (const Probe& p : probes) {
    std::vector<size_t>& lg = last_gram[p.f];
    std::vector<size_t>& cnt = (*counts)[p.f];
    search((*means[p.f])[p.g], [&](uint32_t id) {
      if (lg[id] != p.g) {
        lg[id] = p.g;
        ++cnt[id];
      }
    });
  }
}

}  // namespace

std::vector<std::vector<size_t>> QgramKnnSearcher::MatchCounts(
    const std::vector<const Trajectory*>& queries,
    const KnnOptions& options) const {
  const size_t group = queries.size();
  std::vector<std::vector<size_t>> counts(
      group, std::vector<size_t>(db_.size(), 0));
  const auto raw_2d = [this](const Trajectory& t) {
    return MeanValueQgrams(t, q_);
  };
  const auto raw_1d = [this](const Trajectory& t) {
    return MeanValueQgrams1D(t, q_, /*use_x=*/true);
  };
  switch (variant_) {
    case QgramVariant::kRtree2D:
      CountByProbes(
          MemberMeans(queries, options, feature_key_, raw_2d), db_.size(),
          [](const Point2& m) { return m.x; },
          [this](const Point2& m, const std::function<void(uint32_t)>& visit) {
            rtree_->SearchRange(Rect::Around(m, epsilon_), visit);
          },
          &counts);
      break;
    case QgramVariant::kBtree1D:
      CountByProbes(
          MemberMeans(queries, options, feature_key_, raw_1d), db_.size(),
          [](double m) { return m; },
          [this](double m, const std::function<void(uint32_t)>& visit) {
            btree_->SearchRange(m - epsilon_, m + epsilon_,
                                [&](double, uint32_t id) { visit(id); });
          },
          &counts);
      break;
    case QgramVariant::kMerge2D: {
      const auto means =
          MemberMeans(queries, options, feature_key_, [&](const Trajectory& t) {
            std::vector<Point2> m = raw_2d(t);
            SortMeans(m);
            return m;
          });
      // Id-major: each trajectory's posting slice is merge-counted against
      // every member while it is cache-hot. A count reads only its own
      // slice and writes only its own element, so the ids shard over the
      // pool.
      IntraQueryParallelFor(db_.size(), options, [&](size_t i) {
        for (size_t f = 0; f < group; ++f) {
          counts[f][i] = means_->CountMatches2D(*means[f], epsilon_,
                                                static_cast<uint32_t>(i));
        }
      });
      break;
    }
    case QgramVariant::kMerge1D: {
      const auto means =
          MemberMeans(queries, options, feature_key_, [&](const Trajectory& t) {
            std::vector<double> m = raw_1d(t);
            std::sort(m.begin(), m.end());
            return m;
          });
      IntraQueryParallelFor(db_.size(), options, [&](size_t i) {
        for (size_t f = 0; f < group; ++f) {
          counts[f][i] = means_->CountMatches1D(*means[f], epsilon_,
                                                static_cast<uint32_t>(i));
        }
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
  return std::move(KnnFused({&query}, k, options)[0]);
}

std::vector<KnnResult> QgramKnnSearcher::KnnFused(
    const std::vector<const Trajectory*>& queries, size_t k,
    const KnnOptions& options) const {
  std::vector<std::vector<size_t>> counts;
  const auto count = [&] { counts = MatchCounts(queries, options); };
  const auto refine = [&](size_t f, RefineRequest<> req) {
    const Trajectory& query = *queries[f];
    const std::vector<size_t>& c = counts[f];
    // Canonical visit order: descending count, ties by ascending id.
    const auto key = [&c](uint32_t id) { return -static_cast<long>(c[id]); };
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
                           CountFilter(db_, query, q_, c),
                           BoundedEdr(db_, query, epsilon_));
  };
  return RunFusionGroup(db_, queries, k, options, "match_count", count,
                        refine);
}

std::string QgramKnnSearcher::name() const {
  return std::string(QgramVariantName(variant_)) + "(q=" +
         std::to_string(q_) + ")";
}

uint64_t QgramKnnSearcher::FusionFingerprint(const Trajectory& query) const {
  // splitmix64-style finalizer; the top six bits pick the mask bit.
  const auto mix_bit = [](uint64_t v) -> uint64_t {
    v *= 0x9e3779b97f4a7c15ull;
    v ^= v >> 29;
    v *= 0xbf58476d1ce4e5b9ull;
    return 1ull << (v >> 58);
  };
  const double cell = epsilon_ > 0.0 ? epsilon_ : 1.0;
  const auto quantize = [cell](double v) -> uint64_t {
    return static_cast<uint64_t>(
        static_cast<int64_t>(std::floor(v / cell)));
  };
  uint64_t sig = 0;
  if (variant_ == QgramVariant::kRtree2D ||
      variant_ == QgramVariant::kMerge2D) {
    for (const Point2& m : MeanValueQgrams(query, q_)) {
      sig |= mix_bit(quantize(m.x) * 0x100000001b3ull + quantize(m.y));
    }
  } else {
    for (const double m : MeanValueQgrams1D(query, q_, /*use_x=*/true)) {
      sig |= mix_bit(quantize(m));
    }
  }
  return sig;
}

KnnResult QgramKnnSearcher::Range(const Trajectory& query, int radius,
                                  size_t max_results) const {
  const auto start = std::chrono::steady_clock::now();
  const std::vector<size_t> counts = std::move(MatchCounts({&query})[0]);
  return ScanRange(db_, query, start, radius, max_results, InDbOrder{},
                   CountFilter(db_, query, q_, counts),
                   BoundedEdr(db_, query, epsilon_));
}

}  // namespace edr
