#include "query/engine.h"

#include <tuple>

#include "query/scheduler.h"
#include "query/thread_pool.h"

namespace edr {

QueryEngine::QueryEngine(const TrajectoryDataset& db, double epsilon)
    : db_(db), epsilon_(epsilon) {}

std::vector<KnnResult> QueryEngine::KnnBatch(
    const NamedSearcher& searcher, const std::vector<Trajectory>& queries,
    size_t k, unsigned threads) const {
  SchedulerPolicy policy;
  policy.max_threads = threads;
  return RunScheduled(searcher, queries, k, policy);
}

std::vector<KnnResult> QueryEngine::KnnBatch(
    const NamedSearcher& searcher, const std::vector<Trajectory>& queries,
    size_t k, unsigned threads, ThreadPoolStats* pool_stats) const {
  const ThreadPoolStats before = ThreadPool::Global().Stats();
  SchedulerPolicy policy;
  policy.max_threads = threads;
  std::vector<KnnResult> results = RunScheduled(searcher, queries, k, policy);
  if (pool_stats != nullptr) {
    *pool_stats = ThreadPool::Global().Stats().Since(before);
  }
  return results;
}

KnnResult QueryEngine::SeqScan(const Trajectory& query, size_t k,
                               bool early_abandon) const {
  SeqScanOptions options;
  options.early_abandon = early_abandon;
  return SequentialScanKnn(db_, query, k, epsilon_, options);
}

const QgramKnnSearcher& QueryEngine::Qgram(QgramVariant variant, int q) {
  const auto key = std::make_pair(static_cast<int>(variant), q);
  auto it = qgrams_.find(key);
  if (it == qgrams_.end()) {
    it = qgrams_
             .emplace(key, std::make_unique<QgramKnnSearcher>(db_, epsilon_,
                                                              q, variant))
             .first;
  }
  return *it->second;
}

const HistogramKnnSearcher& QueryEngine::Histogram(HistogramTable::Kind kind,
                                                   int delta,
                                                   HistogramScan scan) {
  const auto key =
      std::make_tuple(static_cast<int>(kind), delta, static_cast<int>(scan));
  auto it = histograms_.find(key);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(key, std::make_unique<HistogramKnnSearcher>(
                               db_, epsilon_, kind, delta, scan))
             .first;
  }
  return *it->second;
}

const PairwiseEdrMatrix& QueryEngine::Matrix(size_t max_triangle) {
  auto it = matrices_.find(max_triangle);
  if (it == matrices_.end()) {
    // The offline preprocessing step; parallel build, identical output.
    it = matrices_
             .emplace(max_triangle,
                      std::make_unique<PairwiseEdrMatrix>(
                          PairwiseEdrMatrix::BuildParallel(db_, epsilon_,
                                                           max_triangle)))
             .first;
  }
  return *it->second;
}

const NearTriangleSearcher& QueryEngine::NearTriangle(size_t max_triangle) {
  auto it = near_triangles_.find(max_triangle);
  if (it == near_triangles_.end()) {
    it = near_triangles_
             .emplace(max_triangle,
                      std::make_unique<NearTriangleSearcher>(
                          db_, epsilon_, Matrix(max_triangle)))
             .first;
  }
  return *it->second;
}

const CseSearcher& QueryEngine::Cse(size_t max_triangle) {
  auto it = cses_.find(max_triangle);
  if (it == cses_.end()) {
    it = cses_
             .emplace(max_triangle, std::make_unique<CseSearcher>(
                                        db_, epsilon_, Matrix(max_triangle)))
             .first;
  }
  return *it->second;
}

const CombinedKnnSearcher& QueryEngine::Combined(
    const CombinedOptions& options) {
  // Key on the full configuration via the display name plus parameters
  // that do not appear in it.
  std::string key;
  key += options.histogram_kind == HistogramTable::Kind::k2D ? '2' : '1';
  for (const PruneStep step : options.order) key += PruneStepCode(step);
  key += "/d" + std::to_string(options.histogram_delta);
  key += "/q" + std::to_string(options.q);
  key += options.sorted_histogram_scan ? "/sorted" : "/seq";
  auto it = combined_.find(key);
  if (it == combined_.end()) {
    it = combined_
             .emplace(key, std::make_unique<CombinedKnnSearcher>(
                               db_, epsilon_, options))
             .first;
  }
  return *it->second;
}

const LcssKnnSearcher& QueryEngine::Lcss(LcssFilter filter) {
  const int key = static_cast<int>(filter);
  auto it = lcss_.find(key);
  if (it == lcss_.end()) {
    it = lcss_
             .emplace(key, std::make_unique<LcssKnnSearcher>(db_, epsilon_,
                                                             filter))
             .first;
  }
  return *it->second;
}

namespace {

/// The bound Make*-time options overlaid with what the scheduler grants
/// per call: the budget always comes from the call, the pool and cache
/// only when the scheduler actually has one (so a handle bound to a
/// dedicated pool keeps it under a default-pool scheduler).
KnnOptions MergeScheduled(const KnnOptions& bound,
                          const KnnOptions& per_call) {
  KnnOptions merged = bound;
  merged.intra_query_workers = per_call.intra_query_workers;
  if (per_call.pool != nullptr) merged.pool = per_call.pool;
  if (per_call.feature_cache != nullptr) {
    merged.feature_cache = per_call.feature_cache;
  }
  return merged;
}

/// Builds the NamedSearcher pair of entry points over any searcher with a
/// Knn(query, k, options) method.
template <typename Searcher>
NamedSearcher MakeNamed(const Searcher& searcher,
                        const KnnOptions& options) {
  NamedSearcher named;
  named.name = searcher.name();
  named.search = [&searcher, options](const Trajectory& q, size_t k) {
    return searcher.Knn(q, k, options);
  };
  named.search_with = [&searcher, options](const Trajectory& q, size_t k,
                                           const KnnOptions& per_call) {
    return searcher.Knn(q, k, MergeScheduled(options, per_call));
  };
  return named;
}

}  // namespace

NamedSearcher QueryEngine::MakeSeqScan(bool early_abandon) const {
  NamedSearcher named;
  named.name = early_abandon ? "SeqScan-EA" : "SeqScan";
  named.search = [this, early_abandon](const Trajectory& q, size_t k) {
    return SeqScan(q, k, early_abandon);
  };
  // The scan has no filter features and no intra-query sharding; the
  // budget-aware overload exists so the scheduler can treat every handle
  // uniformly, and simply ignores the grant.
  named.search_with = [this, early_abandon](const Trajectory& q, size_t k,
                                            const KnnOptions&) {
    return SeqScan(q, k, early_abandon);
  };
  return named;
}

NamedSearcher QueryEngine::MakeQgram(QgramVariant variant, int q,
                                     const KnnOptions& options) {
  return MakeNamed(Qgram(variant, q), options);
}

NamedSearcher QueryEngine::MakeHistogram(HistogramTable::Kind kind, int delta,
                                         HistogramScan scan,
                                         const KnnOptions& options) {
  return MakeNamed(Histogram(kind, delta, scan), options);
}

NamedSearcher QueryEngine::MakeNearTriangle(size_t max_triangle,
                                            const KnnOptions& options) {
  return MakeNamed(NearTriangle(max_triangle), options);
}

NamedSearcher QueryEngine::MakeCse(size_t max_triangle,
                                   const KnnOptions& options) {
  return MakeNamed(Cse(max_triangle), options);
}

NamedSearcher QueryEngine::MakeCombined(const CombinedOptions& options,
                                        const KnnOptions& knn_options) {
  return MakeNamed(Combined(options), knn_options);
}

NamedSearcher QueryEngine::MakeLcss(LcssFilter filter,
                                    const KnnOptions& options) {
  return MakeNamed(Lcss(filter), options);
}

}  // namespace edr
