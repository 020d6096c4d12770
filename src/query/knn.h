#ifndef EDR_QUERY_KNN_H_
#define EDR_QUERY_KNN_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/dataset.h"
#include "core/trajectory.h"
#include "obs/stage_counters.h"

namespace edr {

class ThreadPool;
class QueryTrace;
class FeatureCache;

/// Execution options accepted by every searcher's three-argument Knn
/// overload. The default (one worker) is the fully sequential path; any
/// other setting shards the query's filter sweep and refinement pass
/// across the thread pool. Results are bit-identical (ids, distances,
/// order) for every worker count — parallelism is a pure latency knob.
struct KnnOptions {
  /// Participants in the intra-query filter/refine passes, including the
  /// calling thread. 1 = sequential; 0 = the whole pool plus the caller.
  unsigned intra_query_workers = 1;
  /// Pool to shard over; nullptr = ThreadPool::Global(). Tests and benches
  /// pass a dedicated pool so worker counts are exact regardless of the
  /// machine's core count.
  ThreadPool* pool = nullptr;
  /// Optional memo of per-query filter features (query histograms, Q-gram
  /// mean vectors) shared across calls and searchers; nullptr = build the
  /// features fresh every call. Cached features are bit-identical to
  /// freshly built ones, so attaching a cache never changes results.
  FeatureCache* feature_cache = nullptr;
};

/// One k-NN answer: a dataset trajectory id and its EDR distance to the
/// query.
struct Neighbor {
  uint32_t id = 0;
  double distance = 0.0;

  friend bool operator==(const Neighbor& a, const Neighbor& b) {
    return a.id == b.id && a.distance == b.distance;
  }
};

/// Per-query bookkeeping used for the paper's two efficiency metrics
/// (Section 5): *pruning power* — the fraction of database trajectories
/// whose true EDR distance was never computed — and *speedup ratio* —
/// sequential-scan time over method time (computed by the harness from
/// `elapsed_seconds`).
struct SearchStats {
  size_t db_size = 0;
  /// Number of true EDR computations performed (including the k used to
  /// seed the result list).
  size_t edr_computed = 0;
  /// Wall-clock time spent answering the query, including filter work.
  double elapsed_seconds = 0.0;
  /// Per-phase split of elapsed_seconds: the filter phase (lower-bound
  /// sweeps, match counting, candidate ordering, per-candidate filter
  /// checks) versus the refinement phase (true distance computations).
  /// One rule for every searcher (the filter-and-refine driver in
  /// query/intra_query.h): with observability compiled in, refine is the
  /// distance time summed over the worker slots, clamped to the elapsed
  /// time, and filter is the rest. In EDR_DISABLE_OBS builds no clock is
  /// read per candidate: filter is the up-front pass (zero for NTR / CSE,
  /// which have none) and refine the rest. The sequential-scan baselines
  /// report all of their time as refine.
  double filter_seconds = 0.0;
  double refine_seconds = 0.0;

  /// Stage-by-stage decomposition of the pruning: which filter removed
  /// each candidate, how many DPs ran and how many early-abandoned.
  /// Recorded only when observability is compiled in (zeros otherwise);
  /// satisfies StageCounters::Conserves(db_size) for every schedule.
  StageCounters stages;

  /// Fraction of trajectories pruned without a true distance computation.
  double PruningPower() const {
    if (db_size == 0) return 0.0;
    return 1.0 - static_cast<double>(edr_computed) /
                     static_cast<double>(db_size);
  }
};

/// The result of a k-NN query: at most k neighbors in ascending distance
/// order, plus the measurement stats.
struct KnnResult {
  std::vector<Neighbor> neighbors;
  SearchStats stats;
  /// The per-query phase tree (bound sweep, ordering, per-worker refine
  /// shards, DP aggregates); null in EDR_DISABLE_OBS builds. Export with
  /// trace->ToJson().
  std::shared_ptr<const QueryTrace> trace;
};

/// Folds one finished query into the process-wide MetricsRegistry
/// (query count + latency histogram, DP and pruning counters). Called by
/// every searcher at the end of Knn; compiles to nothing when
/// observability is disabled.
void RecordQueryMetrics(const SearchStats& stats);

/// Sends one completed query to FlightRecorder::Global() with its schedule
/// context: the intra-query budget granted. A query that did not go
/// through the scheduler passes 0. The disabled-recorder path is one
/// relaxed load and builds no record; the call compiles to nothing under
/// EDR_DISABLE_OBS. Safe from pool workers; `result` is only copied from,
/// so publication cannot perturb answers.
void PublishFlight(const std::string& searcher, const KnnResult& result,
                   unsigned sched_budget);

/// A bounded list of the k nearest neighbors seen so far, kept sorted in
/// ascending distance. This is the paper's `result` array; `KthDistance()`
/// is its `bestSoFar = result[k].dist`.
class KnnResultList {
 public:
  explicit KnnResultList(size_t k) : k_(k) {}

  /// Offers a candidate; it is kept iff fewer than k neighbors are stored
  /// or its distance beats the current k-th distance.
  void Offer(uint32_t id, double distance);

  /// The current k-th nearest distance, or +infinity while fewer than k
  /// neighbors are stored. A candidate with a (lower-bound) distance
  /// strictly greater than this value can be pruned. For k = 0 the list
  /// can never improve, so the pruning threshold is -infinity.
  double KthDistance() const {
    if (k_ == 0) return -std::numeric_limits<double>::infinity();
    if (neighbors_.size() < k_) return std::numeric_limits<double>::infinity();
    return neighbors_.back().distance;
  }

  size_t size() const { return neighbors_.size(); }
  const std::vector<Neighbor>& neighbors() const { return neighbors_; }
  std::vector<Neighbor> TakeNeighbors() && { return std::move(neighbors_); }

 private:
  size_t k_;
  std::vector<Neighbor> neighbors_;
};

/// Options for the sequential-scan baseline.
struct SeqScanOptions {
  /// When true, uses the early-abandoning DP (EdrDistanceBounded) with the
  /// running k-th distance as the bound. The paper's baseline computes the
  /// full DP; early abandon is an ablation knob.
  bool early_abandon = false;
};

/// The sequential-scan baseline: computes EDR(query, S) for every S in the
/// database and returns the k nearest. Every trajectory counts as one true
/// distance computation.
KnnResult SequentialScanKnn(const TrajectoryDataset& db,
                            const Trajectory& query, size_t k, double epsilon,
                            const SeqScanOptions& options = {});

/// Sequential-scan range query: every trajectory S with
/// EDR(query, S) <= radius, in ascending distance order. This is the
/// query form the Q-gram filter (Theorem 1) was originally designed for;
/// the k-NN algorithms of Section 4 generalize it.
KnnResult SequentialScanRange(const TrajectoryDataset& db,
                              const Trajectory& query, int radius,
                              double epsilon);

/// True iff `actual` contains no false dismissals relative to `expected`
/// (the sequential-scan ground truth): the sorted distance lists must be
/// identical. Ids may differ when distances tie. Used by tests and the
/// harness to certify every pruning method lossless.
bool SameKnnDistances(const KnnResult& expected, const KnnResult& actual);

}  // namespace edr

#endif  // EDR_QUERY_KNN_H_
