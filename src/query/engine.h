#ifndef EDR_QUERY_ENGINE_H_
#define EDR_QUERY_ENGINE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/dataset.h"
#include "pruning/combined.h"
#include "pruning/cse.h"
#include "pruning/histogram_knn.h"
#include "pruning/lcss_knn.h"
#include "pruning/near_triangle.h"
#include "pruning/qgram_knn.h"
#include "query/knn.h"

namespace edr {

struct ThreadPoolStats;

/// A type-erased k-NN searcher with a display name, the unit the
/// benchmark harness sweeps over.
struct NamedSearcher {
  std::string name;
  std::function<KnnResult(const Trajectory&, size_t)> search;
  /// Budget-aware entry point used by the adaptive scheduler: the KnnOptions
  /// carry the per-call worker budget, pool, and feature cache, which are
  /// merged over the options bound at Make* time (a null per-call pool keeps
  /// the bound one). Optional — searchers without it (or handles built
  /// before this field existed) fall back to `search`, which simply ignores
  /// the budget. Results are identical either way.
  std::function<KnnResult(const Trajectory&, size_t, const KnnOptions&)>
      search_with;
  /// Semantic configuration key for fused multi-query sweeps. Non-empty iff
  /// the searcher can answer a group of queries with one database pass
  /// (`search_fused`); queries going through handles with equal keys see
  /// the same filter structures and may be fused into one sweep. Empty only
  /// for searchers with no whole-database filter pass at all (sequential
  /// scan) — the tree-probing Q-gram variants fuse too, via per-member
  /// probe state that keeps the shared tree's range probes re-entrant.
  std::string fusion_key;
  /// Fused batch entry point: answers all queries of one fusion group with
  /// a single cache-blocked pass over the filter tables. `results[i]` is
  /// bit-identical to `search_with(*queries[i], k, options)` — fusion is a
  /// pure throughput knob. Set iff `fusion_key` is non-empty.
  std::function<std::vector<KnnResult>(
      const std::vector<const Trajectory*>&, size_t, const KnnOptions&)>
      search_fused;
  /// Cheap 64-bit query-feature signature (occupied-bin / gram-posting
  /// bitmask) for the scheduler's similarity-aware fusion grouper. Queries
  /// with overlapping signatures share filter-table regions, so grouping
  /// them raises the fused sweep's shared-bin fraction. Optional and purely
  /// advisory: the signature influences which queries share a sweep, never
  /// any bound or answer. Null for searchers without a fingerprint hook,
  /// which fall back to FIFO grouping.
  std::function<uint64_t(const Trajectory&)> fingerprint;
};

/// Facade over every retrieval method in the library for one dataset and
/// matching threshold. Pruning structures (indexes, histogram tables,
/// pairwise-matrix columns) are built on first use and cached, so a
/// benchmark sweeping many methods pays each build cost once. Build times
/// are offline preprocessing and excluded from query-time stats, matching
/// the paper's measurement protocol.
///
/// The engine borrows the dataset; it must outlive the engine, and must
/// not be mutated while the engine exists.
class QueryEngine {
 public:
  QueryEngine(const TrajectoryDataset& db, double epsilon);

  const TrajectoryDataset& db() const { return db_; }
  double epsilon() const { return epsilon_; }

  /// Sequential scan baseline (optionally with early-abandoning DP).
  KnnResult SeqScan(const Trajectory& query, size_t k,
                    bool early_abandon = false) const;

  /// Answers a batch of k-NN queries with `searcher` through the adaptive
  /// scheduler (query/scheduler.h): a deep backlog shards queries across
  /// the pool one-per-worker, and the final stragglers widen their
  /// intra-query fan-out so the pool never idles at the tail. At most
  /// `threads` threads total (0 = hardware concurrency; 1 = fully
  /// sequential on the caller). Results come back in query order and are
  /// bit-identical to calling `searcher.search` sequentially — the batch
  /// is a pure throughput knob. A single-query batch is the degenerate
  /// schedule: one query granted the whole budget, so it honors
  /// intra-query parallelism instead of silently running serial.
  std::vector<KnnResult> KnnBatch(const NamedSearcher& searcher,
                                  const std::vector<Trajectory>& queries,
                                  size_t k, unsigned threads = 0) const;

  /// As above, and additionally reports what the batch cost the shared
  /// pool: `*pool_stats` receives the delta of ThreadPool::Global()'s
  /// cumulative counters across the batch (jobs, items, steals, per-worker
  /// busy time). All-zero in EDR_DISABLE_OBS builds. The delta is exact
  /// when no other thread drives the pool concurrently.
  std::vector<KnnResult> KnnBatch(const NamedSearcher& searcher,
                                  const std::vector<Trajectory>& queries,
                                  size_t k, unsigned threads,
                                  ThreadPoolStats* pool_stats) const;

  /// Mean-value Q-gram searcher (Section 4.1), cached per (variant, q).
  const QgramKnnSearcher& Qgram(QgramVariant variant, int q);

  /// Histogram searcher (Section 4.3), cached per (kind, delta, scan).
  const HistogramKnnSearcher& Histogram(HistogramTable::Kind kind, int delta,
                                        HistogramScan scan);

  /// Near-triangle searcher (Section 4.2), cached per reference budget.
  const NearTriangleSearcher& NearTriangle(size_t max_triangle = 400);

  /// Constant-shift-embedding ablation searcher (Section 4.2).
  const CseSearcher& Cse(size_t max_triangle = 400);

  /// Combined searcher (Section 4.4), cached per configuration.
  const CombinedKnnSearcher& Combined(const CombinedOptions& options);

  /// LCSS searcher (the paper's "details omitted" transfer of the pruning
  /// techniques to LCSS), cached per filter.
  const LcssKnnSearcher& Lcss(LcssFilter filter);

  /// Convenience wrappers producing NamedSearcher handles. The bound
  /// `options` configure intra-query parallelism for every call made
  /// through the handle; the default is the sequential single-worker path.
  NamedSearcher MakeSeqScan(bool early_abandon = false) const;
  NamedSearcher MakeQgram(QgramVariant variant, int q,
                          const KnnOptions& options = {});
  NamedSearcher MakeHistogram(HistogramTable::Kind kind, int delta,
                              HistogramScan scan,
                              const KnnOptions& options = {});
  NamedSearcher MakeNearTriangle(size_t max_triangle = 400,
                                 const KnnOptions& options = {});
  NamedSearcher MakeCse(size_t max_triangle = 400,
                        const KnnOptions& options = {});
  NamedSearcher MakeCombined(const CombinedOptions& options,
                             const KnnOptions& knn_options = {});
  NamedSearcher MakeLcss(LcssFilter filter, const KnnOptions& options = {});

 private:
  /// Reference-column matrix shared by the NTR and CSE searchers.
  const PairwiseEdrMatrix& Matrix(size_t max_triangle);

  const TrajectoryDataset& db_;
  double epsilon_;

  std::map<std::pair<int, int>, std::unique_ptr<QgramKnnSearcher>> qgrams_;
  std::map<std::tuple<int, int, int>, std::unique_ptr<HistogramKnnSearcher>>
      histograms_;
  std::map<size_t, std::unique_ptr<PairwiseEdrMatrix>> matrices_;
  std::map<size_t, std::unique_ptr<NearTriangleSearcher>> near_triangles_;
  std::map<size_t, std::unique_ptr<CseSearcher>> cses_;
  std::map<std::string, std::unique_ptr<CombinedKnnSearcher>> combined_;
  std::map<int, std::unique_ptr<LcssKnnSearcher>> lcss_;
};

}  // namespace edr

#endif  // EDR_QUERY_ENGINE_H_
