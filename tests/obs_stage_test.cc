#include "obs/stage_counters.h"

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/rng.h"
#include "obs/json.h"
#include "obs/obs.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "pruning/combined.h"
#include "pruning/cse.h"
#include "pruning/histogram_knn.h"
#include "pruning/lcss_knn.h"
#include "pruning/near_triangle.h"
#include "pruning/pruning3.h"
#include "pruning/qgram_knn.h"
#include "query/engine.h"
#include "query/knn.h"
#include "query/thread_pool.h"
#include "test_util.h"

namespace edr {
namespace {

constexpr double kEps = 0.25;
constexpr size_t kDbSize = 300;
constexpr size_t kMaxTriangle = 20;

const TrajectoryDataset& Db() {
  static const TrajectoryDataset db =
      testutil::SmallDataset(515, kDbSize, 6, 40);
  return db;
}

ThreadPool& Pool() {
  static ThreadPool pool(4);
  return pool;
}

const PairwiseEdrMatrix& Matrix() {
  static const PairwiseEdrMatrix matrix =
      PairwiseEdrMatrix::Build(Db(), kEps, kMaxTriangle);
  return matrix;
}

// The conservation law every searcher must satisfy for every schedule:
// each visited candidate lands in exactly one bucket, and the visited +
// never-visited candidates cover the database.
void ExpectStagesConserve(const std::string& label, const KnnResult& result) {
  const StageCounters& s = result.stats.stages;
  if constexpr (kObsEnabled) {
    EXPECT_TRUE(s.Conserves(result.stats.db_size))
        << label << ": considered=" << s.considered
        << " qgram=" << s.qgram_pruned << " hist=" << s.histogram_pruned
        << " tri=" << s.triangle_pruned << " dp=" << s.dp_invoked
        << " not_visited=" << s.not_visited
        << " db_size=" << result.stats.db_size;
    // The stage decomposition must agree with the legacy scalar counter
    // the pruning-power metric is computed from.
    EXPECT_EQ(s.dp_invoked, result.stats.edr_computed) << label;
    EXPECT_LE(s.dp_early_abandoned, s.dp_invoked) << label;
    if (s.dp_invoked > 0) {
      EXPECT_GT(s.dp_cells, 0u) << label;
    }
    EXPECT_TRUE(JsonIsValid(s.ToJson())) << label << ": " << s.ToJson();
  } else {
    EXPECT_EQ(s.considered, 0u) << label;
    EXPECT_EQ(s.dp_invoked, 0u) << label;
    EXPECT_EQ(s.dp_cells, 0u) << label;
    EXPECT_EQ(result.trace, nullptr) << label;
  }
}

using KnnFn =
    std::function<KnnResult(const Trajectory&, size_t, const KnnOptions&)>;

// Runs one searcher at 1 and 4 workers and checks conservation plus the
// per-query trace for both schedules.
void ExpectConservationAcrossWorkers(const std::string& label,
                                     const KnnFn& knn) {
  const auto queries = testutil::MakeQueries(Db(), 516, 2);
  for (const Trajectory& query : queries) {
    for (const unsigned workers : {1u, 4u}) {
      KnnOptions options;
      options.intra_query_workers = workers;
      options.pool = &Pool();
      const KnnResult result = knn(query, 10, options);
      ExpectStagesConserve(label + " workers=" + std::to_string(workers),
                           result);
      if constexpr (kObsEnabled) {
        ASSERT_NE(result.trace, nullptr) << label;
        EXPECT_GT(result.trace->size(), 0u) << label;
        EXPECT_TRUE(JsonIsValid(result.trace->ToJson())) << label;
      }
    }
  }
}

TEST(ObsStageTest, SeqScanConserves) {
  const auto queries = testutil::MakeQueries(Db(), 517, 2);
  for (const bool early_abandon : {false, true}) {
    SeqScanOptions options;
    options.early_abandon = early_abandon;
    const KnnResult r = SequentialScanKnn(Db(), queries[0], 10, kEps, options);
    ExpectStagesConserve("SeqScan", r);
    if constexpr (kObsEnabled) {
      // The baseline visits and verifies everything.
      EXPECT_EQ(r.stats.stages.considered, Db().size());
      EXPECT_EQ(r.stats.stages.dp_invoked, Db().size());
      EXPECT_EQ(r.stats.stages.not_visited, 0u);
      if (!early_abandon) {
        EXPECT_EQ(r.stats.stages.dp_early_abandoned, 0u);
      }
      ASSERT_NE(r.trace, nullptr);
      EXPECT_GT(r.trace->PhaseSeconds("scan"), 0.0);
    }
  }
}

TEST(ObsStageTest, SeqScanRangeConserves) {
  const auto queries = testutil::MakeQueries(Db(), 518, 1);
  ExpectStagesConserve("SeqScanRange",
                       SequentialScanRange(Db(), queries[0], 15, kEps));
}

TEST(ObsStageTest, QgramConserves) {
  const QgramKnnSearcher ps2(Db(), kEps, /*q=*/1, QgramVariant::kMerge2D);
  ExpectConservationAcrossWorkers(
      "PS2", [&](const Trajectory& q, size_t k, const KnnOptions& o) {
        return ps2.Knn(q, k, o);
      });
  if constexpr (kObsEnabled) {
    // The Q-gram searcher prunes via the match-count bucket only.
    const auto queries = testutil::MakeQueries(Db(), 519, 1);
    const KnnResult r = ps2.Knn(queries[0], 10);
    EXPECT_EQ(r.stats.stages.histogram_pruned, 0u);
    EXPECT_EQ(r.stats.stages.triangle_pruned, 0u);
  }
}

TEST(ObsStageTest, HistogramConserves) {
  const HistogramKnnSearcher hse(Db(), kEps, HistogramTable::Kind::k2D, 1,
                                 HistogramScan::kSequential);
  ExpectConservationAcrossWorkers(
      "HSE", [&](const Trajectory& q, size_t k, const KnnOptions& o) {
        return hse.Knn(q, k, o);
      });
  const HistogramKnnSearcher hsr(Db(), kEps, HistogramTable::Kind::k2D, 1,
                                 HistogramScan::kSorted);
  ExpectConservationAcrossWorkers(
      "HSR", [&](const Trajectory& q, size_t k, const KnnOptions& o) {
        return hsr.Knn(q, k, o);
      });
}

TEST(ObsStageTest, NearTriangleConservesAndSplitsPhases) {
  const NearTriangleSearcher ntr(Db(), kEps, Matrix());
  ExpectConservationAcrossWorkers(
      "NTR", [&](const Trajectory& q, size_t k, const KnnOptions& o) {
        return ntr.Knn(q, k, o);
      });
  const auto queries = testutil::MakeQueries(Db(), 520, 1);
  const KnnResult r = ntr.Knn(queries[0], 10);
  // Satellite fix: the interleaved scan derives its filter/refine split
  // from the summed DP time instead of reporting filter = 0.
  EXPECT_GE(r.stats.filter_seconds, 0.0);
  EXPECT_GE(r.stats.refine_seconds, 0.0);
  EXPECT_NEAR(r.stats.filter_seconds + r.stats.refine_seconds,
              r.stats.elapsed_seconds, 1e-9);
  if constexpr (kObsEnabled) {
    EXPECT_GT(r.stats.refine_seconds, 0.0);
    ASSERT_NE(r.trace, nullptr);
    EXPECT_GT(r.trace->PhaseSeconds("dp"), 0.0);
  }
}

TEST(ObsStageTest, CseConservesAndSplitsPhases) {
  const CseSearcher cse(Db(), kEps, Matrix());
  ExpectConservationAcrossWorkers(
      "CSE", [&](const Trajectory& q, size_t k, const KnnOptions& o) {
        return cse.Knn(q, k, o);
      });
  const auto queries = testutil::MakeQueries(Db(), 521, 1);
  const KnnResult r = cse.Knn(queries[0], 10);
  EXPECT_NEAR(r.stats.filter_seconds + r.stats.refine_seconds,
              r.stats.elapsed_seconds, 1e-9);
}

TEST(ObsStageTest, CombinedConserves) {
  CombinedOptions combined_options;
  const CombinedKnnSearcher combined(Db(), kEps, combined_options);
  ExpectConservationAcrossWorkers(
      "2HP", [&](const Trajectory& q, size_t k, const KnnOptions& o) {
        return combined.Knn(q, k, o);
      });
}

TEST(ObsStageTest, LcssConserves) {
  const LcssKnnSearcher lcss(Db(), kEps, LcssFilter::kBoth);
  ExpectConservationAcrossWorkers(
      "LCSS-HP", [&](const Trajectory& q, size_t k, const KnnOptions& o) {
        return lcss.Knn(q, k, o);
      });
}

TEST(ObsStageTest, RangeQueriesConserve) {
  const HistogramKnnSearcher hsr(Db(), kEps, HistogramTable::Kind::k2D, 1,
                                 HistogramScan::kSorted);
  const NearTriangleSearcher ntr(Db(), kEps, Matrix());
  const auto queries = testutil::MakeQueries(Db(), 522, 2);
  for (const Trajectory& query : queries) {
    for (const int radius : {5, 15}) {
      ExpectStagesConserve("HSR.Range", hsr.Range(query, radius));
      ExpectStagesConserve("NTR.Range", ntr.Range(query, radius));
    }
  }
}

TEST(ObsStageTest, ZeroKConserves) {
  const QgramKnnSearcher ps2(Db(), kEps, /*q=*/1, QgramVariant::kMerge2D);
  const auto queries = testutil::MakeQueries(Db(), 523, 1);
  const KnnResult r = ps2.Knn(queries[0], 0);
  EXPECT_TRUE(r.neighbors.empty());
  if constexpr (kObsEnabled) {
    // k = 0 answers without visiting anyone; conservation still holds.
    EXPECT_TRUE(r.stats.stages.Conserves(r.stats.db_size));
    EXPECT_EQ(r.stats.stages.not_visited, Db().size());
  }
}

TEST(ObsStageTest, Knn3Conserves) {
  Rng rng(524);
  std::vector<Trajectory3> db3;
  for (size_t i = 0; i < 40; ++i) {
    Trajectory3 t;
    Point3 pos{rng.Gaussian(), rng.Gaussian(), rng.Gaussian()};
    const size_t len = static_cast<size_t>(rng.UniformInt(5, 30));
    for (size_t j = 0; j < len; ++j) {
      t.Append(pos);
      pos.x += rng.Gaussian(0.0, 0.4);
      pos.y += rng.Gaussian(0.0, 0.4);
      pos.z += rng.Gaussian(0.0, 0.4);
    }
    db3.push_back(std::move(t));
  }
  ExpectStagesConserve("SeqScan3",
                       SequentialScanKnn3(db3, db3[3], 5, kEps));
  const Knn3Searcher searcher(db3, kEps);
  const KnnResult r = searcher.Knn(db3[7], 5);
  ExpectStagesConserve("Knn3", r);
  if constexpr (kObsEnabled) {
    ASSERT_NE(r.trace, nullptr);
    EXPECT_GT(r.trace->size(), 0u);
  }
}

TEST(ObsStageTest, WorkerShardsFoldIntoQueryTotal) {
  // Sharding may shift candidates *between* buckets (the shared k-th
  // distance lags under parallelism, so a stale threshold prunes less and
  // verifies more), but it never loses a candidate: the db-order scan
  // visits everyone at every worker count and the conservation law holds
  // for every schedule. Results stay bit-identical regardless (checked in
  // intra_query_test); the counters honestly report the schedule that ran.
  const HistogramKnnSearcher hse(Db(), kEps, HistogramTable::Kind::k2D, 1,
                                 HistogramScan::kSequential);
  const auto queries = testutil::MakeQueries(Db(), 525, 2);
  for (const Trajectory& query : queries) {
    const KnnResult sequential = hse.Knn(query, 10);
    KnnOptions options;
    options.intra_query_workers = 4;
    options.pool = &Pool();
    const KnnResult parallel = hse.Knn(query, 10, options);
    if constexpr (kObsEnabled) {
      EXPECT_EQ(sequential.stats.stages.considered, Db().size());
      EXPECT_EQ(parallel.stats.stages.considered, Db().size());
      EXPECT_TRUE(parallel.stats.stages.Conserves(Db().size()));
      // The parallel run records one refine_worker span per slot.
      ASSERT_NE(parallel.trace, nullptr);
      size_t refine_workers = 0;
      for (const QueryTrace::Node& node : parallel.trace->nodes()) {
        if (std::string(node.name) == "refine_worker") ++refine_workers;
      }
      EXPECT_EQ(refine_workers, 4u);
    }
  }
}

TEST(ObsStageTest, StageCountersAddAndFinalize) {
  StageCounters a;
  a.Bump(&StageCounters::considered);
  a.Bump(&StageCounters::qgram_pruned);
  a.CountDp(10, 20);
  a.Bump(&StageCounters::considered);
  StageCounters b;
  b.Bump(&StageCounters::considered);
  b.Bump(&StageCounters::histogram_pruned);
  a.Add(b);
  a.FinalizeNotVisited(10);
  if constexpr (kObsEnabled) {
    EXPECT_EQ(a.considered, 3u);
    EXPECT_EQ(a.qgram_pruned, 1u);
    EXPECT_EQ(a.histogram_pruned, 1u);
    EXPECT_EQ(a.dp_invoked, 1u);
    EXPECT_EQ(a.dp_cells, 200u);
    EXPECT_EQ(a.not_visited, 7u);
    EXPECT_TRUE(a.Conserves(10));
    EXPECT_EQ(a.PrunedWithoutDp(), 9u);
  } else {
    EXPECT_EQ(a.considered, 0u);
    EXPECT_EQ(a.dp_cells, 0u);
  }
  EXPECT_TRUE(JsonIsValid(a.ToJson())) << a.ToJson();
}

TEST(ObsStageTest, CombinedSplitsPhasesAtTheDp) {
  CombinedOptions combined_options;
  const CombinedKnnSearcher combined(Db(), kEps, combined_options);
  const auto queries = testutil::MakeQueries(Db(), 527, 1);
  for (const unsigned workers : {1u, 4u}) {
    KnnOptions options;
    options.intra_query_workers = workers;
    options.pool = &Pool();
    const KnnResult r = combined.Knn(queries[0], 10, options);
    // Refine is the DP time summed over the worker slots (clamped to the
    // elapsed time); filter is the sweep plus the lazy Q-gram and triangle
    // checks, i.e. the rest.
    EXPECT_GE(r.stats.filter_seconds, 0.0);
    EXPECT_GE(r.stats.refine_seconds, 0.0);
    EXPECT_LE(r.stats.refine_seconds, r.stats.elapsed_seconds);
    EXPECT_NEAR(r.stats.filter_seconds + r.stats.refine_seconds,
                r.stats.elapsed_seconds, 1e-9);
    if constexpr (kObsEnabled) {
      ASSERT_NE(r.trace, nullptr);
      EXPECT_GT(r.stats.refine_seconds, 0.0);
      EXPECT_GT(r.trace->PhaseSeconds("dp"), 0.0);
    }
  }
}

TEST(ObsStageTest, EverySearcherReportsOneRefinePhase) {
  // Every searcher runs through one filter-and-refine driver, so every
  // trace has the same refinement phase: one "refine" span whose children
  // are the per-slot "refine_worker" spans, and one "dp" aggregate counting
  // the DPs. A sorted scan built up front also records building its
  // candidate order as one "order" span beside "refine"; a database-order
  // scan records none. The histogram-sorted scans (HSR, 2HP) build their
  // order while refining; on one worker they also sweep the blocks they
  // reach then, and record them as one "bound_sweep" aggregate under
  // "refine" (several workers shard the whole sweep up front). The phase
  // split covers the elapsed time in every build.
  const HistogramKnnSearcher hse(Db(), kEps, HistogramTable::Kind::k2D, 1,
                                 HistogramScan::kSequential);
  const HistogramKnnSearcher hsr(Db(), kEps, HistogramTable::Kind::k2D, 1,
                                 HistogramScan::kSorted);
  const QgramKnnSearcher ps2(Db(), kEps, /*q=*/1, QgramVariant::kMerge2D);
  const QgramKnnSearcher pr(Db(), kEps, /*q=*/1, QgramVariant::kRtree2D);
  const NearTriangleSearcher ntr(Db(), kEps, Matrix());
  const CseSearcher cse(Db(), kEps, Matrix());
  CombinedOptions combined_options;
  const CombinedKnnSearcher combined(Db(), kEps, combined_options);
  const LcssKnnSearcher lcss(Db(), kEps, LcssFilter::kBoth);
  const auto knn_of = [](const auto& searcher) -> KnnFn {
    return [&searcher](const Trajectory& q, size_t k, const KnnOptions& o) {
      return searcher.Knn(q, k, o);
    };
  };
  struct Case {
    std::string label;
    KnnFn knn;
    size_t orders;  ///< "order" spans: 1 for a sorted scan, else 0
    size_t sweeps;  ///< "bound_sweep" aggregates under "refine", 1 worker
  };
  const std::vector<Case> searchers = {
      {"HSE", knn_of(hse), 0, 0},        {"HSR", knn_of(hsr), 0, 1},
      {"PS2", knn_of(ps2), 1, 0},        {"PR", knn_of(pr), 1, 0},
      {"NTR", knn_of(ntr), 0, 0},        {"CSE", knn_of(cse), 0, 0},
      {"2HP", knn_of(combined), 0, 1},  {"LCSS-HP", knn_of(lcss), 1, 0},
  };
  const auto queries = testutil::MakeQueries(Db(), 528, 1);
  for (const auto& [label, knn, orders, sweeps] : searchers) {
    for (const unsigned workers : {1u, 4u}) {
      const std::string where = label + " workers=" + std::to_string(workers);
      KnnOptions options;
      options.intra_query_workers = workers;
      options.pool = &Pool();
      const KnnResult r = knn(queries[0], 10, options);
      EXPECT_GE(r.stats.filter_seconds, 0.0) << where;
      EXPECT_GE(r.stats.refine_seconds, 0.0) << where;
      EXPECT_NEAR(r.stats.filter_seconds + r.stats.refine_seconds,
                  r.stats.elapsed_seconds, 1e-9)
          << where;
      if constexpr (kObsEnabled) {
        ASSERT_NE(r.trace, nullptr) << where;
        const std::vector<QueryTrace::Node> nodes = r.trace->nodes();
        std::vector<int32_t> refines;
        for (size_t i = 0; i < nodes.size(); ++i) {
          if (std::string(nodes[i].name) == "refine") {
            refines.push_back(static_cast<int32_t>(i));
          }
        }
        ASSERT_EQ(refines.size(), 1u) << where;
        EXPECT_EQ(nodes[static_cast<size_t>(refines[0])].parent, -1)
            << where;
        size_t refine_workers = 0;
        size_t dps = 0;
        size_t order_spans = 0;
        size_t lazy_sweeps = 0;
        for (const QueryTrace::Node& node : nodes) {
          const std::string name = node.name;
          if (name == "refine_worker") {
            EXPECT_EQ(node.parent, refines[0]) << where;
            ++refine_workers;
          } else if (name == "dp") {
            EXPECT_EQ(node.count, r.stats.stages.dp_invoked) << where;
            ++dps;
          } else if (name == "order") {
            EXPECT_EQ(node.parent, -1) << where;
            ++order_spans;
          } else if (name == "bound_sweep" && node.parent == refines[0]) {
            // One count per 1024-row block swept; the table has one.
            EXPECT_EQ(node.count, 1u) << where;
            ++lazy_sweeps;
          }
        }
        EXPECT_EQ(refine_workers, workers) << where;
        EXPECT_EQ(dps, 1u) << where;
        EXPECT_EQ(order_spans, orders) << where;
        EXPECT_EQ(lazy_sweeps, workers == 1 ? sweeps : 0) << where;
      } else {
        EXPECT_EQ(r.trace, nullptr) << where;
      }
    }
  }
}

TEST(ObsStageTest, KnnBatchReportsPoolDelta) {
  QueryEngine engine(Db(), kEps);
  const NamedSearcher seq = engine.MakeSeqScan();
  // Twice the pool's capacity, so the scheduler's first step is a wave of
  // at least two queries on any host with workers. SeqScan ignores its
  // intra-query budget, so the waves are the only pool work of the batch:
  // one job per wave, one item per wave query.
  const size_t capacity = ThreadPool::Global().num_workers() + 1;
  const auto queries = testutil::MakeQueries(Db(), 526, 2 * capacity);
  ObsCounter& waves = MetricsRegistry::Global().Counter("sched.waves");
  ObsCounter& wave_queries =
      MetricsRegistry::Global().Counter("sched.wave_queries");
  const uint64_t waves_before = waves.Load();
  const uint64_t wave_queries_before = wave_queries.Load();
  ThreadPoolStats delta;
  const std::vector<KnnResult> batch =
      engine.KnnBatch(seq, queries, 5, /*threads=*/0, &delta);
  const uint64_t batch_waves = waves.Load() - waves_before;
  const uint64_t batch_wave_queries =
      wave_queries.Load() - wave_queries_before;
  ASSERT_EQ(batch.size(), queries.size());
  // The overload must not change the answers.
  const std::vector<KnnResult> plain = engine.KnnBatch(seq, queries, 5);
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_TRUE(SameKnnDistances(plain[i], batch[i]));
  }
  EXPECT_EQ(delta.worker_items.size(),
            static_cast<size_t>(ThreadPool::Global().num_workers()) + 1);
  if constexpr (kObsEnabled) {
    // On a single-core host the global pool has no workers and the batch
    // runs inline (no job dispatched); with workers the delta is exactly
    // what the scheduler sent to the pool.
    if (ThreadPool::Global().num_workers() > 0) {
      EXPECT_GE(batch_waves, 1u);
      EXPECT_EQ(delta.jobs, batch_waves);
      EXPECT_EQ(delta.items, batch_wave_queries);
      EXPECT_GT(delta.busy_seconds, 0.0);
    } else {
      EXPECT_EQ(delta.jobs, 0u);
      EXPECT_EQ(delta.items, 0u);
    }
  } else {
    EXPECT_EQ(delta.jobs, 0u);
    EXPECT_EQ(delta.items, 0u);
    EXPECT_EQ(delta.busy_seconds, 0.0);
  }
  EXPECT_EQ(ThreadPool::Global().QueueDepth(), 0u);
}

}  // namespace
}  // namespace edr
