#include <gtest/gtest.h>

#include <vector>

#include "pruning/combined.h"
#include "pruning/cse.h"
#include "pruning/histogram.h"
#include "pruning/histogram_knn.h"
#include "pruning/lcss_knn.h"
#include "pruning/near_triangle.h"
#include "pruning/qgram_knn.h"
#include "query/knn.h"
#include "query/thread_pool.h"
#include "test_util.h"

namespace edr {
namespace {

constexpr double kEps = 0.25;

// Grid resolutions from coarse (a handful of bins) down to the delta =
// 1-class configuration: an epsilon so small that HistogramGrid::For
// clamps the bin size to range/512, the finest grid the table supports —
// exactly where sparse columns must replace dense ones.
const double kResolutions[] = {1.0, 0.25, 1e-9};

const TrajectoryDataset& Db() {
  static const TrajectoryDataset db = testutil::SmallDataset(502, 300, 6, 40);
  return db;
}

/// Checks the table's sweep (at the active and the scalar level) against
/// its per-row bound on every id, and both against the bound's definition
/// on every `stride`-th id (the definition is O(bins) per id).
void ExpectTableMatchesDefinition(const TrajectoryDataset& db,
                                  const HistogramTable& table,
                                  const std::vector<Trajectory>& queries,
                                  uint32_t stride) {
  ASSERT_EQ(table.size(), db.size());
  for (const Trajectory& query : queries) {
    const auto qh = table.MakeQueryHistogram(query);
    const std::vector<int> sweep = testutil::SweepOne(table, qh);
    EXPECT_EQ(sweep, testutil::ScalarSweep(table, qh));
    for (uint32_t id = 0; id < table.size(); ++id) {
      ASSERT_EQ(sweep[id], table.FastLowerBound(qh, id)) << "id=" << id;
    }
    for (uint32_t id = 0; id < table.size(); id += stride) {
      ASSERT_EQ(sweep[id], testutil::DefinitionFastBound(table, query, db[id]))
          << "id=" << id;
    }
  }
}

TEST(HistogramLayoutTest, BoundsIdenticalAcrossResolutions) {
  const auto queries = testutil::MakeQueries(Db(), 503, 3);
  for (const HistogramTable::Kind kind :
       {HistogramTable::Kind::k2D, HistogramTable::Kind::k1D}) {
    for (const double eps : kResolutions) {
      const HistogramTable table(Db(), eps, kind, 1);
      SCOPED_TRACE(testing::Message()
                   << "kind=" << (kind == HistogramTable::Kind::k2D ? 2 : 1)
                   << " eps=" << eps);
      // Every id where the grid is small; a spot check at the finest grid.
      ExpectTableMatchesDefinition(Db(), table, queries, eps < 0.1 ? 37 : 1);
    }
  }
}

TEST(HistogramLayoutTest, ParallelSweepIdenticalOnAdaptive) {
  static ThreadPool pool(4);
  const HistogramTable table(Db(), 1e-9, HistogramTable::Kind::k2D, 1);
  const auto queries = testutil::MakeQueries(Db(), 504, 2);
  for (const Trajectory& query : queries) {
    const auto qh = table.MakeQueryHistogram(query);
    KnnOptions options;
    options.intra_query_workers = 4;
    options.pool = &pool;
    EXPECT_EQ(testutil::SweepOne(table, qh),
              testutil::SweepOne(table, qh, options));
  }
}

// Tables at the delta = 1-class grid must be dominated by sparse/empty
// columns and well past the 4x memory-reduction bar over all-dense stores.
TEST(HistogramLayoutTest, FineGridMemoryReduction) {
  const HistogramTable table(Db(), 1e-9, HistogramTable::Kind::k2D, 1);
  const HistogramStorageStats stats = table.storage_stats();
  EXPECT_GT(stats.raw.sparse_columns + stats.raw.empty_columns, 0u);
  EXPECT_GE(stats.dense_equivalent_bytes, 4 * stats.column_bytes)
      << "the column layouts save less than 4x at the finest grid";
}

// A clustered single-point dataset drives whole columns to all-ones at
// high density. Columns are placed by density alone, so those columns are
// stored dense like any other, and the bound still meets its definition.
TEST(HistogramLayoutTest, AllOnesColumnsMatchDefinition) {
  Rng rng(505);
  TrajectoryDataset db("all-ones");
  for (size_t i = 0; i < 200; ++i) {
    Trajectory t;
    t.Append({rng.Gaussian(0.0, 0.05), rng.Gaussian(0.0, 0.05)});
    db.Add(t);
  }
  const HistogramTable table(db, 1.0, HistogramTable::Kind::k2D, 1);
  EXPECT_GT(table.storage_stats().raw.dense_columns, 0u);
  std::vector<Trajectory> queries;
  for (size_t i = 0; i < 3; ++i) queries.push_back(db[i * 7]);
  ExpectTableMatchesDefinition(db, table, queries, 1);
}

// Clustered multi-point trajectories push per-column counts above 1 at
// high density: the dense layout.
TEST(HistogramLayoutTest, DenseColumnsExercised) {
  Rng rng(506);
  TrajectoryDataset db("dense");
  for (size_t i = 0; i < 100; ++i) {
    Trajectory t;
    for (size_t j = 0; j < 5; ++j) {
      t.Append({rng.Gaussian(0.0, 0.05), rng.Gaussian(0.0, 0.05)});
    }
    db.Add(t);
  }
  const HistogramTable table(db, 1.0, HistogramTable::Kind::k2D, 1);
  EXPECT_GT(table.storage_stats().raw.dense_columns, 0u);
  std::vector<Trajectory> queries;
  for (size_t i = 0; i < 3; ++i) queries.push_back(db[i * 7]);
  ExpectTableMatchesDefinition(db, table, queries, 1);
}

// All six searchers return the scan's k-NN answers on a table whose
// columns mix the layouts; the LCSS searcher against its filterless scan.
TEST(HistogramLayoutTest, SearchersIdenticalAcrossLayouts) {
  const TrajectoryDataset& db = Db();
  constexpr size_t kMaxTriangle = 25;
  const PairwiseEdrMatrix matrix =
      PairwiseEdrMatrix::Build(db, kEps, kMaxTriangle);

  const HistogramKnnSearcher hse(db, kEps, HistogramTable::Kind::k2D, 1,
                                 HistogramScan::kSequential);
  const HistogramKnnSearcher hsr(db, kEps, HistogramTable::Kind::k2D, 1,
                                 HistogramScan::kSorted);
  CombinedOptions options;
  const CombinedKnnSearcher combined(db, kEps, options);
  const LcssKnnSearcher lcss(db, kEps, LcssFilter::kBoth);
  const LcssKnnSearcher lcss_scan(db, kEps, LcssFilter::kNone);
  const QgramKnnSearcher ps2(db, kEps, /*q=*/1, QgramVariant::kMerge2D);
  const NearTriangleSearcher ntr(db, kEps, matrix);
  const CseSearcher cse(db, kEps, matrix);

  for (const Trajectory& query : testutil::MakeQueries(db, 507, 3)) {
    constexpr size_t kK = 10;
    EXPECT_TRUE(
        SameKnnDistances(lcss_scan.Knn(query, kK), lcss.Knn(query, kK)));
    const KnnResult truth = SequentialScanKnn(db, query, kK, kEps);
    EXPECT_TRUE(SameKnnDistances(truth, hse.Knn(query, kK)));
    EXPECT_TRUE(SameKnnDistances(truth, hsr.Knn(query, kK)));
    EXPECT_TRUE(SameKnnDistances(truth, combined.Knn(query, kK)));
    EXPECT_TRUE(SameKnnDistances(truth, ps2.Knn(query, kK)));
    EXPECT_TRUE(SameKnnDistances(truth, ntr.Knn(query, kK)));
    EXPECT_TRUE(SameKnnDistances(truth, cse.Knn(query, kK)));
  }
}

}  // namespace
}  // namespace edr
