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
// exactly where the adaptive layout must replace the dense block.
const double kResolutions[] = {1.0, 0.25, 1e-9};

const TrajectoryDataset& Db() {
  static const TrajectoryDataset db = testutil::SmallDataset(502, 300, 6, 40);
  return db;
}

void ExpectTablesEquivalent(const TrajectoryDataset& db,
                            const HistogramTable& adaptive,
                            const HistogramTable& dense,
                            const std::vector<Trajectory>& queries) {
  ASSERT_EQ(adaptive.size(), dense.size());
  std::vector<int> a_sweep;
  std::vector<int> d_sweep;
  std::vector<int> a_scalar;
  for (const Trajectory& query : queries) {
    const auto a_qh = adaptive.MakeQueryHistogram(query);
    const auto d_qh = dense.MakeQueryHistogram(query);
    adaptive.FastLowerBoundSweep(a_qh, &a_sweep);
    dense.FastLowerBoundSweep(d_qh, &d_sweep);
    EXPECT_EQ(a_sweep, d_sweep);
    adaptive.FastLowerBoundSweepScalar(a_qh, &a_scalar);
    EXPECT_EQ(a_sweep, a_scalar);
    for (uint32_t id = 0; id < adaptive.size(); ++id) {
      ASSERT_EQ(adaptive.FastLowerBound(a_qh, id),
                dense.FastLowerBound(d_qh, id))
          << "id=" << id;
    }
    // Both layouts reproduce the bound's definition; spot-check a few ids
    // (the definition is O(bins) per id).
    for (uint32_t id = 0; id < adaptive.size(); id += 37) {
      EXPECT_EQ(adaptive.FastLowerBound(a_qh, id),
                testutil::DefinitionFastBound(adaptive, query, db[id]));
    }
  }
}

TEST(HistogramLayoutTest, BoundsIdenticalAcrossResolutions) {
  const auto queries = testutil::MakeQueries(Db(), 503, 3);
  for (const HistogramTable::Kind kind :
       {HistogramTable::Kind::k2D, HistogramTable::Kind::k1D}) {
    for (const double eps : kResolutions) {
      const HistogramTable adaptive(Db(), eps, kind, 1,
                                    HistogramLayout::kAdaptive);
      const HistogramTable dense(Db(), eps, kind, 1, HistogramLayout::kDense);
      SCOPED_TRACE(testing::Message()
                   << "kind=" << (kind == HistogramTable::Kind::k2D ? 2 : 1)
                   << " eps=" << eps);
      ExpectTablesEquivalent(Db(), adaptive, dense, queries);
    }
  }
}

TEST(HistogramLayoutTest, ParallelSweepIdenticalOnAdaptive) {
  static ThreadPool pool(4);
  const HistogramTable table(Db(), 1e-9, HistogramTable::Kind::k2D, 1);
  const auto queries = testutil::MakeQueries(Db(), 504, 2);
  std::vector<int> seq;
  std::vector<int> par;
  for (const Trajectory& query : queries) {
    const auto qh = table.MakeQueryHistogram(query);
    table.FastLowerBoundSweep(qh, &seq);
    KnnOptions options;
    options.intra_query_workers = 4;
    options.pool = &pool;
    table.FastLowerBoundSweepParallel(qh, &par, options);
    EXPECT_EQ(seq, par);
  }
}

// Dense-layout tables must report the dense byte cost; adaptive tables at
// the delta = 1-class grid must be dominated by sparse/empty columns and
// well past the 4x memory-reduction bar.
TEST(HistogramLayoutTest, FineGridMemoryReduction) {
  const HistogramTable adaptive(Db(), 1e-9, HistogramTable::Kind::k2D, 1);
  const HistogramStorageStats stats = adaptive.storage_stats();
  EXPECT_GT(stats.raw.sparse_columns + stats.raw.empty_columns, 0u);
  EXPECT_GE(stats.dense_equivalent_bytes, 4 * stats.column_bytes)
      << "adaptive layout saves less than 4x at the finest grid";

  const HistogramTable dense(Db(), 1e-9, HistogramTable::Kind::k2D, 1,
                             HistogramLayout::kDense);
  const HistogramStorageStats dstats = dense.storage_stats();
  EXPECT_EQ(dstats.raw.dense_columns, dstats.columns);
  EXPECT_EQ(dstats.ns.dense_columns, dstats.columns);
  EXPECT_GE(dstats.column_bytes, dstats.dense_equivalent_bytes);
}

// A clustered single-point dataset drives whole columns to all-ones at
// high density — the bitmap layout — which must agree with dense too.
TEST(HistogramLayoutTest, BitmapColumnsExercised) {
  Rng rng(505);
  TrajectoryDataset db("bitmap");
  for (size_t i = 0; i < 200; ++i) {
    Trajectory t;
    t.Append({rng.Gaussian(0.0, 0.05), rng.Gaussian(0.0, 0.05)});
    db.Add(t);
  }
  const HistogramTable adaptive(db, 1.0, HistogramTable::Kind::k2D, 1);
  EXPECT_GT(adaptive.storage_stats().raw.bitmap_columns, 0u);
  const HistogramTable dense(db, 1.0, HistogramTable::Kind::k2D, 1,
                             HistogramLayout::kDense);
  std::vector<Trajectory> queries;
  for (size_t i = 0; i < 3; ++i) queries.push_back(db[i * 7]);
  ExpectTablesEquivalent(db, adaptive, dense, queries);
}

// Clustered multi-point trajectories push per-column counts above 1 at
// high density — the dense classification inside an adaptive table.
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
  const HistogramTable adaptive(db, 1.0, HistogramTable::Kind::k2D, 1);
  EXPECT_GT(adaptive.storage_stats().raw.dense_columns, 0u);
  const HistogramTable dense(db, 1.0, HistogramTable::Kind::k2D, 1,
                             HistogramLayout::kDense);
  std::vector<Trajectory> queries;
  for (size_t i = 0; i < 3; ++i) queries.push_back(db[i * 7]);
  ExpectTablesEquivalent(db, adaptive, dense, queries);
}

// The FeatureCache fix: a layout change must change the semantic feature
// key, so cached query features can never leak across storage layouts.
TEST(HistogramLayoutTest, FeatureKeyEncodesLayout) {
  const HistogramTable adaptive(Db(), kEps, HistogramTable::Kind::k2D, 1,
                                HistogramLayout::kAdaptive);
  const HistogramTable dense(Db(), kEps, HistogramTable::Kind::k2D, 1,
                             HistogramLayout::kDense);
  EXPECT_NE(adaptive.feature_key(), dense.feature_key());
  const HistogramTable adaptive2(Db(), kEps, HistogramTable::Kind::k2D, 1,
                                 HistogramLayout::kAdaptive);
  EXPECT_EQ(adaptive.feature_key(), adaptive2.feature_key());
  EXPECT_NE(adaptive.feature_key().find("layout=adaptive"), std::string::npos);
  EXPECT_NE(dense.feature_key().find("layout=dense"), std::string::npos);
}

void ExpectSameKnn(const KnnResult& expected, const KnnResult& actual,
                   const char* label) {
  ASSERT_EQ(expected.neighbors.size(), actual.neighbors.size()) << label;
  for (size_t i = 0; i < expected.neighbors.size(); ++i) {
    EXPECT_EQ(expected.neighbors[i].id, actual.neighbors[i].id)
        << label << " rank=" << i;
    EXPECT_EQ(expected.neighbors[i].distance, actual.neighbors[i].distance)
        << label << " rank=" << i;
  }
}

// All six searchers return identical k-NN results whichever layout backs
// their histogram tables (searchers without a histogram table are
// certified against the shared sequential-scan ground truth).
TEST(HistogramLayoutTest, SearchersIdenticalAcrossLayouts) {
  const TrajectoryDataset& db = Db();
  constexpr size_t kMaxTriangle = 25;
  const PairwiseEdrMatrix matrix =
      PairwiseEdrMatrix::Build(db, kEps, kMaxTriangle);

  const HistogramKnnSearcher hse_a(db, kEps, HistogramTable::Kind::k2D, 1,
                                   HistogramScan::kSequential,
                                   HistogramLayout::kAdaptive);
  const HistogramKnnSearcher hse_d(db, kEps, HistogramTable::Kind::k2D, 1,
                                   HistogramScan::kSequential,
                                   HistogramLayout::kDense);
  const HistogramKnnSearcher hsr_a(db, kEps, HistogramTable::Kind::k2D, 1,
                                   HistogramScan::kSorted,
                                   HistogramLayout::kAdaptive);
  const HistogramKnnSearcher hsr_d(db, kEps, HistogramTable::Kind::k2D, 1,
                                   HistogramScan::kSorted,
                                   HistogramLayout::kDense);
  CombinedOptions opt_a;
  opt_a.max_triangle = kMaxTriangle;
  CombinedOptions opt_d = opt_a;
  opt_a.histogram_layout = HistogramLayout::kAdaptive;
  opt_d.histogram_layout = HistogramLayout::kDense;
  const CombinedKnnSearcher combined_a(db, kEps, opt_a, matrix);
  const CombinedKnnSearcher combined_d(db, kEps, opt_d, matrix);
  const LcssKnnSearcher lcss_a(db, kEps, LcssFilter::kBoth,
                               HistogramLayout::kAdaptive);
  const LcssKnnSearcher lcss_d(db, kEps, LcssFilter::kBoth,
                               HistogramLayout::kDense);
  const QgramKnnSearcher ps2(db, kEps, /*q=*/1, QgramVariant::kMerge2D);
  const NearTriangleSearcher ntr(db, kEps, matrix);
  const CseSearcher cse(db, kEps, matrix);

  for (const Trajectory& query : testutil::MakeQueries(db, 507, 3)) {
    constexpr size_t kK = 10;
    ExpectSameKnn(hse_d.Knn(query, kK), hse_a.Knn(query, kK), "HSE");
    ExpectSameKnn(hsr_d.Knn(query, kK), hsr_a.Knn(query, kK), "HSR");
    ExpectSameKnn(combined_d.Knn(query, kK), combined_a.Knn(query, kK),
                  "2HPN");
    ExpectSameKnn(lcss_d.Knn(query, kK), lcss_a.Knn(query, kK), "LCSS");
    // The EDR searchers without a histogram table, against ground truth:
    // the adaptive layout cannot perturb any of the six pipelines.
    const KnnResult truth = SequentialScanKnn(db, query, kK, kEps);
    EXPECT_TRUE(SameKnnDistances(truth, ps2.Knn(query, kK)));
    EXPECT_TRUE(SameKnnDistances(truth, ntr.Knn(query, kK)));
    EXPECT_TRUE(SameKnnDistances(truth, cse.Knn(query, kK)));
    EXPECT_TRUE(SameKnnDistances(truth, hse_a.Knn(query, kK)));
    EXPECT_TRUE(SameKnnDistances(truth, hsr_a.Knn(query, kK)));
    EXPECT_TRUE(SameKnnDistances(truth, combined_a.Knn(query, kK)));
  }
}

}  // namespace
}  // namespace edr
