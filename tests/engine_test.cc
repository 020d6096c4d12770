#include "query/engine.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace edr {
namespace {

constexpr double kEps = 0.25;

TEST(QueryEngineTest, SearchersAreCached) {
  const TrajectoryDataset db = testutil::SmallDataset(71, 30);
  QueryEngine engine(db, kEps);
  const QgramKnnSearcher& a = engine.Qgram(QgramVariant::kMerge2D, 1);
  const QgramKnnSearcher& b = engine.Qgram(QgramVariant::kMerge2D, 1);
  EXPECT_EQ(&a, &b);
  const QgramKnnSearcher& c = engine.Qgram(QgramVariant::kMerge2D, 2);
  EXPECT_NE(&a, &c);

  const HistogramKnnSearcher& h1 =
      engine.Histogram(HistogramTable::Kind::k2D, 1, HistogramScan::kSorted);
  const HistogramKnnSearcher& h2 =
      engine.Histogram(HistogramTable::Kind::k2D, 1, HistogramScan::kSorted);
  EXPECT_EQ(&h1, &h2);
}

TEST(QueryEngineTest, MatrixSharedBetweenNtrAndCse) {
  const TrajectoryDataset db = testutil::SmallDataset(72, 25);
  QueryEngine engine(db, kEps);
  // Both use the same max_triangle; building one then the other must not
  // recompute the matrix (observable only via behavior equality here).
  const NearTriangleSearcher& ntr = engine.NearTriangle(10);
  const CseSearcher& cse = engine.Cse(10);
  EXPECT_EQ(ntr.matrix().num_refs(), 10u);
  EXPECT_GE(cse.shift(), 0.0);
}

TEST(QueryEngineTest, EveryNamedSearcherIsLossless) {
  const TrajectoryDataset db = testutil::SmallDataset(73, 60, 6, 50);
  QueryEngine engine(db, kEps);

  std::vector<NamedSearcher> searchers;
  searchers.push_back(engine.MakeSeqScan(true));
  searchers.push_back(engine.MakeQgram(QgramVariant::kRtree2D, 1));
  searchers.push_back(engine.MakeQgram(QgramVariant::kBtree1D, 1));
  searchers.push_back(engine.MakeQgram(QgramVariant::kMerge2D, 1));
  searchers.push_back(engine.MakeQgram(QgramVariant::kMerge1D, 1));
  searchers.push_back(engine.MakeNearTriangle(15));
  searchers.push_back(engine.MakeHistogram(HistogramTable::Kind::k2D, 1,
                                           HistogramScan::kSorted));
  searchers.push_back(engine.MakeHistogram(HistogramTable::Kind::k1D, 1,
                                           HistogramScan::kSequential));
  CombinedOptions combo;
  searchers.push_back(engine.MakeCombined(combo));
  combo.histogram_kind = HistogramTable::Kind::k1D;
  searchers.push_back(engine.MakeCombined(combo));

  for (const Trajectory& query : testutil::MakeQueries(db, 74, 3)) {
    const KnnResult expected = engine.SeqScan(query, 8);
    for (const NamedSearcher& s : searchers) {
      const KnnResult actual = s.search(query, 8);
      EXPECT_TRUE(SameKnnDistances(expected, actual)) << s.name;
    }
  }
}

TEST(QueryEngineTest, CombinedCacheKeyedOnConfiguration) {
  const TrajectoryDataset db = testutil::SmallDataset(75, 20);
  QueryEngine engine(db, kEps);
  CombinedOptions a;
  CombinedOptions b = a;
  b.q = 2;
  const CombinedKnnSearcher& sa = engine.Combined(a);
  const CombinedKnnSearcher& sb = engine.Combined(b);
  const CombinedKnnSearcher& sa2 = engine.Combined(a);
  EXPECT_NE(&sa, &sb);
  EXPECT_EQ(&sa, &sa2);
}

TEST(QueryEngineTest, NamesAreStable) {
  const TrajectoryDataset db = testutil::SmallDataset(76, 15);
  QueryEngine engine(db, kEps);
  EXPECT_EQ(engine.MakeSeqScan().name, "SeqScan");
  EXPECT_EQ(engine.MakeSeqScan(true).name, "SeqScan-EA");
  EXPECT_EQ(engine.MakeQgram(QgramVariant::kMerge2D, 1).name, "PS2(q=1)");
  EXPECT_EQ(engine.MakeNearTriangle(5).name, "NTR");
  EXPECT_EQ(engine.MakeCse(5).name, "CSE");
}

}  // namespace
}  // namespace edr
