#include "pruning/qgram_knn.h"

#include <gtest/gtest.h>

#include <tuple>

#include "query/knn.h"
#include "test_util.h"

namespace edr {
namespace {

constexpr double kEps = 0.25;

TEST(QgramVariantTest, NamesMatchPaper) {
  EXPECT_STREQ(QgramVariantName(QgramVariant::kRtree2D), "PR");
  EXPECT_STREQ(QgramVariantName(QgramVariant::kBtree1D), "PB");
  EXPECT_STREQ(QgramVariantName(QgramVariant::kMerge2D), "PS2");
  EXPECT_STREQ(QgramVariantName(QgramVariant::kMerge1D), "PS1");
}

TEST(QgramKnnTest, SearcherNameIncludesQ) {
  const TrajectoryDataset db = testutil::SmallDataset(1, 10);
  const QgramKnnSearcher searcher(db, kEps, 3, QgramVariant::kMerge2D);
  EXPECT_EQ(searcher.name(), "PS2(q=3)");
}

TEST(QgramKnnTest, AllVariantsAgreeOnMatchCountsSemantics) {
  // PR and PS2 count the same quantity (2-D mean matches); PB and PS1
  // likewise (1-D x-projection mean matches).
  const TrajectoryDataset db = testutil::SmallDataset(2, 40);
  const Trajectory query = db[3];
  for (const int q : {1, 2}) {
    const QgramKnnSearcher pr(db, kEps, q, QgramVariant::kRtree2D);
    const QgramKnnSearcher ps2(db, kEps, q, QgramVariant::kMerge2D);
    EXPECT_EQ(pr.MatchCounts(query), ps2.MatchCounts(query))
        << "q=" << q;

    const QgramKnnSearcher pb(db, kEps, q, QgramVariant::kBtree1D);
    const QgramKnnSearcher ps1(db, kEps, q, QgramVariant::kMerge1D);
    EXPECT_EQ(pb.MatchCounts(query), ps1.MatchCounts(query))
        << "q=" << q;
  }
}

TEST(QgramKnnTest, TwoDimensionalCountsNeverExceedOneDimensional) {
  // A 2-D match requires both dimensions to match, so the 2-D counter is
  // at most the 1-D counter (why PR/PS2 prune more than PB/PS1).
  const TrajectoryDataset db = testutil::SmallDataset(3, 40);
  const Trajectory query = db[5];
  const QgramKnnSearcher ps2(db, kEps, 1, QgramVariant::kMerge2D);
  const QgramKnnSearcher ps1(db, kEps, 1, QgramVariant::kMerge1D);
  const std::vector<size_t> c2 = ps2.MatchCounts(query);
  const std::vector<size_t> c1 = ps1.MatchCounts(query);
  for (size_t i = 0; i < db.size(); ++i) {
    EXPECT_LE(c2[i], c1[i]);
  }
}

TEST(QgramKnnTest, SelfQueryFindsSelfFirst) {
  const TrajectoryDataset db = testutil::SmallDataset(4, 30);
  const QgramKnnSearcher searcher(db, kEps, 1, QgramVariant::kMerge2D);
  const KnnResult result = searcher.Knn(db[7], 1);
  ASSERT_EQ(result.neighbors.size(), 1u);
  EXPECT_EQ(result.neighbors[0].distance, 0.0);
  EXPECT_EQ(result.neighbors[0].id, 7u);
}

using VariantAndQ = std::tuple<QgramVariant, int, uint64_t>;

class QgramKnnLosslessTest : public ::testing::TestWithParam<VariantAndQ> {};

TEST_P(QgramKnnLosslessTest, MatchesSequentialScan) {
  const auto [variant, q, seed] = GetParam();
  const TrajectoryDataset db = testutil::SmallDataset(seed, 80, 8, 60);
  const QgramKnnSearcher searcher(db, kEps, q, variant);
  for (const Trajectory& query : testutil::MakeQueries(db, seed ^ 0xFF, 4)) {
    const KnnResult expected = SequentialScanKnn(db, query, 10, kEps);
    const KnnResult actual = searcher.Knn(query, 10);
    EXPECT_TRUE(SameKnnDistances(expected, actual)) << searcher.name();
    EXPECT_LE(actual.stats.edr_computed, actual.stats.db_size);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, QgramKnnLosslessTest,
    ::testing::Combine(::testing::Values(QgramVariant::kRtree2D,
                                         QgramVariant::kBtree1D,
                                         QgramVariant::kMerge2D,
                                         QgramVariant::kMerge1D),
                       ::testing::Values(1, 2, 4),
                       ::testing::Values(401, 402)));

TEST(QgramKnnTest, KLargerThanDatabaseReturnsEverything) {
  const TrajectoryDataset db = testutil::SmallDataset(5, 12);
  const QgramKnnSearcher searcher(db, kEps, 1, QgramVariant::kMerge2D);
  const KnnResult result = searcher.Knn(db[0], 50);
  EXPECT_EQ(result.neighbors.size(), db.size());
}

TEST(QgramKnnTest, PruningActuallyHappensOnSeparatedData) {
  // Construct a database where most trajectories are far from the query:
  // the count filter must prune them.
  Rng rng(6);
  TrajectoryDataset db;
  // 5 trajectories near the origin-anchored query shape.
  const Trajectory base = testutil::RandomWalk(rng, 40, 0.2);
  for (int i = 0; i < 5; ++i) {
    Trajectory t = base;
    t[static_cast<size_t>(i)] = {t[static_cast<size_t>(i)].x + 0.05,
                                 t[static_cast<size_t>(i)].y};
    db.Add(std::move(t));
  }
  // 60 trajectories translated far away (no gram can match).
  for (int i = 0; i < 60; ++i) {
    Trajectory t = testutil::RandomWalk(rng, 40, 0.2);
    for (Point2& p : t.mutable_points()) {
      p.x += 100.0;
      p.y += 100.0;
    }
    db.Add(std::move(t));
  }
  const QgramKnnSearcher searcher(db, kEps, 1, QgramVariant::kMerge2D);
  const KnnResult result = searcher.Knn(base, 3);
  const KnnResult expected = SequentialScanKnn(db, base, 3, kEps);
  EXPECT_TRUE(SameKnnDistances(expected, result));
  EXPECT_LT(result.stats.edr_computed, db.size() / 2);
  EXPECT_GT(result.stats.PruningPower(), 0.4);
}

}  // namespace
}  // namespace edr
