#include "query/parallel.h"

#include <gtest/gtest.h>

#include "pruning/near_triangle.h"
#include "query/engine.h"
#include "test_util.h"

namespace edr {
namespace {

constexpr double kEps = 0.25;

TEST(ParallelKnnTest, MatchesSequentialResults) {
  const TrajectoryDataset db = testutil::SmallDataset(701, 60, 8, 50);
  QueryEngine engine(db, kEps);
  const std::vector<Trajectory> queries = testutil::MakeQueries(db, 702, 8);

  const auto search = [&engine](const Trajectory& q, size_t k) {
    return engine.SeqScan(q, k);
  };
  const std::vector<KnnResult> parallel =
      ParallelKnn(search, queries, 10, 4);
  ASSERT_EQ(parallel.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_TRUE(
        SameKnnDistances(engine.SeqScan(queries[i], 10), parallel[i]))
        << i;
  }
}

TEST(ParallelKnnTest, PrunedSearcherIsThreadCompatible) {
  const TrajectoryDataset db = testutil::SmallDataset(703, 80, 8, 60);
  QueryEngine engine(db, kEps);
  CombinedOptions combo;
  combo.max_triangle = 20;
  const CombinedKnnSearcher& searcher = engine.Combined(combo);
  const std::vector<Trajectory> queries = testutil::MakeQueries(db, 704, 12);

  const std::vector<KnnResult> parallel = ParallelKnn(
      [&searcher](const Trajectory& q, size_t k) {
        return searcher.Knn(q, k);
      },
      queries, 8, 4);
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_TRUE(SameKnnDistances(engine.SeqScan(queries[i], 8),
                                 parallel[i]))
        << i;
  }
}

TEST(ParallelKnnTest, EmptyQueriesAndSingleThread) {
  const TrajectoryDataset db = testutil::SmallDataset(705, 10);
  QueryEngine engine(db, kEps);
  const auto search = [&engine](const Trajectory& q, size_t k) {
    return engine.SeqScan(q, k);
  };
  EXPECT_TRUE(ParallelKnn(search, {}, 5).empty());
  const std::vector<Trajectory> one = {db[0]};
  EXPECT_EQ(ParallelKnn(search, one, 5, 1).size(), 1u);
}

TEST(ParallelMatrixBuildTest, IdenticalToSequentialBuild) {
  const TrajectoryDataset db = testutil::SmallDataset(706, 40, 5, 40);
  // 15 references leave a rectangular tail; 40 (== db size) make the whole
  // matrix the mirrored square.
  for (const size_t num_refs : {size_t{15}, db.size()}) {
    const PairwiseEdrMatrix sequential =
        PairwiseEdrMatrix::Build(db, kEps, num_refs);
    const PairwiseEdrMatrix parallel =
        PairwiseEdrMatrix::BuildParallel(db, kEps, num_refs, 4);
    ASSERT_EQ(parallel.num_refs(), sequential.num_refs());
    ASSERT_EQ(parallel.db_size(), sequential.db_size());
    EXPECT_EQ(parallel.data(), sequential.data()) << num_refs << " refs";
  }
}

TEST(ParallelMatrixBuildTest, HandlesDegenerateSizes) {
  const TrajectoryDataset db = testutil::SmallDataset(707, 3);
  const PairwiseEdrMatrix m = PairwiseEdrMatrix::BuildParallel(db, kEps, 0);
  EXPECT_EQ(m.num_refs(), 0u);
  const PairwiseEdrMatrix m2 =
      PairwiseEdrMatrix::BuildParallel(db, kEps, 100, 16);
  EXPECT_EQ(m2.num_refs(), 3u);
}

}  // namespace
}  // namespace edr
