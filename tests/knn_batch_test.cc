#include <gtest/gtest.h>

#include <vector>

#include "query/engine.h"
#include "test_util.h"

namespace edr {
namespace {

constexpr double kEps = 0.25;

/// Neighbor-for-neighbor equality: same ids, bit-identical distances, same
/// order. (Timing stats are expected to differ between runs.)
void ExpectSameNeighbors(const KnnResult& expected, const KnnResult& actual,
                         size_t query_index) {
  ASSERT_EQ(expected.neighbors.size(), actual.neighbors.size())
      << "query " << query_index;
  for (size_t j = 0; j < expected.neighbors.size(); ++j) {
    EXPECT_EQ(expected.neighbors[j].id, actual.neighbors[j].id)
        << "query " << query_index << " rank " << j;
    EXPECT_EQ(expected.neighbors[j].distance, actual.neighbors[j].distance)
        << "query " << query_index << " rank " << j;
  }
}

TEST(KnnBatchTest, MatchesSequentialForEveryThreadCount) {
  const TrajectoryDataset db = testutil::SmallDataset(811, 80, 10, 60);
  QueryEngine engine(db, kEps);
  const NamedSearcher searcher = engine.MakeSeqScan();
  const std::vector<Trajectory> queries = testutil::MakeQueries(db, 812, 10);

  std::vector<KnnResult> sequential;
  sequential.reserve(queries.size());
  for (const Trajectory& q : queries) {
    sequential.push_back(searcher.search(q, 7));
  }

  for (const unsigned threads : {1u, 4u, 16u}) {
    const std::vector<KnnResult> batch =
        engine.KnnBatch(searcher, queries, 7, threads);
    ASSERT_EQ(batch.size(), queries.size()) << "threads=" << threads;
    for (size_t i = 0; i < queries.size(); ++i) {
      ExpectSameNeighbors(sequential[i], batch[i], i);
    }
  }
}

TEST(KnnBatchTest, RepeatedRunsAreDeterministic) {
  const TrajectoryDataset db = testutil::SmallDataset(813, 60, 10, 50);
  QueryEngine engine(db, kEps);
  CombinedOptions combo;
  const NamedSearcher searcher = engine.MakeCombined(combo);
  const std::vector<Trajectory> queries = testutil::MakeQueries(db, 814, 8);

  const std::vector<KnnResult> first =
      engine.KnnBatch(searcher, queries, 5, 4);
  for (int run = 0; run < 5; ++run) {
    const std::vector<KnnResult> again =
        engine.KnnBatch(searcher, queries, 5, 4);
    ASSERT_EQ(again.size(), first.size());
    for (size_t i = 0; i < first.size(); ++i) {
      ExpectSameNeighbors(first[i], again[i], i);
    }
  }
}

TEST(KnnBatchTest, PrunedSearcherMatchesSeqScanAnswers) {
  const TrajectoryDataset db = testutil::SmallDataset(815, 70, 10, 50);
  QueryEngine engine(db, kEps);
  const NamedSearcher searcher =
      engine.MakeHistogram(HistogramTable::Kind::k1D, 1,
                           HistogramScan::kSorted);
  const std::vector<Trajectory> queries = testutil::MakeQueries(db, 816, 9);
  const std::vector<KnnResult> batch =
      engine.KnnBatch(searcher, queries, 6, 16);
  ASSERT_EQ(batch.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    EXPECT_TRUE(SameKnnDistances(engine.SeqScan(queries[i], 6), batch[i]))
        << i;
  }
}

TEST(KnnBatchTest, EmptyAndSingleQueryBatches) {
  const TrajectoryDataset db = testutil::SmallDataset(817, 12);
  QueryEngine engine(db, kEps);
  const NamedSearcher searcher = engine.MakeSeqScan();
  EXPECT_TRUE(engine.KnnBatch(searcher, {}, 3).empty());

  // Single-query batches take the caller-thread shortcut; the answer must
  // still match a direct call.
  const std::vector<Trajectory> one = {db[3]};
  const std::vector<KnnResult> batch = engine.KnnBatch(searcher, one, 3);
  ASSERT_EQ(batch.size(), 1u);
  ExpectSameNeighbors(searcher.search(one[0], 3), batch[0], 0);
}

}  // namespace
}  // namespace edr
