#include "pruning/combined.h"

#include <gtest/gtest.h>

#include <array>
#include <set>
#include <string>

#include "pruning/histogram_knn.h"
#include "pruning/qgram_knn.h"
#include "query/knn.h"
#include "test_util.h"

namespace edr {
namespace {

constexpr double kEps = 0.25;

TEST(CombinedTest, AllPruneOrdersEnumeratesBothPermutations) {
  const auto orders = AllPruneOrders();
  EXPECT_EQ(orders.size(), 2u);
  std::set<std::string> codes;
  for (const auto& order : orders) {
    std::string code;
    for (const PruneStep s : order) code += PruneStepCode(s);
    codes.insert(code);
  }
  EXPECT_EQ(codes, (std::set<std::string>{"HP", "PH"}));
  // The default order is the first one, the paper's best.
  EXPECT_EQ(orders[0], CombinedOptions{}.order);
}

TEST(CombinedTest, NameEncodesKindAndOrder) {
  const TrajectoryDataset db = testutil::SmallDataset(51, 15);
  CombinedOptions options;
  const CombinedKnnSearcher a(db, kEps, options);
  EXPECT_EQ(a.name(), "2HP");
  options.histogram_kind = HistogramTable::Kind::k1D;
  options.order = {PruneStep::kQgram, PruneStep::kHistogram};
  const CombinedKnnSearcher b(db, kEps, options);
  EXPECT_EQ(b.name(), "1PH");
}

class CombinedOrderTest
    : public ::testing::TestWithParam<std::array<PruneStep, 2>> {};

TEST_P(CombinedOrderTest, EveryOrderIsLossless) {
  const TrajectoryDataset db = testutil::SmallDataset(52, 90, 6, 70);
  CombinedOptions options;
  options.order = GetParam();
  const CombinedKnnSearcher searcher(db, kEps, options);
  for (const Trajectory& query : testutil::MakeQueries(db, 53, 4)) {
    const KnnResult expected = SequentialScanKnn(db, query, 10, kEps);
    const KnnResult actual = searcher.Knn(query, 10);
    EXPECT_TRUE(SameKnnDistances(expected, actual)) << searcher.name();
  }
}

INSTANTIATE_TEST_SUITE_P(AllOrders, CombinedOrderTest,
                         ::testing::ValuesIn(AllPruneOrders()));

TEST(CombinedTest, OneDimensionalHistogramVariantIsLossless) {
  const TrajectoryDataset db = testutil::SmallDataset(54, 80, 6, 60);
  CombinedOptions options;
  options.histogram_kind = HistogramTable::Kind::k1D;  // "1HP"
  const CombinedKnnSearcher searcher(db, kEps, options);
  for (const Trajectory& query : testutil::MakeQueries(db, 55, 4)) {
    const KnnResult expected = SequentialScanKnn(db, query, 10, kEps);
    EXPECT_TRUE(SameKnnDistances(expected, searcher.Knn(query, 10)));
  }
}

TEST(CombinedTest, CombinationPrunesAtLeastAsMuchAsEachComponentAlone) {
  // Section 5.4: applying both filters removes at least as many
  // candidates as either one alone.
  const TrajectoryDataset db = testutil::SmallDataset(56, 120, 6, 80);
  CombinedOptions options;
  const CombinedKnnSearcher combined(db, kEps, options);
  const HistogramKnnSearcher histogram(db, kEps, HistogramTable::Kind::k2D,
                                       1, HistogramScan::kSorted);
  const QgramKnnSearcher qgram(db, kEps, 1, QgramVariant::kMerge2D);

  size_t combined_total = 0;
  size_t histogram_total = 0;
  size_t qgram_total = 0;
  for (const Trajectory& query : testutil::MakeQueries(db, 57, 5)) {
    combined_total += combined.Knn(query, 10).stats.edr_computed;
    histogram_total += histogram.Knn(query, 10).stats.edr_computed;
    qgram_total += qgram.Knn(query, 10).stats.edr_computed;
  }
  EXPECT_LE(combined_total, histogram_total);
  EXPECT_LE(combined_total, qgram_total);
}

TEST(CombinedTest, StatsAreConsistent) {
  const TrajectoryDataset db = testutil::SmallDataset(59, 50, 6, 50);
  CombinedOptions options;
  const CombinedKnnSearcher searcher(db, kEps, options);
  const KnnResult result = searcher.Knn(db[0], 5);
  EXPECT_EQ(result.stats.db_size, db.size());
  EXPECT_LE(result.stats.edr_computed, db.size());
  EXPECT_GE(result.stats.edr_computed, 5u);  // At least the k seeds.
  EXPECT_GE(result.stats.elapsed_seconds, 0.0);
  EXPECT_EQ(result.neighbors.size(), 5u);
}

}  // namespace
}  // namespace edr
