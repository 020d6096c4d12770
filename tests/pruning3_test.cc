#include "pruning/pruning3.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "core/rng.h"
#include "distance/distance3.h"
#include "obs/obs.h"

namespace edr {
namespace {

constexpr double kEps = 0.25;

Trajectory3 RandomWalk3(Rng& rng, size_t length, double step = 0.4) {
  Trajectory3 t;
  Point3 pos{rng.Gaussian(), rng.Gaussian(), rng.Gaussian()};
  for (size_t i = 0; i < length; ++i) {
    t.Append(pos);
    pos.x += rng.Gaussian(0.0, step);
    pos.y += rng.Gaussian(0.0, step);
    pos.z += rng.Gaussian(0.0, step);
  }
  return t;
}

std::vector<Trajectory3> SmallDb3(uint64_t seed, size_t count = 50,
                                  size_t min_len = 5, size_t max_len = 40) {
  Rng rng(seed);
  std::vector<Trajectory3> db;
  for (size_t i = 0; i < count; ++i) {
    db.push_back(RandomWalk3(
        rng, static_cast<size_t>(rng.UniformInt(
                 static_cast<int64_t>(min_len),
                 static_cast<int64_t>(max_len)))));
  }
  return db;
}

TEST(SequentialScan3Test, FindsSelfAndSortsAscending) {
  const std::vector<Trajectory3> db = SmallDb3(1);
  const KnnResult r = SequentialScanKnn3(db, db[7], 5, kEps);
  ASSERT_EQ(r.neighbors.size(), 5u);
  EXPECT_EQ(r.neighbors[0].id, 7u);
  EXPECT_EQ(r.neighbors[0].distance, 0.0);
  for (size_t i = 1; i < r.neighbors.size(); ++i) {
    EXPECT_LE(r.neighbors[i - 1].distance, r.neighbors[i].distance);
  }
}

class Pruning3BoundTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(Pruning3BoundTest, HistogramBoundNeverExceedsEdr) {
  const std::vector<Trajectory3> db = SmallDb3(GetParam(), 16);
  const Knn3Searcher searcher(db, kEps);
  for (size_t i = 0; i < db.size(); i += 2) {
    for (uint32_t j = 0; j < db.size(); ++j) {
      EXPECT_LE(searcher.HistogramLowerBound(db[i], j),
                EdrDistance(db[i], db[j], kEps))
          << i << "," << j;
    }
  }
}

TEST_P(Pruning3BoundTest, MatchCountSatisfiesTheorem1) {
  // count >= max(m, n) - EDR in three dimensions.
  const std::vector<Trajectory3> db = SmallDb3(GetParam() ^ 0x9, 14);
  const Knn3Searcher searcher(db, kEps);
  for (size_t i = 0; i < db.size(); i += 2) {
    for (uint32_t j = 0; j < db.size(); ++j) {
      const long edr = EdrDistance(db[i], db[j], kEps);
      const long floor_matches =
          static_cast<long>(std::max(db[i].size(), db[j].size())) - edr;
      EXPECT_GE(static_cast<long>(searcher.MatchCount(db[i], j)),
                floor_matches)
          << i << "," << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Pruning3BoundTest,
                         ::testing::Range<uint64_t>(5000, 5008));

class Knn3LosslessTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(Knn3LosslessTest, MatchesSequentialScan) {
  std::vector<Trajectory3> db = SmallDb3(GetParam(), 70, 5, 50);
  // Duplicate members tie on every bound and every distance, so the scan
  // visits them in id order.
  for (size_t i = 0; i < 70; i += 9) db.push_back(db[i]);
  const Knn3Searcher searcher(db, kEps);
  Rng rng(GetParam() ^ 0xAB);
  for (int trial = 0; trial < 3; ++trial) {
    Trajectory3 query = db[(trial * 11) % db.size()];
    const size_t at = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(query.size()) - 1));
    query[at] = {query[at].x + rng.Gaussian(0.0, 2.0), query[at].y,
                 query[at].z};
    for (const size_t k : {size_t{8}, size_t{0}, db.size() + 3}) {
      const KnnResult expected = SequentialScanKnn3(db, query, k, kEps);
      const KnnResult actual = searcher.Knn(query, k);
      EXPECT_EQ(actual.neighbors.size(), std::min(k, db.size()));
      EXPECT_TRUE(SameKnnDistances(expected, actual)) << "k=" << k;
      if constexpr (kObsEnabled) {
        EXPECT_TRUE(actual.stats.stages.Conserves(db.size())) << "k=" << k;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Knn3LosslessTest,
                         ::testing::Range<uint64_t>(5100, 5110));

TEST(Knn3Test, PrunesOnClusteredData) {
  Rng rng(5200);
  std::vector<Trajectory3> db;
  const Trajectory3 base = RandomWalk3(rng, 30, 0.2);
  for (int i = 0; i < 5; ++i) db.push_back(base);
  for (int i = 0; i < 60; ++i) {
    Trajectory3 t = RandomWalk3(rng, 30, 0.2);
    for (Point3& p : t.mutable_points()) p.z += 40.0;  // Far in z only.
    db.push_back(std::move(t));
  }
  const Knn3Searcher searcher(db, kEps);
  const KnnResult result = searcher.Knn(base, 3);
  EXPECT_TRUE(SameKnnDistances(SequentialScanKnn3(db, base, 3, kEps),
                               result));
  EXPECT_GT(result.stats.PruningPower(), 0.5);
}

TEST(Knn3Test, NonFiniteAndFarCoordinatesStayLossless) {
  // NaN and +-1e300 coordinates in the database and the query: the grid
  // cell of each is clamped in double before the integer cast, NaN goes
  // to a fixed cell, and every answer still equals the scan's.
  const double kNan = std::numeric_limits<double>::quiet_NaN();
  std::vector<Trajectory3> db = SmallDb3(5400, 40, 5, 30);
  db[3][0].x = kNan;
  db[5][1].y = 1e300;
  db[8][2].z = -1e300;
  db[13][0] = {kNan, kNan, kNan};
  db[21][1] = {1e300, -1e300, 1e300};
  db.push_back(db[21]);
  const Knn3Searcher searcher(db, kEps);
  std::vector<Trajectory3> queries = {db[3], db[21], db[30]};
  queries[2][0].x = kNan;
  queries[2][1] = {-1e300, 1e300, -1e300};
  queries[2][2].z = 1e300;
  for (size_t f = 0; f < queries.size(); ++f) {
    for (uint32_t id = 0; id < db.size(); ++id) {
      const int edr = EdrDistance(queries[f], db[id], kEps);
      EXPECT_LE(searcher.HistogramLowerBound(queries[f], id), edr)
          << "query " << f << " id " << id;
      EXPECT_GE(static_cast<long>(searcher.MatchCount(queries[f], id)),
                static_cast<long>(std::max(queries[f].size(), db[id].size())) -
                    edr)
          << "query " << f << " id " << id;
    }
    for (const size_t k : {1, 5, 20}) {
      EXPECT_TRUE(SameKnnDistances(
          SequentialScanKnn3(db, queries[f], k, kEps),
          searcher.Knn(queries[f], k)))
          << "query " << f << " k=" << k;
    }
  }
}

TEST(Knn3Test, NonFiniteFirstPointKeepsTheGrid) {
  // Two walks 10 apart in x. The grid origin comes from finite coordinates
  // only, so a NaN or infinite first point of db[0] leaves every finite
  // element in its own cell and the bound between the walks intact.
  Rng rng(5500);
  const Trajectory3 a = RandomWalk3(rng, 20, 0.2);
  Trajectory3 b = a;
  for (Point3& p : b.mutable_points()) p.x += 10.0;
  const std::vector<Trajectory3> finite_db = {a, b};
  const Knn3Searcher finite(finite_db, kEps);
  ASSERT_EQ(finite.HistogramLowerBound(a, 1), 20);
  ASSERT_EQ(finite.HistogramLowerBound(b, 0), 20);
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad :
       {std::numeric_limits<double>::quiet_NaN(), inf, -inf}) {
    std::vector<Trajectory3> db = {a, b};
    db[0][0] = {bad, bad, bad};
    const Knn3Searcher searcher(db, kEps);
    EXPECT_EQ(searcher.HistogramLowerBound(a, 1),
              finite.HistogramLowerBound(a, 1))
        << bad;
    EXPECT_EQ(searcher.HistogramLowerBound(b, 0),
              finite.HistogramLowerBound(b, 0))
        << bad;
    for (const Trajectory3& query : {a, b}) {
      for (const size_t k : {1, 2}) {
        EXPECT_TRUE(SameKnnDistances(SequentialScanKnn3(db, query, k, kEps),
                                     searcher.Knn(query, k)))
            << bad << " k=" << k;
      }
    }
  }
}

TEST(Knn3Test, ThirdDimensionParticipatesInBounds) {
  // Two trajectories identical in x-y, far apart in z: the 3-D histogram
  // bound must see them as distant (a 2-D bound would not).
  Rng rng(5300);
  Trajectory3 a = RandomWalk3(rng, 20, 0.2);
  Trajectory3 b = a;
  for (Point3& p : b.mutable_points()) p.z += 10.0;
  std::vector<Trajectory3> db = {a, b};
  const Knn3Searcher searcher(db, kEps);
  EXPECT_EQ(searcher.HistogramLowerBound(a, 0), 0);
  EXPECT_EQ(searcher.HistogramLowerBound(a, 1), 20);
  EXPECT_EQ(searcher.MatchCount(a, 1), 0u);
}

}  // namespace
}  // namespace edr
