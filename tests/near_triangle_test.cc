#include "pruning/near_triangle.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "distance/edr.h"
#include "pruning/histogram.h"
#include "test_util.h"

namespace edr {
namespace {

constexpr double kEps = 0.25;

TEST(PairwiseEdrMatrixTest, EntriesAreTrueDistances) {
  const TrajectoryDataset db = testutil::SmallDataset(11, 20);
  const PairwiseEdrMatrix m = PairwiseEdrMatrix::Build(db, kEps, 5);
  EXPECT_EQ(m.num_refs(), 5u);
  EXPECT_EQ(m.db_size(), 20u);
  for (size_t r = 0; r < m.num_refs(); ++r) {
    for (uint32_t s = 0; s < db.size(); ++s) {
      EXPECT_EQ(m.at(r, s), EdrDistance(db[r], db[s], kEps));
    }
  }
}

TEST(PairwiseEdrMatrixTest, DiagonalZeroAndSymmetricAmongRefs) {
  const TrajectoryDataset db = testutil::SmallDataset(12, 15);
  const PairwiseEdrMatrix m = PairwiseEdrMatrix::Build(db, kEps, 8);
  for (size_t r = 0; r < 8; ++r) {
    EXPECT_EQ(m.at(r, static_cast<uint32_t>(r)), 0);
    for (size_t s = 0; s < 8; ++s) {
      EXPECT_EQ(m.at(r, static_cast<uint32_t>(s)),
                m.at(s, static_cast<uint32_t>(r)));
    }
  }
}

TEST(PairwiseEdrMatrixTest, RefCountClampedToDbSize) {
  const TrajectoryDataset db = testutil::SmallDataset(13, 6);
  const PairwiseEdrMatrix m = PairwiseEdrMatrix::Build(db, kEps, 100);
  EXPECT_EQ(m.num_refs(), 6u);
}

class NearTriangleLosslessTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(NearTriangleLosslessTest, MatchesSequentialScan) {
  const TrajectoryDataset db = testutil::SmallDataset(GetParam(), 90, 5, 70);
  const NearTriangleSearcher searcher(db, kEps, 30);
  for (const Trajectory& query :
       testutil::MakeQueries(db, GetParam() ^ 0xAB, 4)) {
    const KnnResult expected = SequentialScanKnn(db, query, 10, kEps);
    const KnnResult actual = searcher.Knn(query, 10);
    EXPECT_TRUE(SameKnnDistances(expected, actual));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NearTriangleLosslessTest,
                         ::testing::Range<uint64_t>(500, 508));

TEST(NearTriangleTest, NoPruningOnFixedLengthData) {
  // Section 5.2: the |S| slack means nothing is pruned when all
  // trajectories (and the query) share one length.
  Rng rng(14);
  TrajectoryDataset db;
  for (int i = 0; i < 40; ++i) db.Add(testutil::RandomWalk(rng, 32));
  const NearTriangleSearcher searcher(db, kEps, 20);
  const KnnResult result = searcher.Knn(db[0], 5);
  EXPECT_EQ(result.stats.edr_computed, db.size());
  EXPECT_DOUBLE_EQ(result.stats.PruningPower(), 0.0);
}

TEST(NearTriangleTest, CanPruneOnVariableLengthData) {
  // The bound EDR(Q,R) - EDR(S,R) - |S| fires when the reference R is far
  // from the query (EDR(Q,R) large, here via a length gap) while the
  // candidate S is short and close to R. Construct exactly that: a long
  // query with close matches in the database, plus many short candidates.
  Rng rng(15);
  const Trajectory query = testutil::RandomWalk(rng, 200, 0.3);

  TrajectoryDataset db;
  // References (scanned first): short walks, far from the long query.
  for (int i = 0; i < 10; ++i) db.Add(testutil::RandomWalk(rng, 5, 0.3));
  // Close matches for the query so bestSoFar becomes small.
  for (int i = 0; i < 3; ++i) {
    Trajectory near = query;
    near[0] = {near[0].x + 3.0, near[0].y};
    db.Add(std::move(near));
  }
  // Many more short candidates that the references should prune.
  for (int i = 0; i < 40; ++i) db.Add(testutil::RandomWalk(rng, 5, 0.3));

  const NearTriangleSearcher searcher(db, kEps, 10);
  const KnnResult expected = SequentialScanKnn(db, query, 3, kEps);
  const KnnResult actual = searcher.Knn(query, 3);
  EXPECT_TRUE(SameKnnDistances(expected, actual));
  EXPECT_LT(actual.stats.edr_computed, db.size() / 2);
  EXPECT_GT(actual.stats.PruningPower(), 0.4);
}

TEST(NearTriangleTest, BoundNeverExceedsHistogramBound) {
  // Theorem 5's bound EDR(Q,R) - EDR(S,R) - |S| is at most
  // max(0, |Q| - |S|), since EDR(Q,R) <= max(|Q|, |R|) and
  // EDR(S,R) >= ||S| - |R||, and the fast histogram bound, max(|Q|, |S|)
  // minus a transport of at most min(|Q|, |S|), is at least that. So a
  // histogram step prunes every candidate a near-triangle step could, on
  // any data, threshold, table kind and bin size; the combined searcher
  // therefore runs no near-triangle step.
  constexpr size_t kRefs = 20;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const uint64_t seed : {31, 32, 33}) {
    Rng rng(seed);
    TrajectoryDataset db;
    for (int i = 0; i < 36; ++i) {
      Trajectory t =
          testutil::RandomWalk(rng, static_cast<size_t>(rng.UniformInt(0, 60)));
      if (!t.empty() && rng.NextDouble() < 0.3) {
        const double bad[] = {nan, 1e300, -1e300};
        const size_t at = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(t.size()) - 1));
        t[at].x = bad[rng.UniformInt(0, 2)];
      }
      db.Add(t);
      if (rng.NextDouble() < 0.2) db.Add(t);  // a duplicate member
    }
    std::vector<Trajectory> queries(db.begin(), db.end());
    for (Trajectory& q : testutil::MakeQueries(db, seed ^ 0x5A, 4)) {
      queries.push_back(std::move(q));
    }
    for (const double eps : {0.0, 1e-12, 0.25, 1e6}) {
      const PairwiseEdrMatrix matrix = PairwiseEdrMatrix::Build(db, eps, kRefs);
      ASSERT_EQ(matrix.num_refs(), kRefs);
      // gaps[f][id] = max(0, |Q| - |S|) for Q = queries[f], S = db[id].
      std::vector<std::vector<long>> gaps(queries.size());
      for (size_t f = 0; f < queries.size(); ++f) {
        const Trajectory& q = queries[f];
        for (uint32_t id = 0; id < db.size(); ++id) {
          const long s_len = static_cast<long>(db[id].size());
          gaps[f].push_back(
              std::max(0L, static_cast<long>(q.size()) - s_len));
        }
        for (size_t r = 0; r < kRefs; ++r) {
          const long q_r = EdrDistance(q, db[r], eps);
          for (uint32_t id = 0; id < db.size(); ++id) {
            const long triangle = q_r - matrix.at(r, id) -
                                  static_cast<long>(db[id].size());
            ASSERT_LE(triangle, gaps[f][id])
                << "seed " << seed << " eps " << eps << " query " << f
                << " ref " << r << " id " << id;
          }
        }
      }
      for (const HistogramTable::Kind kind :
           {HistogramTable::Kind::k2D, HistogramTable::Kind::k1D}) {
        for (const int delta : {1, 2, 3}) {
          const HistogramTable table(db, eps, kind, delta);
          for (size_t f = 0; f < queries.size(); ++f) {
            const HistogramTable::QueryHistogram qh =
                table.MakeQueryHistogram(queries[f]);
            for (uint32_t id = 0; id < db.size(); ++id) {
              ASSERT_LE(gaps[f][id], table.FastLowerBound(qh, id))
                  << "seed " << seed << " eps " << eps << " kind "
                  << static_cast<int>(kind) << " delta " << delta
                  << " query " << f << " id " << id;
            }
          }
        }
      }
    }
  }
}

TEST(NearTriangleTest, SharedMatrixConstructorBehavesTheSame) {
  const TrajectoryDataset db = testutil::SmallDataset(16, 30);
  PairwiseEdrMatrix matrix = PairwiseEdrMatrix::Build(db, kEps, 10);
  const NearTriangleSearcher a(db, kEps, 10);
  const NearTriangleSearcher b(db, kEps, std::move(matrix));
  const Trajectory query = db[4];
  EXPECT_TRUE(SameKnnDistances(a.Knn(query, 5), b.Knn(query, 5)));
}

}  // namespace
}  // namespace edr
