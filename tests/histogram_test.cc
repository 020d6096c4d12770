#include "pruning/histogram.h"

#include <gtest/gtest.h>

#include <numeric>

#include "data/generators.h"
#include "distance/edr.h"
#include "test_util.h"

namespace edr {
namespace {

constexpr double kEps = 0.25;

DatasetStats StatsFor(const TrajectoryDataset& db) { return db.Stats(); }

TEST(HistogramGridTest, CoversDataWithSlack) {
  TrajectoryDataset db;
  db.Add(Trajectory({{0.0, 0.0}, {1.0, 2.0}}));
  const HistogramGrid grid = HistogramGrid::For(StatsFor(db), 0.5);
  // Data min minus one bin of slack.
  EXPECT_DOUBLE_EQ(grid.min_x, -0.5);
  EXPECT_DOUBLE_EQ(grid.min_y, -0.5);
  EXPECT_GE(grid.nx * grid.ny, 1);
  // Points within epsilon of the data range land in interior bins.
  EXPECT_GT(grid.BinX(0.0), 0);
  EXPECT_LT(grid.BinX(1.0), grid.nx - 1);
}

TEST(HistogramGridTest, BinningIsMonotoneAndClamped) {
  TrajectoryDataset db;
  db.Add(Trajectory({{0.0, 0.0}, {10.0, 10.0}}));
  const HistogramGrid grid = HistogramGrid::For(StatsFor(db), 1.0);
  EXPECT_EQ(grid.BinX(-100.0), 0);
  EXPECT_EQ(grid.BinX(1000.0), grid.nx - 1);
  int prev = -1;
  for (double x = -2.0; x <= 12.0; x += 0.25) {
    const int b = grid.BinX(x);
    EXPECT_GE(b, prev);
    prev = b;
  }
}

TEST(HistogramTest, CountsSumToLength) {
  Rng rng(31);
  TrajectoryDataset db;
  db.Add(testutil::RandomWalk(rng, 57));
  const HistogramGrid grid = HistogramGrid::For(StatsFor(db), kEps);
  const std::vector<int> h = BuildHistogram2D(db[0], grid);
  EXPECT_EQ(std::accumulate(h.begin(), h.end(), 0), 57);
  const std::vector<int> hx = BuildHistogram1D(db[0], grid, true);
  const std::vector<int> hy = BuildHistogram1D(db[0], grid, false);
  EXPECT_EQ(std::accumulate(hx.begin(), hx.end(), 0), 57);
  EXPECT_EQ(std::accumulate(hy.begin(), hy.end(), 0), 57);
}

TEST(HistogramDistanceTest, IdenticalHistogramsHaveZeroDistance) {
  Rng rng(32);
  TrajectoryDataset db;
  db.Add(testutil::RandomWalk(rng, 40));
  const HistogramGrid grid = HistogramGrid::For(StatsFor(db), kEps);
  const std::vector<int> h = BuildHistogram2D(db[0], grid);
  EXPECT_EQ(HistogramDistance2D(h, h, grid), 0);
}

TEST(HistogramDistanceTest, SymmetricByConstruction) {
  Rng rng(33);
  TrajectoryDataset db;
  db.Add(testutil::RandomWalk(rng, 30));
  db.Add(testutil::RandomWalk(rng, 45));
  const HistogramGrid grid = HistogramGrid::For(StatsFor(db), kEps);
  const std::vector<int> a = BuildHistogram2D(db[0], grid);
  const std::vector<int> b = BuildHistogram2D(db[1], grid);
  EXPECT_EQ(HistogramDistance2D(a, b, grid), HistogramDistance2D(b, a, grid));
}

TEST(HistogramDistanceTest, PaperAdjacentBinExample) {
  // Section 4.3: R = [0.9], S = [1.2], epsilon = 1. The elements match
  // under EDR, so HD must be 0 even though they occupy different bins.
  TrajectoryDataset db;
  db.Add(Trajectory({{0.9, 0.0}}));
  db.Add(Trajectory({{1.2, 0.0}}));
  const HistogramGrid grid = HistogramGrid::For(StatsFor(db), 1.0);
  const std::vector<int> hr = BuildHistogram2D(db[0], grid);
  const std::vector<int> hs = BuildHistogram2D(db[1], grid);
  EXPECT_EQ(EdrDistance(db[0], db[1], 1.0), 0);
  EXPECT_EQ(HistogramDistance2D(hr, hs, grid), 0);
}

TEST(HistogramDistanceTest, AdjacentBinCancellation) {
  // Elements at 0.0 and 1.0 match within epsilon = 1 but land in adjacent
  // bins of the size-1 grid; Definition 5's approximate matching must
  // cancel them, giving HD = 0 = EDR.
  TrajectoryDataset db;
  db.Add(Trajectory({{0.0, 0.0}}));
  db.Add(Trajectory({{1.0, 0.0}}));
  const HistogramGrid grid = HistogramGrid::For(StatsFor(db), 1.0);
  const std::vector<int> a = BuildHistogram2D(db[0], grid);
  const std::vector<int> b = BuildHistogram2D(db[1], grid);
  ASSERT_NE(a, b);  // Different bins...
  EXPECT_EQ(HistogramDistance2D(a, b, grid), 0);  // ...yet zero distance.
  // The 1-D x histograms behave identically.
  EXPECT_EQ(HistogramDistance1D(BuildHistogram1D(db[0], grid, true),
                                BuildHistogram1D(db[1], grid, true)),
            0);
}

TEST(HistogramDistanceTest, ChainedMatchesAcrossBinsRegression) {
  // Regression for a subtle unsoundness in single-pass residual
  // cancellation (the paper's literal Figure 5): matched pairs can chain
  // across bins. R = [0.9, 1.95], S = [1.05, 2.05] with epsilon = 1 and
  // bin size 1 gives EDR = 0 but leaves residuals two bins apart; the
  // transport-based HD must still return 0.
  TrajectoryDataset db;
  db.Add(Trajectory({{0.9, 0.0}, {1.95, 0.0}}));
  db.Add(Trajectory({{1.05, 0.0}, {2.05, 0.0}}));
  const HistogramGrid grid = HistogramGrid::For(StatsFor(db), 1.0);
  ASSERT_EQ(EdrDistance(db[0], db[1], 1.0), 0);
  const std::vector<int> hr = BuildHistogram2D(db[0], grid);
  const std::vector<int> hs = BuildHistogram2D(db[1], grid);
  EXPECT_LE(HistogramDistance2D(hr, hs, grid), 0);
  EXPECT_LE(HistogramDistance1D(BuildHistogram1D(db[0], grid, true),
                                BuildHistogram1D(db[1], grid, true)),
            0);
}

TEST(HistogramDistanceTest, LowerBoundOnDenseOscillatingData) {
  // Dense multi-harmonic trajectories (the Kungfu stand-in) produce long
  // chains of boundary-straddling matches — exactly the case that exposed
  // the residual-cancellation bug. Verify HD <= EDR across a sample.
  TrajectoryDataset db = GenKungfuLike(24, 80, 13);
  db.NormalizeAll();
  const double eps = 0.25;
  const HistogramGrid grid = HistogramGrid::For(StatsFor(db), eps);
  for (size_t i = 0; i < db.size(); i += 3) {
    for (size_t j = i + 1; j < db.size(); j += 5) {
      const int exact = EdrDistance(db[i], db[j], eps);
      EXPECT_LE(HistogramDistance2D(BuildHistogram2D(db[i], grid),
                                    BuildHistogram2D(db[j], grid), grid),
                exact);
      EXPECT_LE(HistogramDistance1D(BuildHistogram1D(db[i], grid, true),
                                    BuildHistogram1D(db[j], grid, true)),
                exact);
    }
  }
}

TEST(HistogramDistanceTest, DisjointHistogramsCostMaxSide) {
  // Far-apart single-element trajectories: one insertion-like residual on
  // each side, no adjacency, HD = max(1, 1) = 1.
  TrajectoryDataset db;
  db.Add(Trajectory({{0.0, 0.0}}));
  db.Add(Trajectory({{10.0, 10.0}}));
  const HistogramGrid grid = HistogramGrid::For(StatsFor(db), 0.5);
  const std::vector<int> a = BuildHistogram2D(db[0], grid);
  const std::vector<int> b = BuildHistogram2D(db[1], grid);
  EXPECT_EQ(HistogramDistance2D(a, b, grid), 1);
}

TEST(HistogramDistanceTest, LengthGapShowsUpAsResidual) {
  TrajectoryDataset db;
  db.Add(Trajectory({{0.0, 0.0}, {0.0, 0.0}, {0.0, 0.0}, {0.0, 0.0}}));
  db.Add(Trajectory({{0.0, 0.0}}));
  const HistogramGrid grid = HistogramGrid::For(StatsFor(db), 0.5);
  const std::vector<int> a = BuildHistogram2D(db[0], grid);
  const std::vector<int> b = BuildHistogram2D(db[1], grid);
  EXPECT_EQ(HistogramDistance2D(a, b, grid), 3);  // = EDR (3 deletions).
}

TEST(HistogramDistanceTest, FastBoundNeverExceedsExact) {
  Rng rng(36);
  TrajectoryDataset db;
  for (int i = 0; i < 12; ++i) {
    db.Add(testutil::RandomWalk(
        rng, static_cast<size_t>(rng.UniformInt(3, 60))));
  }
  db.Add(GenKungfuLike(4, 60, 13)[0]);  // Dense chained data too.
  db.NormalizeAll();
  const HistogramGrid grid = HistogramGrid::For(StatsFor(db), kEps);
  for (size_t i = 0; i < db.size(); ++i) {
    for (size_t j = i + 1; j < db.size(); ++j) {
      const std::vector<int> a = BuildHistogram2D(db[i], grid);
      const std::vector<int> b = BuildHistogram2D(db[j], grid);
      EXPECT_LE(HistogramDistance2DFast(a, b, grid),
                HistogramDistance2D(a, b, grid));
      const std::vector<int> ax = BuildHistogram1D(db[i], grid, true);
      const std::vector<int> bx = BuildHistogram1D(db[j], grid, true);
      EXPECT_LE(HistogramDistance1DFast(ax, bx),
                HistogramDistance1D(ax, bx));
    }
  }
}

TEST(HistogramTableTest, FastLowerBoundValid) {
  const TrajectoryDataset db = testutil::SmallDataset(37, 25);
  for (const HistogramTable::Kind kind :
       {HistogramTable::Kind::k2D, HistogramTable::Kind::k1D}) {
    const HistogramTable table(db, kEps, kind, 1);
    const Trajectory query = db[3];
    const HistogramTable::QueryHistogram qh = table.MakeQueryHistogram(query);
    for (uint32_t id = 0; id < db.size(); ++id) {
      const int fast = table.FastLowerBound(qh, id);
      const int exact = testutil::DefinitionExactBound(table, query, db[id]);
      EXPECT_LE(fast, exact);
      EXPECT_LE(exact, EdrDistance(query, db[id], kEps));
      EXPECT_GE(fast, 0);
    }
  }
}

class HistogramLowerBoundTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HistogramLowerBoundTest, Theorem6HdLowerBoundsEdr) {
  Rng rng(GetParam());
  TrajectoryDataset db;
  for (int i = 0; i < 14; ++i) {
    db.Add(testutil::RandomWalk(
        rng, static_cast<size_t>(rng.UniformInt(3, 60))));
  }
  db.NormalizeAll();
  const HistogramGrid grid = HistogramGrid::For(StatsFor(db), kEps);
  std::vector<std::vector<int>> hs;
  for (const Trajectory& t : db) hs.push_back(BuildHistogram2D(t, grid));
  for (size_t i = 0; i < db.size(); ++i) {
    for (size_t j = i + 1; j < db.size(); ++j) {
      const int lower = HistogramDistance2D(hs[i], hs[j], grid);
      const int exact = EdrDistance(db[i], db[j], kEps);
      EXPECT_LE(lower, exact) << "pair " << i << "," << j;
    }
  }
}

TEST_P(HistogramLowerBoundTest, Corollary1OneDimensionalAndCoarseBins) {
  Rng rng(GetParam() ^ 0x77);
  TrajectoryDataset db;
  for (int i = 0; i < 10; ++i) {
    db.Add(testutil::RandomWalk(
        rng, static_cast<size_t>(rng.UniformInt(3, 50))));
  }
  db.NormalizeAll();
  const DatasetStats stats = StatsFor(db);
  for (size_t i = 0; i < db.size(); ++i) {
    for (size_t j = i + 1; j < db.size(); ++j) {
      const int exact = EdrDistance(db[i], db[j], kEps);
      // Coarse 2-D histograms with bin size delta * eps.
      for (const int delta : {2, 3, 4}) {
        const HistogramGrid grid = HistogramGrid::For(stats, kEps * delta);
        const int lower = HistogramDistance2D(BuildHistogram2D(db[i], grid),
                                              BuildHistogram2D(db[j], grid),
                                              grid);
        EXPECT_LE(lower, exact) << "delta=" << delta;
      }
      // Per-dimension 1-D histograms with bin size eps.
      const HistogramGrid grid = HistogramGrid::For(stats, kEps);
      const int dx =
          HistogramDistance1D(BuildHistogram1D(db[i], grid, true),
                              BuildHistogram1D(db[j], grid, true));
      const int dy =
          HistogramDistance1D(BuildHistogram1D(db[i], grid, false),
                              BuildHistogram1D(db[j], grid, false));
      EXPECT_LE(dx, exact);
      EXPECT_LE(dy, exact);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HistogramLowerBoundTest,
                         ::testing::Range<uint64_t>(600, 612));

TEST(HistogramTableTest, LowerBoundHandlesBothKinds) {
  const TrajectoryDataset db = testutil::SmallDataset(34, 20);
  const HistogramTable t2(db, kEps, HistogramTable::Kind::k2D, 1);
  const HistogramTable t1(db, kEps, HistogramTable::Kind::k1D, 1);
  const Trajectory query = db[2];
  const HistogramTable::QueryHistogram q2 = t2.MakeQueryHistogram(query);
  const HistogramTable::QueryHistogram q1 = t1.MakeQueryHistogram(query);
  for (uint32_t id = 0; id < db.size(); ++id) {
    const int edr = EdrDistance(query, db[id], kEps);
    const int exact2 = testutil::DefinitionExactBound(t2, query, db[id]);
    const int exact1 = testutil::DefinitionExactBound(t1, query, db[id]);
    EXPECT_LE(exact2, edr);
    EXPECT_LE(exact1, edr);
    EXPECT_LE(t2.FastLowerBound(q2, id), exact2);
    EXPECT_LE(t1.FastLowerBound(q1, id), exact1);
    // The 2-D bound is at least as tight as either 1-D bound only in
    // aggregate, but both must be valid lower bounds (checked above) and
    // non-negative.
    EXPECT_GE(t2.FastLowerBound(q2, id), 0);
    EXPECT_GE(t1.FastLowerBound(q1, id), 0);
  }
}

// The precomputed query handle reproduces the bound's definition on
// freshly built dense histograms, for every id.
TEST(HistogramTableTest, QueryHistogramHandleMatchesDirectCalls) {
  const TrajectoryDataset db = testutil::SmallDataset(35, 15);
  const HistogramTable table(db, kEps, HistogramTable::Kind::k2D, 1);
  const Trajectory query = db[1];
  const HistogramTable::QueryHistogram qh = table.MakeQueryHistogram(query);
  for (uint32_t id = 0; id < db.size(); ++id) {
    EXPECT_EQ(table.FastLowerBound(qh, id),
              testutil::DefinitionFastBound(table, query, db[id]));
  }
}

}  // namespace
}  // namespace edr
