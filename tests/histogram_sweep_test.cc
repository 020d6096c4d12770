#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "core/rng.h"
#include "distance/edr.h"
#include "pruning/histogram.h"
#include "query/knn.h"
#include "query/thread_pool.h"
#include "test_util.h"

namespace edr {
namespace {

constexpr double kEps = 0.25;

/// A dataset large enough (> 1000 trajectories) that the sweep crosses
/// several cache blocks and exercises remainder lanes of every SIMD loop.
TrajectoryDataset LargeDataset(uint64_t seed, size_t count) {
  Rng rng(seed);
  TrajectoryDataset db("sweep");
  for (size_t i = 0; i < count; ++i) {
    // Lengths 1..40, deliberately including tiny trajectories.
    const size_t len = static_cast<size_t>(rng.UniformInt(1, 40));
    db.Add(testutil::RandomWalk(rng, len));
  }
  db.NormalizeAll();
  return db;
}

void ExpectSweepMatchesPerRow(const HistogramTable& table,
                              const TrajectoryDataset& db,
                              const std::vector<Trajectory>& queries) {
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const HistogramTable::QueryHistogram qh =
        table.MakeQueryHistogram(queries[qi]);
    const std::vector<int> sweep = testutil::SweepOne(table, qh);
    const std::vector<int> scalar = testutil::ScalarSweep(table, qh);
    ASSERT_EQ(sweep.size(), db.size());
    ASSERT_EQ(scalar.size(), db.size());
    for (uint32_t id = 0; id < db.size(); ++id) {
      const int per_row = table.FastLowerBound(qh, id);
      ASSERT_EQ(sweep[id], per_row) << "query " << qi << " id " << id;
      ASSERT_EQ(scalar[id], per_row) << "query " << qi << " id " << id;
    }
  }
}

TEST(HistogramSweepTest, SweepEqualsPerRowBound2D) {
  const TrajectoryDataset db = LargeDataset(901, 1200);
  const HistogramTable table(db, kEps, HistogramTable::Kind::k2D, 1);
  ExpectSweepMatchesPerRow(table, db, testutil::MakeQueries(db, 902, 6));
}

TEST(HistogramSweepTest, SweepEqualsPerRowBound1D) {
  const TrajectoryDataset db = LargeDataset(903, 1200);
  const HistogramTable table(db, kEps, HistogramTable::Kind::k1D, 1);
  ExpectSweepMatchesPerRow(table, db, testutil::MakeQueries(db, 904, 6));
}

TEST(HistogramSweepTest, SweepEqualsPerRowBoundCoarseDelta) {
  const TrajectoryDataset db = LargeDataset(905, 1024);  // exact block size
  const HistogramTable table(db, kEps, HistogramTable::Kind::k2D, 4);
  ExpectSweepMatchesPerRow(table, db, testutil::MakeQueries(db, 906, 4));
}

TEST(HistogramSweepTest, SweepNeverExceedsExactBoundOrEdr) {
  // Spot-check soundness on a smaller set: the fast bound must never
  // exceed the exact transport bound (which itself lower-bounds EDR).
  const TrajectoryDataset db = LargeDataset(907, 64);
  const HistogramTable table(db, kEps, HistogramTable::Kind::k2D, 1);
  const std::vector<Trajectory> queries = testutil::MakeQueries(db, 908, 3);
  for (const Trajectory& q : queries) {
    const HistogramTable::QueryHistogram qh = table.MakeQueryHistogram(q);
    const std::vector<int> sweep = testutil::SweepOne(table, qh);
    for (uint32_t id = 0; id < db.size(); ++id) {
      const int exact = testutil::DefinitionExactBound(table, q, db[id]);
      EXPECT_LE(sweep[id], exact) << id;
      EXPECT_LE(exact, EdrDistance(q, db[id], kEps)) << id;
    }
  }
}

TEST(HistogramSweepTest, EmptyQueryAndShortTrajectories) {
  Rng rng(909);
  TrajectoryDataset db("edge");
  db.Add(testutil::RandomWalk(rng, 1));
  db.Add(testutil::RandomWalk(rng, 2));
  db.Add(testutil::RandomWalk(rng, 30));
  db.NormalizeAll();
  const HistogramTable table(db, kEps, HistogramTable::Kind::k2D, 1);

  const Trajectory empty;
  const HistogramTable::QueryHistogram qh = table.MakeQueryHistogram(empty);
  const std::vector<int> sweep = testutil::SweepOne(table, qh);
  ASSERT_EQ(sweep.size(), db.size());
  for (uint32_t id = 0; id < db.size(); ++id) {
    // An empty query cannot match anything: the bound is |S| exactly.
    EXPECT_EQ(sweep[id], static_cast<int>(db[id].size()));
    EXPECT_EQ(sweep[id], table.FastLowerBound(qh, id));
  }
}

/// Index of the first position where `got` differs from `want`, or -1.
long FirstMismatch(const std::vector<int>& got, const std::vector<int>& want) {
  if (got.size() != want.size()) return 0;
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i] != want[i]) return static_cast<long>(i);
  }
  return -1;
}

/// Checks every path of the fast bound — the per-row FastLowerBound, and
/// the sweep at the active and at the scalar level and sharded over 4
/// workers — against the bound's definition on freshly built dense
/// histograms of the query and of every db[id].
void ExpectEveryPathMatchesDefinition(const TrajectoryDataset& db,
                                      const HistogramTable& table,
                                      const std::vector<Trajectory>& queries,
                                      const std::string& context) {
  static ThreadPool pool(4);
  KnnOptions parallel;
  parallel.intra_query_workers = 4;
  parallel.pool = &pool;
  SCOPED_TRACE(context);

  std::vector<HistogramTable::QueryHistogram> qhs;
  std::vector<std::vector<int>> want(queries.size());
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    qhs.push_back(table.MakeQueryHistogram(queries[qi]));
    for (const Trajectory& s : db) {
      want[qi].push_back(testutil::DefinitionFastBound(table, queries[qi], s));
    }
  }

  for (size_t qi = 0; qi < queries.size(); ++qi) {
    std::vector<int> got(db.size());
    for (uint32_t id = 0; id < db.size(); ++id) {
      got[id] = table.FastLowerBound(qhs[qi], id);
    }
    EXPECT_EQ(FirstMismatch(got, want[qi]), -1) << "per-row, query " << qi;
    got = testutil::SweepOne(table, qhs[qi]);
    EXPECT_EQ(FirstMismatch(got, want[qi]), -1) << "sweep, query " << qi;
    got = testutil::ScalarSweep(table, qhs[qi]);
    EXPECT_EQ(FirstMismatch(got, want[qi]), -1) << "scalar, query " << qi;
    got = testutil::SweepOne(table, qhs[qi], parallel);
    EXPECT_EQ(FirstMismatch(got, want[qi]), -1) << "parallel, query " << qi;
  }
}

/// Queries that reach the edges of the bound: an empty and a one-point
/// trajectory, database members with one perturbed element, and a fresh
/// walk.
std::vector<Trajectory> EdgeQueries(const TrajectoryDataset& db,
                                    uint64_t seed) {
  std::vector<Trajectory> queries = testutil::MakeQueries(db, seed, 3);
  queries.push_back(Trajectory());
  Trajectory one;
  one.Append(db[0].empty() ? Point2{0.0, 0.0} : db[0][0]);
  queries.push_back(one);
  Rng rng(seed);
  queries.push_back(testutil::RandomWalk(rng, 25));
  return queries;
}

// Both kinds at delta 1 and 4 over 1500 rows (not a multiple of the
// 1024-row sweep block), with 1-point trajectories in the database.
TEST(HistogramSweepTest, EveryPathMatchesDefinition) {
  const TrajectoryDataset db = LargeDataset(911, 1500);
  const std::vector<Trajectory> queries = EdgeQueries(db, 912);
  for (const HistogramTable::Kind kind :
       {HistogramTable::Kind::k2D, HistogramTable::Kind::k1D}) {
    for (const int delta : {1, 4}) {
      const HistogramTable table(db, kEps, kind, delta);
      ExpectEveryPathMatchesDefinition(
          db, table, queries,
          std::string(kind == HistogramTable::Kind::k2D ? "2D" : "1D") +
              " delta=" + std::to_string(delta));
    }
  }
}

// Query elements on, and far beyond, every edge of the grid land in its
// border bins, whose neighbourhoods the grid clamps.
TEST(HistogramSweepTest, EveryPathMatchesDefinitionOnGridBorder) {
  const TrajectoryDataset db = LargeDataset(913, 400);
  const DatasetStats stats = db.Stats();
  Trajectory border;
  for (const double x : {stats.min_xy.x - 50.0, stats.min_xy.x,
                         stats.max_xy.x, stats.max_xy.x + 50.0}) {
    for (const double y : {stats.min_xy.y - 50.0, stats.min_xy.y,
                           stats.max_xy.y, stats.max_xy.y + 50.0}) {
      border.Append({x, y});
    }
  }
  std::vector<Trajectory> queries = {border};
  Trajectory corner;
  corner.Append({stats.min_xy.x - 50.0, stats.min_xy.y - 50.0});
  corner.Append({stats.max_xy.x + 50.0, stats.max_xy.y + 50.0});
  queries.push_back(corner);
  for (const HistogramTable::Kind kind :
       {HistogramTable::Kind::k2D, HistogramTable::Kind::k1D}) {
    const HistogramTable table(db, kEps, kind, 1);
    ExpectEveryPathMatchesDefinition(
        db, table, queries,
        kind == HistogramTable::Kind::k2D ? "border 2D" : "border 1D");
  }
}

// Data that is one bin wide: every x is the same, so the 2-D table uses a
// single column of the grid and the 1-D x table a single bin; a huge
// epsilon then puts the whole database into one bin of a 3x3 grid.
TEST(HistogramSweepTest, EveryPathMatchesDefinitionOnOneBinWideData) {
  Rng rng(915);
  TrajectoryDataset db("one-bin-wide");
  for (size_t i = 0; i < 300; ++i) {
    Trajectory t;
    const size_t len = static_cast<size_t>(rng.UniformInt(1, 12));
    for (size_t j = 0; j < len; ++j) t.Append({0.5, rng.Gaussian(0.0, 1.0)});
    db.Add(t);
  }
  const std::vector<Trajectory> queries = EdgeQueries(db, 916);
  for (const double eps : {kEps, 100.0}) {
    for (const HistogramTable::Kind kind :
         {HistogramTable::Kind::k2D, HistogramTable::Kind::k1D}) {
      const HistogramTable table(db, eps, kind, 1);
      ExpectEveryPathMatchesDefinition(
          db, table, queries,
          std::string(kind == HistogramTable::Kind::k2D ? "2D" : "1D") +
              " eps=" + std::to_string(eps));
    }
  }
}

// Clustered multi-point trajectories give the table dense columns in both
// stores.
TEST(HistogramSweepTest, EveryPathMatchesDefinitionWithDenseColumns) {
  Rng rng(917);
  TrajectoryDataset db("dense");
  for (size_t i = 0; i < 1100; ++i) {
    Trajectory t;
    for (size_t j = 0; j < 5; ++j) {
      t.Append({rng.Gaussian(0.0, 0.05), rng.Gaussian(0.0, 0.05)});
    }
    db.Add(t);
  }
  const std::vector<Trajectory> queries = EdgeQueries(db, 918);
  const HistogramTable table(db, 0.05, HistogramTable::Kind::k2D, 1);
  const HistogramStorageStats stats = table.storage_stats();
  ASSERT_GT(stats.raw.dense_columns, 0u) << "dataset no longer drives dense";
  ASSERT_GT(stats.ns.dense_columns, 0u) << "dataset no longer drives dense";
  ExpectEveryPathMatchesDefinition(db, table, queries, "dense columns");
}

// NaN and +-1e300 query coordinates take the clamped binning path: the
// query handle and every sweep must stay well-defined, and the bounds must
// equal the definition and stay below EDR.
TEST(HistogramSweepTest, NonFiniteAndFarQueriesStaySound) {
  const TrajectoryDataset db = LargeDataset(919, 300);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<Trajectory> queries;
  for (const Point2 odd : {Point2{nan, nan}, Point2{nan, 0.1},
                           Point2{0.1, nan}, Point2{1e300, -1e300},
                           Point2{-1e300, 1e300}, Point2{1e300, nan}}) {
    Trajectory q = db[5];
    q.Append(odd);
    queries.push_back(q);
    Trajectory alone;
    alone.Append(odd);
    queries.push_back(alone);
  }
  for (const HistogramTable::Kind kind :
       {HistogramTable::Kind::k2D, HistogramTable::Kind::k1D}) {
    const HistogramTable table(db, kEps, kind, 1);
    for (const Trajectory& q : queries) {
      const HistogramTable::QueryHistogram qh = table.MakeQueryHistogram(q);
      const std::vector<int> sweep = testutil::SweepOne(table, qh);
      for (uint32_t id = 0; id < db.size(); ++id) {
        EXPECT_EQ(sweep[id], testutil::DefinitionFastBound(table, q, db[id]));
        EXPECT_LE(sweep[id], EdrDistance(q, db[id], kEps));
      }
    }
    ExpectEveryPathMatchesDefinition(
        db, table, queries,
        kind == HistogramTable::Kind::k2D ? "non-finite 2D" : "non-finite 1D");
  }
}

// Datasets whose range the grid cannot span directly: every trajectory
// empty (the stats keep min = +inf, max = -inf), and coordinates near
// +-1e308 (max - min overflows to +inf). Both must build a table whose
// sweep is well-defined, equals the definition and stays below EDR.
TEST(HistogramSweepTest, EmptyAndFarDatasetsStaySound) {
  TrajectoryDataset empty("all-empty");
  for (int i = 0; i < 4; ++i) empty.Add(Trajectory());

  Rng rng(921);
  TrajectoryDataset far("far");
  for (int i = 0; i < 40; ++i) {
    Trajectory t;
    for (int j = 0; j < 6; ++j) {
      const double sx = rng.UniformInt(0, 1) == 0 ? -1.0 : 1.0;
      const double sy = rng.UniformInt(0, 1) == 0 ? -1.0 : 1.0;
      t.Append({sx * 1e308 * rng.Uniform(0.999, 1.0),
                sy * 1e308 * rng.Uniform(0.999, 1.0)});
    }
    far.Add(t);
  }
  far.Add(testutil::RandomWalk(rng, 12));

  for (const TrajectoryDataset* db : {&empty, &far}) {
    std::vector<Trajectory> queries = {Trajectory(),
                                       testutil::RandomWalk(rng, 9)};
    if (!(*db)[0].empty()) {
      queries.push_back((*db)[0]);
      queries.push_back((*db)[db->size() - 1]);
    }
    for (const HistogramTable::Kind kind :
         {HistogramTable::Kind::k2D, HistogramTable::Kind::k1D}) {
      const HistogramTable table(*db, kEps, kind, 1);
      SCOPED_TRACE(db->name() + (kind == HistogramTable::Kind::k2D ? " 2D"
                                                                   : " 1D"));
      for (const Trajectory& q : queries) {
        const std::vector<int> sweep =
            testutil::SweepOne(table, table.MakeQueryHistogram(q));
        ASSERT_EQ(sweep.size(), db->size());
        for (uint32_t id = 0; id < db->size(); ++id) {
          EXPECT_EQ(sweep[id],
                    testutil::DefinitionFastBound(table, q, (*db)[id]));
          EXPECT_LE(sweep[id], EdrDistance(q, (*db)[id], kEps)) << id;
        }
      }
    }
  }
}

}  // namespace
}  // namespace edr
