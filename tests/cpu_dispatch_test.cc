#include <gtest/gtest.h>

#include <vector>

#include "core/cpu.h"
#include "distance/edr.h"
#include "distance/edr_kernel.h"
#include "pruning/histogram.h"
#include "pruning/qgram.h"
#include "pruning/qgram_knn.h"
#include "test_util.h"

namespace edr {
namespace {

constexpr double kEps = 0.25;

const KernelLevel kAllLevels[] = {KernelLevel::kScalar, KernelLevel::kSse2,
                                  KernelLevel::kAvx2, KernelLevel::kAvx512};

/// Restores the environment-resolved dispatch level however a test exits.
struct LevelGuard {
  ~LevelGuard() { ResetActiveKernelLevel(); }
};

TEST(CpuDispatchTest, NamesRoundTrip) {
  for (const KernelLevel level : kAllLevels) {
    KernelLevel parsed;
    ASSERT_TRUE(ParseKernelLevel(KernelLevelName(level), &parsed))
        << KernelLevelName(level);
    EXPECT_EQ(parsed, level);
  }
  KernelLevel out;
  EXPECT_FALSE(ParseKernelLevel("sse9", &out));
  EXPECT_FALSE(ParseKernelLevel("", &out));
  EXPECT_FALSE(ParseKernelLevel(nullptr, &out));
}

TEST(CpuDispatchTest, ScalarAlwaysSupported) {
  EXPECT_TRUE(KernelLevelSupported(KernelLevel::kScalar));
}

TEST(CpuDispatchTest, ActiveLevelIsSupported) {
  EXPECT_TRUE(KernelLevelSupported(ActiveKernelLevel()));
}

TEST(CpuDispatchTest, PinningFollowsSupport) {
  LevelGuard guard;
  for (const KernelLevel level : kAllLevels) {
    const KernelLevel before = ActiveKernelLevel();
    if (KernelLevelSupported(level)) {
      EXPECT_TRUE(SetActiveKernelLevel(level));
      EXPECT_EQ(ActiveKernelLevel(), level);
    } else {
      EXPECT_FALSE(SetActiveKernelLevel(level));
      EXPECT_EQ(ActiveKernelLevel(), before);
    }
  }
}

// Every kernel level available on this host must produce bit-identical
// results to the pinned-scalar baseline across the three dispatching
// kernel families: the histogram bound sweep, the Q-gram merge-count, and
// the bit-parallel EDR match vectors.
TEST(CpuDispatchTest, AllSupportedLevelsBitIdentical) {
  LevelGuard guard;
  const TrajectoryDataset db = testutil::SmallDataset(601, 250, 6, 40);
  const auto queries = testutil::MakeQueries(db, 602, 3);

  const HistogramTable table(db, kEps, HistogramTable::Kind::k2D, 1);
  const QgramMeansTable means_table(db, /*q=*/1, /*dims=*/2);
  std::vector<std::vector<Point2>> query_means;
  for (const Trajectory& q : queries) {
    std::vector<Point2> means = MeanValueQgrams(q, 1);
    SortMeans(means);
    query_means.push_back(std::move(means));
  }

  // Scalar baseline.
  ASSERT_TRUE(SetActiveKernelLevel(KernelLevel::kScalar));
  std::vector<std::vector<int>> base_sweeps;
  std::vector<std::vector<size_t>> base_counts;
  std::vector<std::vector<int>> base_edr;
  EdrScratch scratch;
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const auto qh = table.MakeQueryHistogram(queries[qi]);
    base_sweeps.push_back(testutil::SweepOne(table, qh));
    std::vector<size_t> counts(db.size());
    std::vector<int> dists(db.size());
    for (uint32_t id = 0; id < db.size(); ++id) {
      counts[id] = means_table.CountMatches2D(query_means[qi], kEps, id);
      dists[id] = EdrDistanceBitParallel(queries[qi], db[id], kEps, scratch);
    }
    base_counts.push_back(std::move(counts));
    base_edr.push_back(std::move(dists));
  }

  for (const KernelLevel level : kAllLevels) {
    if (!KernelLevelSupported(level)) continue;
    ASSERT_TRUE(SetActiveKernelLevel(level));
    SCOPED_TRACE(KernelLevelName(level));
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      const auto qh = table.MakeQueryHistogram(queries[qi]);
      EXPECT_EQ(testutil::SweepOne(table, qh), base_sweeps[qi]);
      for (uint32_t id = 0; id < db.size(); ++id) {
        ASSERT_EQ(means_table.CountMatches2D(query_means[qi], kEps, id),
                  base_counts[qi][id])
            << "id=" << id;
        ASSERT_EQ(EdrDistanceBitParallel(queries[qi], db[id], kEps, scratch),
                  base_edr[qi][id])
            << "id=" << id;
      }
    }
  }
}

// The dense min-cap kernel and the blocked-sparse posting loop must be
// bit-identical to the pinned-scalar baseline at every supported level,
// for one query and for a group. The dataset is shaped so the adaptive
// table holds every column layout at once: a tight all-ones cluster and a
// repeated-point cluster (dense), far-away random walks (blocked-sparse),
// and untouched space (empty).
TEST(CpuDispatchTest, MixedLayoutSweepsBitIdenticalAcrossLevels) {
  LevelGuard guard;
  Rng rng(604);
  TrajectoryDataset db("mixed");
  for (int i = 0; i < 180; ++i) {
    Trajectory t;
    t.Append({rng.Gaussian(0.0, 0.02), rng.Gaussian(0.0, 0.02)});
    db.Add(t);
  }
  for (int i = 0; i < 120; ++i) {
    Trajectory t;
    for (int j = 0; j < 4; ++j) {
      t.Append({rng.Gaussian(0.9, 0.005), rng.Gaussian(0.9, 0.005)});
    }
    db.Add(t);
  }
  for (int i = 0; i < 30; ++i) {
    Trajectory w = testutil::RandomWalk(rng, 24);
    for (size_t j = 0; j < w.size(); ++j) {
      w[j].x += 10.0;
      w[j].y += 10.0;
    }
    db.Add(w);
  }
  const HistogramTable table(db, 0.05, HistogramTable::Kind::k2D, 1);
  const HistogramStorageStats stats = table.storage_stats();
  ASSERT_GT(stats.raw.sparse_columns, 0u);
  ASSERT_GT(stats.raw.dense_columns, 0u);
  ASSERT_GT(stats.raw.empty_columns, 0u);

  std::vector<HistogramTable::QueryHistogram> qhs;
  for (const size_t i : {size_t{0}, size_t{100}, size_t{200}, size_t{310}}) {
    qhs.push_back(table.MakeQueryHistogram(db[i]));
  }

  ASSERT_TRUE(SetActiveKernelLevel(KernelLevel::kScalar));
  std::vector<std::vector<int>> base(qhs.size());
  for (size_t i = 0; i < qhs.size(); ++i) {
    base[i] = testutil::SweepOne(table, qhs[i]);
  }

  for (const KernelLevel level : kAllLevels) {
    if (!KernelLevelSupported(level)) continue;
    ASSERT_TRUE(SetActiveKernelLevel(level));
    SCOPED_TRACE(KernelLevelName(level));
    for (size_t i = 0; i < qhs.size(); ++i) {
      EXPECT_EQ(testutil::SweepOne(table, qhs[i]), base[i]) << "i=" << i;
    }
  }
}

// A query's Q-gram counts (QgramKnnSearcher::MatchCounts, both merge
// variants) must match the scalar counts at every supported level.
TEST(CpuDispatchTest, QgramCountsBitIdenticalAcrossLevels) {
  LevelGuard guard;
  const TrajectoryDataset db = testutil::SmallDataset(605, 200, 6, 40);
  const auto queries = testutil::MakeQueries(db, 606, 4);

  for (const QgramVariant variant :
       {QgramVariant::kMerge2D, QgramVariant::kMerge1D}) {
    const QgramKnnSearcher searcher(db, kEps, /*q=*/1, variant);
    SCOPED_TRACE(QgramVariantName(variant));
    ASSERT_TRUE(SetActiveKernelLevel(KernelLevel::kScalar));
    std::vector<std::vector<size_t>> base;
    for (const Trajectory& q : queries) base.push_back(searcher.MatchCounts(q));
    for (const KernelLevel level : kAllLevels) {
      if (!KernelLevelSupported(level)) continue;
      ASSERT_TRUE(SetActiveKernelLevel(level));
      SCOPED_TRACE(KernelLevelName(level));
      for (size_t i = 0; i < queries.size(); ++i) {
        EXPECT_EQ(searcher.MatchCounts(queries[i]), base[i]) << "i=" << i;
      }
    }
  }
}

// The bounded (early-abandoning) bit-parallel kernel must keep its
// contract at every level: exact when within bound, certified > bound
// otherwise.
TEST(CpuDispatchTest, BoundedEdrContractAtEveryLevel) {
  LevelGuard guard;
  const TrajectoryDataset db = testutil::SmallDataset(603, 60, 6, 40);
  EdrScratch scratch;
  for (const KernelLevel level : kAllLevels) {
    if (!KernelLevelSupported(level)) continue;
    ASSERT_TRUE(SetActiveKernelLevel(level));
    SCOPED_TRACE(KernelLevelName(level));
    for (size_t i = 0; i + 1 < db.size(); i += 7) {
      const int exact =
          EdrDistanceBitParallel(db[i], db[i + 1], kEps, scratch);
      for (const int bound : {0, exact - 1, exact, exact + 3}) {
        if (bound < 0) continue;
        const int got = EdrDistanceBitParallelBounded(db[i], db[i + 1], kEps,
                                                      bound, scratch);
        if (exact <= bound) {
          EXPECT_EQ(got, exact);
        } else {
          EXPECT_GT(got, bound);
        }
      }
    }
  }
}

}  // namespace
}  // namespace edr
