#include "pruning/qgram.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/cpu.h"
#include "core/rng.h"
#include "distance/edr.h"
#include "test_util.h"

namespace edr {
namespace {

TEST(QgramTest, MeanValueQgramsSize1AreThePointsThemselves) {
  const Trajectory t({{1, 2}, {3, 4}, {5, 6}});
  const std::vector<Point2> means = MeanValueQgrams(t, 1);
  ASSERT_EQ(means.size(), 3u);
  EXPECT_EQ(means[0], (Point2{1, 2}));
  EXPECT_EQ(means[2], (Point2{5, 6}));
}

TEST(QgramTest, MeanValueQgramsPaperExample) {
  // Section 4.1: S = [(1,2),(3,4),(5,6),(7,8),(9,10)], Q-grams of size 3
  // have mean value pairs (3,4), (5,6), (7,8).
  const Trajectory s({{1, 2}, {3, 4}, {5, 6}, {7, 8}, {9, 10}});
  const std::vector<Point2> means = MeanValueQgrams(s, 3);
  ASSERT_EQ(means.size(), 3u);
  EXPECT_EQ(means[0], (Point2{3, 4}));
  EXPECT_EQ(means[1], (Point2{5, 6}));
  EXPECT_EQ(means[2], (Point2{7, 8}));
}

TEST(QgramTest, GramCountIsLengthMinusQPlusOne) {
  Rng rng(91);
  const Trajectory t = testutil::RandomWalk(rng, 20);
  for (int q = 1; q <= 4; ++q) {
    EXPECT_EQ(MeanValueQgrams(t, q).size(), 20u - static_cast<size_t>(q) + 1);
  }
}

TEST(QgramTest, TooShortTrajectoryHasNoGrams) {
  const Trajectory t({{0, 0}, {1, 1}});
  EXPECT_TRUE(MeanValueQgrams(t, 3).empty());
  EXPECT_TRUE(MeanValueQgrams1D(t, 3, true).empty());
  EXPECT_TRUE(MeanValueQgrams(Trajectory(), 1).empty());
}

TEST(QgramTest, InvalidQYieldsNoGrams) {
  const Trajectory t({{0, 0}, {1, 1}});
  EXPECT_TRUE(MeanValueQgrams(t, 0).empty());
  EXPECT_TRUE(MeanValueQgrams(t, -2).empty());
}

TEST(QgramTest, OneDimensionalMeansAreProjections) {
  Rng rng(92);
  const Trajectory t = testutil::RandomWalk(rng, 15);
  for (int q = 1; q <= 3; ++q) {
    const std::vector<Point2> full = MeanValueQgrams(t, q);
    const std::vector<double> xs = MeanValueQgrams1D(t, q, /*use_x=*/true);
    const std::vector<double> ys = MeanValueQgrams1D(t, q, /*use_x=*/false);
    ASSERT_EQ(full.size(), xs.size());
    ASSERT_EQ(full.size(), ys.size());
    for (size_t i = 0; i < full.size(); ++i) {
      EXPECT_NEAR(full[i].x, xs[i], 1e-12);
      EXPECT_NEAR(full[i].y, ys[i], 1e-12);
    }
  }
}

TEST(QgramTest, Theorem2GramMatchImpliesMeanMatch) {
  // If two grams match element-wise within eps, their means match too.
  Rng rng(93);
  constexpr double kEps = 0.3;
  for (int trial = 0; trial < 50; ++trial) {
    const int q = static_cast<int>(rng.UniformInt(1, 4));
    Trajectory a;
    Trajectory b;
    for (int i = 0; i < q; ++i) {
      const Point2 p{rng.Gaussian(), rng.Gaussian()};
      a.Append(p);
      b.Append({p.x + rng.Uniform(-kEps, kEps),
                p.y + rng.Uniform(-kEps, kEps)});
    }
    const Point2 mean_a = MeanValueQgrams(a, q)[0];
    const Point2 mean_b = MeanValueQgrams(b, q)[0];
    EXPECT_TRUE(Match(mean_a, mean_b, kEps));
  }
}

TEST(QgramTest, ThresholdFormula) {
  // p = max(m, n) - q + 1 - k*q (Theorem 1).
  EXPECT_EQ(QgramCountThreshold(10, 20, 2, 3), 20 - 2 + 1 - 6);
  EXPECT_EQ(QgramCountThreshold(20, 10, 2, 3), 20 - 2 + 1 - 6);
  EXPECT_EQ(QgramCountThreshold(5, 5, 1, 10), 5 - 1 + 1 - 10);  // negative OK
}

size_t BruteForceCount2D(const std::vector<Point2>& q_means,
                         const std::vector<Point2>& s_means, double eps) {
  size_t count = 0;
  for (const Point2& qm : q_means) {
    for (const Point2& sm : s_means) {
      if (Match(qm, sm, eps)) {
        ++count;
        break;
      }
    }
  }
  return count;
}

TEST(QgramTest, CountMatchingMeans2DMatchesBruteForce) {
  Rng rng(94);
  for (int trial = 0; trial < 40; ++trial) {
    const Trajectory a = testutil::RandomWalk(rng, 30);
    const Trajectory b = testutil::RandomWalk(rng, 25);
    const int q = static_cast<int>(rng.UniformInt(1, 4));
    const double eps = rng.Uniform(0.05, 0.8);
    std::vector<Point2> qa = MeanValueQgrams(a, q);
    std::vector<Point2> qb = MeanValueQgrams(b, q);
    const size_t brute = BruteForceCount2D(qa, qb, eps);
    SortMeans(qa);
    SortMeans(qb);
    EXPECT_EQ(CountMatchingMeans2D(qa, qb, eps), brute);
  }
}

TEST(QgramTest, CountMatchingMeans1DMatchesBruteForce) {
  Rng rng(95);
  for (int trial = 0; trial < 40; ++trial) {
    const Trajectory a = testutil::RandomWalk(rng, 30);
    const Trajectory b = testutil::RandomWalk(rng, 25);
    const int q = static_cast<int>(rng.UniformInt(1, 4));
    const double eps = rng.Uniform(0.05, 0.8);
    std::vector<double> qa = MeanValueQgrams1D(a, q, true);
    std::vector<double> qb = MeanValueQgrams1D(b, q, true);
    size_t brute = 0;
    for (const double x : qa) {
      for (const double y : qb) {
        if (std::fabs(x - y) <= eps) {
          ++brute;
          break;
        }
      }
    }
    std::sort(qa.begin(), qa.end());
    std::sort(qb.begin(), qb.end());
    EXPECT_EQ(CountMatchingMeans1D(qa, qb, eps), brute);
  }
}

// Means on a coarse grid, so equal x values are common, with about one in
// five repeated outright.
std::vector<Point2> RandomGridMeans(Rng& rng, size_t count) {
  std::vector<Point2> means;
  while (means.size() < count) {
    if (!means.empty() && rng.NextDouble() < 0.2) {
      means.push_back(means.back());
    } else {
      means.push_back({0.25 * static_cast<double>(rng.UniformInt(-8, 8)),
                       0.25 * static_cast<double>(rng.UniformInt(-8, 8))});
    }
  }
  return means;
}

// The early-decided count of the combined searcher's Q-gram step must be
// exactly `count >= threshold`, at every kernel level (the window scan is
// level-dispatched), on both sides of the threshold and with empty query
// or data means.
TEST(QgramTest, AtLeastMatches2DDecidesTheCountAtEveryLevel) {
  struct LevelGuard {
    ~LevelGuard() { ResetActiveKernelLevel(); }
  } guard;
  Rng rng(1501);
  // With q = 1 a trajectory's means are its points, so each slice of the
  // table holds exactly the generated means; every tenth one is empty.
  TrajectoryDataset db("grid-means");
  for (int i = 0; i < 40; ++i) {
    const size_t count =
        i % 10 == 0 ? 0 : static_cast<size_t>(rng.UniformInt(1, 90));
    Trajectory t;
    for (const Point2 p : RandomGridMeans(rng, count)) t.Append(p);
    db.Add(std::move(t));
  }
  const QgramMeansTable table(db, /*q=*/1, /*dims=*/2);
  std::vector<std::vector<Point2>> queries = {{}};
  for (int i = 0; i < 12; ++i) {
    std::vector<Point2> means =
        RandomGridMeans(rng, static_cast<size_t>(rng.UniformInt(1, 100)));
    SortMeans(means);
    queries.push_back(std::move(means));
  }
  for (const KernelLevel level :
       {KernelLevel::kScalar, KernelLevel::kSse2, KernelLevel::kAvx2,
        KernelLevel::kAvx512}) {
    if (!SetActiveKernelLevel(level)) continue;
    SCOPED_TRACE(KernelLevelName(level));
    for (const double eps : {0.0, 0.25, 1e300}) {
      for (const std::vector<Point2>& means : queries) {
        for (uint32_t id = 0; id < table.size(); ++id) {
          const size_t count = table.CountMatches2D(means, eps, id);
          for (const size_t th : {size_t{1}, count, count + 1, means.size(),
                                  means.size() + 1}) {
            ASSERT_EQ(table.AtLeastMatches2D(means, eps, id, th),
                      count >= th)
                << "eps=" << eps << " id=" << id << " |means|="
                << means.size() << " count=" << count << " th=" << th;
          }
        }
      }
    }
  }
}

class QgramSoundnessTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(QgramSoundnessTest, CountBoundNeverViolatedByTrueEdr) {
  // The heart of Theorem 1/3/4 soundness: for any pair, the number of
  // matching mean Q-grams is at least max(m,n)-q+1-EDR*q, in 2-D and in
  // each projected dimension.
  //
  // In odd trials one coordinate of an element of `a` other than the last
  // turns hostile: huge, infinite or NaN. Every later mean still has to
  // come out right, so each must be computed from its own window; a
  // running sum keeps the element's rounding error, or its NaN, after the
  // element has left the window. The hostile draws come from their own
  // generator, so the walks are those of the finite trials.
  Rng rng(GetParam());
  Rng hostile(GetParam() + 7919);
  const double kHostile[] = {1e17, 1e300,
                             std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity()};
  constexpr double kEps = 0.25;
  for (int trial = 0; trial < 10; ++trial) {
    Trajectory a =
        testutil::RandomWalk(rng, static_cast<size_t>(rng.UniformInt(5, 50)));
    const Trajectory b =
        testutil::RandomWalk(rng, static_cast<size_t>(rng.UniformInt(5, 50)));
    if (trial % 2 == 1) {
      Point2& p = a[static_cast<size_t>(
          hostile.UniformInt(0, static_cast<int64_t>(a.size()) - 2))];
      (hostile.NextDouble() < 0.5 ? p.x : p.y) =
          kHostile[hostile.UniformInt(0, 4)];
    }
    const long k = EdrDistance(a, b, kEps);
    for (int q = 1; q <= 4; ++q) {
      const long threshold = QgramCountThreshold(a.size(), b.size(), q, k);

      std::vector<Point2> qa = MeanValueQgrams(a, q);
      std::vector<Point2> qb = MeanValueQgrams(b, q);
      SortMeans(qa);
      SortMeans(qb);
      EXPECT_GE(static_cast<long>(CountMatchingMeans2D(qa, qb, kEps)),
                threshold)
          << "q=" << q << " k=" << k;

      for (const bool use_x : {true, false}) {
        std::vector<double> pa = MeanValueQgrams1D(a, q, use_x);
        std::vector<double> pb = MeanValueQgrams1D(b, q, use_x);
        std::sort(pa.begin(), pa.end());
        std::sort(pb.begin(), pb.end());
        EXPECT_GE(static_cast<long>(CountMatchingMeans1D(pa, pb, kEps)),
                  threshold)
            << "q=" << q << " k=" << k << " use_x=" << use_x;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QgramSoundnessTest,
                         ::testing::Range<uint64_t>(300, 315));

}  // namespace
}  // namespace edr
