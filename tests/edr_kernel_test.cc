#include "distance/edr_kernel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <limits>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/cpu.h"
#include "core/rng.h"
#include "core/trajectory.h"
#include "core/trajectory3.h"
#include "distance/distance3.h"
#include "distance/edr.h"
#include "pruning/combined.h"
#include "query/engine.h"
#include "query/knn.h"
#include "test_util.h"

namespace edr {
namespace {

/// Restores the process-wide default kernel when a test body returns.
struct KernelGuard {
  EdrKernel saved = DefaultEdrKernel();
  ~KernelGuard() { SetDefaultEdrKernel(saved); }
};

Trajectory RandomTrajectory(Rng& rng, size_t length) {
  // Correlated walk with occasional teleports: produces a realistic mix of
  // epsilon-matching and non-matching element pairs.
  Trajectory t;
  Point2 pos{rng.Gaussian(), rng.Gaussian()};
  for (size_t i = 0; i < length; ++i) {
    if (rng.NextDouble() < 0.05) {
      pos = {rng.Uniform(-4.0, 4.0), rng.Uniform(-4.0, 4.0)};
    }
    t.Append(pos);
    pos.x += rng.Gaussian(0.0, 0.3);
    pos.y += rng.Gaussian(0.0, 0.3);
  }
  return t;
}

Trajectory3 RandomTrajectory3(Rng& rng, size_t length) {
  Trajectory3 t;
  Point3 pos{rng.Gaussian(), rng.Gaussian(), rng.Gaussian()};
  for (size_t i = 0; i < length; ++i) {
    t.Append(pos);
    pos.x += rng.Gaussian(0.0, 0.3);
    pos.y += rng.Gaussian(0.0, 0.3);
    pos.z += rng.Gaussian(0.0, 0.3);
  }
  return t;
}

size_t RandomLength(Rng& rng) {
  // Bias toward the 64-bit word boundaries where the multi-word carry
  // logic can go wrong, plus a uniform spread of short/medium lengths.
  switch (rng.UniformInt(0, 3)) {
    case 0: return static_cast<size_t>(rng.UniformInt(62, 66));
    case 1: return static_cast<size_t>(rng.UniformInt(126, 130));
    case 2: return static_cast<size_t>(rng.UniformInt(0, 40));
    default: return static_cast<size_t>(rng.UniformInt(1, 200));
  }
}

TEST(EdrKernelTest, BitParallelMatchesScalarOnRandomPairs) {
  Rng rng(20250806);
  EdrScratch scratch;
  const double epsilons[] = {0.05, 0.25, 1.0};
  for (int iter = 0; iter < 1000; ++iter) {
    const Trajectory a = RandomTrajectory(rng, RandomLength(rng));
    const Trajectory b = RandomTrajectory(rng, RandomLength(rng));
    const double eps = epsilons[iter % 3];
    const int scalar = EdrDistance(a, b, eps);
    const int bitpar = EdrDistanceBitParallel(a, b, eps, scratch);
    ASSERT_EQ(scalar, bitpar)
        << "iter=" << iter << " |a|=" << a.size() << " |b|=" << b.size()
        << " eps=" << eps;
  }
}

TEST(EdrKernelTest, WordBoundaryLengths) {
  Rng rng(7);
  EdrScratch scratch;
  const size_t lengths[] = {1, 2, 63, 64, 65, 127, 128, 129, 192, 256};
  for (const size_t la : lengths) {
    for (const size_t lb : lengths) {
      const Trajectory a = RandomTrajectory(rng, la);
      const Trajectory b = RandomTrajectory(rng, lb);
      ASSERT_EQ(EdrDistance(a, b, 0.25),
                EdrDistanceBitParallel(a, b, 0.25, scratch))
          << "|a|=" << la << " |b|=" << lb;
    }
  }
}

TEST(EdrKernelTest, EdgeCases) {
  EdrScratch scratch;
  const Trajectory empty;
  Rng rng(11);
  const Trajectory one = RandomTrajectory(rng, 1);
  const Trajectory walk = RandomTrajectory(rng, 100);

  EXPECT_EQ(EdrDistanceBitParallel(empty, empty, 0.25, scratch), 0);
  EXPECT_EQ(EdrDistanceBitParallel(empty, walk, 0.25, scratch), 100);
  EXPECT_EQ(EdrDistanceBitParallel(walk, empty, 0.25, scratch), 100);
  EXPECT_EQ(EdrDistanceBitParallel(one, one, 0.25, scratch), 0);
  EXPECT_EQ(EdrDistanceBitParallel(walk, walk, 0.25, scratch), 0);

  // All-mismatch: disjoint spatial ranges force EDR = max(m, n).
  Trajectory far = RandomTrajectory(rng, 70);
  for (Point2& p : far.mutable_points()) p.x += 1000.0;
  EXPECT_EQ(EdrDistanceBitParallel(walk, far, 0.25, scratch), 100);
  EXPECT_EQ(EdrDistance(walk, far, 0.25), 100);

  // Identical trajectories at a word-boundary length.
  const Trajectory b64 = RandomTrajectory(rng, 64);
  EXPECT_EQ(EdrDistanceBitParallel(b64, b64, 0.25, scratch), 0);
}

TEST(EdrKernelTest, BoundedContractBothKernels) {
  Rng rng(42);
  EdrScratch scratch;
  for (int iter = 0; iter < 400; ++iter) {
    const Trajectory a = RandomTrajectory(rng, RandomLength(rng));
    const Trajectory b = RandomTrajectory(rng, RandomLength(rng));
    const int exact = EdrDistance(a, b, 0.25);
    const int max_len = static_cast<int>(std::max(a.size(), b.size()));
    const int bound =
        static_cast<int>(rng.UniformInt(-1, std::max(1, max_len)));
    for (const EdrKernel kernel :
         {EdrKernel::kScalar, EdrKernel::kBitParallel}) {
      const int got =
          EdrDistanceBoundedWith(kernel, scratch, a, b, 0.25, bound);
      if (exact <= bound) {
        ASSERT_EQ(got, exact) << EdrKernelName(kernel) << " bound=" << bound;
      } else {
        ASSERT_GT(got, bound) << EdrKernelName(kernel);
        ASSERT_LE(got, exact) << EdrKernelName(kernel)
                              << " (not a lower bound) bound=" << bound;
      }
    }
  }
}

TEST(EdrKernelTest, DispatchMatchesPublicApi) {
  Rng rng(9);
  EdrScratch scratch;
  for (int iter = 0; iter < 100; ++iter) {
    const Trajectory a = RandomTrajectory(rng, RandomLength(rng));
    const Trajectory b = RandomTrajectory(rng, RandomLength(rng));
    const int expected = EdrDistance(a, b, 0.25);
    EXPECT_EQ(EdrDistanceWith(EdrKernel::kScalar, scratch, a, b, 0.25),
              expected);
    EXPECT_EQ(EdrDistanceWith(EdrKernel::kBitParallel, scratch, a, b, 0.25),
              expected);
  }
}

TEST(EdrKernelTest, BitParallelMatchesScalar3D) {
  Rng rng(123);
  EdrScratch scratch;
  for (int iter = 0; iter < 200; ++iter) {
    const Trajectory3 a = RandomTrajectory3(rng, RandomLength(rng));
    const Trajectory3 b = RandomTrajectory3(rng, RandomLength(rng));
    const int scalar = EdrDistance(a, b, 0.3);
    ASSERT_EQ(scalar, EdrDistanceBitParallel(a, b, 0.3, scratch))
        << "|a|=" << a.size() << " |b|=" << b.size();
    const int bound = static_cast<int>(rng.UniformInt(0, 60));
    const int got = EdrDistanceBoundedWith(EdrKernel::kBitParallel, scratch,
                                           a, b, 0.3, bound);
    if (scalar <= bound) {
      ASSERT_EQ(got, scalar);
    } else {
      ASSERT_GT(got, bound);
      ASSERT_LE(got, scalar);
    }
  }
}

// Every kernel level skips a pattern word when all eight of its group
// boxes are provably far from the text point; exactness rests on rounded
// subtraction being monotone. These inputs attack that argument at every
// supported kernel level, in 2-D and 3-D: NaN, +-inf and +-1e308
// coordinates (so differences overflow) in pattern and text, epsilon at 0
// and +inf, lengths off the 8- and 64-row grid, a pattern whose every word
// is skipped, and one whose word box is near while every group box is far.
struct LevelGuard {
  ~LevelGuard() { ResetActiveKernelLevel(); }
};

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

double HostileCoordinate(Rng& rng, double walk) {
  static constexpr double kSpecial[] = {kNaN, kInf, -kInf, 1e308, -1e308,
                                        0.0,  -0.0};
  if (rng.NextDouble() < 0.15) {
    return kSpecial[rng.UniformInt(
        0, static_cast<int64_t>(std::size(kSpecial)) - 1)];
  }
  return walk;
}

Trajectory HostileTrajectory(Rng& rng, size_t length) {
  Trajectory t = RandomTrajectory(rng, length);
  for (Point2& p : t.mutable_points()) {
    p.x = HostileCoordinate(rng, p.x);
    p.y = HostileCoordinate(rng, p.y);
  }
  return t;
}

Trajectory3 HostileTrajectory3(Rng& rng, size_t length) {
  Trajectory3 t = RandomTrajectory3(rng, length);
  for (Point3& p : t.mutable_points()) {
    p.x = HostileCoordinate(rng, p.x);
    p.y = HostileCoordinate(rng, p.y);
    p.z = HostileCoordinate(rng, p.z);
  }
  return t;
}

// Every group of eight rows sits at x = +-10 (alternating by group), so a
// 64-row word's box spans [-10, 10] while each group box is a point; the
// text alternates between x = 0 (inside the word box, far from every group)
// and x = 10 (matching the odd groups).
template <typename TrajectoryT>
std::pair<TrajectoryT, TrajectoryT> SplitGroupPair(size_t m, size_t n) {
  using PointT = std::decay_t<decltype(std::declval<TrajectoryT>()[0])>;
  TrajectoryT pattern;
  TrajectoryT text;
  for (size_t i = 0; i < m; ++i) {
    PointT p{};
    p.x = (i / 8) % 2 == 0 ? -10.0 : 10.0;
    pattern.Append(p);
  }
  for (size_t j = 0; j < n; ++j) {
    PointT p{};
    p.x = j % 3 == 0 ? 10.0 : 0.0;
    text.Append(p);
  }
  return {pattern, text};
}

template <typename TrajectoryT>
void ExpectAllLevelsExact(const TrajectoryT& a, const TrajectoryT& b,
                          double eps, int bound, EdrScratch& scratch) {
  const int expected = EdrDistance(a, b, eps);
  for (const KernelLevel level :
       {KernelLevel::kScalar, KernelLevel::kSse2, KernelLevel::kAvx2,
        KernelLevel::kAvx512}) {
    if (!SetActiveKernelLevel(level)) continue;
    SCOPED_TRACE(KernelLevelName(level));
    ASSERT_EQ(EdrDistanceBitParallel(a, b, eps, scratch), expected)
        << "|a|=" << a.size() << " |b|=" << b.size() << " eps=" << eps;
    ASSERT_EQ(EdrDistanceBitParallel(b, a, eps, scratch), expected);
    const int got = EdrDistanceBitParallelBounded(a, b, eps, bound, scratch);
    if (expected <= bound) {
      ASSERT_EQ(got, expected) << "bound=" << bound;
    } else {
      ASSERT_GT(got, bound);
      ASSERT_LE(got, expected) << "bound=" << bound;
    }
  }
}

TEST(EdrKernelTest, WordSkipExactOnAdversarialInputs) {
  LevelGuard guard;
  Rng rng(1405);
  EdrScratch scratch;
  const double epsilons[] = {0.0, 0.25, kInf};
  const size_t lengths[] = {1, 5, 9, 63, 65, 100, 131, 200};
  for (const double eps : epsilons) {
    for (const size_t la : lengths) {
      const size_t lb = lengths[rng.UniformInt(
          0, static_cast<int64_t>(std::size(lengths)) - 1)];
      const int bound = static_cast<int>(rng.UniformInt(0, 200));
      ExpectAllLevelsExact(HostileTrajectory(rng, la),
                           HostileTrajectory(rng, lb), eps, bound, scratch);
      ExpectAllLevelsExact(HostileTrajectory3(rng, la),
                           HostileTrajectory3(rng, lb), eps, bound, scratch);
    }

    // Every word skipped: the text lies far outside every group box.
    Trajectory near = RandomTrajectory(rng, 150);
    Trajectory far = RandomTrajectory(rng, 170);
    for (Point2& p : far.mutable_points()) p.y += 1e6;
    ExpectAllLevelsExact(near, far, eps, 160, scratch);
    Trajectory3 near3 = RandomTrajectory3(rng, 150);
    Trajectory3 far3 = RandomTrajectory3(rng, 170);
    for (Point3& p : far3.mutable_points()) p.z -= 1e6;
    ExpectAllLevelsExact(near3, far3, eps, 160, scratch);

    // Word box near, every group box far.
    for (const size_t m : {64, 128, 77}) {
      const auto [pat, txt] = SplitGroupPair<Trajectory>(m, m + 11);
      ExpectAllLevelsExact(pat, txt, eps, kEdrNoBound, scratch);
      const auto [pat3, txt3] = SplitGroupPair<Trajectory3>(m, m + 11);
      ExpectAllLevelsExact(pat3, txt3, eps, kEdrNoBound, scratch);
    }
  }
}

// The abandon value itself, not only the bounded contract, is the same at
// every level: each level runs the same recurrence and floor on the same
// match words. Bounds below, at and above the distance, in 2-D and 3-D.
template <typename TrajectoryT>
void ExpectBoundedIdenticalAcrossLevels(const TrajectoryT& a,
                                        const TrajectoryT& b, double eps,
                                        EdrScratch& scratch) {
  const int d = EdrDistance(a, b, eps);
  for (const int bound : {-1, 0, d / 2, d - 2, d - 1, d, d + 1, d + 5}) {
    ASSERT_TRUE(SetActiveKernelLevel(KernelLevel::kScalar));
    const int reference =
        EdrDistanceBitParallelBounded(a, b, eps, bound, scratch);
    for (const KernelLevel level :
         {KernelLevel::kSse2, KernelLevel::kAvx2, KernelLevel::kAvx512}) {
      if (!SetActiveKernelLevel(level)) continue;
      ASSERT_EQ(EdrDistanceBitParallelBounded(a, b, eps, bound, scratch),
                reference)
          << KernelLevelName(level) << " |a|=" << a.size()
          << " |b|=" << b.size() << " d=" << d << " bound=" << bound;
    }
  }
}

TEST(EdrKernelTest, BoundedValueIdenticalAcrossLevels) {
  LevelGuard guard;
  Rng rng(1502);
  EdrScratch scratch;
  for (int iter = 0; iter < 60; ++iter) {
    const size_t la = RandomLength(rng);
    const size_t lb = RandomLength(rng);
    ExpectBoundedIdenticalAcrossLevels(RandomTrajectory(rng, la),
                                       RandomTrajectory(rng, lb), 0.25,
                                       scratch);
    ExpectBoundedIdenticalAcrossLevels(RandomTrajectory3(rng, la),
                                       RandomTrajectory3(rng, lb), 0.3,
                                       scratch);
  }
}

TEST(EdrKernelTest, BoundFromKthDistanceHandlesInfinities) {
  EXPECT_EQ(EdrBoundFromKthDistance(
                std::numeric_limits<double>::infinity()),
            kEdrNoBound);
  EXPECT_EQ(EdrBoundFromKthDistance(
                -std::numeric_limits<double>::infinity()),
            -1);
  EXPECT_EQ(EdrBoundFromKthDistance(7.0), 7);
}

TEST(EdrKernelTest, KernelNamesAreStable) {
  EXPECT_STREQ(EdrKernelName(EdrKernel::kScalar), "scalar");
  EXPECT_STREQ(EdrKernelName(EdrKernel::kBitParallel), "bit-parallel");
}

// End-to-end certification: the combined searcher (all three filters plus
// bounded refinement) returns distances identical to the sequential-scan
// ground truth under either kernel.
TEST(EdrKernelTest, CombinedSearcherLosslessUnderBothKernels) {
  KernelGuard guard;
  const TrajectoryDataset db = testutil::SmallDataset(77, 60);
  const std::vector<Trajectory> queries = testutil::MakeQueries(db, 78, 4);
  constexpr double kEps = 0.25;
  CombinedOptions options;

  SetDefaultEdrKernel(EdrKernel::kScalar);
  std::vector<KnnResult> truth;
  for (const Trajectory& q : queries) {
    truth.push_back(SequentialScanKnn(db, q, 5, kEps));
  }

  for (const EdrKernel kernel :
       {EdrKernel::kScalar, EdrKernel::kBitParallel}) {
    SetDefaultEdrKernel(kernel);
    const CombinedKnnSearcher searcher(db, kEps, options);
    for (size_t i = 0; i < queries.size(); ++i) {
      const KnnResult got = searcher.Knn(queries[i], 5);
      EXPECT_TRUE(SameKnnDistances(truth[i], got))
          << "kernel=" << EdrKernelName(kernel) << " query " << i;
    }
  }
}

// Pool workers answering a batch each use their own thread-local scratch;
// results must match the single-threaded scan exactly.
TEST(EdrKernelTest, KnnBatchMatchesSequentialWithThreadLocalScratch) {
  KernelGuard guard;
  SetDefaultEdrKernel(EdrKernel::kBitParallel);
  const TrajectoryDataset db = testutil::SmallDataset(31, 40);
  const std::vector<Trajectory> queries = testutil::MakeQueries(db, 32, 6);
  const QueryEngine engine(db, 0.25);

  const std::vector<KnnResult> batch =
      engine.KnnBatch(engine.MakeSeqScan(), queries, 5, 4);
  ASSERT_EQ(batch.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    const KnnResult seq = SequentialScanKnn(db, queries[i], 5, 0.25);
    EXPECT_TRUE(SameKnnDistances(seq, batch[i])) << "query " << i;
  }
}

// The pattern rows and group boxes start on 64-byte boundaries however
// often ReservePattern regrows them, so the widest match kernel's 64-byte
// loads never straddle two cache lines.
TEST(EdrKernelTest, ScratchPatternBuffersAreCacheLineAligned) {
  EdrScratch scratch;
  const auto aligned = [](const double* p) {
    return reinterpret_cast<uintptr_t>(p) % 64 == 0;
  };
  std::vector<std::vector<char>> held;
  for (const size_t m : {1, 64, 65, 200, 640, 1000, 4097}) {
    // Odd-sized allocations kept alive between regrowths move where the
    // heap would otherwise place the next buffers.
    held.emplace_back(m * 8 + 24);
    scratch.ReservePattern(m);
    EXPECT_TRUE(aligned(scratch.px())) << "m=" << m;
    EXPECT_TRUE(aligned(scratch.py())) << "m=" << m;
    EXPECT_TRUE(aligned(scratch.pz())) << "m=" << m;
    EXPECT_TRUE(aligned(scratch.box())) << "m=" << m;
  }
}

}  // namespace
}  // namespace edr
