#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "data/generators.h"
#include "pruning/combined.h"
#include "pruning/cse.h"
#include "pruning/histogram_knn.h"
#include "pruning/lcss_knn.h"
#include "pruning/near_triangle.h"
#include "pruning/qgram_knn.h"
#include "query/knn.h"
#include "query/thread_pool.h"
#include "test_util.h"

namespace edr {
namespace {

constexpr double kEps = 0.25;
constexpr size_t kDbSize = 1500;
constexpr size_t kMaxTriangle = 30;

// Shared fixtures: built once, reused by every test in the binary. The
// database is large enough (1500 trajectories) that worker shards see
// thousands of candidates each, and the dedicated 8-thread pool makes the
// multi-worker paths real even on single-core CI machines.
const TrajectoryDataset& Db() {
  static const TrajectoryDataset db =
      testutil::SmallDataset(404, kDbSize, 6, 40);
  return db;
}

ThreadPool& Pool() {
  static ThreadPool pool(8);
  return pool;
}

const PairwiseEdrMatrix& Matrix() {
  static const PairwiseEdrMatrix matrix =
      PairwiseEdrMatrix::Build(Db(), kEps, kMaxTriangle);
  return matrix;
}

using KnnFn =
    std::function<KnnResult(const Trajectory&, size_t, const KnnOptions&)>;

// The core property of the tentpole: for every worker count the parallel
// refinement returns *bit-identical* neighbors — same ids, same exact
// distances, same order — as the sequential single-worker path.
void ExpectBitIdenticalAcrossWorkers(const std::string& label,
                                     const KnnFn& knn) {
  const auto queries = testutil::MakeQueries(Db(), 405, 3);
  for (const size_t k : {1u, 10u}) {
    for (const Trajectory& query : queries) {
      const KnnResult expected = knn(query, k, KnnOptions{});
      for (const unsigned workers : {1u, 2u, 8u}) {
        KnnOptions options;
        options.intra_query_workers = workers;
        options.pool = &Pool();
        const KnnResult actual = knn(query, k, options);
        ASSERT_EQ(expected.neighbors.size(), actual.neighbors.size())
            << label << " workers=" << workers << " k=" << k;
        for (size_t i = 0; i < expected.neighbors.size(); ++i) {
          EXPECT_EQ(expected.neighbors[i].id, actual.neighbors[i].id)
              << label << " workers=" << workers << " k=" << k
              << " rank=" << i;
          EXPECT_EQ(expected.neighbors[i].distance,
                    actual.neighbors[i].distance)
              << label << " workers=" << workers << " k=" << k
              << " rank=" << i;
        }
      }
    }
  }
}

// The work fixture: NHL-like trajectories of 150-600 points, long enough
// that a worker joins a query's refinement while it is still pruning.
const TrajectoryDataset& WorkDb() {
  static const TrajectoryDataset db = [] {
    TrajectoryDataset d = GenNhlLike(400, 150, 600, 19);
    d.NormalizeAll();
    return d;
  }();
  return db;
}

constexpr size_t kWorkRefs = 8;

const PairwiseEdrMatrix& WorkMatrix() {
  static const PairwiseEdrMatrix matrix = PairwiseEdrMatrix::Build(
      WorkDb(), WorkDb().SuggestedEpsilon(), kWorkRefs);
  return matrix;
}

// Work, not only answers: every exact distance goes to one query-wide
// top-k and every reference distance to one shared array, so w workers
// refine about as many candidates as one. The excess comes from the
// distances still in flight when a candidate is judged; it is not
// bounded by (w - 1) * k alone (up to 19 extra DPs at k = 10 on a loaded
// host, against 80-230 with a top-k per worker), hence the slack of a
// quarter of the sequential count on top.
void ExpectWorkNearSequential(const std::string& label, const KnnFn& knn) {
  constexpr size_t kK = 10;
  for (const Trajectory& query : testutil::MakeQueries(WorkDb(), 408, 3)) {
    KnnOptions sequential;
    sequential.intra_query_workers = 1;
    sequential.pool = &Pool();
    const size_t base = knn(query, kK, sequential).stats.edr_computed;
    for (const unsigned workers : {2u, 4u}) {
      KnnOptions options = sequential;
      options.intra_query_workers = workers;
      const size_t dps = knn(query, kK, options).stats.edr_computed;
      EXPECT_LE(dps, base + (workers - 1) * kK + base / 4)
          << label << " workers=" << workers << " sequential=" << base;
    }
  }
}

TEST(IntraQueryTest, WorkersComputeNearlySequentialDpCounts) {
  const double eps = WorkDb().SuggestedEpsilon();
  const QgramKnnSearcher ps2(WorkDb(), eps, /*q=*/1, QgramVariant::kMerge2D);
  const QgramKnnSearcher ps1(WorkDb(), eps, /*q=*/1, QgramVariant::kMerge1D);
  const HistogramKnnSearcher hse(WorkDb(), eps, HistogramTable::Kind::k2D, 1,
                                 HistogramScan::kSequential);
  const HistogramKnnSearcher hsr(WorkDb(), eps, HistogramTable::Kind::k2D, 1,
                                 HistogramScan::kSorted);
  const NearTriangleSearcher ntr(WorkDb(), eps, WorkMatrix());
  const CseSearcher cse(WorkDb(), eps, WorkMatrix());
  CombinedOptions combined_options;
  combined_options.max_triangle = kWorkRefs;
  const CombinedKnnSearcher combined(WorkDb(), eps, combined_options,
                                     WorkMatrix());
  combined_options.sorted_histogram_scan = false;
  const CombinedKnnSearcher seq_scan(WorkDb(), eps, combined_options,
                                     WorkMatrix());
  const LcssKnnSearcher lcss(WorkDb(), eps, LcssFilter::kBoth);
  const auto wrap = [](const auto& searcher) -> KnnFn {
    return [&searcher](const Trajectory& q, size_t k, const KnnOptions& o) {
      return searcher.Knn(q, k, o);
    };
  };
  ExpectWorkNearSequential("PS2", wrap(ps2));
  ExpectWorkNearSequential("PS1", wrap(ps1));
  ExpectWorkNearSequential("HSE", wrap(hse));
  ExpectWorkNearSequential("HSR", wrap(hsr));
  ExpectWorkNearSequential("NTR", wrap(ntr));
  ExpectWorkNearSequential("CSE", wrap(cse));
  ExpectWorkNearSequential("2HPN", wrap(combined));
  ExpectWorkNearSequential("2HPN/seq", wrap(seq_scan));
  ExpectWorkNearSequential("LCSS-HP", wrap(lcss));
}

TEST(IntraQueryTest, QgramMergeJoinBitIdentical) {
  const QgramKnnSearcher ps2(Db(), kEps, /*q=*/1, QgramVariant::kMerge2D);
  ExpectBitIdenticalAcrossWorkers(
      "PS2", [&](const Trajectory& q, size_t k, const KnnOptions& o) {
        return ps2.Knn(q, k, o);
      });
  const QgramKnnSearcher ps1(Db(), kEps, /*q=*/1, QgramVariant::kMerge1D);
  ExpectBitIdenticalAcrossWorkers(
      "PS1", [&](const Trajectory& q, size_t k, const KnnOptions& o) {
        return ps1.Knn(q, k, o);
      });
}

TEST(IntraQueryTest, HistogramSequentialScanBitIdentical) {
  const HistogramKnnSearcher hse(Db(), kEps, HistogramTable::Kind::k2D, 1,
                                 HistogramScan::kSequential);
  ExpectBitIdenticalAcrossWorkers(
      "HSE", [&](const Trajectory& q, size_t k, const KnnOptions& o) {
        return hse.Knn(q, k, o);
      });
}

TEST(IntraQueryTest, HistogramSortedScanBitIdentical) {
  const HistogramKnnSearcher hsr(Db(), kEps, HistogramTable::Kind::k2D, 1,
                                 HistogramScan::kSorted);
  ExpectBitIdenticalAcrossWorkers(
      "HSR", [&](const Trajectory& q, size_t k, const KnnOptions& o) {
        return hsr.Knn(q, k, o);
      });
}

TEST(IntraQueryTest, NearTriangleBitIdentical) {
  const NearTriangleSearcher ntr(Db(), kEps, Matrix());
  ExpectBitIdenticalAcrossWorkers(
      "NTR", [&](const Trajectory& q, size_t k, const KnnOptions& o) {
        return ntr.Knn(q, k, o);
      });
}

TEST(IntraQueryTest, CseBitIdentical) {
  const CseSearcher cse(Db(), kEps, Matrix());
  ExpectBitIdenticalAcrossWorkers(
      "CSE", [&](const Trajectory& q, size_t k, const KnnOptions& o) {
        return cse.Knn(q, k, o);
      });
}

TEST(IntraQueryTest, CombinedBitIdentical) {
  CombinedOptions combined_options;
  combined_options.max_triangle = kMaxTriangle;
  const CombinedKnnSearcher combined(Db(), kEps, combined_options, Matrix());
  ExpectBitIdenticalAcrossWorkers(
      "2HPN", [&](const Trajectory& q, size_t k, const KnnOptions& o) {
        return combined.Knn(q, k, o);
      });
  // Database-order variant (no sorted histogram scan): exercises the
  // db-order refinement driver through the combined filter chain.
  combined_options.sorted_histogram_scan = false;
  const CombinedKnnSearcher seq_scan(Db(), kEps, combined_options, Matrix());
  ExpectBitIdenticalAcrossWorkers(
      "2HPN/seq", [&](const Trajectory& q, size_t k, const KnnOptions& o) {
        return seq_scan.Knn(q, k, o);
      });
}

TEST(IntraQueryTest, LcssBitIdentical) {
  const LcssKnnSearcher lcss(Db(), kEps, LcssFilter::kBoth);
  ExpectBitIdenticalAcrossWorkers(
      "LCSS-HP", [&](const Trajectory& q, size_t k, const KnnOptions& o) {
        return lcss.Knn(q, k, o);
      });
}

// All six searchers must also agree with the plain sequential scan —
// parallelism on top of the filters must stay lossless end to end.
TEST(IntraQueryTest, ParallelResultsAreLossless) {
  const QgramKnnSearcher ps2(Db(), kEps, /*q=*/1, QgramVariant::kMerge2D);
  const HistogramKnnSearcher hsr(Db(), kEps, HistogramTable::Kind::k2D, 1,
                                 HistogramScan::kSorted);
  const NearTriangleSearcher ntr(Db(), kEps, Matrix());
  KnnOptions options;
  options.intra_query_workers = 8;
  options.pool = &Pool();
  for (const Trajectory& query : testutil::MakeQueries(Db(), 406, 2)) {
    const KnnResult truth = SequentialScanKnn(Db(), query, 10, kEps);
    EXPECT_TRUE(SameKnnDistances(truth, ps2.Knn(query, 10, options)));
    EXPECT_TRUE(SameKnnDistances(truth, hsr.Knn(query, 10, options)));
    EXPECT_TRUE(SameKnnDistances(truth, ntr.Knn(query, 10, options)));
  }
}

TEST(IntraQueryTest, ZeroKReturnsEmpty) {
  const QgramKnnSearcher ps2(Db(), kEps, /*q=*/1, QgramVariant::kMerge2D);
  KnnOptions options;
  options.intra_query_workers = 8;
  options.pool = &Pool();
  const auto queries = testutil::MakeQueries(Db(), 407, 1);
  const KnnResult result = ps2.Knn(queries[0], 0, options);
  EXPECT_TRUE(result.neighbors.empty());
}

}  // namespace
}  // namespace edr
