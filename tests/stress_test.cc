// Randomized end-to-end stress: random dataset family, matching
// threshold, k, and retrieval method — every answer certified against the
// sequential scan at every kernel level the host supports. This is the
// widest net for cross-module interaction bugs (binning vs normalization
// vs thresholds vs filters vs SIMD kernels).

#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/cpu.h"
#include "data/generators.h"
#include "data/noise.h"
#include "eval/metrics.h"
#include "obs/obs.h"
#include "query/engine.h"
#include "query/scheduler.h"
#include "query/thread_pool.h"
#include "test_util.h"

namespace edr {
namespace {

TrajectoryDataset RandomDataset(Rng& rng) {
  const int family = static_cast<int>(rng.UniformInt(0, 4));
  const size_t count = static_cast<size_t>(rng.UniformInt(30, 120));
  TrajectoryDataset db;
  switch (family) {
    case 0: {
      RandomWalkOptions options;
      options.count = count;
      options.min_length = 5;
      options.max_length = 60;
      options.seed = rng.NextU64();
      db = GenRandomWalk(options);
      break;
    }
    case 1:
      db = GenAslLike(5, std::max<size_t>(1, count / 5), rng.NextU64());
      break;
    case 2:
      db = GenKungfuLike(count, 48, rng.NextU64());
      break;
    case 3:
      db = GenNhlLike(count, 10, 80, rng.NextU64());
      break;
    default:
      db = GenMixedLike(count, 20, 90, rng.NextU64());
      break;
  }
  // Half the time, corrupt the data as real pipelines would.
  if (rng.NextDouble() < 0.5) {
    db = CorruptDataset(db, NoiseOptions{}, TimeShiftOptions{},
                        rng.NextU64());
  }
  // Half the time, add exact duplicates and members of length 0 and 1:
  // they tie on every bound and every distance, so they pin the (key, id)
  // visit order the answers' tie-breaks depend on.
  if (rng.NextDouble() < 0.5) {
    TrajectoryDataset tied;
    for (const Trajectory& t : db) {
      tied.Add(t);
      if (rng.NextDouble() < 0.2) tied.Add(t);
      if (rng.NextDouble() < 0.05) tied.Add(Trajectory());
      if (rng.NextDouble() < 0.05) {
        Trajectory single;
        single.Append(rng.Gaussian(), rng.Gaussian());
        tied.Add(single);
      }
    }
    db = std::move(tied);
  }
  db.NormalizeAll();
  return db;
}

/// A matching threshold in the usual range, except that every third seed
/// takes the extremes 0, 1e-12 and 1e6 in turn (at the first two only
/// equal points match, at the last every pair does).
double RandomEpsilon(Rng& rng, uint64_t seed) {
  const double uniform = rng.Uniform(0.05, 1.5);
  const double extremes[] = {0.0, 1e-12, 1e6};
  return seed % 3 == 0 ? extremes[(seed / 3) % 3] : uniform;
}

/// A k in [1, 25], except that every fourth seed takes 0, n and n + 7 in
/// turn for a database of n trajectories.
size_t RandomK(Rng& rng, uint64_t seed, size_t n) {
  const size_t uniform = static_cast<size_t>(rng.UniformInt(1, 25));
  const size_t extremes[] = {0, n, n + 7};
  return seed % 4 == 0 ? extremes[(seed / 4) % 3] : uniform;
}

class StressTest : public ::testing::TestWithParam<uint64_t> {};

ThreadPool& Pool() {
  static ThreadPool pool(4);
  return pool;
}

void ExpectConserves(const KnnResult& result, size_t db_size,
                     const std::string& label) {
  if constexpr (kObsEnabled) {
    EXPECT_TRUE(result.stats.stages.Conserves(db_size)) << label;
  }
}

TEST_P(StressTest, EveryMethodLosslessOnRandomConfigurations) {
  Rng rng(GetParam());
  const TrajectoryDataset db = RandomDataset(rng);
  const double epsilon = RandomEpsilon(rng, GetParam());
  const size_t k = RandomK(rng, GetParam(), db.size());

  QueryEngine engine(db, epsilon);
  const int ps2_q = static_cast<int>(rng.UniformInt(1, 4));
  const int pr_q = static_cast<int>(rng.UniformInt(1, 4));
  const size_t ntr_refs = static_cast<size_t>(rng.UniformInt(1, 30));
  const HistogramTable::Kind hist_kind = rng.NextDouble() < 0.5
                                             ? HistogramTable::Kind::k2D
                                             : HistogramTable::Kind::k1D;
  const int hist_delta = static_cast<int>(rng.UniformInt(1, 4));
  const HistogramScan hist_scan = rng.NextDouble() < 0.5
                                      ? HistogramScan::kSorted
                                      : HistogramScan::kSequential;
  CombinedOptions combo;
  combo.order = AllPruneOrders()[static_cast<size_t>(rng.UniformInt(0, 1))];
  combo.histogram_kind = rng.NextDouble() < 0.5 ? HistogramTable::Kind::k2D
                                                : HistogramTable::Kind::k1D;
  combo.histogram_delta = static_cast<int>(rng.UniformInt(1, 3));
  combo.q = static_cast<int>(rng.UniformInt(1, 3));
  combo.sorted_histogram_scan = rng.NextDouble() < 0.5;

  std::vector<NamedSearcher> searchers;
  searchers.push_back(engine.MakeSeqScan(true));
  searchers.push_back(engine.MakeQgram(QgramVariant::kMerge2D, ps2_q));
  searchers.push_back(engine.MakeQgram(QgramVariant::kRtree2D, pr_q));
  searchers.push_back(engine.MakeNearTriangle(ntr_refs));
  searchers.push_back(engine.MakeHistogram(hist_kind, hist_delta, hist_scan));
  searchers.push_back(engine.MakeCombined(combo));

  // Every searcher answers each query sequentially, at 4 workers, and in
  // one scheduled batch of them: with the reference's distances, and with
  // the same ids in the same order every time. Two of the five are hostile
  // copies of the first two, one with a coordinate of 1e300 and one with a
  // NaN.
  KnnOptions parallel;
  parallel.intra_query_workers = 4;
  parallel.pool = &Pool();
  SchedulerPolicy scheduled;
  scheduled.max_threads = 4;
  std::vector<Trajectory> queries =
      testutil::MakeQueries(db, rng.NextU64(), 3);
  Trajectory far = queries[0];
  Trajectory nan = queries[1];
  if (!far.empty()) far[0].x = 1e300;
  if (!nan.empty()) {
    nan[nan.size() / 2].y = std::numeric_limits<double>::quiet_NaN();
  }
  queries.push_back(std::move(far));
  queries.push_back(std::move(nan));
  std::vector<KnnResult> expected;
  std::vector<KnnResult> lcss_expected;
  for (const Trajectory& query : queries) {
    expected.push_back(engine.SeqScan(query, k));
    lcss_expected.push_back(engine.Lcss(LcssFilter::kNone).Knn(query, k));
  }

  // Each searcher's sequential answers at the first kernel level checked;
  // every later level must repeat them, DP count and stage counters too.
  std::map<std::string, std::vector<KnnResult>> first_level;
  std::string level_name;
  const auto check = [&](const NamedSearcher& s,
                         const std::vector<KnnResult>& expected) {
    const std::string where = s.name + " level=" + level_name +
                              " eps=" + std::to_string(epsilon) +
                              " k=" + std::to_string(k) +
                              " db=" + std::to_string(db.size());
    std::vector<KnnResult>& reference = first_level[s.name];
    std::vector<KnnResult> sequential;
    for (size_t i = 0; i < queries.size(); ++i) {
      const KnnResult actual = s.search(queries[i], k);
      ASSERT_TRUE(SameKnnDistances(expected[i], actual)) << where;
      ExpectConserves(actual, db.size(), where);
      const KnnResult sharded = s.search_with(queries[i], k, parallel);
      ASSERT_EQ(actual.neighbors, sharded.neighbors) << where << " workers=4";
      ExpectConserves(sharded, db.size(), where + " workers=4");
      if (i < reference.size()) {
        ASSERT_EQ(reference[i].neighbors, actual.neighbors) << where;
        EXPECT_EQ(reference[i].stats.edr_computed, actual.stats.edr_computed)
            << where;
        EXPECT_EQ(reference[i].stats.stages.ToJson(),
                  actual.stats.stages.ToJson())
            << where;
      } else {
        reference.push_back(actual);
        // The work bound of the parallel scan (docs/ALGORITHMS.md §11):
        // slot 0 refines alone until k exact distances are in, and from
        // then on each of the other 3 slots holds at most one candidate in
        // flight, so the shared threshold never exceeds the one-slot
        // scan's (k + 3)-th distance. 4 workers therefore compute no more
        // DPs than one worker answering k + 3. NTR's filter also reads the
        // reference distances the slots have computed so far, which
        // differ by schedule, so the bound does not hold for it.
        if (s.name != "NTR") {
          const KnnResult wider = s.search(queries[i], k + 3);
          EXPECT_LE(sharded.stats.edr_computed, wider.stats.edr_computed)
              << where << " workers=4 query " << i;
        }
      }
      sequential.push_back(actual);
    }
    // Five queries on a capacity of 4: a wave of budget-1 queries, then
    // the tail widened, so the batch takes both scheduler paths.
    SchedulerStats stats;
    const std::vector<KnnResult> batch =
        RunScheduled(s, queries, k, scheduled, &Pool(), nullptr, &stats);
    ASSERT_EQ(batch.size(), queries.size()) << where;
    EXPECT_GE(stats.waves, 1u) << where;
    EXPECT_GE(stats.widened_queries, 1u) << where;
    for (size_t i = 0; i < queries.size(); ++i) {
      ASSERT_EQ(sequential[i].neighbors, batch[i].neighbors)
          << where << " scheduled query " << i;
      ExpectConserves(batch[i], db.size(), where + " scheduled");
    }
  };

  // Every kernel level this host runs answers the whole configuration; the
  // level the environment resolves is restored afterwards.
  struct Unpin {
    ~Unpin() { ResetActiveKernelLevel(); }
  } unpin;
  for (const KernelLevel level : {KernelLevel::kScalar, KernelLevel::kSse2,
                                  KernelLevel::kAvx2, KernelLevel::kAvx512}) {
    if (!KernelLevelSupported(level)) continue;
    ASSERT_TRUE(SetActiveKernelLevel(level));
    level_name = KernelLevelName(level);
    for (const NamedSearcher& s : searchers) check(s, expected);

    // The LCSS searchers against the LCSS scan.
    for (const LcssFilter filter :
         {LcssFilter::kHistogram, LcssFilter::kQgram, LcssFilter::kBoth}) {
      check(engine.MakeLcss(filter), lcss_expected);
    }

    // Range queries too, at a radius drawn near the k-th distance so the
    // result set is non-trivial. Every range answer is the same ascending
    // (distance, id) list as the sequential scan's.
    const CombinedOptions sorted_combo;
    for (size_t i = 0; i < queries.size(); ++i) {
      if (expected[i].neighbors.empty()) continue;
      const Trajectory& query = queries[i];
      const int radius =
          static_cast<int>(expected[i].neighbors.back().distance) + 1;
      const KnnResult range_expected =
          SequentialScanRange(db, query, radius, epsilon);
      const std::vector<std::pair<std::string, KnnResult>> ranges = {
          {"2HP", engine.Combined(sorted_combo).Range(query, radius)},
          {"combined", engine.Combined(combo).Range(query, radius)},
          {"PS2", engine.Qgram(QgramVariant::kMerge2D, ps2_q)
                      .Range(query, radius)},
          {"PR", engine.Qgram(QgramVariant::kRtree2D, pr_q)
                     .Range(query, radius)},
          {"NTR", engine.NearTriangle(ntr_refs).Range(query, radius)},
          {"histogram", engine.Histogram(hist_kind, hist_delta, hist_scan)
                            .Range(query, radius)},
      };
      for (const auto& [name, actual] : ranges) {
        const std::string where = name + ".Range level=" + level_name +
                                  " radius=" + std::to_string(radius) +
                                  " eps=" + std::to_string(epsilon);
        ASSERT_EQ(range_expected.neighbors, actual.neighbors) << where;
        ExpectConserves(actual, db.size(), where);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StressTest,
                         ::testing::Range<uint64_t>(3000, 3020));

}  // namespace
}  // namespace edr
