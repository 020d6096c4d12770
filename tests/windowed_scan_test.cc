// Differential test of the histogram-sorted scans on tables of several
// sweep blocks. HSR-2HE, HSR-1HE, 2HP and 1HP build their (bound, id)
// order while they scan and sweep only the blocks whose lengths lie within
// reach of the query's (HistogramTable::BoundOrder). Each must answer
// every k-NN and range query exactly as a test-local reference that sweeps
// the whole table, orders every bound with CanonicalOrder and scans on one
// slot: the same ids at every kernel level and worker count, and at one
// worker the same DP count and stage counters. One table holds thousands
// of members of lengths 0-300, the other members of one length, both with
// duplicates and members carrying NaN coordinates; the one-length table
// also holds members at +-1e300, which stretch its grid until the bound is
// the length gap alone. The queries carry NaN and +-1e300 too.

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/cpu.h"
#include "core/rng.h"
#include "distance/edr_kernel.h"
#include "obs/trace.h"
#include "pruning/combined.h"
#include "pruning/histogram.h"
#include "pruning/histogram_knn.h"
#include "pruning/qgram.h"
#include "query/thread_pool.h"
#include "query/topk.h"
#include "test_util.h"

namespace edr {
namespace {

constexpr double kEps = 0.3;
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

ThreadPool& Pool() {
  static ThreadPool pool(4);
  return pool;
}

/// 3000-3500 members of lengths 0-300, or 2100 of length 100: noisy copies
/// of 100 random walks (a few points dropped, a few jittered within the
/// matching threshold), so every member has near neighbours. About one in
/// twenty is duplicated and one in a hundred has a NaN coordinate; in the
/// one-length table one in a hundred more has a coordinate of +-1e300.
TrajectoryDataset MakeDb(uint64_t seed, bool one_length) {
  Rng rng(seed);
  const size_t count =
      one_length ? 2100 : static_cast<size_t>(rng.UniformInt(3000, 3500));
  std::vector<Trajectory> walks;
  for (int w = 0; w < 100; ++w) {
    const size_t length =
        one_length ? 100 : static_cast<size_t>(rng.UniformInt(0, 300));
    walks.push_back(testutil::RandomWalk(rng, length));
  }
  TrajectoryDataset db;
  for (size_t i = 0; i < count; ++i) {
    const Trajectory& walk =
        walks[static_cast<size_t>(rng.UniformInt(0, 99))];
    const size_t drops = one_length ? 0 : static_cast<size_t>(
                                              rng.UniformInt(0, 3));
    Trajectory t;
    for (size_t j = 0; j < walk.size(); ++j) {
      if (j < drops) continue;
      Point2 p = walk[j];
      if (rng.NextDouble() < 0.05) p.x += rng.Uniform(-0.1, 0.1);
      t.Append(p);
    }
    const double u = rng.NextDouble();
    if (!t.empty() && u < 0.01) {
      t[t.size() / 2].x = kNaN;
    } else if (!t.empty() && one_length && u < 0.02) {
      t[0].y = u < 0.015 ? 1e300 : -1e300;
    }
    db.Add(t);
    if (rng.NextDouble() < 0.05) db.Add(t);
  }
  return db;
}

/// Two perturbed members, one with a point moved and one shortened by
/// five points, and copies of both carrying a NaN and +-1e300.
std::vector<Trajectory> MakeQueries(const TrajectoryDataset& db) {
  Trajectory moved = db[db.size() / 3];
  if (!moved.empty()) moved[moved.size() / 2].x += 1.0;
  Trajectory shortened;
  const Trajectory& member = db[db.size() / 2];
  for (size_t j = 5; j < member.size(); ++j) shortened.Append(member[j]);
  Trajectory nan = moved;
  if (!nan.empty()) nan[0].y = kNaN;
  Trajectory far = shortened;
  if (!far.empty()) {
    far[0].x = 1e300;
    far[far.size() - 1].y = -1e300;
  }
  return {moved, shortened, nan, far};
}

/// One searcher under test: its histogram kind and whether the Q-gram
/// step follows the histogram one (2HP, 1HP).
struct Config {
  std::string name;
  HistogramTable::Kind kind;
  bool qgram;
};

const std::vector<Config>& Configs() {
  static const std::vector<Config> configs = {
      {"HSR-2HE", HistogramTable::Kind::k2D, false},
      {"HSR-1HE", HistogramTable::Kind::k1D, false},
      {"2HP", HistogramTable::Kind::k2D, true},
      {"1HP", HistogramTable::Kind::k1D, true},
  };
  return configs;
}

/// The sorted scan the searchers must reproduce: every bound from one
/// whole-table sweep, the visit order from CanonicalOrder, then Figure 6
/// on one slot with the searcher's filter chain (the histogram bound, then
/// for 2HP / 1HP the q = 1 Q-gram count). `radius` < 0 answers the k-NN
/// query, otherwise the range query of that radius.
KnnResult Reference(const TrajectoryDataset& db, const HistogramTable& table,
                    const QgramMeansTable* means, const Trajectory& query,
                    size_t k, int radius) {
  const std::vector<int> bounds =
      testutil::SweepOne(table, table.MakeQueryHistogram(query));
  const std::vector<uint32_t> order =
      CanonicalOrder(db.size(), [&](uint32_t id) { return bounds[id]; });
  std::vector<Point2> query_means = MeanValueQgrams(query, 1);
  SortMeans(query_means);
  BoundedTopK top(k);
  std::vector<Neighbor> hits;
  KnnResult out;
  StageCounters& st = out.stats.stages;
  EdrScratch scratch;
  for (size_t rank = 0; rank < order.size(); ++rank) {
    const uint32_t id = order[rank];
    const double threshold =
        radius >= 0 ? static_cast<double>(radius) : top.Threshold();
    if (static_cast<double>(bounds[id]) > threshold) break;
    st.Bump(&StageCounters::considered);
    if (means != nullptr && !std::isinf(threshold)) {
      const long count = QgramCountThreshold(query.size(), db[id].size(), 1,
                                             static_cast<long>(threshold));
      if (count > 0 && !means->AtLeastMatches2D(query_means, kEps, id,
                                                static_cast<size_t>(count))) {
        st.Bump(&StageCounters::qgram_pruned);
        continue;
      }
    }
    const int d = EdrDistanceBitParallel(query, db[id], kEps, scratch);
    ++out.stats.edr_computed;
    st.CountDp(query.size(), db[id].size());
    if (d > EdrBoundFromKthDistance(threshold)) {
      st.Bump(&StageCounters::dp_early_abandoned);
      continue;
    }
    if (radius >= 0) {
      hits.push_back({id, static_cast<double>(d)});
    } else {
      top.Offer(id, static_cast<double>(d), rank);
    }
  }
  st.FinalizeNotVisited(db.size());
  if (radius >= 0) {
    SortNeighborsAscending(&hits);
    out.neighbors = std::move(hits);
  } else {
    out.neighbors = std::move(top).TakeSortedNeighbors();
  }
  return out;
}

void ExpectSameWork(const KnnResult& expected, const KnnResult& actual,
                    const std::string& where) {
  EXPECT_EQ(expected.stats.edr_computed, actual.stats.edr_computed) << where;
  EXPECT_EQ(expected.stats.stages.ToJson(), actual.stats.stages.ToJson())
      << where;
}

class WindowedScanTest : public ::testing::TestWithParam<bool> {};

TEST_P(WindowedScanTest, SortedScansMatchTheFullSweepReference) {
  const bool one_length = GetParam();
  const TrajectoryDataset db = MakeDb(one_length ? 71 : 72, one_length);
  const std::vector<Trajectory> queries = MakeQueries(db);
  std::vector<const Trajectory*> group;
  for (const Trajectory& q : queries) group.push_back(&q);
  const size_t n = db.size();
  const QgramMeansTable means(db, /*q=*/1, /*dims=*/2);

  struct Unpin {
    ~Unpin() { ResetActiveKernelLevel(); }
  } unpin;
  KnnOptions parallel;
  parallel.intra_query_workers = 4;
  parallel.pool = &Pool();
  for (const Config& config : Configs()) {
    const HistogramTable table(db, kEps, config.kind, 1);
    const HistogramKnnSearcher hsr(db, kEps, config.kind, 1,
                                   HistogramScan::kSorted);
    CombinedOptions combo;
    combo.histogram_kind = config.kind;
    const CombinedKnnSearcher combined(db, kEps, combo);
    const auto knn = [&](const Trajectory& q, size_t k,
                         const KnnOptions& options) {
      return config.qgram ? combined.Knn(q, k, options)
                          : hsr.Knn(q, k, options);
    };
    const auto range = [&](const Trajectory& q, int radius) {
      return config.qgram ? combined.Range(q, radius) : hsr.Range(q, radius);
    };
    const auto fused = [&](size_t k) {
      return config.qgram ? combined.KnnFused(group, k)
                          : hsr.KnnFused(group, k);
    };
    const QgramMeansTable* ref_means = config.qgram ? &means : nullptr;

    // Every query answers k = 1 and 20; the shortened member also answers
    // k = n and its far copy k = n + 7, full scans both. A query's range radius
    // is its k = 20 distance.
    const std::vector<std::vector<size_t>> ks = {
        {1, 20}, {1, 20, n}, {1, 20}, {1, 20, n + 7}};
    std::vector<std::vector<std::pair<size_t, KnnResult>>> expected(
        queries.size());
    std::vector<int> radius(queries.size());
    std::vector<KnnResult> range_expected;
    for (size_t i = 0; i < queries.size(); ++i) {
      for (const size_t k : ks[i]) {
        expected[i].push_back(
            {k, Reference(db, table, ref_means, queries[i], k, -1)});
      }
      const KnnResult& at20 = expected[i][1].second;
      radius[i] = static_cast<int>(at20.neighbors.back().distance);
      range_expected.push_back(
          Reference(db, table, ref_means, queries[i], 0, radius[i]));
    }
    for (const KernelLevel level :
         {KernelLevel::kScalar, KernelLevel::kSse2, KernelLevel::kAvx2,
          KernelLevel::kAvx512}) {
      if (!KernelLevelSupported(level)) continue;
      ASSERT_TRUE(SetActiveKernelLevel(level));
      const std::string at = config.name + " level=" + KernelLevelName(level) +
                             " n=" + std::to_string(n);
      for (size_t i = 0; i < queries.size(); ++i) {
        for (const auto& [k, reference] : expected[i]) {
          const std::string where = at + " query=" + std::to_string(i) +
                                    " k=" + std::to_string(k);
          const KnnResult solo = knn(queries[i], k, KnnOptions{});
          ASSERT_EQ(reference.neighbors, solo.neighbors) << where;
          ExpectSameWork(reference, solo, where);
          const KnnResult sharded = knn(queries[i], k, parallel);
          ASSERT_EQ(reference.neighbors, sharded.neighbors)
              << where << " workers=4";
        }
        const std::string where = at + " query=" + std::to_string(i) +
                                  " radius=" + std::to_string(radius[i]);
        const KnnResult ranged = range(queries[i], radius[i]);
        ASSERT_EQ(range_expected[i].neighbors, ranged.neighbors) << where;
        ExpectSameWork(range_expected[i], ranged, where);
      }
      // A fusion group sweeps the whole table once; each member's order
      // then comes from the finished bounds, with the same sequence.
      const std::vector<KnnResult> members = fused(20);
      ASSERT_EQ(members.size(), queries.size());
      for (size_t i = 0; i < queries.size(); ++i) {
        const std::string where = at + " fused member " + std::to_string(i);
        const KnnResult& reference = expected[i][1].second;
        ASSERT_EQ(reference.neighbors, members[i].neighbors) << where;
        ExpectSameWork(reference, members[i], where);
      }
    }
  }
}

TEST_P(WindowedScanTest, SoloScanSweepsOnlyTheLengthWindow) {
  // The traced block count: a variable-length table's query reads only
  // the blocks within its final k-th distance of its length, a single
  // length table's reads all of them.
  const bool one_length = GetParam();
  const TrajectoryDataset db = MakeDb(one_length ? 71 : 72, one_length);
  const std::vector<Trajectory> queries = MakeQueries(db);
  const HistogramKnnSearcher hsr(db, kEps, HistogramTable::Kind::k2D, 1,
                                 HistogramScan::kSorted);
  const size_t blocks =
      (db.size() + HistogramTable::kSweepBlock - 1) /
      HistogramTable::kSweepBlock;
  const KnnResult r = hsr.Knn(queries[0], 1);
  if (r.trace == nullptr) return;  // EDR_DISABLE_OBS: no trace to read
  uint64_t swept = 0;
  for (const QueryTrace::Node& node : r.trace->nodes()) {
    if (std::string(node.name) == "bound_sweep" && node.parent >= 0) {
      swept += node.count;
    }
  }
  if (one_length) {
    EXPECT_EQ(swept, blocks);
  } else {
    EXPECT_GE(swept, 1u);
    EXPECT_LT(swept, blocks);
  }
}

INSTANTIATE_TEST_SUITE_P(Tables, WindowedScanTest, ::testing::Bool());

}  // namespace
}  // namespace edr
