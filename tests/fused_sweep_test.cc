// Certifies group (fused) filter passes bit-identical to groups of one at
// every level of the stack: the histogram table's bound sweep (every
// column layout, both table kinds), the Q-gram searchers' group counts,
// every fusion-capable searcher's KnnFused, and the adaptive scheduler's
// fusion-group formation. Fusing amortizes database streaming across a
// query group — it must never change any member's answer.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/cpu.h"
#include "core/rng.h"
#include "pruning/combined.h"
#include "pruning/histogram.h"
#include "pruning/histogram_knn.h"
#include "pruning/lcss_knn.h"
#include "pruning/qgram.h"
#include "pruning/qgram_knn.h"
#include "query/engine.h"
#include "query/plan_cache.h"
#include "query/scheduler.h"
#include "query/thread_pool.h"
#include "test_util.h"

namespace edr {
namespace {

constexpr double kEps = 0.25;

const TrajectoryDataset& Db() {
  static const TrajectoryDataset db = testutil::SmallDataset(1201, 160, 8, 48);
  return db;
}

const std::vector<Trajectory>& Queries() {
  static const std::vector<Trajectory> queries =
      testutil::MakeQueries(Db(), 1202, 8);
  return queries;
}

/// A dataset whose histogram table holds every column layout at once (at
/// epsilon 0.05): 220 single-point trajectories in a tight cluster fill a
/// few bins with all-ones counts at high occupancy and 150 repeated-point
/// trajectories in a second tight cluster drive counts above one at >25%
/// occupancy (both dense), random walks far from both clusters leave
/// low-occupancy postings (blocked-sparse), and the space in between stays
/// untouched (empty).
TrajectoryDataset MixedLayoutDataset() {
  Rng rng(1301);
  TrajectoryDataset db("mixed-layouts");
  for (int i = 0; i < 220; ++i) {
    Trajectory t;
    t.Append({rng.Gaussian(0.0, 0.02), rng.Gaussian(0.0, 0.02)});
    db.Add(t);
  }
  for (int i = 0; i < 150; ++i) {
    Trajectory t;
    for (int j = 0; j < 4; ++j) {
      t.Append({rng.Gaussian(0.9, 0.005), rng.Gaussian(0.9, 0.005)});
    }
    db.Add(t);
  }
  for (int i = 0; i < 40; ++i) {
    Trajectory w = testutil::RandomWalk(rng, 24);
    for (size_t j = 0; j < w.size(); ++j) {
      w[j].x += 10.0;
      w[j].y += 10.0;
    }
    db.Add(w);
  }
  return db;
}

/// Group sizes the certification sweeps: singleton, partial, the sweep's
/// group width, and one past it (exercises chunking).
std::vector<size_t> GroupSizes() {
  return {1, 2, kMaxFusionGroup, kMaxFusionGroup + 3};
}

void ExpectFusedSweepMatches(const HistogramTable& table,
                             const std::vector<Trajectory>& queries,
                             const KnnOptions* options,
                             const std::string& context) {
  std::vector<HistogramTable::QueryHistogram> qhs;
  qhs.reserve(queries.size());
  for (const Trajectory& q : queries) qhs.push_back(table.MakeQueryHistogram(q));

  std::vector<std::vector<int>> expected(qhs.size());
  for (size_t i = 0; i < qhs.size(); ++i) {
    expected[i] = testutil::SweepOne(table, qhs[i]);
  }

  for (const size_t g : GroupSizes()) {
    std::vector<const HistogramTable::QueryHistogram*> group(g);
    std::vector<std::vector<int>> fused(g);
    std::vector<std::vector<int>*> outs(g);
    for (size_t i = 0; i < g; ++i) {
      group[i] = &qhs[i % qhs.size()];
      outs[i] = &fused[i];
    }
    table.FastLowerBoundSweep(group, outs,
                              options != nullptr ? *options : KnnOptions{});
    for (size_t i = 0; i < g; ++i) {
      EXPECT_EQ(fused[i], expected[i % qhs.size()])
          << context << " group=" << g << " member=" << i;
    }
  }
}

// The core guarantee at the table level: group bounds are bit for bit
// the bounds of groups of one for every group size, both table kinds, at
// two grid resolutions (epsilon 0.25 mixes dense and sparse columns;
// epsilon 4 is nearly all dense), sequential and sharded over 4
// workers.
TEST(FusedSweepTest, TableBoundsBitIdenticalAllKindsAndLayouts) {
  static ThreadPool pool(4);
  KnnOptions parallel;
  parallel.intra_query_workers = 4;
  parallel.pool = &pool;
  const auto queries = testutil::MakeQueries(Db(), 1203, 8);
  for (const HistogramTable::Kind kind :
       {HistogramTable::Kind::k2D, HistogramTable::Kind::k1D}) {
    for (const double eps : {kEps, 4.0}) {
      const HistogramTable table(Db(), eps, kind, 1);
      const std::string context =
          std::string(kind == HistogramTable::Kind::k2D ? "2d/" : "1d/") +
          "eps=" + std::to_string(eps);
      ExpectFusedSweepMatches(table, queries, nullptr, context + "/seq");
      ExpectFusedSweepMatches(table, queries, &parallel, context + "/par4");
    }
  }
}

// Same guarantee on a table that provably holds every adaptive column
// layout at once, so the fused block kernels cross every dispatch path
// (dense min-cap, blocked-sparse postings, empty skip) within a single
// sweep.
TEST(FusedSweepTest, AllColumnLayoutsInOneFusedSweep) {
  const TrajectoryDataset db = MixedLayoutDataset();
  const HistogramTable table(db, 0.05, HistogramTable::Kind::k2D, 1);
  const HistogramStorageStats stats = table.storage_stats();
  ASSERT_GT(stats.raw.dense_columns, 0u) << "dataset no longer drives dense";
  ASSERT_GT(stats.raw.sparse_columns, 0u) << "dataset no longer drives sparse";
  ASSERT_GT(stats.raw.empty_columns, 0u) << "dataset no longer drives empty";

  // Queries drawn from every region (all-ones cluster, repeated-point
  // cluster, walks), so the fused plan's distinct bins span all layouts.
  std::vector<Trajectory> queries;
  for (const size_t i : {0, 60, 120, 230, 280, 340, 375, 400}) {
    queries.push_back(db[i]);
  }
  ExpectFusedSweepMatches(table, queries, nullptr, "mixed");
}

// Group counts match the counts of groups of one for every trajectory and
// group size, in all four Q-gram variants (merge-join 2-D and 1-D, and the
// tree probes with per-member dedup state).
TEST(FusedSweepTest, QgramFusedCountsBitIdentical) {
  const auto queries = testutil::MakeQueries(Db(), 1204, 8);
  for (const QgramVariant variant :
       {QgramVariant::kMerge2D, QgramVariant::kMerge1D,
        QgramVariant::kRtree2D, QgramVariant::kBtree1D}) {
    const QgramKnnSearcher searcher(Db(), kEps, /*q=*/1, variant);
    std::vector<std::vector<size_t>> solo;
    for (const Trajectory& q : queries) {
      solo.push_back(std::move(searcher.MatchCounts({&q})[0]));
    }
    for (const size_t g : GroupSizes()) {
      std::vector<const Trajectory*> group(g);
      for (size_t i = 0; i < g; ++i) group[i] = &queries[i % queries.size()];
      const std::vector<std::vector<size_t>> counts =
          searcher.MatchCounts(group);
      ASSERT_EQ(counts.size(), g);
      for (size_t i = 0; i < g; ++i) {
        EXPECT_EQ(counts[i], solo[i % queries.size()])
            << searcher.name() << " group=" << g << " member=" << i;
      }
    }
  }
}

void ExpectSameNeighbors(const KnnResult& expected, const KnnResult& actual,
                         const std::string& context) {
  ASSERT_EQ(expected.neighbors.size(), actual.neighbors.size()) << context;
  for (size_t j = 0; j < expected.neighbors.size(); ++j) {
    EXPECT_EQ(expected.neighbors[j].id, actual.neighbors[j].id)
        << context << " rank " << j;
    EXPECT_EQ(expected.neighbors[j].distance, actual.neighbors[j].distance)
        << context << " rank " << j;
  }
}

template <typename Searcher>
void ExpectKnnFusedMatches(const Searcher& searcher, const std::string& name,
                           size_t k, const KnnOptions& options) {
  const std::vector<Trajectory>& queries = Queries();
  for (const size_t g : GroupSizes()) {
    std::vector<const Trajectory*> group(g);
    for (size_t i = 0; i < g; ++i) group[i] = &queries[i % queries.size()];
    const std::vector<KnnResult> fused = searcher.KnnFused(group, k, options);
    ASSERT_EQ(fused.size(), g) << name;
    for (size_t i = 0; i < g; ++i) {
      const KnnResult expected = searcher.Knn(*group[i], k, options);
      const std::string context = name + "/group=" + std::to_string(g) +
                                  "/member=" + std::to_string(i);
      ExpectSameNeighbors(expected, fused[i], context);
      // At one worker the refinement is fully sequential, so the identical
      // helper over identical bounds must even compute the same EDR count.
      // (With more workers the count is schedule-dependent — the shared
      // k-th-distance threshold races benignly — so only the neighbor set
      // is comparable there.)
      if (options.intra_query_workers == 1) {
        EXPECT_EQ(expected.stats.edr_computed, fused[i].stats.edr_computed)
            << context;
      }
    }
  }
}

// Every fused-capable searcher returns bit-identical kNN answers through
// KnnFused for every group size, at 1 and 4 intra-query workers.
TEST(FusedSweepTest, SearchersBitIdenticalAtOneAndFourWorkers) {
  static ThreadPool pool(4);
  const HistogramKnnSearcher hse(Db(), kEps, HistogramTable::Kind::k2D, 1,
                                 HistogramScan::kSequential);
  const HistogramKnnSearcher hsr(Db(), kEps, HistogramTable::Kind::k2D, 1,
                                 HistogramScan::kSorted);
  const QgramKnnSearcher ps2(Db(), kEps, 1, QgramVariant::kMerge2D);
  const QgramKnnSearcher ps1(Db(), kEps, 1, QgramVariant::kMerge1D);
  CombinedOptions copt;
  const CombinedKnnSearcher combined(Db(), kEps, copt);
  const LcssKnnSearcher lcss(Db(), kEps, LcssFilter::kBoth);

  for (const unsigned workers : {1u, 4u}) {
    KnnOptions options;
    options.intra_query_workers = workers;
    options.pool = &pool;
    const std::string suffix = "/workers=" + std::to_string(workers);
    ExpectKnnFusedMatches(hse, "HSE" + suffix, 6, options);
    ExpectKnnFusedMatches(hsr, "HSR" + suffix, 6, options);
    ExpectKnnFusedMatches(ps2, "PS2" + suffix, 6, options);
    ExpectKnnFusedMatches(ps1, "PS1" + suffix, 6, options);
    ExpectKnnFusedMatches(combined, "2HP" + suffix, 6, options);
    ExpectKnnFusedMatches(lcss, "LCSS" + suffix, 6, options);
  }
}

// Degenerate groups: empty, k = 0, and the tree-probe fallback.
TEST(FusedSweepTest, DegenerateGroups) {
  const HistogramKnnSearcher hsr(Db(), kEps, HistogramTable::Kind::k2D, 1,
                                 HistogramScan::kSorted);
  EXPECT_TRUE(hsr.KnnFused({}, 5).empty());
  const std::vector<const Trajectory*> group = {&Queries()[0], &Queries()[1]};
  const std::vector<KnnResult> zero_k = hsr.KnnFused(group, 0);
  ASSERT_EQ(zero_k.size(), 2u);
  for (const KnnResult& r : zero_k) {
    EXPECT_TRUE(r.neighbors.empty());
    EXPECT_EQ(r.stats.db_size, Db().size());
  }

  // PR's fused counting pass keeps probe state per member; a two-member
  // group must answer every member exactly.
  const QgramKnnSearcher pr(Db(), kEps, 1, QgramVariant::kRtree2D);
  const std::vector<KnnResult> fused = pr.KnnFused(group, 4);
  ASSERT_EQ(fused.size(), 2u);
  for (size_t i = 0; i < group.size(); ++i) {
    ExpectSameNeighbors(pr.Knn(*group[i], 4), fused[i], "PR fused pair");
  }
}

// The tree-probing Q-gram variants (PR/PB) fuse via per-member probe
// state over the shared read-only index; the coordinate-sorted probe
// schedule must stay bit-identical to member-wise calls for every group
// size and worker count.
TEST(FusedSweepTest, TreeSearchersBitIdenticalThroughKnnFused) {
  static ThreadPool pool(4);
  const QgramKnnSearcher pr(Db(), kEps, 1, QgramVariant::kRtree2D);
  const QgramKnnSearcher pb(Db(), kEps, 1, QgramVariant::kBtree1D);
  for (const unsigned workers : {1u, 4u}) {
    KnnOptions options;
    options.intra_query_workers = workers;
    options.pool = &pool;
    const std::string suffix = "/workers=" + std::to_string(workers);
    ExpectKnnFusedMatches(pr, "PR" + suffix, 6, options);
    ExpectKnnFusedMatches(pb, "PB" + suffix, 6, options);
  }
}

// The scheduler forms fusion groups for fusable handles by default, the
// results stay bit-identical to the sequential path, and the stats /
// handle metadata describe the fused schedule.
TEST(FusedSweepTest, SchedulerFormsFusionGroups) {
  static ThreadPool pool(8);
  QueryEngine engine(Db(), kEps);
  KnnOptions bound;
  bound.pool = &pool;
  NamedSearcher searcher = engine.MakeHistogram(
      HistogramTable::Kind::k2D, 1, HistogramScan::kSorted, bound);
  ASSERT_FALSE(searcher.fusion_key.empty());
  ASSERT_TRUE(static_cast<bool>(searcher.search_fused));

  std::vector<KnnResult> expected;
  for (const Trajectory& q : Queries()) expected.push_back(searcher.search(q, 5));

  SchedulerPolicy policy;
  SchedulerStats stats;
  const std::vector<KnnResult> fused =
      RunScheduled(searcher, Queries(), 5, policy, &pool, nullptr, &stats);
  ASSERT_EQ(fused.size(), Queries().size());
  EXPECT_EQ(stats.queries, Queries().size());
  EXPECT_GT(stats.fused_groups, 0u);
  // 8 queries, group width 8: one fused dispatch covers the whole batch.
  EXPECT_EQ(stats.fused_queries, Queries().size());
  for (size_t i = 0; i < Queries().size(); ++i) {
    ExpectSameNeighbors(expected[i], fused[i],
                        "scheduled query " + std::to_string(i));
  }

  // max_fusion = 1 switches fusion off; the batch rides waves again.
  SchedulerPolicy unfused_policy;
  unfused_policy.max_fusion = 1;
  SchedulerStats unfused_stats;
  const std::vector<KnnResult> unfused = RunScheduled(
      searcher, Queries(), 5, unfused_policy, &pool, nullptr, &unfused_stats);
  EXPECT_EQ(unfused_stats.fused_groups, 0u);
  EXPECT_GT(unfused_stats.waves, 0u);
  for (size_t i = 0; i < Queries().size(); ++i) {
    ExpectSameNeighbors(expected[i], unfused[i],
                        "unfused query " + std::to_string(i));
  }

  // Tree-probe handles advertise a fusion key and fuse like everyone
  // else, bit-identically to the per-query path.
  NamedSearcher pr = engine.MakeQgram(QgramVariant::kRtree2D, 1, bound);
  EXPECT_FALSE(pr.fusion_key.empty());
  EXPECT_TRUE(static_cast<bool>(pr.search_fused));
  std::vector<KnnResult> pr_expected;
  for (const Trajectory& q : Queries()) pr_expected.push_back(pr.search(q, 5));
  SchedulerStats pr_stats;
  const std::vector<KnnResult> pr_fused = RunScheduled(
      pr, Queries(), 5, SchedulerPolicy{}, &pool, nullptr, &pr_stats);
  EXPECT_GT(pr_stats.fused_groups, 0u);
  for (size_t i = 0; i < Queries().size(); ++i) {
    ExpectSameNeighbors(pr_expected[i], pr_fused[i],
                        "scheduled PR query " + std::to_string(i));
  }
}

/// Clustered workload for the grouping tests: `clusters` near-duplicate
/// families of `per_cluster` jittered copies each, interleaved round-robin
/// so FIFO groups mix clusters while the similarity grouper can reunite
/// them.
std::vector<Trajectory> ClusteredQueries(size_t clusters,
                                         size_t per_cluster) {
  const std::vector<Trajectory> bases =
      testutil::MakeQueries(Db(), 1205, clusters);
  std::vector<Trajectory> out;
  out.reserve(clusters * per_cluster);
  for (size_t j = 0; j < per_cluster; ++j) {
    for (size_t c = 0; c < clusters; ++c) {
      Trajectory t = bases[c];
      for (size_t p = 0; p < t.size(); ++p) {
        t[p].x += 1e-4 * static_cast<double>((c * 31 + j * 7 + p) % 5);
        t[p].y += 1e-4 * static_cast<double>((c * 17 + j * 13 + p) % 7);
      }
      out.push_back(std::move(t));
    }
  }
  return out;
}

// The tentpole certification: similarity-grouped, FIFO-grouped, and
// unfused schedules return bit-identical answers for every fused-capable
// searcher (all six plus both tree variants) — grouping only changes
// WHICH queries share a sweep, never any member's answer.
TEST(FusedSweepTest, GroupingBitIdenticalAcrossAllSearchers) {
  static ThreadPool pool(8);
  QueryEngine engine(Db(), kEps);
  KnnOptions bound;
  bound.pool = &pool;
  CombinedOptions copt;
  const std::vector<NamedSearcher> searchers = {
      engine.MakeHistogram(HistogramTable::Kind::k2D, 1,
                           HistogramScan::kSequential, bound),
      engine.MakeHistogram(HistogramTable::Kind::k2D, 1,
                           HistogramScan::kSorted, bound),
      engine.MakeQgram(QgramVariant::kMerge2D, 1, bound),
      engine.MakeQgram(QgramVariant::kMerge1D, 1, bound),
      engine.MakeQgram(QgramVariant::kRtree2D, 1, bound),
      engine.MakeQgram(QgramVariant::kBtree1D, 1, bound),
      engine.MakeCombined(copt, bound),
      engine.MakeLcss(LcssFilter::kBoth, bound),
  };
  const std::vector<Trajectory> queries = ClusteredQueries(4, 6);

  for (const NamedSearcher& searcher : searchers) {
    ASSERT_FALSE(searcher.fusion_key.empty()) << searcher.name;
    ASSERT_TRUE(static_cast<bool>(searcher.fingerprint)) << searcher.name;
    std::vector<KnnResult> expected;
    for (const Trajectory& q : queries) expected.push_back(searcher.search(q, 5));

    SchedulerPolicy similarity;  // default: similarity grouping on
    SchedulerPolicy fifo;
    fifo.similarity_grouping = false;
    SchedulerPolicy unfused;
    unfused.max_fusion = 1;

    SchedulerStats sim_stats, fifo_stats;
    const std::vector<KnnResult> sim = RunScheduled(
        searcher, queries, 5, similarity, &pool, nullptr, &sim_stats);
    const std::vector<KnnResult> fif = RunScheduled(
        searcher, queries, 5, fifo, &pool, nullptr, &fifo_stats);
    const std::vector<KnnResult> unf =
        RunScheduled(searcher, queries, 5, unfused, &pool, nullptr, nullptr);
    EXPECT_GT(sim_stats.group_similarity, 0u) << searcher.name;
    EXPECT_EQ(fifo_stats.group_similarity, 0u) << searcher.name;
    EXPECT_GT(fifo_stats.group_fifo, 0u) << searcher.name;
    // On the clustered workload, reuniting the interleaved families must
    // raise the estimated shared-bin fraction over arrival order.
    EXPECT_GT(sim_stats.shared_fraction_sum, fifo_stats.shared_fraction_sum)
        << searcher.name;
    for (size_t i = 0; i < queries.size(); ++i) {
      const std::string at = searcher.name + " query " + std::to_string(i);
      ExpectSameNeighbors(expected[i], sim[i], "similarity " + at);
      ExpectSameNeighbors(expected[i], fif[i], "fifo " + at);
      ExpectSameNeighbors(expected[i], unf[i], "unfused " + at);
    }
  }
}

// The age watermark force-schedules a starved head: a front query whose
// signature matches nothing still runs after at most `watermark` groups
// pass it over, and the forced schedule stays bit-identical.
TEST(FusedSweepTest, StarvationWatermarkSchedulesMismatchedHead) {
  static ThreadPool pool(8);
  QueryEngine engine(Db(), kEps);
  KnnOptions bound;
  bound.pool = &pool;
  NamedSearcher searcher = engine.MakeHistogram(
      HistogramTable::Kind::k2D, 1, HistogramScan::kSorted, bound);

  // Head outlier far from every cluster, then three interleaved
  // near-duplicate families — the grouper always prefers the families.
  std::vector<Trajectory> queries;
  {
    Trajectory outlier;
    for (int p = 0; p < 8; ++p) {
      outlier.Append({50.0 + 0.1 * p, 50.0 - 0.1 * p});
    }
    queries.push_back(std::move(outlier));
    for (const Trajectory& q : ClusteredQueries(3, 5)) queries.push_back(q);
  }

  std::vector<KnnResult> expected;
  for (const Trajectory& q : queries) expected.push_back(searcher.search(q, 5));

  SchedulerPolicy policy;
  policy.max_fusion = 4;
  policy.group_age_watermark = 1;
  SchedulerStats stats;
  const std::vector<KnnResult> got =
      RunScheduled(searcher, queries, 5, policy, &pool, nullptr, &stats);
  EXPECT_GT(stats.group_forced, 0u);
  EXPECT_EQ(stats.queries, queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    ExpectSameNeighbors(expected[i], got[i],
                        "watermark query " + std::to_string(i));
  }
}

// A shared FusedPlanCache turns repeat group compositions into plan hits,
// and cached plans answer bit-identically to freshly built ones.
TEST(FusedSweepTest, PlanCacheWarmHitsStayBitIdentical) {
  static ThreadPool pool(8);
  QueryEngine engine(Db(), kEps);
  KnnOptions bound;
  bound.pool = &pool;
  NamedSearcher searcher = engine.MakeHistogram(
      HistogramTable::Kind::k2D, 1, HistogramScan::kSorted, bound);
  const std::vector<Trajectory> queries = ClusteredQueries(2, 8);

  std::vector<KnnResult> expected;
  for (const Trajectory& q : queries) expected.push_back(searcher.search(q, 5));

  FusedPlanCache plan_cache(32);
  SchedulerPolicy policy;
  const std::vector<KnnResult> cold = RunScheduled(
      searcher, queries, 5, policy, &pool, nullptr, nullptr, &plan_cache);
  const FusedPlanCache::Stats after_cold = plan_cache.stats();
  EXPECT_GT(after_cold.misses, 0u);
  const std::vector<KnnResult> warm = RunScheduled(
      searcher, queries, 5, policy, &pool, nullptr, nullptr, &plan_cache);
  const FusedPlanCache::Stats after_warm = plan_cache.stats();
  EXPECT_GT(after_warm.hits, after_cold.hits);
  for (size_t i = 0; i < queries.size(); ++i) {
    const std::string at = " query " + std::to_string(i);
    ExpectSameNeighbors(expected[i], cold[i], "cold" + at);
    ExpectSameNeighbors(expected[i], warm[i], "warm" + at);
  }
}

// The streaming QuerySession drives the same fused path from its backlog.
TEST(FusedSweepTest, QuerySessionFusesBacklog) {
  static ThreadPool pool(8);
  QueryEngine engine(Db(), kEps);
  KnnOptions bound;
  bound.pool = &pool;
  NamedSearcher searcher = engine.MakeLcss(LcssFilter::kBoth, bound);
  ASSERT_FALSE(searcher.fusion_key.empty());

  std::vector<KnnResult> expected;
  for (const Trajectory& q : Queries()) expected.push_back(searcher.search(q, 4));

  QuerySession::Options options;
  options.k = 4;
  options.pool = &pool;
  QuerySession session(searcher, options);
  std::vector<QuerySession::Ticket> tickets;
  for (const Trajectory& q : Queries()) tickets.push_back(session.Submit(q));
  session.Drain();
  EXPECT_GT(session.stats().fused_queries, 0u);
  EXPECT_EQ(session.stats().queries, Queries().size());
  for (size_t i = 0; i < tickets.size(); ++i) {
    ExpectSameNeighbors(expected[i], session.Result(tickets[i]),
                        "session query " + std::to_string(i));
  }
}

}  // namespace
}  // namespace edr
