#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/obs.h"
#include "obs/trace.h"
#include "query/engine.h"
#include "query/feature_cache.h"
#include "query/scheduler.h"
#include "query/thread_pool.h"
#include "test_util.h"

namespace edr {
namespace {

constexpr double kEps = 0.25;

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

/// One NamedSearcher per retrieval method, bound to a dedicated pool so
/// worker counts are exact regardless of the host's core count.
std::vector<NamedSearcher> AllSearchers(QueryEngine& engine,
                                        ThreadPool* pool) {
  KnnOptions options;
  options.pool = pool;
  CombinedOptions combo;
  return {
      engine.MakeQgram(QgramVariant::kMerge2D, 1, options),
      engine.MakeQgram(QgramVariant::kMerge1D, 1, options),
      engine.MakeHistogram(HistogramTable::Kind::k2D, 1,
                           HistogramScan::kSorted, options),
      engine.MakeNearTriangle(20, options),
      engine.MakeCse(20, options),
      engine.MakeCombined(combo, options),
  };
}

class SchedulerTest : public ::testing::Test {
 protected:
  SchedulerTest()
      : db_(testutil::SmallDataset(901, 70, 10, 50)),
        engine_(db_, kEps),
        queries_(testutil::MakeQueries(db_, 902, 9)),
        pool_(8) {}

  std::vector<KnnResult> Sequential(const NamedSearcher& searcher, size_t k) {
    std::vector<KnnResult> out;
    out.reserve(queries_.size());
    for (const Trajectory& q : queries_) out.push_back(searcher.search(q, k));
    return out;
  }

  TrajectoryDataset db_;
  QueryEngine engine_;
  std::vector<Trajectory> queries_;
  ThreadPool pool_;
};

/// The acceptance-criteria test: fixed, oscillating, and adversarial
/// budget schedules (1 / 2 / 8 workers) produce bit-identical k-NN
/// results for every searcher. budget_override drives the exact
/// production call path (AdaptiveScheduler::Step -> search_with) with a
/// deterministic budget per query.
TEST_F(SchedulerTest, BitIdenticalAcrossBudgetSchedules) {
  struct Schedule {
    const char* name;
    std::vector<unsigned> budgets;  ///< indexed by query, cycled
  };
  const std::vector<Schedule> schedules = {
      {"fixed-1", {1}},
      {"fixed-2", {2}},
      {"fixed-8", {8}},
      {"oscillating-1-8", {1, 8}},
      {"adversarial", {8, 1, 2, 8, 1, 1, 2, 8, 2}},
  };
  const size_t n = queries_.size();
  for (const NamedSearcher& searcher : AllSearchers(engine_, &pool_)) {
    const std::vector<KnnResult> expected = Sequential(searcher, 6);
    for (const Schedule& schedule : schedules) {
      SchedulerPolicy policy;
      policy.budget_override = [&schedule, n](size_t pending,
                                              unsigned /*capacity*/) {
        const size_t index = n - pending;  // queries run in order
        return schedule.budgets[index % schedule.budgets.size()];
      };
      SchedulerStats stats;
      const std::vector<KnnResult> actual = RunScheduled(
          searcher, queries_, 6, policy, &pool_, nullptr, &stats);
      ASSERT_EQ(actual.size(), n);
      EXPECT_EQ(stats.queries, n);
      for (size_t i = 0; i < n; ++i) {
        ExpectSameNeighbors(expected[i], actual[i],
                            searcher.name + "/" + schedule.name +
                                "/query " + std::to_string(i));
      }
    }
  }
}

/// The default adaptive policy (waves + widened tail) under various thread
/// caps also matches the sequential path for every searcher.
TEST_F(SchedulerTest, DefaultPolicyMatchesSequential) {
  for (const NamedSearcher& searcher : AllSearchers(engine_, &pool_)) {
    const std::vector<KnnResult> expected = Sequential(searcher, 5);
    for (const unsigned threads : {1u, 4u, 8u}) {
      SchedulerPolicy policy;
      policy.max_threads = threads;
      SchedulerStats stats;
      const std::vector<KnnResult> actual = RunScheduled(
          searcher, queries_, 5, policy, &pool_, nullptr, &stats);
      ASSERT_EQ(actual.size(), queries_.size());
      EXPECT_EQ(stats.queries, queries_.size());
      for (size_t i = 0; i < queries_.size(); ++i) {
        ExpectSameNeighbors(expected[i], actual[i],
                            searcher.name + "/threads=" +
                                std::to_string(threads) + "/query " +
                                std::to_string(i));
      }
    }
  }
}

/// An attached feature cache must never change results — cold pass, warm
/// pass, and the uncached sequential path all agree.
TEST_F(SchedulerTest, FeatureCacheDoesNotChangeResults) {
  FeatureCache cache(64);
  for (const NamedSearcher& searcher : AllSearchers(engine_, &pool_)) {
    const std::vector<KnnResult> expected = Sequential(searcher, 5);
    SchedulerPolicy policy;
    for (int pass = 0; pass < 2; ++pass) {
      const std::vector<KnnResult> actual =
          RunScheduled(searcher, queries_, 5, policy, &pool_, &cache);
      for (size_t i = 0; i < queries_.size(); ++i) {
        ExpectSameNeighbors(expected[i], actual[i],
                            searcher.name + "/pass " + std::to_string(pass) +
                                "/query " + std::to_string(i));
      }
    }
  }
  const FeatureCache::Stats stats = cache.stats();
  EXPECT_GT(stats.hits, 0u);   // the warm pass actually hit
  EXPECT_GT(stats.misses, 0u);
}

TEST_F(SchedulerTest, GrantBudgetSplitsCapacityAcrossBacklog) {
  SchedulerPolicy policy;
  const NamedSearcher searcher = engine_.MakeSeqScan();
  AdaptiveScheduler scheduler(searcher, 3, policy, &pool_, nullptr);
  EXPECT_EQ(scheduler.Capacity(), 9u);  // 8 workers + caller
  // Deep backlog -> budget 1; lone query -> the whole capacity.
  EXPECT_EQ(scheduler.GrantBudget(100), 1u);
  EXPECT_EQ(scheduler.GrantBudget(1), 9u);
  EXPECT_EQ(scheduler.GrantBudget(3), 3u);

  SchedulerPolicy capped;
  capped.max_intra_workers = 2;
  capped.max_threads = 4;
  AdaptiveScheduler capped_scheduler(searcher, 3, capped, &pool_, nullptr);
  EXPECT_EQ(capped_scheduler.Capacity(), 4u);
  EXPECT_EQ(capped_scheduler.GrantBudget(1), 2u);
}

/// KnnBatch's single-query special case must honor intra-query
/// parallelism: the lone query gets the full adaptive budget instead of
/// silently running serial. (Observable via the `sched` trace node, which
/// records the granted worker count.)
TEST_F(SchedulerTest, SingleQueryBatchReceivesWideBudget) {
  if constexpr (!kObsEnabled) GTEST_SKIP() << "needs query traces";
  KnnOptions options;
  options.pool = &pool_;
  const NamedSearcher searcher = engine_.MakeHistogram(
      HistogramTable::Kind::k2D, 1, HistogramScan::kSorted, options);
  const std::vector<Trajectory> one = {queries_[0]};

  SchedulerPolicy policy;
  SchedulerStats stats;
  const std::vector<KnnResult> batch =
      RunScheduled(searcher, one, 4, policy, &pool_, nullptr, &stats);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(stats.queries, 1u);
  EXPECT_EQ(stats.max_budget, 9u);  // whole dedicated pool + caller
  EXPECT_EQ(stats.widened_queries, 1u);

  ASSERT_NE(batch[0].trace, nullptr);
  bool found_sched = false;
  for (const QueryTrace::Node& node : batch[0].trace->nodes()) {
    if (std::string(node.name) == "sched") {
      found_sched = true;
      EXPECT_EQ(node.count, 9u);
    }
  }
  EXPECT_TRUE(found_sched);

  // And the answer matches the direct sequential call bit for bit.
  ExpectSameNeighbors(searcher.search(one[0], 4), batch[0], "single");
}

TEST_F(SchedulerTest, QuerySessionStreamsAndMatchesBatch) {
  const NamedSearcher searcher = AllSearchers(engine_, &pool_)[2];  // HSR
  const std::vector<KnnResult> expected = Sequential(searcher, 5);

  QuerySession::Options options;
  options.k = 5;
  options.pool = &pool_;
  QuerySession session(searcher, options);
  std::vector<QuerySession::Ticket> tickets;
  for (const Trajectory& q : queries_) tickets.push_back(session.Submit(q));
  EXPECT_EQ(session.submitted(), queries_.size());

  // Results retrievable out of submission order, each bit-identical.
  for (size_t i = tickets.size(); i-- > 0;) {
    ExpectSameNeighbors(expected[i], session.Result(tickets[i]),
                        "session query " + std::to_string(i));
  }
  session.Drain();
  EXPECT_EQ(session.pending(), 0u);
  EXPECT_EQ(session.stats().queries, queries_.size());
}

TEST_F(SchedulerTest, QuerySessionAdmitWatermarkRunsEagerly) {
  const NamedSearcher searcher = engine_.MakeSeqScan();
  QuerySession::Options options;
  options.k = 3;
  options.pool = &pool_;
  options.admit_watermark = 4;
  QuerySession session(searcher, options);
  for (size_t i = 0; i < queries_.size(); ++i) {
    session.Submit(queries_[i]);
    // Eager execution keeps the backlog below the watermark even though
    // nobody asked for a result yet.
    EXPECT_LT(session.pending(), 4u + queries_.size() - i);
  }
  EXPECT_LT(session.pending(), queries_.size());
  session.Drain();
  EXPECT_EQ(session.stats().queries, queries_.size());
}

TEST_F(SchedulerTest, EmptyBatchAndZeroK) {
  const NamedSearcher searcher = engine_.MakeSeqScan();
  SchedulerPolicy policy;
  EXPECT_TRUE(RunScheduled(searcher, {}, 3, policy, &pool_).empty());
  const std::vector<KnnResult> zero_k =
      RunScheduled(searcher, queries_, 0, policy, &pool_);
  for (const KnnResult& r : zero_k) EXPECT_TRUE(r.neighbors.empty());
}

TEST_F(SchedulerTest, PolicyValidationRejectsContradictions) {
  // Consistent policies pass, including every default.
  EXPECT_EQ(SchedulerPolicyError(SchedulerPolicy{}), "");
  {
    SchedulerPolicy p;
    p.budget_override = [](size_t, unsigned) { return 2u; };
    EXPECT_EQ(SchedulerPolicyError(p), "");  // max_fusion default stays auto-off
  }

  // budget_override forces per-query schedules; asking for fusion on top
  // is a contradiction, not a preference.
  SchedulerPolicy fused_override;
  fused_override.budget_override = [](size_t, unsigned) { return 2u; };
  fused_override.max_fusion = 4;
  EXPECT_NE(SchedulerPolicyError(fused_override), "");

  // An intra-query budget the thread cap can never grant.
  SchedulerPolicy narrow;
  narrow.max_intra_workers = 8;
  narrow.max_threads = 2;
  EXPECT_NE(SchedulerPolicyError(narrow), "");

  // QuerySession surfaces the mistake instead of silently clamping.
  const NamedSearcher searcher = engine_.MakeSeqScan();
  QuerySession::Options options;
  options.policy = narrow;
  options.pool = &pool_;
  EXPECT_THROW(QuerySession(searcher, options), std::invalid_argument);
}

}  // namespace
}  // namespace edr
