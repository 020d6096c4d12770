#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/rng.h"
#include "pruning/histogram.h"
#include "query/engine.h"
#include "query/feature_cache.h"
#include "test_util.h"

namespace edr {
namespace {

constexpr double kEps = 0.25;

Trajectory Walk(uint64_t seed, size_t length) {
  Rng rng(seed);
  return testutil::RandomWalk(rng, length);
}

TEST(FeatureCacheTest, MissThenHit) {
  FeatureCache cache(8);
  const Trajectory t = Walk(1, 20);
  int builds = 0;
  const auto build = [&] {
    ++builds;
    return std::vector<int>{1, 2, 3};
  };
  const auto first = cache.GetOrBuild<std::vector<int>>("key", t, build);
  const auto second = cache.GetOrBuild<std::vector<int>>("key", t, build);
  EXPECT_EQ(builds, 1);
  EXPECT_EQ(first.get(), second.get());  // same cached object
  const FeatureCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(FeatureCacheTest, DistinctConfigKeysDoNotCollide) {
  FeatureCache cache(8);
  const Trajectory t = Walk(2, 20);
  const auto a =
      cache.GetOrBuild<int>("config-a", t, [] { return 1; });
  const auto b =
      cache.GetOrBuild<int>("config-b", t, [] { return 2; });
  EXPECT_EQ(*a, 1);
  EXPECT_EQ(*b, 2);
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().entries, 2u);
}

TEST(FeatureCacheTest, DistinctTrajectoriesDoNotCollide) {
  FeatureCache cache(8);
  const Trajectory t1 = Walk(3, 20);
  const Trajectory t2 = Walk(4, 20);
  ASSERT_NE(TrajectoryFingerprint(t1), TrajectoryFingerprint(t2));
  const auto a = cache.GetOrBuild<size_t>("key", t1, [&] { return t1.size(); });
  const auto b = cache.GetOrBuild<size_t>("key", t2, [&] { return t2.size(); });
  EXPECT_EQ(cache.stats().misses, 2u);
  // An equal copy of t1 (different object, same points) hits.
  const Trajectory t1_copy = t1;
  const auto c =
      cache.GetOrBuild<size_t>("key", t1_copy, [&] { return size_t{0}; });
  EXPECT_EQ(*c, t1.size());
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(FeatureCacheTest, EvictsLeastRecentlyUsed) {
  FeatureCache cache(2);
  const Trajectory t1 = Walk(5, 10);
  const Trajectory t2 = Walk(6, 10);
  const Trajectory t3 = Walk(7, 10);
  int builds = 0;
  const auto build = [&] { return ++builds; };
  cache.GetOrBuild<int>("k", t1, build);  // {t1}
  cache.GetOrBuild<int>("k", t2, build);  // {t2, t1}
  cache.GetOrBuild<int>("k", t1, build);  // hit; {t1, t2}
  cache.GetOrBuild<int>("k", t3, build);  // evicts t2; {t3, t1}
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().entries, 2u);
  // t1 survived (was MRU at eviction time), t2 did not.
  cache.GetOrBuild<int>("k", t1, build);
  EXPECT_EQ(cache.stats().hits, 2u);
  cache.GetOrBuild<int>("k", t2, build);
  EXPECT_EQ(cache.stats().evictions, 2u);  // t2 rebuilt, evicting t3...
  EXPECT_EQ(builds, 4);
}

TEST(FeatureCacheTest, ClearDropsEntriesKeepsCounters) {
  FeatureCache cache(4);
  const Trajectory t = Walk(8, 12);
  cache.GetOrBuild<int>("k", t, [] { return 1; });
  cache.Clear();
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().misses, 1u);
  int builds = 0;
  cache.GetOrBuild<int>("k", t, [&] { return ++builds; });
  EXPECT_EQ(builds, 1);  // rebuilt after clear
}

TEST(FeatureCacheTest, FingerprintIsOrderAndValueSensitive) {
  Trajectory a;
  a.Append({1.0, 2.0});
  a.Append({3.0, 4.0});
  Trajectory b;
  b.Append({3.0, 4.0});
  b.Append({1.0, 2.0});
  Trajectory c;
  c.Append({1.0, 2.0});
  c.Append({3.0, 4.0});
  EXPECT_NE(TrajectoryFingerprint(a), TrajectoryFingerprint(b));
  EXPECT_EQ(TrajectoryFingerprint(a), TrajectoryFingerprint(c));
}

/// Cold-vs-warm equivalence on the real searchers: the same queries run
/// twice against one cache; the warm pass must hit and return results
/// bit-identical to both the cold pass and the uncached path.
TEST(FeatureCacheTest, ColdVersusWarmEquivalenceAcrossSearchers) {
  const TrajectoryDataset db = testutil::SmallDataset(911, 60, 10, 50);
  QueryEngine engine(db, kEps);
  const std::vector<Trajectory> queries = testutil::MakeQueries(db, 912, 6);
  FeatureCache cache(64);

  CombinedOptions combo;
  const std::vector<NamedSearcher> searchers = {
      engine.MakeQgram(QgramVariant::kMerge2D, 1),
      engine.MakeQgram(QgramVariant::kMerge1D, 1),
      engine.MakeQgram(QgramVariant::kRtree2D, 1),
      engine.MakeQgram(QgramVariant::kBtree1D, 1),
      engine.MakeHistogram(HistogramTable::Kind::k2D, 1,
                           HistogramScan::kSorted),
      engine.MakeCombined(combo),
  };

  for (const NamedSearcher& searcher : searchers) {
    KnnOptions cached;
    cached.feature_cache = &cache;
    for (const Trajectory& q : queries) {
      const KnnResult uncached = searcher.search(q, 5);
      const KnnResult cold = searcher.search_with(q, 5, cached);
      const KnnResult warm = searcher.search_with(q, 5, cached);
      ASSERT_EQ(uncached.neighbors.size(), cold.neighbors.size());
      ASSERT_EQ(uncached.neighbors.size(), warm.neighbors.size());
      for (size_t j = 0; j < uncached.neighbors.size(); ++j) {
        EXPECT_EQ(uncached.neighbors[j], cold.neighbors[j])
            << searcher.name << " rank " << j;
        EXPECT_EQ(uncached.neighbors[j], warm.neighbors[j])
            << searcher.name << " rank " << j;
      }
    }
  }
  const FeatureCache::Stats stats = cache.stats();
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.misses, 0u);
  EXPECT_EQ(stats.evictions, 0u);  // capacity 64 covers every feature here
}

/// Searchers with semantically identical configs share entries: the PS2
/// q-gram means and the combined searcher's q-gram means (same q), and
/// the two histogram consumers built over the same grid.
TEST(FeatureCacheTest, SemanticKeysShareEntriesAcrossSearchers) {
  const TrajectoryDataset db = testutil::SmallDataset(913, 50, 10, 40);
  QueryEngine engine(db, kEps);
  const Trajectory query = testutil::MakeQueries(db, 914, 1)[0];
  FeatureCache cache(32);
  KnnOptions cached;
  cached.feature_cache = &cache;

  // PS2 (q=1, sorted 2-D means) warms the cache...
  engine.MakeQgram(QgramVariant::kMerge2D, 1).search_with(query, 3, cached);
  const uint64_t misses_after_ps2 = cache.stats().misses;
  // ...and the combined searcher (same q) hits the q-gram entry; its
  // histogram entry (different feature) still misses.
  CombinedOptions combo;
  engine.MakeCombined(combo).search_with(query, 3, cached);
  const FeatureCache::Stats stats = cache.stats();
  EXPECT_GE(stats.hits, 1u);
  EXPECT_EQ(stats.misses, misses_after_ps2 + 1);  // only the histogram
}

TEST(FeatureCacheTest, HistogramFeatureKeyEncodesGeometry) {
  const TrajectoryDataset db = testutil::SmallDataset(915, 30, 10, 30);
  const HistogramTable t2d(db, kEps, HistogramTable::Kind::k2D, 1);
  const HistogramTable t1d(db, kEps, HistogramTable::Kind::k1D, 1);
  const HistogramTable t2d_coarse(db, kEps, HistogramTable::Kind::k2D, 2);
  EXPECT_NE(t2d.feature_key(), t1d.feature_key());
  EXPECT_NE(t2d.feature_key(), t2d_coarse.feature_key());
  const HistogramTable t2d_again(db, kEps, HistogramTable::Kind::k2D, 1);
  EXPECT_EQ(t2d.feature_key(), t2d_again.feature_key());
}

}  // namespace
}  // namespace edr
