#include "obs/registry.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "obs/json.h"
#include "obs/obs.h"
#include "query/thread_pool.h"

namespace edr {
namespace {

// Process-wide registry state is shared across tests in this binary, so
// every test namespaces its entries ("test_registry.<case>.*") and resets
// only what it owns via the returned references.

TEST(ObsRegistryTest, CounterIncLoadReset) {
  ObsCounter& c =
      MetricsRegistry::Global().Counter("test_registry.basic.count");
  c.Reset();
  c.Inc();
  c.Inc(4);
  if constexpr (kObsEnabled) {
    EXPECT_EQ(c.Load(), 5u);
  } else {
    EXPECT_EQ(c.Load(), 0u);  // Inc compiles to nothing.
  }
  c.Reset();
  EXPECT_EQ(c.Load(), 0u);
}

TEST(ObsRegistryTest, SameNameReturnsSameCounter) {
  ObsCounter& a =
      MetricsRegistry::Global().Counter("test_registry.alias.count");
  ObsCounter& b =
      MetricsRegistry::Global().Counter("test_registry.alias.count");
  EXPECT_EQ(&a, &b);
  LatencyHistogram& h =
      MetricsRegistry::Global().Histogram("test_registry.alias.seconds");
  LatencyHistogram& h2 =
      MetricsRegistry::Global().Histogram("test_registry.alias.seconds");
  EXPECT_EQ(&h, &h2);
}

TEST(ObsRegistryTest, CounterAggregatesAcrossPoolWorkers) {
  ObsCounter& c =
      MetricsRegistry::Global().Counter("test_registry.pool.count");
  c.Reset();
  ThreadPool pool(3);
  constexpr size_t kItems = 10000;
  pool.ParallelFor(kItems, [&c](size_t) { c.Inc(); });
  if constexpr (kObsEnabled) {
    // Relaxed atomics still never lose increments.
    EXPECT_EQ(c.Load(), kItems);
  } else {
    EXPECT_EQ(c.Load(), 0u);
  }
  c.Reset();
}

TEST(ObsRegistryTest, HistogramRecordsAndBrackets) {
  LatencyHistogram h;
  h.Record(1e-6);
  h.Record(1e-3);
  h.Record(1e-3);
  h.Record(0.5);
  if constexpr (!kObsEnabled) {
    EXPECT_EQ(h.TotalCount(), 0u);
    return;
  }
  EXPECT_EQ(h.TotalCount(), 4u);
  EXPECT_NEAR(h.TotalSeconds(), 0.502001, 1e-4);
  uint64_t bucket_sum = 0;
  for (const uint64_t b : h.BucketCounts()) bucket_sum += b;
  EXPECT_EQ(bucket_sum, 4u);
  // Log-bucketed percentiles are the bucket's upper edge: within 2x of
  // the true value, never below it.
  const double p50 = h.PercentileSeconds(0.5);
  EXPECT_GE(p50, 1e-3);
  EXPECT_LE(p50, 2e-3);
  const double p100 = h.PercentileSeconds(1.0);
  EXPECT_GE(p100, 0.5);
  EXPECT_LE(p100, 1.0);
  h.Reset();
  EXPECT_EQ(h.TotalCount(), 0u);
  EXPECT_EQ(h.PercentileSeconds(0.5), 0.0);
}

TEST(ObsRegistryTest, HistogramPercentileEdgeCases) {
  LatencyHistogram h;
  EXPECT_EQ(h.PercentileSeconds(0.5), 0.0);  // Empty.
  h.Record(1e-4);
  if constexpr (kObsEnabled) {
    // A single sample is every percentile.
    EXPECT_EQ(h.PercentileSeconds(0.0), h.PercentileSeconds(1.0));
    EXPECT_GE(h.PercentileSeconds(0.5), 1e-4);
  }
}

TEST(ObsRegistryTest, SnapshotExportsJsonAndTable) {
  ObsCounter& c =
      MetricsRegistry::Global().Counter("test_registry.snapshot.count");
  LatencyHistogram& h =
      MetricsRegistry::Global().Histogram("test_registry.snapshot.seconds");
  c.Reset();
  h.Reset();
  c.Inc(3);
  h.Record(0.001);
  h.Record(0.002);

  const MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  bool counter_found = false;
  for (const MetricsSnapshot::CounterRow& row : snap.counters) {
    if (row.name == "test_registry.snapshot.count") {
      counter_found = true;
      EXPECT_EQ(row.value, kObsEnabled ? 3u : 0u);
    }
  }
  EXPECT_TRUE(counter_found);
  bool histogram_found = false;
  for (const MetricsSnapshot::HistogramRow& row : snap.histograms) {
    if (row.name == "test_registry.snapshot.seconds") {
      histogram_found = true;
      EXPECT_EQ(row.count, kObsEnabled ? 2u : 0u);
      if constexpr (kObsEnabled) {
        EXPECT_LE(row.p50_seconds, row.p95_seconds);
        EXPECT_LE(row.p95_seconds, row.p99_seconds);
      }
    }
  }
  EXPECT_TRUE(histogram_found);

  const std::string json = snap.ToJson();
  EXPECT_TRUE(JsonIsValid(json)) << json;
  EXPECT_NE(json.find("test_registry.snapshot.count"), std::string::npos);
  EXPECT_NE(json.find("test_registry.snapshot.seconds"), std::string::npos);
  const std::string table = snap.ToTable();
  EXPECT_NE(table.find("test_registry.snapshot.count"), std::string::npos);
  c.Reset();
  h.Reset();
}

// Row lookups for the snapshot-difference tests below.
uint64_t CounterIn(const MetricsSnapshot& snap, const std::string& name) {
  for (const MetricsSnapshot::CounterRow& row : snap.counters) {
    if (row.name == name) return row.value;
  }
  ADD_FAILURE() << name << " missing from snapshot";
  return 0;
}

MetricsSnapshot::HistogramRow HistogramIn(const MetricsSnapshot& snap,
                                          const std::string& name) {
  for (const MetricsSnapshot::HistogramRow& row : snap.histograms) {
    if (row.name == name) return row;
  }
  ADD_FAILURE() << name << " missing from snapshot";
  return MetricsSnapshot::HistogramRow{};
}

// The delta-scrape contract, with each scrape the difference of two
// snapshots: the first sees everything since the start, the second only
// the activity after the first. Scraping resets nothing.
TEST(ObsRegistryTest, SnapshotAndResetYieldsDeltas) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  ObsCounter& c = registry.Counter("test_registry.delta.count");
  LatencyHistogram& h = registry.Histogram("test_registry.delta.seconds");
  c.Reset();
  h.Reset();
  const MetricsSnapshot start = registry.Snapshot();
  c.Inc(5);
  h.Record(0.004);

  const MetricsSnapshot first = registry.Snapshot();
  const MetricsSnapshot first_delta = first.Since(start);
  EXPECT_EQ(CounterIn(first_delta, "test_registry.delta.count"),
            kObsEnabled ? 5u : 0u);
  EXPECT_EQ(HistogramIn(first_delta, "test_registry.delta.seconds").count,
            kObsEnabled ? 1u : 0u);

  c.Inc(2);
  const MetricsSnapshot second = registry.Snapshot();
  const MetricsSnapshot second_delta = second.Since(first);
  EXPECT_EQ(CounterIn(second_delta, "test_registry.delta.count"),
            kObsEnabled ? 2u : 0u);
  EXPECT_EQ(HistogramIn(second_delta, "test_registry.delta.seconds").count,
            0u);

  // The registry still holds the cumulative totals, under the same entries.
  EXPECT_EQ(c.Load(), kObsEnabled ? 7u : 0u);
  EXPECT_EQ(CounterIn(second, "test_registry.delta.count"),
            kObsEnabled ? 7u : 0u);
  EXPECT_EQ(&registry.Counter("test_registry.delta.count"), &c);
}

// A counter's snapshot difference reads what was added in between and is
// zero once nothing more is added; the counter keeps its total.
TEST(ObsRegistryTest, CounterDrainReadsAndZeroes) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  ObsCounter& c = registry.Counter("test_registry.drain.count");
  c.Reset();
  const MetricsSnapshot before = registry.Snapshot();
  c.Inc(6);
  const MetricsSnapshot after = registry.Snapshot();
  EXPECT_EQ(CounterIn(after.Since(before), "test_registry.drain.count"),
            kObsEnabled ? 6u : 0u);
  EXPECT_EQ(CounterIn(registry.Snapshot().Since(after),
                      "test_registry.drain.count"),
            0u);  // Nothing added since.
  EXPECT_EQ(c.Load(), kObsEnabled ? 6u : 0u);
}

// A histogram's snapshot difference carries the samples recorded in
// between (count, sum, buckets and the percentiles they give), and the
// next difference is empty; the histogram keeps its contents.
TEST(ObsRegistryTest, HistogramDrainMovesContentsOut) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  LatencyHistogram& h = registry.Histogram("test_registry.drain.seconds");
  h.Reset();
  const MetricsSnapshot before = registry.Snapshot();
  h.Record(1e-3);
  h.Record(2e-3);
  const MetricsSnapshot after = registry.Snapshot();
  const MetricsSnapshot::HistogramRow d =
      HistogramIn(after.Since(before), "test_registry.drain.seconds");
  if constexpr (!kObsEnabled) {
    EXPECT_EQ(d.count, 0u);
    return;
  }
  EXPECT_EQ(d.count, 2u);
  EXPECT_NEAR(d.total_seconds, 3e-3, 1e-6);
  uint64_t bucket_sum = 0;
  for (const uint64_t b : d.buckets) bucket_sum += b;
  EXPECT_EQ(bucket_sum, 2u);
  const double p50 = LatencyHistogram::PercentileFromBuckets(d.buckets, 0.5);
  EXPECT_GE(p50, 1e-3);
  EXPECT_LE(p50, 2e-3);
  EXPECT_EQ(d.p50_seconds, p50);

  const MetricsSnapshot::HistogramRow next =
      HistogramIn(registry.Snapshot().Since(after),
                  "test_registry.drain.seconds");
  EXPECT_EQ(next.count, 0u);
  EXPECT_EQ(next.total_seconds, 0.0);
  EXPECT_EQ(h.TotalCount(), 2u);
  EXPECT_NEAR(h.TotalSeconds(), 3e-3, 1e-6);
}

TEST(ObsRegistryTest, SnapshotSinceYieldsDeltas) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  ObsCounter& c = registry.Counter("test_registry.since.count");
  LatencyHistogram& h = registry.Histogram("test_registry.since.seconds");
  c.Reset();
  h.Reset();
  c.Inc(5);
  h.Record(0.004);
  const MetricsSnapshot first = registry.Snapshot();

  c.Inc(2);
  h.Record(1e-3);
  h.Record(2e-3);
  // Registered after the first snapshot: its delta counts from zero.
  registry.Counter("test_registry.since.late").Inc(4);
  const MetricsSnapshot second = registry.Snapshot();
  const MetricsSnapshot delta = second.Since(first);

  const MetricsSnapshot::HistogramRow before =
      HistogramIn(first, "test_registry.since.seconds");
  const MetricsSnapshot::HistogramRow total =
      HistogramIn(second, "test_registry.since.seconds");
  const MetricsSnapshot::HistogramRow d =
      HistogramIn(delta, "test_registry.since.seconds");
  if constexpr (!kObsEnabled) {
    EXPECT_EQ(CounterIn(delta, "test_registry.since.count"), 0u);
    EXPECT_EQ(CounterIn(delta, "test_registry.since.late"), 0u);
    EXPECT_EQ(d.count, 0u);
    return;
  }
  EXPECT_EQ(CounterIn(delta, "test_registry.since.count"), 2u);
  EXPECT_EQ(CounterIn(delta, "test_registry.since.late"), 4u);
  EXPECT_EQ(d.count, 2u);
  EXPECT_NEAR(d.total_seconds, 3e-3, 1e-6);
  uint64_t bucket_sum = 0;
  for (size_t b = 0; b < LatencyHistogram::kBuckets; ++b) {
    EXPECT_EQ(d.buckets[b], total.buckets[b] - before.buckets[b]);
    bucket_sum += d.buckets[b];
  }
  EXPECT_EQ(bucket_sum, 2u);
  // Percentiles come from the difference's buckets: the 4 ms sample before
  // the first snapshot no longer sets the p99.
  EXPECT_EQ(d.p50_seconds,
            LatencyHistogram::PercentileFromBuckets(d.buckets, 0.50));
  EXPECT_EQ(d.p99_seconds,
            LatencyHistogram::PercentileFromBuckets(d.buckets, 0.99));
  EXPECT_GE(d.p50_seconds, 1e-3);
  EXPECT_LE(d.p99_seconds, 2.2e-3);
  EXPECT_GE(total.p99_seconds, 4e-3);

  // The registry keeps its cumulative totals: nothing was reset.
  EXPECT_EQ(c.Load(), 7u);
  EXPECT_EQ(h.TotalCount(), 3u);
  EXPECT_EQ(CounterIn(registry.Snapshot(), "test_registry.since.count"), 7u);
}

TEST(ObsRegistryTest, EmptySnapshotJsonIsValid) {
  // Whatever other tests registered, the export must stay one valid JSON
  // document.
  EXPECT_TRUE(JsonIsValid(MetricsRegistry::Global().Snapshot().ToJson()));
}

TEST(ObsRegistryTest, ResetForTestZeroesEverything) {
  ObsCounter& c =
      MetricsRegistry::Global().Counter("test_registry.reset.count");
  LatencyHistogram& h =
      MetricsRegistry::Global().Histogram("test_registry.reset.seconds");
  c.Inc(7);
  h.Record(0.25);
  MetricsRegistry::Global().ResetForTest();
  EXPECT_EQ(c.Load(), 0u);
  EXPECT_EQ(h.TotalCount(), 0u);
  // Entries stay registered after the reset.
  EXPECT_EQ(&MetricsRegistry::Global().Counter("test_registry.reset.count"),
            &c);
}

TEST(ObsRegistryTest, PoolStatsCountJobsItemsAndSteals) {
  ThreadPool pool(3);
  const ThreadPoolStats before = pool.Stats();
  ASSERT_EQ(before.worker_items.size(), 4u);  // Caller slot + 3 workers.
  constexpr size_t kItems = 64;
  pool.ParallelFor(kItems, [](size_t) {
    volatile double sink = 0.0;
    for (int i = 0; i < 500; ++i) sink = sink + static_cast<double>(i);
    (void)sink;
  });
  const ThreadPoolStats delta = pool.Stats().Since(before);
  if constexpr (kObsEnabled) {
    EXPECT_EQ(delta.jobs, 1u);
    EXPECT_EQ(delta.items, kItems);
    uint64_t sum = 0;
    for (const uint64_t v : delta.worker_items) sum += v;
    EXPECT_EQ(sum, kItems);  // Per-slot counts conserve the total.
    EXPECT_GT(delta.busy_seconds, 0.0);
    // Steals are schedule-dependent but can never exceed the items run.
    EXPECT_LE(delta.steals, delta.items);
  } else {
    EXPECT_EQ(delta.jobs, 0u);
    EXPECT_EQ(delta.items, 0u);
    EXPECT_EQ(delta.busy_seconds, 0.0);
  }
}

TEST(ObsRegistryTest, PoolInlinePathIsNotCountedAsJob) {
  ThreadPool pool(3);
  const ThreadPoolStats before = pool.Stats();
  pool.ParallelFor(1, [](size_t) {});                        // n <= 1.
  pool.ParallelFor(16, [](size_t) {}, /*max_parallelism=*/1);  // Capped.
  const ThreadPoolStats delta = pool.Stats().Since(before);
  EXPECT_EQ(delta.jobs, 0u);
  EXPECT_EQ(delta.items, 0u);
}

TEST(ObsRegistryTest, PaddingKeepsCountersOnOwnCacheLines) {
  static_assert(sizeof(ObsCounter) == 64, "one line per counter");
  static_assert(alignof(ObsCounter) == 64, "line-aligned");
}

TEST(ObsRegistryTest, RegisterStandardMetricsPreRegistersAllFamilies) {
  RegisterStandardMetrics();
  const MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  const auto has_counter = [&snap](const std::string& name) {
    for (const MetricsSnapshot::CounterRow& row : snap.counters) {
      if (row.name == name) return true;
    }
    return false;
  };
  const auto has_histogram = [&snap](const std::string& name) {
    for (const MetricsSnapshot::HistogramRow& row : snap.histograms) {
      if (row.name == name) return true;
    }
    return false;
  };
  // The scheduler and feature-cache families used to appear only after
  // the first event of their kind; pre-registration makes every export
  // list them, zero-valued when idle.
  for (const char* name :
       {"query.count", "query.dp_total", "query.dp_cells",
        "query.candidates_pruned", "query.candidates_total", "batch.count",
        "batch.queries", "sched.waves", "sched.wave_queries",
        "sched.widened_queries", "sched.budget_granted", "feature_cache.hits",
        "feature_cache.misses", "feature_cache.evictions"}) {
    EXPECT_TRUE(has_counter(name)) << name;
  }
  // Nothing is fused, so no fused-sweep or plan-cache metric is left.
  for (const char* name : {"sched.fused_groups", "sched.fused_queries",
                           "plan_cache.hits", "plan_cache.misses"}) {
    EXPECT_FALSE(has_counter(name)) << name;
  }
  EXPECT_TRUE(has_histogram("query.seconds"));
  EXPECT_TRUE(has_histogram("batch.seconds"));
  // Idempotent: a second call registers nothing new.
  const size_t counters = snap.counters.size();
  RegisterStandardMetrics();
  EXPECT_EQ(MetricsRegistry::Global().Snapshot().counters.size(), counters);
}

TEST(ObsRegistryTest, SnapshotCarriesRawBucketCounts) {
  LatencyHistogram& h =
      MetricsRegistry::Global().Histogram("test_registry.buckets.seconds");
  h.Reset();
  h.Record(1e-3);
  h.Record(1e-3);
  h.Record(0.25);
  const MetricsSnapshot snap = MetricsRegistry::Global().Snapshot();
  for (const MetricsSnapshot::HistogramRow& row : snap.histograms) {
    if (row.name != "test_registry.buckets.seconds") continue;
    uint64_t sum = 0;
    for (const uint64_t b : row.buckets) sum += b;
    EXPECT_EQ(sum, row.count);  // Buckets conserve the sample count.
    EXPECT_EQ(sum, kObsEnabled ? 3u : 0u);
  }
  h.Reset();
}

}  // namespace
}  // namespace edr
