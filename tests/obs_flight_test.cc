#include "obs/flight_recorder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "data/generators.h"
#include "obs/http_endpoint.h"
#include "obs/json.h"
#include "obs/obs.h"
#include "obs/timeline.h"
#include "query/engine.h"
#include "query/scheduler.h"
#include "query/thread_pool.h"

namespace edr {
namespace {

FlightRecord MakeRecord(double latency_seconds) {
  FlightRecord r;
  r.searcher = "test";
  r.latency_seconds = latency_seconds;
  r.filter_seconds = latency_seconds * 0.25;
  r.refine_seconds = latency_seconds * 0.75;
  r.db_size = 100;
  r.edr_computed = 10;
  return r;
}

TEST(ObsFlightTest, PublishAssignsSequentialIds) {
  FlightRecorder recorder;
  const uint64_t a = recorder.Publish(MakeRecord(1e-3));
  const uint64_t b = recorder.Publish(MakeRecord(2e-3));
  if constexpr (kObsEnabled) {
    EXPECT_EQ(a, 1u);
    EXPECT_EQ(b, 2u);
    EXPECT_EQ(recorder.published(), 2u);
  } else {
    EXPECT_EQ(a, 0u);
    EXPECT_EQ(b, 0u);
    EXPECT_EQ(recorder.published(), 0u);
    EXPECT_TRUE(recorder.TopSlowest().empty());
    EXPECT_TRUE(recorder.Recent().empty());
  }
}

TEST(ObsFlightTest, TopSlowestRetainsTheTail) {
  FlightRecorder::Options options;
  options.top_slowest = 4;
  FlightRecorder recorder(options);
  // Ascending latencies: the top list must end up holding the last 4.
  for (int i = 1; i <= 32; ++i) {
    recorder.Publish(MakeRecord(static_cast<double>(i) * 1e-3));
  }
  if constexpr (!kObsEnabled) return;
  const std::vector<FlightRecord> top = recorder.TopSlowest();
  ASSERT_EQ(top.size(), 4u);
  // Slowest first, strictly the four largest latencies.
  EXPECT_NEAR(top[0].latency_seconds, 32e-3, 1e-9);
  EXPECT_NEAR(top[3].latency_seconds, 29e-3, 1e-9);
  EXPECT_TRUE(std::is_sorted(top.begin(), top.end(),
                             [](const FlightRecord& a, const FlightRecord& b) {
                               return a.latency_seconds > b.latency_seconds;
                             }));
}

TEST(ObsFlightTest, TopSlowestSurvivesRingLapping) {
  FlightRecorder::Options options;
  options.ring_capacity = 4;
  options.top_slowest = 2;
  FlightRecorder recorder(options);
  recorder.Publish(MakeRecord(0.5));  // Slow outlier, published early.
  for (int i = 0; i < 64; ++i) recorder.Publish(MakeRecord(1e-4));
  if constexpr (!kObsEnabled) return;
  // The ring lapped the outlier long ago; tail retention still holds it.
  const std::vector<FlightRecord> top = recorder.TopSlowest();
  ASSERT_FALSE(top.empty());
  EXPECT_NEAR(top[0].latency_seconds, 0.5, 1e-9);
  EXPECT_LE(recorder.Recent().size(), 4u);
}

TEST(ObsFlightTest, ReservoirIsBounded) {
  FlightRecorder::Options options;
  options.reservoir = 8;
  FlightRecorder recorder(options);
  for (int i = 0; i < 5; ++i) recorder.Publish(MakeRecord(1e-3));
  if constexpr (!kObsEnabled) return;
  EXPECT_EQ(recorder.Reservoir().size(), 5u);  // Under capacity: keep all.
  for (int i = 0; i < 200; ++i) recorder.Publish(MakeRecord(1e-3));
  EXPECT_EQ(recorder.Reservoir().size(), 8u);  // At capacity: uniform sample.
}

TEST(ObsFlightTest, RecentKeepsTheLatestWindow) {
  FlightRecorder::Options options;
  options.ring_capacity = 8;
  FlightRecorder recorder(options);
  for (int i = 0; i < 20; ++i) recorder.Publish(MakeRecord(1e-3));
  if constexpr (!kObsEnabled) return;
  const std::vector<FlightRecord> recent = recorder.Recent();
  ASSERT_EQ(recent.size(), 8u);
  // Oldest to newest, ids 13..20.
  for (size_t i = 0; i < recent.size(); ++i) {
    EXPECT_EQ(recent[i].id, 13u + i);
  }
}

TEST(ObsFlightTest, SetEnabledStopsPublication) {
  FlightRecorder recorder;
  recorder.SetEnabled(false);
  EXPECT_EQ(recorder.Publish(MakeRecord(1e-3)), 0u);
  EXPECT_EQ(recorder.published(), 0u);
  recorder.SetEnabled(true);
  if constexpr (kObsEnabled) {
    EXPECT_EQ(recorder.Publish(MakeRecord(1e-3)), 1u);
  }
}

TEST(ObsFlightTest, ClearEmptiesEverything) {
  FlightRecorder recorder;
  for (int i = 0; i < 10; ++i) recorder.Publish(MakeRecord(1e-3));
  recorder.Clear();
  EXPECT_EQ(recorder.published(), 0u);
  EXPECT_EQ(recorder.dropped(), 0u);
  EXPECT_TRUE(recorder.TopSlowest().empty());
  EXPECT_TRUE(recorder.Reservoir().empty());
  EXPECT_TRUE(recorder.Recent().empty());
  if constexpr (kObsEnabled) {
    EXPECT_EQ(recorder.Publish(MakeRecord(1e-3)), 1u);  // Ids restart.
  }
}

TEST(ObsFlightTest, ToJsonIsValidInEveryBuild) {
  FlightRecorder recorder;
  EXPECT_TRUE(JsonIsValid(recorder.ToJson())) << recorder.ToJson();
  FlightRecord named = MakeRecord(2e-3);
  named.searcher = "odd \"name\"\\with\nescapes";
  recorder.Publish(std::move(named));
  recorder.Publish(MakeRecord(1e-3));
  const std::string json = recorder.ToJson();
  EXPECT_TRUE(JsonIsValid(json)) << json;
  if constexpr (kObsEnabled) {
    EXPECT_NE(json.find("\"top\""), std::string::npos);
    EXPECT_NE(json.find("\"reservoir\""), std::string::npos);
    EXPECT_NE(json.find("\"recent\""), std::string::npos);
  }
  // A searcher name far beyond any fixed formatting buffer (and whose
  // escaped form inflates further) must still round-trip as valid JSON
  // with the name intact — no mid-string truncation.
  FlightRecord longname = MakeRecord(3e-3);
  longname.searcher = std::string(2048, 'x') + "\"\\\n";
  recorder.Publish(std::move(longname));
  const std::string long_json = recorder.ToJson();
  EXPECT_TRUE(JsonIsValid(long_json));
  if constexpr (kObsEnabled) {
    EXPECT_NE(long_json.find(std::string(2048, 'x')), std::string::npos);
  }
}

TEST(ObsFlightTest, ConcurrentPublishersLoseNothing) {
  FlightRecorder::Options options;
  options.ring_capacity = 64;
  FlightRecorder recorder(options);
  ThreadPool pool(3);
  constexpr size_t kRecords = 2000;
  pool.ParallelFor(kRecords, [&recorder](size_t i) {
    recorder.Publish(MakeRecord(static_cast<double>(i % 97 + 1) * 1e-5));
  });
  if constexpr (!kObsEnabled) return;
  // Every publish is counted exactly once, either retained or dropped.
  EXPECT_EQ(recorder.published(), kRecords);
  const std::vector<FlightRecord> recent = recorder.Recent();
  EXPECT_LE(recent.size(), 64u);
  std::set<uint64_t> ids;
  for (const FlightRecord& r : recent) ids.insert(r.id);
  EXPECT_EQ(ids.size(), recent.size());  // No duplicate slots.
  EXPECT_TRUE(JsonIsValid(recorder.ToJson()));
}

TEST(ObsFlightTest, SchedulerPublishesScheduledQueries) {
  FlightRecorder& recorder = FlightRecorder::Global();
  recorder.Clear();
  TrajectoryDataset db = GenMixedLike(64, 20, 60, /*seed=*/11);
  db.NormalizeAll();
  QueryEngine engine(db, db.SuggestedEpsilon());
  const NamedSearcher searcher = engine.MakeCombined({});
  std::vector<Trajectory> queries(db.begin(), db.begin() + 16);
  const std::vector<KnnResult> results =
      RunScheduled(searcher, queries, /*k=*/3, SchedulerPolicy{});
  ASSERT_EQ(results.size(), 16u);
  if constexpr (!kObsEnabled) {
    EXPECT_EQ(recorder.published(), 0u);
    return;
  }
  // One record per scheduled query, carrying the schedule context.
  EXPECT_EQ(recorder.published(), 16u);
  for (const FlightRecord& r : recorder.Recent()) {
    EXPECT_EQ(r.searcher, searcher.name);
    EXPECT_GE(r.sched_budget, 1u);
    EXPECT_EQ(r.db_size, db.size());
    EXPECT_TRUE(r.stages.Conserves(r.db_size));
  }
  recorder.Clear();
}

// The acceptance gate for the whole subsystem: a session running with the
// full telemetry stack active — flight recorder publishing, timeline
// sampler running, HTTP endpoint serving — returns bit-identical answers
// to the plain sequential searcher with everything off. (The
// EDR_DISABLE_OBS CI leg certifies the compiled-out side of the same
// contract with this very test: under it the stack degrades to no-ops.)
TEST(ObsFlightTest, FullTelemetryStackIsBitIdentical) {
  TrajectoryDataset db = GenMixedLike(96, 20, 80, /*seed=*/23);
  db.NormalizeAll();
  QueryEngine engine(db, db.SuggestedEpsilon());
  const NamedSearcher searcher = engine.MakeCombined({});
  std::vector<Trajectory> queries(db.begin(), db.begin() + 24);

  // Plain sequential reference, telemetry publication off.
  FlightRecorder& recorder = FlightRecorder::Global();
  recorder.Clear();
  recorder.SetEnabled(false);
  std::vector<KnnResult> reference;
  reference.reserve(queries.size());
  for (const Trajectory& q : queries) {
    reference.push_back(searcher.search(q, /*k=*/5));
  }
  recorder.SetEnabled(true);

  // Full stack: recorder + sampler + endpoint, queries via the session.
  TimelineSampler::Options timeline_options;
  timeline_options.interval_seconds = 0.001;
  TimelineSampler timeline(timeline_options);
  timeline.Start();
  MetricsHttpEndpoint::Options endpoint_options;
  endpoint_options.timeline = &timeline;
  MetricsHttpEndpoint endpoint(endpoint_options);
  const bool serving = endpoint.Start();
  EXPECT_EQ(serving, kObsEnabled);

  QuerySession::Options options;
  options.k = 5;
  QuerySession session(searcher, options);
  std::vector<QuerySession::Ticket> tickets;
  for (const Trajectory& q : queries) tickets.push_back(session.Submit(q));
  session.Drain();

  for (size_t i = 0; i < queries.size(); ++i) {
    const KnnResult& got = session.Result(tickets[i]);
    ASSERT_EQ(got.neighbors.size(), reference[i].neighbors.size()) << i;
    for (size_t j = 0; j < got.neighbors.size(); ++j) {
      EXPECT_EQ(got.neighbors[j].id, reference[i].neighbors[j].id) << i;
      EXPECT_EQ(got.neighbors[j].distance, reference[i].neighbors[j].distance)
          << i;
    }
  }
  if constexpr (kObsEnabled) {
    EXPECT_EQ(recorder.published(), queries.size());
  }
  endpoint.Stop();
  timeline.Stop();
  recorder.Clear();
}

}  // namespace
}  // namespace edr
