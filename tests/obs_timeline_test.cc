#include "obs/timeline.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <limits>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.h"
#include "obs/obs.h"
#include "obs/registry.h"
#include "query/thread_pool.h"

namespace edr {
namespace {

TEST(ObsTimelineTest, StartRejectsNonPositiveInterval) {
  TimelineSampler::Options options;
  options.interval_seconds = 0.0;
  TimelineSampler zero(options);
  EXPECT_FALSE(zero.Start());
  EXPECT_FALSE(zero.running());
  options.interval_seconds = -1.0;
  TimelineSampler negative(options);
  EXPECT_FALSE(negative.Start());
}

TEST(ObsTimelineTest, ValidIntervalRejectsWhatCannotBeWaitedOn) {
  std::string error;
  EXPECT_FALSE(TimelineSampler::ValidInterval(0.0, &error));
  EXPECT_NE(error.find("positive"), std::string::npos) << error;
  EXPECT_FALSE(TimelineSampler::ValidInterval(-2.5, &error));
  EXPECT_FALSE(TimelineSampler::ValidInterval(
      std::numeric_limits<double>::quiet_NaN(), &error));
  EXPECT_FALSE(TimelineSampler::ValidInterval(
      std::numeric_limits<double>::infinity(), &error));
  // Finite, but a wait this long overflows steady_clock's duration.
  EXPECT_FALSE(TimelineSampler::ValidInterval(1e300, &error));
  EXPECT_TRUE(TimelineSampler::ValidInterval(0.001));
  EXPECT_TRUE(
      TimelineSampler::ValidInterval(TimelineSampler::kMaxIntervalSeconds));

  // Start() applies the check to both intervals: no thread, no lines.
  TimelineSampler::Options options;
  options.metrics_interval_seconds = 1e300;
  options.metrics_sink = [](const std::string&) { ADD_FAILURE() << "line"; };
  TimelineSampler metrics(options);
  EXPECT_FALSE(metrics.Start());
  EXPECT_FALSE(metrics.running());
  metrics.Stop();
  TimelineSampler::Options ticks;
  ticks.interval_seconds = std::numeric_limits<double>::infinity();
  TimelineSampler sampler(ticks);
  EXPECT_FALSE(sampler.Start());
  EXPECT_FALSE(sampler.running());
}

/// The value `name` carries in a metrics line's counters, or -1.
long long CounterInLine(const std::string& line, const std::string& name) {
  const std::string key = "\"" + name + "\": ";
  const size_t pos = line.find(key);
  if (pos == std::string::npos) return -1;
  return std::strtoll(line.c_str() + pos + key.size(), nullptr, 10);
}

TEST(ObsTimelineTest, StopEmitsTheFinalMetricsLineOnce) {
  ObsCounter& c =
      MetricsRegistry::Global().Counter("test_timeline.final.count");
  c.Reset();

  std::mutex mu;
  std::vector<std::string> lines;
  TimelineSampler::Options options;
  // Far longer than the test: the only line must be the one from Stop().
  options.metrics_interval_seconds = 1000.0;
  options.metrics_sink = [&mu, &lines](const std::string& line) {
    std::lock_guard<std::mutex> lock(mu);
    lines.push_back(line);
  };
  TimelineSampler sampler(options);
  // Compiled out, the sampler stays off and writes no lines.
  ASSERT_EQ(sampler.Start(), kObsEnabled);
  c.Inc(9);
  sampler.Stop();
  EXPECT_FALSE(sampler.running());
  if constexpr (!kObsEnabled) {
    EXPECT_TRUE(lines.empty());
    return;
  }

  // Exactly one line, one valid JSON object carrying the activity since
  // Start().
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_TRUE(JsonIsValid(lines[0])) << lines[0];
  EXPECT_NE(lines[0].find("\"t_ms\""), std::string::npos);
  EXPECT_EQ(CounterInLine(lines[0], "test_timeline.final.count"), 9)
      << lines[0];

  // Stop is idempotent: no second line.
  sampler.Stop();
  EXPECT_EQ(lines.size(), 1u);

  // The line was a difference of snapshots: the registry keeps the count.
  EXPECT_EQ(c.Load(), 9u);
}

TEST(ObsTimelineTest, MetricsLinesAddUpToTheRegistryTotals) {
  ObsCounter& c = MetricsRegistry::Global().Counter("test_timeline.sum.count");
  c.Reset();

  std::mutex mu;
  std::vector<std::string> lines;
  TimelineSampler::Options options;
  options.interval_seconds = 0.002;
  options.metrics_interval_seconds = 0.004;
  options.metrics_sink = [&mu, &lines](const std::string& line) {
    std::lock_guard<std::mutex> lock(mu);
    lines.push_back(line);
  };
  TimelineSampler sampler(options);
  ASSERT_EQ(sampler.Start(), kObsEnabled);
  for (int i = 0; i < 30; ++i) {
    c.Inc(i + 1);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  sampler.Stop();
  if constexpr (!kObsEnabled) {
    EXPECT_TRUE(lines.empty());
    return;
  }

  // Periodic lines plus the final one, each valid JSON, whose deltas sum
  // to the registry's cumulative total.
  ASSERT_GE(lines.size(), 2u);
  long long sum = 0;
  for (const std::string& line : lines) {
    EXPECT_TRUE(JsonIsValid(line)) << line;
    const long long delta = CounterInLine(line, "test_timeline.sum.count");
    EXPECT_GE(delta, 0) << line;
    sum += delta;
  }
  EXPECT_EQ(c.Load(), 465u);  // 1 + 2 + ... + 30
  EXPECT_EQ(sum, 465);
}

TEST(ObsTimelineTest, StartIsNoOpWhenObsCompiledOut) {
  TimelineSampler sampler;  // Default 20 ms interval.
  EXPECT_EQ(sampler.Start(), kObsEnabled);
  sampler.Stop();
  if constexpr (!kObsEnabled) {
    EXPECT_TRUE(sampler.Samples().empty());
  }
}

TEST(ObsTimelineTest, CapturesSamplesWithProbes) {
  if constexpr (!kObsEnabled) return;
  ThreadPool pool(2);
  std::atomic<size_t> cache_entries{5};
  TimelineSampler::Options options;
  options.interval_seconds = 0.002;
  options.pool = &pool;
  options.backlog = [] { return static_cast<size_t>(3); };
  options.cache_entries = [&cache_entries] { return cache_entries.load(); };
  TimelineSampler sampler(options);
  ASSERT_TRUE(sampler.Start());
  EXPECT_TRUE(sampler.running());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  sampler.Stop();
  EXPECT_FALSE(sampler.running());

  const std::vector<UtilizationSample> samples = sampler.Samples();
  ASSERT_GE(samples.size(), 2u);  // Periodic ticks + the final sample.
  for (size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(samples[i].capacity, 3u);  // 2 workers + caller.
    EXPECT_LE(samples[i].busy_workers, samples[i].capacity);
    EXPECT_EQ(samples[i].backlog, 3u);
    EXPECT_EQ(samples[i].cache_entries, 5u);
    if (i > 0) {
      EXPECT_GE(samples[i].t_seconds, samples[i - 1].t_seconds);
    }
  }

  const UtilizationSummary summary = sampler.Summarize();
  EXPECT_EQ(summary.samples, samples.size());
  EXPECT_DOUBLE_EQ(summary.mean_backlog, 3.0);
  EXPECT_EQ(summary.max_backlog, 3u);
  EXPECT_LE(summary.occupancy_p50, summary.occupancy_p95);
  EXPECT_LE(summary.occupancy_p95, summary.occupancy_max);
  EXPECT_LE(summary.occupancy_max, 1.0);
}

TEST(ObsTimelineTest, RingBoundsMemoryAndCountsDropped) {
  if constexpr (!kObsEnabled) return;
  TimelineSampler::Options options;
  options.interval_seconds = 0.001;
  options.capacity = 4;
  TimelineSampler sampler(options);
  ASSERT_TRUE(sampler.Start());
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  sampler.Stop();
  const std::vector<UtilizationSample> samples = sampler.Samples();
  EXPECT_LE(samples.size(), 4u);
  const UtilizationSummary summary = sampler.Summarize();
  EXPECT_GT(summary.dropped, 0u);  // 30 ms at 1 ms >> 4 slots.
  // The retained window is the newest samples, oldest to newest.
  for (size_t i = 1; i < samples.size(); ++i) {
    EXPECT_GE(samples[i].t_seconds, samples[i - 1].t_seconds);
  }
}

TEST(ObsTimelineTest, ToJsonIsValidInEveryBuild) {
  TimelineSampler sampler;
  EXPECT_TRUE(JsonIsValid(sampler.ToJson())) << sampler.ToJson();
  if constexpr (kObsEnabled) {
    TimelineSampler::Options options;
    options.interval_seconds = 0.001;
    TimelineSampler running(options);
    ASSERT_TRUE(running.Start());
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    running.Stop();
    const std::string json = running.ToJson();
    EXPECT_TRUE(JsonIsValid(json)) << json;
    EXPECT_NE(json.find("\"summary\""), std::string::npos);
    EXPECT_NE(json.find("\"samples\""), std::string::npos);
  }
}

TEST(ObsTimelineTest, StopIsIdempotentAndRestartable) {
  TimelineSampler::Options options;
  options.interval_seconds = 0.001;
  TimelineSampler sampler(options);
  sampler.Stop();  // Never started: no-op.
  EXPECT_EQ(sampler.Start(), kObsEnabled);
  sampler.Stop();
  sampler.Stop();  // Second stop: no-op, no second final sample thread.
  EXPECT_EQ(sampler.Start(), kObsEnabled);  // Restart keeps working.
  sampler.Stop();
}

}  // namespace
}  // namespace edr
