#include "obs/openmetrics.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <set>
#include <string>

#include "obs/flight_recorder.h"
#include "obs/obs.h"
#include "obs/registry.h"

namespace edr {
namespace {

TEST(ObsOpenMetricsTest, NameMappingSanitizesAndStripsTotal) {
  EXPECT_EQ(OpenMetricsName("query.count"), "edr_query_count");
  // Dots become underscores; a trailing _total folds into the sample
  // suffix so the counter line does not read "..._total_total".
  EXPECT_EQ(OpenMetricsName("query.dp_total"), "edr_query_dp");
  EXPECT_EQ(OpenMetricsName("sched.fused_groups"), "edr_sched_fused_groups");
  EXPECT_EQ(OpenMetricsName("weird name!"), "edr_weird_name_");
}

TEST(ObsOpenMetricsTest, EscapeLabelHandlesSpecials) {
  EXPECT_EQ(OpenMetricsEscapeLabel("plain"), "plain");
  EXPECT_EQ(OpenMetricsEscapeLabel("a\"b"), "a\\\"b");
  EXPECT_EQ(OpenMetricsEscapeLabel("a\\b"), "a\\\\b");
  EXPECT_EQ(OpenMetricsEscapeLabel("a\nb"), "a\\nb");
}

TEST(ObsOpenMetricsTest, RenderedSnapshotValidates) {
  ObsCounter& c =
      MetricsRegistry::Global().Counter("test_openmetrics.render.count");
  LatencyHistogram& h =
      MetricsRegistry::Global().Histogram("test_openmetrics.render.seconds");
  c.Reset();
  h.Reset();
  c.Inc(7);
  h.Record(1e-4);
  h.Record(2e-3);
  h.Record(0.5);

  const std::string text =
      RenderOpenMetrics(MetricsRegistry::Global().Snapshot());
  std::string error;
  EXPECT_TRUE(OpenMetricsIsValid(text, &error)) << error;
  EXPECT_NE(text.find("# TYPE edr_test_openmetrics_render_count counter"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE edr_test_openmetrics_render_seconds histogram"),
            std::string::npos);
  EXPECT_NE(text.find("# UNIT edr_test_openmetrics_render_seconds seconds"),
            std::string::npos);
  if constexpr (kObsEnabled) {
    EXPECT_NE(text.find("edr_test_openmetrics_render_count_total 7"),
              std::string::npos);
    EXPECT_NE(text.find("edr_test_openmetrics_render_seconds_count 3"),
              std::string::npos);
  }
  // The terminator is the last line.
  ASSERT_GE(text.size(), 6u);
  EXPECT_EQ(text.substr(text.size() - 6), "# EOF\n");
  c.Reset();
  h.Reset();
}

TEST(ObsOpenMetricsTest, HistogramBucketsAreCumulativeWithInfEqualCount) {
  LatencyHistogram& h =
      MetricsRegistry::Global().Histogram("test_openmetrics.cum.seconds");
  h.Reset();
  for (int i = 0; i < 10; ++i) h.Record(1e-5 * (1 << i));
  const std::string text =
      RenderOpenMetrics(MetricsRegistry::Global().Snapshot());
  std::string error;
  ASSERT_TRUE(OpenMetricsIsValid(text, &error)) << error;

  // Walk our family's bucket lines by hand: values never decrease and the
  // +Inf bucket equals _count (the validator enforces this too; this is
  // the direct certification on a populated histogram).
  const std::string bucket_prefix =
      "edr_test_openmetrics_cum_seconds_bucket{le=\"";
  uint64_t last = 0;
  uint64_t inf_value = 0;
  size_t buckets_seen = 0;
  size_t pos = 0;
  while ((pos = text.find(bucket_prefix, pos)) != std::string::npos) {
    const size_t value_at = text.find("} ", pos);
    ASSERT_NE(value_at, std::string::npos);
    const uint64_t value = std::strtoull(text.c_str() + value_at + 2,
                                         nullptr, 10);
    EXPECT_GE(value, last);
    last = value;
    if (text.compare(pos + bucket_prefix.size(), 4, "+Inf") == 0) {
      inf_value = value;
    }
    ++buckets_seen;
    pos = value_at;
  }
  EXPECT_EQ(buckets_seen, LatencyHistogram::kBuckets + 1);  // All + the +Inf.
  const size_t count_at =
      text.find("edr_test_openmetrics_cum_seconds_count ");
  ASSERT_NE(count_at, std::string::npos);
  const uint64_t count = std::strtoull(
      text.c_str() + count_at +
          std::string("edr_test_openmetrics_cum_seconds_count ").size(),
      nullptr, 10);
  EXPECT_EQ(inf_value, count);
  if constexpr (kObsEnabled) EXPECT_EQ(count, 10u);
  h.Reset();
}

TEST(ObsOpenMetricsTest, ExemplarsResolveToFlightRecorderIds) {
  if constexpr (!kObsEnabled) return;
  FlightRecorder recorder;
  LatencyHistogram& h = MetricsRegistry::Global().Histogram("query.seconds");
  h.Reset();
  // Three slow queries, recorded in both the histogram and the recorder —
  // exactly what the query path does.
  const double latencies[] = {0.25, 0.03, 0.002};
  for (const double latency : latencies) {
    FlightRecord r;
    r.searcher = "test";
    r.latency_seconds = latency;
    recorder.Publish(std::move(r));
    h.Record(latency);
  }

  OpenMetricsOptions options;
  options.exemplars = &recorder;
  const std::string text =
      RenderOpenMetrics(MetricsRegistry::Global().Snapshot(), options);
  std::string error;
  ASSERT_TRUE(OpenMetricsIsValid(text, &error)) << error;

  // Every emitted entry_id must resolve to a retained slowest record.
  std::set<uint64_t> retained;
  for (const FlightRecord& r : recorder.TopSlowest()) retained.insert(r.id);
  size_t exemplars_seen = 0;
  size_t pos = 0;
  const std::string marker = "# {entry_id=\"";
  while ((pos = text.find(marker, pos)) != std::string::npos) {
    pos += marker.size();
    const uint64_t id = std::strtoull(text.c_str() + pos, nullptr, 10);
    EXPECT_TRUE(retained.count(id) != 0) << "unresolvable exemplar id " << id;
    ++exemplars_seen;
  }
  EXPECT_EQ(exemplars_seen, 3u);  // Distinct buckets: one exemplar each.
  h.Reset();
}

TEST(ObsOpenMetricsTest, OverflowBucketLatencySkipsItsExemplar) {
  if constexpr (!kObsEnabled) return;
  FlightRecorder recorder;
  LatencyHistogram& h = MetricsRegistry::Global().Histogram("query.seconds");
  h.Reset();
  // A latency beyond the last finite bucket edge is clamped into the
  // overflow bucket, whose le bound it exceeds — attaching it as that
  // bucket's exemplar would violate value <= le, so the renderer must
  // drop it rather than emit an out-of-bucket exemplar.
  const double clamped = LatencyBucketUpperSeconds(
                             LatencyHistogram::kBuckets - 1) *
                         4.0;
  FlightRecord r;
  r.searcher = "test";
  r.latency_seconds = clamped;
  recorder.Publish(std::move(r));
  h.Record(clamped);

  OpenMetricsOptions options;
  options.exemplars = &recorder;
  const std::string text =
      RenderOpenMetrics(MetricsRegistry::Global().Snapshot(), options);
  std::string error;
  EXPECT_TRUE(OpenMetricsIsValid(text, &error)) << error;
  EXPECT_EQ(text.find("entry_id"), std::string::npos) << text;
  h.Reset();
}

TEST(ObsOpenMetricsTest, ValidatorRejectsStructuralViolations) {
  std::string error;
  EXPECT_FALSE(OpenMetricsIsValid("", &error));

  // Missing the # EOF terminator.
  EXPECT_FALSE(OpenMetricsIsValid("# TYPE a counter\na_total 1\n", &error));
  EXPECT_NE(error.find("EOF"), std::string::npos);

  // Content after # EOF.
  EXPECT_FALSE(
      OpenMetricsIsValid("# EOF\na_total 1\n", &error));

  // Counter sample without the _total suffix.
  EXPECT_FALSE(
      OpenMetricsIsValid("# TYPE a counter\na 1\n# EOF\n", &error));
  EXPECT_NE(error.find("_total"), std::string::npos);

  // Histogram le not increasing.
  EXPECT_FALSE(OpenMetricsIsValid(
      "# TYPE h histogram\n"
      "h_bucket{le=\"2\"} 1\nh_bucket{le=\"1\"} 2\n"
      "h_bucket{le=\"+Inf\"} 2\nh_count 2\nh_sum 3\n# EOF\n",
      &error));
  EXPECT_NE(error.find("le"), std::string::npos);

  // Histogram buckets not cumulative.
  EXPECT_FALSE(OpenMetricsIsValid(
      "# TYPE h histogram\n"
      "h_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\n"
      "h_bucket{le=\"+Inf\"} 3\nh_count 3\nh_sum 3\n# EOF\n",
      &error));
  EXPECT_NE(error.find("cumulative"), std::string::npos);

  // +Inf bucket disagreeing with _count.
  EXPECT_FALSE(OpenMetricsIsValid(
      "# TYPE h histogram\n"
      "h_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 1\n"
      "h_count 9\nh_sum 3\n# EOF\n",
      &error));
  EXPECT_NE(error.find("_count"), std::string::npos);

  // Histogram with buckets but no +Inf.
  EXPECT_FALSE(OpenMetricsIsValid(
      "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_count 1\n"
      "h_sum 1\n# EOF\n",
      &error));
  EXPECT_NE(error.find("+Inf"), std::string::npos);

  // Bad escape in a label value.
  EXPECT_FALSE(OpenMetricsIsValid(
      "# TYPE g gauge\ng{x=\"a\\q\"} 1\n# EOF\n", &error));

  // Bucket exemplar whose value lies outside the bucket (value > le).
  EXPECT_FALSE(OpenMetricsIsValid(
      "# TYPE h histogram\n"
      "h_bucket{le=\"1\"} 1 # {entry_id=\"3\"} 2.5\n"
      "h_bucket{le=\"+Inf\"} 1\nh_count 1\nh_sum 2.5\n# EOF\n",
      &error));
  EXPECT_NE(error.find("exceeds bucket le"), std::string::npos);

  // Missing final newline.
  EXPECT_FALSE(OpenMetricsIsValid("# EOF", &error));

  // A well-formed document with labels, timestamps, and an exemplar.
  EXPECT_TRUE(OpenMetricsIsValid(
      "# TYPE h histogram\n"
      "h_bucket{le=\"1\",path=\"a\\\\b \\\"q\\\"\"} 1 1234.5\n"
      "h_bucket{le=\"+Inf\"} 2 # {entry_id=\"7\"} 0.5 1234.5\n"
      "h_count 2\nh_sum 1.5\n# EOF\n",
      &error))
      << error;
}

TEST(ObsOpenMetricsTest, EveryBuildRendersAValidExposition) {
  // Whatever this binary's other tests registered — and in the
  // EDR_DISABLE_OBS build, where every value is zero — the exposition
  // must round-trip the validator.
  RegisterStandardMetrics();
  OpenMetricsOptions options;
  options.exemplars = &FlightRecorder::Global();
  const std::string text =
      RenderOpenMetrics(MetricsRegistry::Global().Snapshot(), options);
  std::string error;
  EXPECT_TRUE(OpenMetricsIsValid(text, &error)) << error;
  // The standard registration makes the fused-sweep and feature-cache
  // families visible even before any event of their kind.
  EXPECT_NE(text.find("edr_sched_fused_groups_total"), std::string::npos);
  EXPECT_NE(text.find("edr_sched_fused_queries_total"), std::string::npos);
  EXPECT_NE(text.find("edr_feature_cache_hits_total"), std::string::npos);
  EXPECT_NE(text.find("edr_feature_cache_misses_total"), std::string::npos);
  // ... including the fusion-grouping and fused-plan-cache families added
  // with the similarity-aware grouper, and the shared-bin-fraction gauge.
  EXPECT_NE(text.find("edr_sched_group_similarity_total"), std::string::npos);
  EXPECT_NE(text.find("edr_sched_group_fifo_total"), std::string::npos);
  EXPECT_NE(text.find("edr_sched_group_forced_total"), std::string::npos);
  EXPECT_NE(text.find("edr_plan_cache_hits_total"), std::string::npos);
  EXPECT_NE(text.find("edr_plan_cache_misses_total"), std::string::npos);
  EXPECT_NE(text.find("edr_plan_cache_evictions_total"), std::string::npos);
  EXPECT_NE(text.find("edr_plan_cache_collisions_total"), std::string::npos);
  EXPECT_NE(
      text.find("# TYPE edr_sched_group_shared_bin_fraction gauge"),
      std::string::npos);
}

}  // namespace
}  // namespace edr
