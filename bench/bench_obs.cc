// Telemetry overhead bench: the cost of serve-grade observability on the
// scheduled query path. Three sections: (1) recorder_overhead — the same
// scheduled batch timed with the flight recorder publishing every query
// versus disabled, interleaved passes, best-of on each side, certified
// bit-identical; (2) openmetrics_render — wall time to render and
// validate a full OpenMetrics exposition of a populated registry;
// (3) timeline — the utilization sampler running at 2 ms under a
// scheduled batch, reporting how many samples the ring retained.
//
// Emits JSON (stdout, or the file named by the first non-flag argument):
//
//   ./bench/bench_obs BENCH_obs.json
//   ./bench/bench_obs --smoke        # tiny workload for CI
//
// The exit code reflects the certifications (identical neighbors with
// the recorder on and off, validator-clean exposition, valid timeline
// JSON), not the latency deltas: the A/B overhead_percent is reported
// for the < 2% budget but run-to-run noise on shared single-core hosts
// reaches several percent either direction, so it is warn-only; the
// deterministic number is publish_cost.implied_overhead_percent — the
// measured cost of one Publish against the per-query latency — which is
// orders of magnitude under the budget. In the EDR_DISABLE_OBS build
// both sides of the A/B are the no-op path, so every overhead reads ~0
// by construction.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/trajectory.h"
#include "data/generators.h"
#include "obs/flight_recorder.h"
#include "obs/json.h"
#include "obs/obs.h"
#include "obs/openmetrics.h"
#include "obs/registry.h"
#include "obs/timeline.h"
#include "query/engine.h"
#include "query/scheduler.h"
#include "query/thread_pool.h"

namespace edr {
namespace {

double SecondsSince(const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

bool SameNeighbors(const KnnResult& a, const KnnResult& b) {
  if (a.neighbors.size() != b.neighbors.size()) return false;
  for (size_t i = 0; i < a.neighbors.size(); ++i) {
    if (!(a.neighbors[i] == b.neighbors[i])) return false;
  }
  return true;
}

struct OverheadRow {
  std::string method;
  double off_seconds = 0.0;  ///< best pass, recorder disabled
  double on_seconds = 0.0;   ///< best pass, recorder publishing
  uint64_t published = 0;    ///< flight records from the "on" passes
  bool identical = true;
};

/// Times RunScheduled over the same batch with the global flight recorder
/// enabled versus disabled. Passes alternate off/on so clock drift and
/// cache warming hit both sides equally; each side keeps its best pass.
OverheadRow MeasureRecorderOverhead(const NamedSearcher& searcher,
                                    const std::vector<Trajectory>& queries,
                                    size_t k, ThreadPool& pool,
                                    size_t passes) {
  OverheadRow row;
  row.method = searcher.name;
  FlightRecorder& recorder = FlightRecorder::Global();
  recorder.Clear();

  // Reference answers and warm-up in one: the sequential loop sizes
  // scratch buffers before either timed side runs.
  std::vector<KnnResult> reference;
  reference.reserve(queries.size());
  for (const Trajectory& q : queries) {
    reference.push_back(searcher.search(q, k));
  }

  SchedulerPolicy policy;
  for (size_t pass = 0; pass < passes; ++pass) {
    recorder.SetEnabled(false);
    auto start = std::chrono::steady_clock::now();
    const std::vector<KnnResult> off =
        RunScheduled(searcher, queries, k, policy, &pool);
    const double off_elapsed = SecondsSince(start);
    row.off_seconds =
        pass == 0 ? off_elapsed : std::min(row.off_seconds, off_elapsed);

    recorder.SetEnabled(true);
    start = std::chrono::steady_clock::now();
    const std::vector<KnnResult> on =
        RunScheduled(searcher, queries, k, policy, &pool);
    const double on_elapsed = SecondsSince(start);
    row.on_seconds =
        pass == 0 ? on_elapsed : std::min(row.on_seconds, on_elapsed);

    for (size_t i = 0; i < queries.size(); ++i) {
      row.identical = row.identical && SameNeighbors(reference[i], off[i]) &&
                      SameNeighbors(reference[i], on[i]);
    }
  }
  row.published = recorder.published();
  recorder.SetEnabled(true);

  const double overhead =
      row.off_seconds > 0.0
          ? (row.on_seconds - row.off_seconds) / row.off_seconds * 100.0
          : 0.0;
  std::fprintf(stderr,
               "%-8s off=%.3fms on=%.3fms overhead=%+.2f%% published=%llu "
               "identical=%s\n",
               row.method.c_str(), row.off_seconds * 1e3,
               row.on_seconds * 1e3, overhead,
               static_cast<unsigned long long>(row.published),
               row.identical ? "yes" : "NO");
  return row;
}

struct PublishRow {
  double ns_per_publish = 0.0;  ///< best pass, steady-state ring writes
  uint64_t published = 0;
  uint64_t dropped = 0;
};

/// Times Publish alone on a standalone recorder in steady state (ring
/// and reservoir full, top threshold settled): the structural per-query
/// cost the recorder adds to the serving path, free of scheduler noise.
PublishRow MeasurePublishCost(size_t passes) {
  PublishRow row;
  FlightRecorder recorder;
  FlightRecord proto;
  proto.searcher = "bench";
  proto.db_size = 10000;
  proto.edr_computed = 42;
  proto.sched_budget = 4;
  proto.fusion_group = 2;

  const size_t batch = 20000;
  // Fill pass: the ring laps, the reservoir fills, and the slowest-list
  // threshold settles so timed passes measure the common fast path.
  for (size_t i = 0; i < batch; ++i) {
    FlightRecord r = proto;
    r.latency_seconds = 1e-3 + 1e-9 * static_cast<double>(i % 977);
    recorder.Publish(std::move(r));
  }
  for (size_t pass = 0; pass < passes; ++pass) {
    const auto start = std::chrono::steady_clock::now();
    for (size_t i = 0; i < batch; ++i) {
      FlightRecord r = proto;
      r.latency_seconds = 1e-3 + 1e-9 * static_cast<double>(i % 977);
      recorder.Publish(std::move(r));
    }
    const double ns = SecondsSince(start) * 1e9 / static_cast<double>(batch);
    row.ns_per_publish = pass == 0 ? ns : std::min(row.ns_per_publish, ns);
  }
  row.published = recorder.published();
  row.dropped = recorder.dropped();
  std::fprintf(stderr, "publish=%.1fns/record published=%llu dropped=%llu\n",
               row.ns_per_publish,
               static_cast<unsigned long long>(row.published),
               static_cast<unsigned long long>(row.dropped));
  return row;
}

struct RenderRow {
  size_t families = 0;
  size_t bytes = 0;
  double render_ms = 0.0;    ///< best pass, one full render
  double validate_ms = 0.0;  ///< best pass, one validator walk
  bool valid = true;
};

/// Renders the full registry (standard families plus whatever the batch
/// populated) with exemplars attached, timing render and validation
/// separately — the scrape cost a /metrics hit pays.
RenderRow MeasureOpenMetricsRender(size_t passes) {
  RenderRow row;
  RegisterStandardMetrics();
  const MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  row.families = snapshot.counters.size() + snapshot.histograms.size();

  OpenMetricsOptions options;
  options.exemplars = &FlightRecorder::Global();
  std::string text;
  for (size_t pass = 0; pass < passes; ++pass) {
    auto start = std::chrono::steady_clock::now();
    text = RenderOpenMetrics(snapshot, options);
    const double render = SecondsSince(start);
    row.render_ms =
        pass == 0 ? render * 1e3 : std::min(row.render_ms, render * 1e3);

    start = std::chrono::steady_clock::now();
    std::string error;
    const bool ok = OpenMetricsIsValid(text, &error);
    const double validate = SecondsSince(start);
    row.validate_ms = pass == 0 ? validate * 1e3
                                : std::min(row.validate_ms, validate * 1e3);
    if (!ok) {
      row.valid = false;
      std::fprintf(stderr, "openmetrics INVALID: %s\n", error.c_str());
    }
  }
  row.bytes = text.size();
  std::fprintf(stderr,
               "openmetrics families=%zu bytes=%zu render=%.3fms "
               "validate=%.3fms valid=%s\n",
               row.families, row.bytes, row.render_ms, row.validate_ms,
               row.valid ? "yes" : "NO");
  return row;
}

struct TimelineRow {
  size_t samples = 0;
  uint64_t dropped = 0;
  double occupancy_p50 = 0.0;
  double occupancy_max = 0.0;
  bool json_valid = true;
};

/// Runs the utilization sampler at 2 ms across a scheduled batch and
/// reports what the bounded timeline retained.
TimelineRow MeasureTimeline(const NamedSearcher& searcher,
                            const std::vector<Trajectory>& queries, size_t k,
                            ThreadPool& pool) {
  TimelineRow row;
  TimelineSampler::Options options;
  options.interval_seconds = 0.002;
  options.pool = &pool;
  TimelineSampler sampler(options);
  const bool started = sampler.Start();
  SchedulerPolicy policy;
  RunScheduled(searcher, queries, k, policy, &pool);
  sampler.Stop();

  const UtilizationSummary summary = sampler.Summarize();
  row.samples = summary.samples;
  row.dropped = summary.dropped;
  row.occupancy_p50 = summary.occupancy_p50;
  row.occupancy_max = summary.occupancy_max;
  row.json_valid = JsonIsValid(sampler.ToJson());
  // With the sampler compiled out Start() refuses and zero samples is
  // correct; with it compiled in the final Stop() sample guarantees one.
  if (started && row.samples == 0) row.json_valid = false;
  std::fprintf(stderr,
               "timeline samples=%zu dropped=%llu occ_p50=%.2f occ_max=%.2f "
               "json_valid=%s\n",
               row.samples, static_cast<unsigned long long>(row.dropped),
               row.occupancy_p50, row.occupancy_max,
               row.json_valid ? "yes" : "NO");
  return row;
}

}  // namespace
}  // namespace edr

int main(int argc, char** argv) {
  using namespace edr;
  bench::WarnIfSingleCore();

  bool smoke = false;
  const char* out_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      out_path = argv[i];
    }
  }
  std::FILE* out = stdout;
  if (out_path != nullptr) {
    out = std::fopen(out_path, "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", out_path);
      return 1;
    }
  }

  constexpr double kEps = 0.25;
  const size_t db_size = smoke ? 300 : 10000;
  const size_t num_queries = smoke ? 8 : 32;
  const size_t k = 10;
  const size_t passes = smoke ? 3 : 15;

  RandomWalkOptions walk_options;
  walk_options.count = db_size;
  walk_options.min_length = 20;
  walk_options.max_length = 60;
  walk_options.seed = 17;
  const TrajectoryDataset db = GenRandomWalk(walk_options);
  std::vector<Trajectory> queries;
  for (size_t q = 0; q < num_queries; ++q) {
    queries.push_back(db[(q * db.size()) / num_queries]);
  }

  ThreadPool pool(8);
  QueryEngine engine(db, kEps);
  KnnOptions bound;
  bound.pool = &pool;
  CombinedOptions combined_options;
  const std::vector<NamedSearcher> searchers = {
      engine.MakeHistogram(HistogramTable::Kind::k2D, 1,
                           HistogramScan::kSorted, bound),
      engine.MakeCombined(combined_options, bound),
  };

  bool certified = true;
  std::string overhead_body;
  char buf[512];
  double fastest_query_ns = 0.0;
  for (size_t m = 0; m < searchers.size(); ++m) {
    const OverheadRow row =
        MeasureRecorderOverhead(searchers[m], queries, k, pool, passes);
    const double query_ns =
        row.off_seconds * 1e9 / static_cast<double>(queries.size());
    if (m == 0 || query_ns < fastest_query_ns) fastest_query_ns = query_ns;
    certified = certified && row.identical;
    const double overhead =
        row.off_seconds > 0.0
            ? (row.on_seconds - row.off_seconds) / row.off_seconds * 100.0
            : 0.0;
    std::snprintf(
        buf, sizeof(buf),
        "    {\"method\": \"%s\", \"off_ms_total\": %.3f, "
        "\"on_ms_total\": %.3f, \"overhead_percent\": %.2f, "
        "\"within_2pct\": %s, \"published\": %llu, \"identical\": %s}%s\n",
        row.method.c_str(), row.off_seconds * 1e3, row.on_seconds * 1e3,
        overhead, overhead < 2.0 ? "true" : "false",
        static_cast<unsigned long long>(row.published),
        row.identical ? "true" : "false",
        m + 1 < searchers.size() ? "," : "");
    overhead_body += buf;
  }

  const PublishRow publish = MeasurePublishCost(passes);
  // The structural overhead: one steady-state Publish against the
  // fastest method's per-query latency. Unlike the A/B this does not
  // depend on scheduler timing noise.
  const double implied_percent =
      fastest_query_ns > 0.0
          ? publish.ns_per_publish / fastest_query_ns * 100.0
          : 0.0;

  const RenderRow render = MeasureOpenMetricsRender(passes);
  certified = certified && render.valid;

  const TimelineRow timeline = MeasureTimeline(searchers[0], queries, k, pool);
  certified = certified && timeline.json_valid;

  std::fprintf(out,
               "{\n  \"bench\": \"obs\",\n  \"smoke\": %s,\n"
               "  \"obs_enabled\": %s,\n"
               "  \"db_size\": %zu,\n  \"queries\": %zu,\n  \"k\": %zu,\n"
               "  \"epsilon\": %.3f,\n",
               smoke ? "true" : "false", kObsEnabled ? "true" : "false",
               db.size(), queries.size(), k, kEps);
  bench::FprintHostJson(out);
  std::fprintf(out,
               "  \"recorder_overhead\": [\n%s  ],\n"
               "  \"publish_cost\": {\"ns_per_publish\": %.1f, "
               "\"published\": %llu, \"dropped\": %llu, "
               "\"implied_overhead_percent\": %.4f, "
               "\"within_2pct\": %s},\n"
               "  \"openmetrics_render\": {\"families\": %zu, "
               "\"bytes\": %zu, \"render_ms\": %.3f, \"validate_ms\": %.3f, "
               "\"valid\": %s},\n"
               "  \"timeline\": {\"samples\": %zu, \"dropped\": %llu, "
               "\"occupancy_p50\": %.3f, \"occupancy_max\": %.3f, "
               "\"json_valid\": %s},\n"
               "  \"certified\": %s\n}\n",
               overhead_body.c_str(), publish.ns_per_publish,
               static_cast<unsigned long long>(publish.published),
               static_cast<unsigned long long>(publish.dropped),
               implied_percent, implied_percent < 2.0 ? "true" : "false",
               render.families, render.bytes,
               render.render_ms, render.validate_ms,
               render.valid ? "true" : "false", timeline.samples,
               static_cast<unsigned long long>(timeline.dropped),
               timeline.occupancy_p50, timeline.occupancy_max,
               timeline.json_valid ? "true" : "false",
               certified ? "true" : "false");
  if (out != stdout) std::fclose(out);
  return certified ? 0 : 1;
}
