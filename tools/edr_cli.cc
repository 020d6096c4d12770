// edr_cli — command-line front end for the library.
//
//   edr_cli generate <family> <out-file> [count] [seed]
//   edr_cli info <file>
//   edr_cli convert <in-file> <out-file>
//   edr_cli simplify <in-file> <out-file> <tolerance>
//   edr_cli probe-epsilon <file>
//   edr_cli knn <file> <query-index> <k> [method] [epsilon]
//   edr_cli range <file> <query-index> <radius> [epsilon]
//   edr_cli batch <file> <num-queries> <k> [method] [repeats] [epsilon]
//   edr_cli serve-metrics [--port=N] [--duration=SEC] [--warm=N] [--count=N]
//   edr_cli check-openmetrics <file>
//
// Files ending in .csv use the text format; anything else the binary
// format. Methods: scan, ea, ps2, ps1, pr, pb, ntr, hsr2, hsr1, 2hp, 1hp
// (default 2hp: histograms, then Q-grams). Datasets are normalized before
// querying; pass an explicit epsilon to override the quarter-of-max-std-dev
// default.
//
// `batch` streams the first <num-queries> trajectories through a
// QuerySession (the adaptive scheduler) with a shared feature cache,
// <repeats> passes over the same queries (default 2, so the second pass
// exercises warm cache hits), and prints per-pass latency plus the
// scheduler and cache statistics.
//
// Observability flags (any command, position-independent):
//   --trace-json=FILE       write the per-query phase trace of a `knn` query
//   --metrics-json=FILE     write the process-wide metrics registry snapshot
//                           (cumulative, like every export)
//   --metrics-interval=SEC  while a `batch` runs, write one JSON line about
//                           every SEC seconds and one at the end, each holding
//                           the activity since the previous line, to stderr,
//                           or to --metrics-interval-log=FILE when given
//                           (appended)
//   --trace-agg-json=FILE   after a `batch`, merge every query's phase trace
//                           into one aggregate profile and write it as JSON
//   --metrics-table         print the aligned metrics table (counters +
//                           latency percentiles) after the command
//   --flight-json=FILE      dump the slow-query flight recorder (top slowest
//                           + reservoir sample + recent ring) as JSON
//   --timeline-json=FILE    while a `batch` runs, sample pool occupancy /
//                           backlog / cache occupancy on a background
//                           timeline and write it as JSON
//   --listen[=PORT]         while a `batch` runs, serve /metrics (OpenMetrics
//                           text), /healthz, /flight, and /timeline over
//                           HTTP on 127.0.0.1 (default: an ephemeral port,
//                           printed on startup)
//   --listen-hold=SEC       keep the --listen endpoint up SEC seconds after
//                           the batch drains (default 0)
// Ports must be integers in [0, 65535]; durations and intervals finite
// numbers of seconds up to 1e6 (intervals also > 0). Any other value is an
// error. So is a positional argument that is not what it names: indexes,
// counts, k, radii, repeats and seeds are whole non-negative integers,
// epsilon and the tolerance finite non-negative numbers, and a method one
// of the names above; these are checked before a dataset loads. The files
// hold "{}"-style JSON; in an EDR_DISABLE_OBS build the trace files are not
// written (a note goes to stderr), the metrics snapshots are empty, and
// --listen refuses to start.
//
// `serve-metrics` is the self-contained scrape target the CI uses: it
// generates an in-memory dataset, runs a warm batch so every metric and the
// flight recorder are populated, then serves the observability routes for
// --duration seconds (default 5). `check-openmetrics` validates a scraped
// exposition file (syntax, histogram bucket monotonicity, +Inf == _count)
// and exits non-zero on violations.

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "data/generators.h"
#include "data/io.h"
#include "data/simplify.h"
#include "eval/epsilon.h"
#include "obs/flight_recorder.h"
#include "obs/http_endpoint.h"
#include "obs/openmetrics.h"
#include "obs/registry.h"
#include "obs/timeline.h"
#include "obs/trace.h"
#include "obs/trace_agg.h"
#include "query/engine.h"
#include "query/feature_cache.h"
#include "query/scheduler.h"

namespace {

std::string g_trace_json_path;
std::string g_metrics_json_path;
double g_metrics_interval_seconds = 0.0;  ///< 0 = no --metrics-interval
std::string g_metrics_interval_log_path;
std::string g_trace_agg_json_path;
bool g_metrics_table = false;
std::string g_flight_json_path;
std::string g_timeline_json_path;
bool g_listen = false;
uint16_t g_listen_port = 0;
double g_listen_hold_seconds = 0.0;

/// Parses all of `text` as an integer in [0, max].
template <typename T>
bool ParseInteger(const char* text, T max, T* out) {
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || errno != 0 || value < 0 ||
      static_cast<unsigned long long>(value) >
          static_cast<unsigned long long>(max)) {
    return false;
  }
  *out = static_cast<T>(value);
  return true;
}

/// Parses all of `text` as a port number in [0, 65535].
bool ParsePort(const char* text, uint16_t* port) {
  return ParseInteger<uint16_t>(text, 65535, port);
}

/// Parses all of `text` as a count, index or seed: an integer in
/// [0, LLONG_MAX].
bool ParseCount(const char* text, size_t* count) {
  return ParseInteger<size_t>(text, LLONG_MAX, count);
}

/// Parses all of `text` as a number.
bool ParseNumber(const char* text, double* value) {
  char* end = nullptr;
  const double parsed = std::strtod(text, &end);
  if (end == text || *end != '\0') return false;
  *value = parsed;
  return true;
}

/// Parses all of `text` as a finite non-negative number (a matching
/// threshold or a simplification tolerance).
bool ParseNonNegative(const char* text, double* value) {
  return ParseNumber(text, value) && std::isfinite(*value) && *value >= 0.0;
}

/// Parses all of `text` as a duration to wait: finite seconds in
/// [0, TimelineSampler::kMaxIntervalSeconds], so that sleeping on it stays
/// inside steady_clock's range.
bool ParseDuration(const char* text, double* seconds) {
  return ParseNumber(text, seconds) && *seconds >= 0.0 &&
         *seconds <= edr::TimelineSampler::kMaxIntervalSeconds;
}

std::string IntegerError(const std::string& what) {
  return what + " must be a non-negative integer";
}

std::string NumberError(const std::string& what) {
  return what + " must be a finite non-negative number";
}

std::string PortError(const std::string& flag) {
  return flag + " must be an integer port in [0, 65535]";
}

std::string DurationError(const std::string& flag) {
  char range[64];
  std::snprintf(range, sizeof(range), " must be a number of seconds in [0, %g]",
                edr::TimelineSampler::kMaxIntervalSeconds);
  return flag + range;
}

/// Removes the observability flags from argv (recording their values) so
/// the positional command parsing below stays untouched. Returns the new
/// argc, or -1 with `*error` set when a flag's value cannot be honoured.
int StripObsFlags(int argc, char** argv, std::string* error) {
  int out = 0;
  for (int i = 0; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--trace-json=", 13) == 0) {
      g_trace_json_path = arg + 13;
    } else if (std::strncmp(arg, "--metrics-json=", 15) == 0) {
      g_metrics_json_path = arg + 15;
    } else if (std::strncmp(arg, "--metrics-interval=", 19) == 0) {
      std::string why = "not a number";
      if (!ParseNumber(arg + 19, &g_metrics_interval_seconds) ||
          !edr::TimelineSampler::ValidInterval(g_metrics_interval_seconds,
                                               &why)) {
        *error = "--metrics-interval: " + why;
        return -1;
      }
    } else if (std::strncmp(arg, "--metrics-interval-log=", 23) == 0) {
      g_metrics_interval_log_path = arg + 23;
    } else if (std::strncmp(arg, "--trace-agg-json=", 17) == 0) {
      g_trace_agg_json_path = arg + 17;
    } else if (std::strcmp(arg, "--metrics-table") == 0) {
      g_metrics_table = true;
    } else if (std::strncmp(arg, "--flight-json=", 14) == 0) {
      g_flight_json_path = arg + 14;
    } else if (std::strncmp(arg, "--timeline-json=", 16) == 0) {
      g_timeline_json_path = arg + 16;
    } else if (std::strcmp(arg, "--listen") == 0) {
      g_listen = true;
    } else if (std::strncmp(arg, "--listen=", 9) == 0) {
      g_listen = true;
      if (!ParsePort(arg + 9, &g_listen_port)) {
        *error = PortError("--listen");
        return -1;
      }
    } else if (std::strncmp(arg, "--listen-hold=", 14) == 0) {
      if (!ParseDuration(arg + 14, &g_listen_hold_seconds)) {
        *error = DurationError("--listen-hold");
        return -1;
      }
    } else {
      argv[out++] = argv[i];
    }
  }
  return out;
}

/// The --metrics-interval sink: one JSON line per interval to stderr, or
/// appended to --metrics-interval-log when given.
void WriteMetricsLine(const std::string& line) {
  std::FILE* out = stderr;
  std::FILE* log = nullptr;
  if (!g_metrics_interval_log_path.empty()) {
    log = std::fopen(g_metrics_interval_log_path.c_str(), "a");
    if (log != nullptr) out = log;
  }
  std::fprintf(out, "%s\n", line.c_str());
  if (log != nullptr) std::fclose(log);
}

bool WriteTextFile(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const size_t written = std::fwrite(content.data(), 1, content.size(), f);
  const bool ok = written == content.size() && std::fclose(f) == 0;
  if (!ok && written == content.size()) return false;
  return ok;
}

/// Honors --metrics-json after a query command ran.
void MaybeExportMetrics() {
  if (g_metrics_json_path.empty()) return;
  const std::string json = edr::MetricsRegistry::Global().Snapshot().ToJson();
  if (!WriteTextFile(g_metrics_json_path, json)) {
    std::fprintf(stderr, "warning: could not write %s\n",
                 g_metrics_json_path.c_str());
  } else {
    std::printf("metrics written to %s\n", g_metrics_json_path.c_str());
  }
}

/// Honors --metrics-table: the aligned counter/latency table on stdout.
void MaybeExportMetricsTable() {
  if (!g_metrics_table) return;
  std::printf("%s",
              edr::MetricsRegistry::Global().Snapshot().ToTable().c_str());
}

/// Honors --flight-json after a query command ran.
void MaybeExportFlight() {
  if (g_flight_json_path.empty()) return;
  const std::string json = edr::FlightRecorder::Global().ToJson();
  if (!WriteTextFile(g_flight_json_path, json)) {
    std::fprintf(stderr, "warning: could not write %s\n",
                 g_flight_json_path.c_str());
  } else {
    std::printf("flight recorder written to %s\n", g_flight_json_path.c_str());
  }
}

/// Honors --trace-json for the query that produced `result`.
void MaybeExportTrace(const edr::KnnResult& result) {
  if (g_trace_json_path.empty()) return;
  if (result.trace == nullptr) {
    std::fprintf(stderr,
                 "note: no trace recorded (EDR_DISABLE_OBS build or "
                 "method without tracing); %s not written\n",
                 g_trace_json_path.c_str());
    return;
  }
  if (!WriteTextFile(g_trace_json_path, result.trace->ToJson())) {
    std::fprintf(stderr, "warning: could not write %s\n",
                 g_trace_json_path.c_str());
  } else {
    std::printf("trace written to %s\n", g_trace_json_path.c_str());
  }
}

bool IsCsv(const std::string& path) {
  return path.size() >= 4 && path.substr(path.size() - 4) == ".csv";
}

edr::Result<edr::TrajectoryDataset> LoadAny(const std::string& path) {
  return IsCsv(path) ? edr::LoadCsv(path) : edr::LoadBinary(path);
}

edr::Status SaveAny(const edr::TrajectoryDataset& db,
                    const std::string& path) {
  return IsCsv(path) ? edr::SaveCsv(db, path) : edr::SaveBinary(db, path);
}

int Fail(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return 1;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  edr_cli generate <asl|cameramouse|kungfu|slip|nhl|mixed|"
      "randomwalk> <out> [count] [seed]\n"
      "  edr_cli info <file>\n"
      "  edr_cli convert <in> <out>\n"
      "  edr_cli simplify <in> <out> <tolerance>\n"
      "  edr_cli probe-epsilon <file>\n"
      "  edr_cli knn <file> <query-index> <k> [method] [epsilon]\n"
      "  edr_cli range <file> <query-index> <radius> [epsilon]\n"
      "  edr_cli batch <file> <num-queries> <k> [method] [repeats] "
      "[epsilon]\n"
      "  edr_cli serve-metrics [--port=N] [--duration=SEC] [--warm=N] "
      "[--count=N]\n"
      "  edr_cli check-openmetrics <file>\n"
      "flags (any command):\n"
      "  --trace-json=FILE       per-query phase trace (knn only)\n"
      "  --metrics-json=FILE     process-wide metrics snapshot (cumulative)\n"
      "  --metrics-interval=SEC  one JSON line per SEC while a batch runs, "
      "each the\n"
      "                          activity since the previous line "
      "(0 < SEC <= 1e6)\n"
      "  --metrics-interval-log=FILE  append interval lines here instead of "
      "stderr\n"
      "  --trace-agg-json=FILE   aggregate phase profile of a batch\n"
      "  --metrics-table         print the aligned metrics table\n"
      "  --flight-json=FILE      slow-query flight recorder dump\n"
      "  --timeline-json=FILE    utilization timeline of a batch\n"
      "  --listen[=PORT]         serve /metrics /healthz /flight /timeline "
      "during a batch\n"
      "  --listen-hold=SEC       keep the endpoint up after the batch "
      "drains\n");
  return 2;
}

int Generate(int argc, char** argv) {
  if (argc < 4) return Usage();
  const std::string family = argv[2];
  const std::string out = argv[3];
  size_t count = 0;  // 0 = the family's default count
  if (argc > 4 && !ParseCount(argv[4], &count)) {
    return Fail(IntegerError("count"));
  }
  size_t seed = 7;
  if (argc > 5 && !ParseCount(argv[5], &seed)) {
    return Fail(IntegerError("seed"));
  }

  edr::TrajectoryDataset db;
  if (family == "asl") {
    db = edr::GenAslLike(10, count ? count / 10 : 5, seed);
  } else if (family == "cameramouse") {
    db = edr::GenCameraMouseLike(count ? count / 5 : 3, seed);
  } else if (family == "kungfu") {
    db = edr::GenKungfuLike(count ? count : 495, 640, seed);
  } else if (family == "slip") {
    db = edr::GenSlipLike(count ? count : 495, 400, seed);
  } else if (family == "nhl") {
    db = edr::GenNhlLike(count ? count : 5000, 30, 256, seed);
  } else if (family == "mixed") {
    db = edr::GenMixedLike(count ? count : 1024, 60, 512, seed);
  } else if (family == "randomwalk") {
    edr::RandomWalkOptions options;
    options.count = count ? count : 1000;
    options.seed = seed;
    db = edr::GenRandomWalk(options);
  } else {
    return Fail("unknown family: " + family);
  }
  const edr::Status status = SaveAny(db, out);
  if (!status.ok()) return Fail(status.ToString());
  std::printf("wrote %zu trajectories to %s\n", db.size(), out.c_str());
  return 0;
}

int Info(int argc, char** argv) {
  if (argc < 3) return Usage();
  const edr::Result<edr::TrajectoryDataset> db = LoadAny(argv[2]);
  if (!db.ok()) return Fail(db.status().ToString());
  const edr::DatasetStats stats = db->Stats();
  std::printf("trajectories: %zu\n", stats.count);
  std::printf("lengths:      %zu-%zu (mean %.1f)\n", stats.min_length,
              stats.max_length, stats.mean_length);
  std::printf("bounding box: [%.3f, %.3f] x [%.3f, %.3f]\n", stats.min_xy.x,
              stats.max_xy.x, stats.min_xy.y, stats.max_xy.y);
  std::printf("max std dev:  %.4f (suggested epsilon %.4f)\n",
              stats.max_std_dev, db->SuggestedEpsilon());
  std::printf("classes:      %zu\n", db->NumClasses());
  return 0;
}

int Convert(int argc, char** argv) {
  if (argc < 4) return Usage();
  const edr::Result<edr::TrajectoryDataset> db = LoadAny(argv[2]);
  if (!db.ok()) return Fail(db.status().ToString());
  const edr::Status status = SaveAny(*db, argv[3]);
  if (!status.ok()) return Fail(status.ToString());
  std::printf("converted %zu trajectories: %s -> %s\n", db->size(), argv[2],
              argv[3]);
  return 0;
}

int Simplify(int argc, char** argv) {
  if (argc < 5) return Usage();
  double tolerance = 0.0;
  if (!ParseNonNegative(argv[4], &tolerance)) {
    return Fail(NumberError("tolerance"));
  }
  const edr::Result<edr::TrajectoryDataset> db = LoadAny(argv[2]);
  if (!db.ok()) return Fail(db.status().ToString());
  const edr::TrajectoryDataset simplified = SimplifyAll(*db, tolerance);
  size_t before = 0;
  size_t after = 0;
  for (size_t i = 0; i < db->size(); ++i) {
    before += (*db)[i].size();
    after += simplified[i].size();
  }
  const edr::Status status = SaveAny(simplified, argv[3]);
  if (!status.ok()) return Fail(status.ToString());
  std::printf("simplified %zu trajectories: %zu -> %zu points (%.0f%%)\n",
              db->size(), before, after,
              100.0 * static_cast<double>(after) /
                  static_cast<double>(before ? before : 1));
  return 0;
}

int ProbeEpsilon(int argc, char** argv) {
  if (argc < 3) return Usage();
  edr::Result<edr::TrajectoryDataset> db = LoadAny(argv[2]);
  if (!db.ok()) return Fail(db.status().ToString());
  db->NormalizeAll();
  const edr::EpsilonProbeResult r = edr::SuggestEpsilonByProbing(*db);
  std::printf("suggested epsilon (normalized space): %.4f (contrast %.2f)\n",
              r.epsilon, r.contrast);
  std::printf("quarter-of-max-std-dev rule:          %.4f\n",
              db->SuggestedEpsilon());
  return 0;
}

/// Builds the searcher of one `method` name on a query engine.
using MethodFactory = edr::NamedSearcher (*)(edr::QueryEngine&);

/// The combined searcher (histograms, then Q-grams) on `kind` histograms.
edr::NamedSearcher Combined(edr::QueryEngine& engine,
                            edr::HistogramTable::Kind kind) {
  edr::CombinedOptions combo;
  combo.histogram_kind = kind;
  return engine.MakeCombined(combo);
}

/// The methods `knn` and `batch` accept.
const std::pair<const char*, MethodFactory> kMethods[] = {
    {"scan", [](edr::QueryEngine& e) { return e.MakeSeqScan(); }},
    {"ea", [](edr::QueryEngine& e) { return e.MakeSeqScan(true); }},
    {"ps2",
     [](edr::QueryEngine& e) {
       return e.MakeQgram(edr::QgramVariant::kMerge2D, 1);
     }},
    {"ps1",
     [](edr::QueryEngine& e) {
       return e.MakeQgram(edr::QgramVariant::kMerge1D, 1);
     }},
    {"pr",
     [](edr::QueryEngine& e) {
       return e.MakeQgram(edr::QgramVariant::kRtree2D, 1);
     }},
    {"pb",
     [](edr::QueryEngine& e) {
       return e.MakeQgram(edr::QgramVariant::kBtree1D, 1);
     }},
    {"ntr", [](edr::QueryEngine& e) { return e.MakeNearTriangle(200); }},
    {"hsr2",
     [](edr::QueryEngine& e) {
       return e.MakeHistogram(edr::HistogramTable::Kind::k2D, 1,
                              edr::HistogramScan::kSorted);
     }},
    {"hsr1",
     [](edr::QueryEngine& e) {
       return e.MakeHistogram(edr::HistogramTable::Kind::k1D, 1,
                              edr::HistogramScan::kSorted);
     }},
    {"2hp",
     [](edr::QueryEngine& e) {
       return Combined(e, edr::HistogramTable::Kind::k2D);
     }},
    {"1hp",
     [](edr::QueryEngine& e) {
       return Combined(e, edr::HistogramTable::Kind::k1D);
     }},
};

/// The factory of a method name; null, with `*error` set, for any other
/// name.
MethodFactory FindMethod(const std::string& name, std::string* error) {
  std::string names;
  for (const auto& [method, make] : kMethods) {
    if (name == method) return make;
    names += names.empty() ? method : std::string(", ") + method;
  }
  *error = "unknown method " + name + " (one of " + names + ")";
  return nullptr;
}

int Knn(int argc, char** argv) {
  if (argc < 5) return Usage();
  size_t query_index = 0;
  size_t k = 0;
  if (!ParseCount(argv[3], &query_index)) {
    return Fail(IntegerError("query-index"));
  }
  if (!ParseCount(argv[4], &k)) return Fail(IntegerError("k"));
  std::string error;
  const MethodFactory make = FindMethod(argc > 5 ? argv[5] : "2hp", &error);
  if (make == nullptr) return Fail(error);
  double epsilon = 0.0;
  if (argc > 6 && !ParseNonNegative(argv[6], &epsilon)) {
    return Fail(NumberError("epsilon"));
  }

  edr::Result<edr::TrajectoryDataset> loaded = LoadAny(argv[2]);
  if (!loaded.ok()) return Fail(loaded.status().ToString());
  edr::TrajectoryDataset db = std::move(loaded).value();
  db.NormalizeAll();
  if (query_index >= db.size()) return Fail("query index out of range");
  if (argc <= 6) epsilon = db.SuggestedEpsilon();

  edr::QueryEngine engine(db, epsilon);
  const edr::NamedSearcher searcher = make(engine);
  const edr::KnnResult result = searcher.search(db[query_index], k);
  std::printf("%zu-NN of trajectory %zu under EDR (eps=%.3f, method %s):\n",
              k, query_index, epsilon, searcher.name.c_str());
  for (const edr::Neighbor& n : result.neighbors) {
    std::printf("  id=%-6u EDR=%.0f len=%zu\n", n.id, n.distance,
                db[n.id].size());
  }
  std::printf("computed %zu/%zu true distances (pruning power %.3f) in "
              "%.1f ms\n",
              result.stats.edr_computed, result.stats.db_size,
              result.stats.PruningPower(),
              result.stats.elapsed_seconds * 1e3);
  edr::PublishFlight(searcher.name, result, /*sched_budget=*/0);
  MaybeExportTrace(result);
  MaybeExportMetrics();
  MaybeExportMetricsTable();
  MaybeExportFlight();
  return 0;
}

int Batch(int argc, char** argv) {
  if (argc < 5) return Usage();
  size_t num_queries = 0;
  size_t k = 0;
  if (!ParseCount(argv[3], &num_queries)) {
    return Fail(IntegerError("num-queries"));
  }
  if (!ParseCount(argv[4], &k)) return Fail(IntegerError("k"));
  std::string error;
  const MethodFactory make = FindMethod(argc > 5 ? argv[5] : "2hp", &error);
  if (make == nullptr) return Fail(error);
  size_t repeats = 2;
  if (argc > 6 && !ParseCount(argv[6], &repeats)) {
    return Fail(IntegerError("repeats"));
  }
  repeats = std::max<size_t>(1, repeats);
  double epsilon = 0.0;
  if (argc > 7 && !ParseNonNegative(argv[7], &epsilon)) {
    return Fail(NumberError("epsilon"));
  }

  edr::Result<edr::TrajectoryDataset> loaded = LoadAny(argv[2]);
  if (!loaded.ok()) return Fail(loaded.status().ToString());
  edr::TrajectoryDataset db = std::move(loaded).value();
  db.NormalizeAll();
  if (num_queries == 0 || num_queries > db.size()) {
    return Fail("num-queries must be in [1, dataset size]");
  }
  if (argc <= 7) epsilon = db.SuggestedEpsilon();

  edr::QueryEngine engine(db, epsilon);
  const edr::NamedSearcher searcher = make(engine);
  edr::FeatureCache cache(/*capacity=*/2 * num_queries);
  edr::RegisterStandardMetrics();

  std::printf("streaming %zu queries x%zu through %s (eps=%.3f, k=%zu)\n",
              num_queries, repeats, searcher.name.c_str(), epsilon, k);

  // The sessions below are per-pass; the sampler outlives them and probes
  // the live one through this mutex-guarded pointer.
  std::mutex session_mu;
  edr::QuerySession* live_session = nullptr;

  edr::TimelineSampler::Options timeline_options;
  timeline_options.backlog = [&session_mu, &live_session]() -> size_t {
    std::lock_guard<std::mutex> lock(session_mu);
    return live_session != nullptr ? live_session->PendingRelaxed() : 0;
  };
  timeline_options.cache_entries = [&cache]() {
    return cache.stats().entries;
  };
  if (g_metrics_interval_seconds > 0.0) {
    timeline_options.metrics_sink = WriteMetricsLine;
    timeline_options.metrics_interval_seconds = g_metrics_interval_seconds;
  }
  edr::TimelineSampler timeline(timeline_options);
  if (timeline_options.metrics_sink || !g_timeline_json_path.empty() ||
      g_listen) {
    timeline.Start();
  }

  edr::MetricsHttpEndpoint::Options endpoint_options;
  endpoint_options.port = g_listen_port;
  endpoint_options.timeline = &timeline;
  edr::MetricsHttpEndpoint endpoint(endpoint_options);
  if (g_listen) {
    std::string error;
    if (!endpoint.Start(&error)) return Fail("--listen: " + error);
    std::printf("serving /metrics /healthz /flight /timeline on "
                "127.0.0.1:%u\n",
                static_cast<unsigned>(endpoint.port()));
    std::fflush(stdout);
  }

  edr::TraceAggregate trace_agg;
  edr::SchedulerStats last_stats;
  for (size_t pass = 0; pass < repeats; ++pass) {
    edr::QuerySession::Options options;
    options.k = k;
    options.feature_cache = &cache;
    edr::QuerySession session(searcher, options);
    {
      std::lock_guard<std::mutex> lock(session_mu);
      live_session = &session;
    }
    const auto start = std::chrono::steady_clock::now();
    std::vector<edr::QuerySession::Ticket> tickets;
    tickets.reserve(num_queries);
    for (size_t i = 0; i < num_queries; ++i) {
      tickets.push_back(session.Submit(db[i]));
    }
    session.Drain();
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    if (!g_trace_agg_json_path.empty()) {
      for (const edr::QuerySession::Ticket t : tickets) {
        trace_agg.Add(session.Result(t).trace.get());
      }
    }
    last_stats = session.stats();
    {
      std::lock_guard<std::mutex> lock(session_mu);
      live_session = nullptr;
    }
    std::printf("  pass %zu: %.1f ms total, %.3f ms/query%s\n", pass + 1,
                seconds * 1e3,
                seconds * 1e3 / static_cast<double>(num_queries),
                pass == 0 ? " (cold cache)" : " (warm cache)");
  }
  std::printf("scheduler: %zu queries, %zu waves (%zu queries), "
              "%zu widened, max budget %u\n",
              last_stats.queries, last_stats.waves, last_stats.wave_queries,
              last_stats.widened_queries, last_stats.max_budget);
  if (!g_trace_agg_json_path.empty()) {
    if (trace_agg.traces() == 0) {
      std::fprintf(stderr,
                   "note: no traces recorded (EDR_DISABLE_OBS build?); "
                   "%s not written\n",
                   g_trace_agg_json_path.c_str());
    } else if (!WriteTextFile(g_trace_agg_json_path, trace_agg.ToJson())) {
      std::fprintf(stderr, "warning: could not write %s\n",
                   g_trace_agg_json_path.c_str());
    } else {
      std::printf("aggregate trace (%zu queries) written to %s\n",
                  trace_agg.traces(), g_trace_agg_json_path.c_str());
    }
  }
  const edr::FeatureCache::Stats cs = cache.stats();
  std::printf("feature cache: %llu hits, %llu misses, %llu evictions, "
              "%zu entries\n",
              static_cast<unsigned long long>(cs.hits),
              static_cast<unsigned long long>(cs.misses),
              static_cast<unsigned long long>(cs.evictions), cs.entries);
  if (g_listen && g_listen_hold_seconds > 0.0) {
    std::printf("holding the endpoint for %.1f s (ctrl-c to stop early)\n",
                g_listen_hold_seconds);
    std::fflush(stdout);
    std::this_thread::sleep_for(
        std::chrono::duration<double>(g_listen_hold_seconds));
  }
  endpoint.Stop();
  // After the hold, so the final metrics line covers the whole run.
  timeline.Stop();
  if (!g_timeline_json_path.empty()) {
    if (!WriteTextFile(g_timeline_json_path, timeline.ToJson())) {
      std::fprintf(stderr, "warning: could not write %s\n",
                   g_timeline_json_path.c_str());
    } else {
      std::printf("timeline written to %s\n", g_timeline_json_path.c_str());
    }
  }
  MaybeExportMetrics();
  MaybeExportMetricsTable();
  MaybeExportFlight();
  return 0;
}

/// `serve-metrics` — the self-contained scrape target: generate a dataset,
/// run a warm scheduled batch so metrics / flight records / the timeline
/// are populated, then serve the observability routes for a fixed window.
int ServeMetrics(int argc, char** argv) {
  uint16_t port = 0;
  double duration = 5.0;
  size_t warm = 32;
  size_t count = 256;
  for (int i = 2; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--port=", 7) == 0) {
      if (!ParsePort(arg + 7, &port)) {
        return Fail(PortError("serve-metrics: --port"));
      }
    } else if (std::strncmp(arg, "--duration=", 11) == 0) {
      if (!ParseDuration(arg + 11, &duration)) {
        return Fail(DurationError("serve-metrics: --duration"));
      }
    } else if (std::strncmp(arg, "--warm=", 7) == 0) {
      if (!ParseCount(arg + 7, &warm)) {
        return Fail(IntegerError("serve-metrics: --warm"));
      }
    } else if (std::strncmp(arg, "--count=", 8) == 0) {
      if (!ParseCount(arg + 8, &count)) {
        return Fail(IntegerError("serve-metrics: --count"));
      }
    } else {
      return Fail(std::string("serve-metrics: unknown flag ") + arg);
    }
  }
  if (count < 2) return Fail("serve-metrics: --count must be >= 2");
  warm = std::min(warm, count);

  edr::RegisterStandardMetrics();
  edr::TrajectoryDataset db = edr::GenMixedLike(count, 40, 200, /*seed=*/7);
  db.NormalizeAll();
  const double epsilon = db.SuggestedEpsilon();
  edr::QueryEngine engine(db, epsilon);
  const edr::NamedSearcher searcher =
      Combined(engine, edr::HistogramTable::Kind::k2D);
  edr::FeatureCache cache(/*capacity=*/2 * warm);

  edr::TimelineSampler::Options timeline_options;
  timeline_options.cache_entries = [&cache]() {
    return cache.stats().entries;
  };
  edr::TimelineSampler timeline(timeline_options);
  timeline.Start();

  if (warm > 0) {
    edr::QuerySession::Options options;
    options.k = 5;
    options.feature_cache = &cache;
    edr::QuerySession session(searcher, options);
    for (size_t i = 0; i < warm; ++i) session.Submit(db[i]);
    session.Drain();
    std::printf("warmed %zu queries over %zu trajectories (eps=%.3f)\n",
                warm, db.size(), epsilon);
  }

  edr::MetricsHttpEndpoint::Options endpoint_options;
  endpoint_options.port = port;
  endpoint_options.timeline = &timeline;
  edr::MetricsHttpEndpoint endpoint(endpoint_options);
  std::string error;
  if (!endpoint.Start(&error)) return Fail("serve-metrics: " + error);
  std::printf("serving /metrics /healthz /flight /timeline on "
              "127.0.0.1:%u for %.1f s\n",
              static_cast<unsigned>(endpoint.port()), duration);
  std::fflush(stdout);
  std::this_thread::sleep_for(std::chrono::duration<double>(duration));
  endpoint.Stop();
  timeline.Stop();
  std::printf("served %llu requests\n",
              static_cast<unsigned long long>(endpoint.requests()));
  MaybeExportMetrics();
  MaybeExportMetricsTable();
  MaybeExportFlight();
  return 0;
}

/// `check-openmetrics <file>` — validate a scraped exposition.
int CheckOpenMetrics(int argc, char** argv) {
  if (argc < 3) return Usage();
  std::FILE* f = std::fopen(argv[2], "rb");
  if (f == nullptr) return Fail(std::string("cannot open ") + argv[2]);
  std::string text;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);
  std::string error;
  if (!edr::OpenMetricsIsValid(text, &error)) {
    return Fail(std::string(argv[2]) + ": " + error);
  }
  std::printf("%s: valid OpenMetrics exposition (%zu bytes)\n", argv[2],
              text.size());
  return 0;
}

int RangeQuery(int argc, char** argv) {
  if (argc < 5) return Usage();
  size_t query_index = 0;
  int radius = 0;
  if (!ParseCount(argv[3], &query_index)) {
    return Fail(IntegerError("query-index"));
  }
  if (!ParseInteger<int>(argv[4], INT_MAX, &radius)) {
    return Fail(IntegerError("radius"));
  }
  double epsilon = 0.0;
  if (argc > 5 && !ParseNonNegative(argv[5], &epsilon)) {
    return Fail(NumberError("epsilon"));
  }

  edr::Result<edr::TrajectoryDataset> loaded = LoadAny(argv[2]);
  if (!loaded.ok()) return Fail(loaded.status().ToString());
  edr::TrajectoryDataset db = std::move(loaded).value();
  db.NormalizeAll();
  if (query_index >= db.size()) return Fail("query index out of range");
  if (argc <= 5) epsilon = db.SuggestedEpsilon();

  edr::QueryEngine engine(db, epsilon);
  edr::CombinedOptions combo;
  const edr::KnnResult result =
      engine.Combined(combo).Range(db[query_index], radius);
  std::printf("trajectories within EDR %d of trajectory %zu (eps=%.3f): "
              "%zu\n",
              radius, query_index, epsilon, result.neighbors.size());
  for (const edr::Neighbor& n : result.neighbors) {
    std::printf("  id=%-6u EDR=%.0f\n", n.id, n.distance);
  }
  edr::PublishFlight("range", result, /*sched_budget=*/0);
  MaybeExportTrace(result);
  MaybeExportMetrics();
  MaybeExportMetricsTable();
  MaybeExportFlight();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string error;
  argc = StripObsFlags(argc, argv, &error);
  if (argc < 0) return Fail(error);
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  if (command == "generate") return Generate(argc, argv);
  if (command == "info") return Info(argc, argv);
  if (command == "convert") return Convert(argc, argv);
  if (command == "simplify") return Simplify(argc, argv);
  if (command == "probe-epsilon") return ProbeEpsilon(argc, argv);
  if (command == "knn") return Knn(argc, argv);
  if (command == "range") return RangeQuery(argc, argv);
  if (command == "batch") return Batch(argc, argv);
  if (command == "serve-metrics") return ServeMetrics(argc, argv);
  if (command == "check-openmetrics") return CheckOpenMetrics(argc, argv);
  return Usage();
}
