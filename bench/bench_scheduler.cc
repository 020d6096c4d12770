// Adaptive batch scheduler bench: batch throughput under the scheduler
// versus the sequential path, and cold-versus-warm query-feature-cache
// latency for repeated queries, on a random-walk database.
//
// Emits JSON (stdout, or the file named by the first non-flag argument):
//
//   ./bench/bench_scheduler BENCH_scheduler.json
//   ./bench/bench_scheduler --smoke        # tiny workload for CI
//
// Every scheduled batch is certified bit-identical to the sequential
// per-query loop before its time is reported, and the cached passes are
// certified against the uncached answers — the exit code reflects the
// certification, not the latency deltas. "host_cores" records the
// machine's core count: on a single-core host the scheduler can only
// time-slice, so throughput deltas there measure overhead, not speedup.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/trajectory.h"
#include "data/generators.h"
#include "query/engine.h"
#include "query/feature_cache.h"
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

struct SchedulerRow {
  std::string method;
  double seq_seconds = 0.0;       ///< sequential per-query loop, total
  double adaptive_seconds = 0.0;  ///< RunScheduled with default policy
  SchedulerStats stats;
  bool identical = true;
};

SchedulerRow MeasureScheduler(const NamedSearcher& searcher,
                              const std::vector<Trajectory>& queries,
                              size_t k, ThreadPool& pool) {
  SchedulerRow row;
  row.method = searcher.name;

  // Warm-up pass sizes scratch buffers so neither side pays allocation.
  for (const Trajectory& q : queries) searcher.search(q, k);

  auto start = std::chrono::steady_clock::now();
  std::vector<KnnResult> reference;
  reference.reserve(queries.size());
  for (const Trajectory& q : queries) {
    reference.push_back(searcher.search(q, k));
  }
  row.seq_seconds = SecondsSince(start);

  SchedulerPolicy policy;
  start = std::chrono::steady_clock::now();
  const std::vector<KnnResult> scheduled =
      RunScheduled(searcher, queries, k, policy, &pool, nullptr, &row.stats);
  row.adaptive_seconds = SecondsSince(start);

  for (size_t i = 0; i < queries.size(); ++i) {
    row.identical = row.identical && SameNeighbors(reference[i], scheduled[i]);
  }
  std::fprintf(stderr,
               "%-6s seq=%.3fms adaptive=%.3fms waves=%zu widened=%zu "
               "max_budget=%u identical=%s\n",
               row.method.c_str(), row.seq_seconds * 1e3,
               row.adaptive_seconds * 1e3, row.stats.waves,
               row.stats.widened_queries, row.stats.max_budget,
               row.identical ? "yes" : "NO");
  return row;
}

struct CacheRow {
  std::string method;
  double cold_ms_per_query = 0.0;  ///< fresh feature build every pass
  double warm_ms_per_query = 0.0;  ///< features served from the cache
  FeatureCache::Stats stats;
  bool identical = true;
};

CacheRow MeasureCache(const NamedSearcher& searcher,
                      const std::vector<Trajectory>& queries, size_t k,
                      size_t passes) {
  CacheRow row;
  row.method = searcher.name;

  std::vector<KnnResult> reference;
  reference.reserve(queries.size());
  for (const Trajectory& q : queries) {
    reference.push_back(searcher.search(q, k));
  }

  FeatureCache cache(2 * queries.size() + 8);
  KnnOptions cached;
  cached.feature_cache = &cache;

  // Cold passes rebuild every feature (the cache is cleared between
  // passes); warm passes replay the same queries against the filled
  // cache. Taking the best pass on each side filters scheduler noise.
  double cold_best = 0.0;
  for (size_t pass = 0; pass < passes; ++pass) {
    cache.Clear();
    const auto start = std::chrono::steady_clock::now();
    for (size_t i = 0; i < queries.size(); ++i) {
      const KnnResult r = searcher.search_with(queries[i], k, cached);
      row.identical = row.identical && SameNeighbors(reference[i], r);
    }
    const double elapsed = SecondsSince(start);
    cold_best = pass == 0 ? elapsed : std::min(cold_best, elapsed);
  }
  double warm_best = 0.0;
  for (size_t pass = 0; pass < passes; ++pass) {
    const auto start = std::chrono::steady_clock::now();
    for (size_t i = 0; i < queries.size(); ++i) {
      const KnnResult r = searcher.search_with(queries[i], k, cached);
      row.identical = row.identical && SameNeighbors(reference[i], r);
    }
    const double elapsed = SecondsSince(start);
    warm_best = pass == 0 ? elapsed : std::min(warm_best, elapsed);
  }
  const double n = static_cast<double>(queries.size());
  row.cold_ms_per_query = cold_best * 1e3 / n;
  row.warm_ms_per_query = warm_best * 1e3 / n;
  row.stats = cache.stats();
  std::fprintf(stderr,
               "%-6s cold=%.3fms/q warm=%.3fms/q hits=%llu misses=%llu "
               "identical=%s\n",
               row.method.c_str(), row.cold_ms_per_query,
               row.warm_ms_per_query,
               static_cast<unsigned long long>(row.stats.hits),
               static_cast<unsigned long long>(row.stats.misses),
               row.identical ? "yes" : "NO");
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
  const size_t num_queries = smoke ? 6 : 24;
  const size_t k = 10;
  const size_t cache_passes = smoke ? 2 : 5;

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
      engine.MakeQgram(QgramVariant::kMerge2D, 1, bound),
      engine.MakeCombined(combined_options, bound),
  };

  bool all_identical = true;
  std::string sched_body;
  std::string cache_body;
  char buf[512];
  for (size_t m = 0; m < searchers.size(); ++m) {
    const SchedulerRow s = MeasureScheduler(searchers[m], queries, k, pool);
    all_identical = all_identical && s.identical;
    std::snprintf(
        buf, sizeof(buf),
        "    {\"method\": \"%s\", \"seq_ms_total\": %.3f, "
        "\"adaptive_ms_total\": %.3f, \"speedup_vs_seq\": %.2f, "
        "\"waves\": %zu, \"wave_queries\": %zu, \"widened_queries\": %zu, "
        "\"max_budget\": %u, \"identical\": %s}%s\n",
        s.method.c_str(), s.seq_seconds * 1e3, s.adaptive_seconds * 1e3,
        s.adaptive_seconds > 0.0 ? s.seq_seconds / s.adaptive_seconds : 0.0,
        s.stats.waves, s.stats.wave_queries, s.stats.widened_queries,
        s.stats.max_budget, s.identical ? "true" : "false",
        m + 1 < searchers.size() ? "," : "");
    sched_body += buf;

    const CacheRow c = MeasureCache(searchers[m], queries, k, cache_passes);
    all_identical = all_identical && c.identical;
    std::snprintf(
        buf, sizeof(buf),
        "    {\"method\": \"%s\", \"cold_ms_per_query\": %.3f, "
        "\"warm_ms_per_query\": %.3f, \"warm_faster\": %s, "
        "\"cache_hits\": %llu, \"cache_misses\": %llu, "
        "\"cache_evictions\": %llu, \"identical\": %s}%s\n",
        c.method.c_str(), c.cold_ms_per_query, c.warm_ms_per_query,
        c.warm_ms_per_query < c.cold_ms_per_query ? "true" : "false",
        static_cast<unsigned long long>(c.stats.hits),
        static_cast<unsigned long long>(c.stats.misses),
        static_cast<unsigned long long>(c.stats.evictions),
        c.identical ? "true" : "false", m + 1 < searchers.size() ? "," : "");
    cache_body += buf;
  }

  std::fprintf(out,
               "{\n  \"bench\": \"scheduler\",\n  \"smoke\": %s,\n"
               "  \"db_size\": %zu,\n  \"queries\": %zu,\n  \"k\": %zu,\n"
               "  \"epsilon\": %.3f,\n",
               smoke ? "true" : "false", db.size(), queries.size(), k, kEps);
  bench::FprintHostJson(out);
  std::fprintf(out,
               "  \"scheduler\": [\n%s  ],\n"
               "  \"cache\": [\n%s  ],\n"
               "  \"identical\": %s\n}\n",
               sched_body.c_str(), cache_body.c_str(),
               all_identical ? "true" : "false");
  if (out != stdout) std::fclose(out);
  return all_identical ? 0 : 1;
}
