// Adaptive batch scheduler bench: batch throughput under the scheduler
// versus the sequential path, cold-versus-warm query-feature-cache
// latency for repeated queries, fused-versus-unfused filter
// throughput (one multi-query sweep over the database against the
// per-query sweeps it replaces, plus the scheduled batch with fusion
// forced off), and the fused-plan cache cold versus warm on a clustered
// backlog, on a random-walk database.
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
#include "core/cpu.h"
#include "core/trajectory.h"
#include "data/generators.h"
#include "pruning/histogram.h"
#include "pruning/qgram_knn.h"
#include "query/engine.h"
#include "query/feature_cache.h"
#include "query/plan_cache.h"
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

struct FusedKernelRow {
  std::string kernel;
  size_t group = 0;
  size_t repeats = 0;
  double unfused_seconds = 0.0;  ///< best pass, per-query passes, total
  double fused_seconds = 0.0;    ///< best pass, one fused pass, total
  bool identical = true;
};

/// Jittered near-duplicates of one seed query: the batched workload the
/// fused sweep targets. Concurrent queries over the same region share most
/// of their histogram bins, so the column side of the fused sweep
/// accumulates each distinct bin once for the whole group and the posting
/// side streams the database once instead of once per member.
std::vector<Trajectory> JitterGroup(const Trajectory& seed, size_t group) {
  std::vector<Trajectory> out;
  out.reserve(group);
  for (size_t f = 0; f < group; ++f) {
    Trajectory t = seed;
    for (size_t j = 0; j < t.size(); ++j) {
      t[j].x += 1e-4 * static_cast<double>((f * 31 + j) % 5);
      t[j].y += 1e-4 * static_cast<double>((f * 17 + j) % 7);
    }
    out.push_back(std::move(t));
  }
  return out;
}

void PrintFusedRow(const FusedKernelRow& row) {
  const double speedup =
      row.fused_seconds > 0.0 ? row.unfused_seconds / row.fused_seconds : 0.0;
  std::fprintf(stderr,
               "%-22s group=%zu unfused=%.3fms fused=%.3fms speedup=%.2f "
               "identical=%s\n",
               row.kernel.c_str(), row.group, row.unfused_seconds * 1e3,
               row.fused_seconds * 1e3, speedup, row.identical ? "yes" : "NO");
}

/// Filter throughput of one group sweep versus a sweep per member (groups
/// of one): `group` near-duplicate queries, each side timed as the best of
/// `passes` passes of `repeats` full-database evaluations.
FusedKernelRow MeasureFusedHistogram(const HistogramTable& table,
                                     const std::vector<Trajectory>& group,
                                     size_t passes, size_t repeats) {
  FusedKernelRow row;
  row.kernel = "histogram_sweep_2d";
  row.group = group.size();
  row.repeats = repeats;

  std::vector<HistogramTable::QueryHistogram> qhs;
  qhs.reserve(group.size());
  for (const Trajectory& q : group) qhs.push_back(table.MakeQueryHistogram(q));
  std::vector<const HistogramTable::QueryHistogram*> qptrs;
  for (const auto& qh : qhs) qptrs.push_back(&qh);

  std::vector<std::vector<int>> unfused(group.size());
  std::vector<std::vector<int>> fused(group.size());
  std::vector<std::vector<int>*> outs;
  for (auto& v : fused) outs.push_back(&v);

  // Warm-up sizes the output vectors and faults the table in.
  for (size_t f = 0; f < qhs.size(); ++f) {
    table.FastLowerBoundSweep({&qhs[f]}, {&unfused[f]});
  }
  table.FastLowerBoundSweep(qptrs, outs);
  for (size_t f = 0; f < qhs.size(); ++f) {
    row.identical = row.identical && unfused[f] == fused[f];
  }

  for (size_t pass = 0; pass < passes; ++pass) {
    const auto start = std::chrono::steady_clock::now();
    for (size_t r = 0; r < repeats; ++r) {
      for (size_t f = 0; f < qhs.size(); ++f) {
        table.FastLowerBoundSweep({&qhs[f]}, {&unfused[f]});
      }
    }
    const double elapsed = SecondsSince(start);
    row.unfused_seconds =
        pass == 0 ? elapsed : std::min(row.unfused_seconds, elapsed);
  }
  for (size_t pass = 0; pass < passes; ++pass) {
    const auto start = std::chrono::steady_clock::now();
    for (size_t r = 0; r < repeats; ++r) {
      table.FastLowerBoundSweep(qptrs, outs);
    }
    const double elapsed = SecondsSince(start);
    row.fused_seconds =
        pass == 0 ? elapsed : std::min(row.fused_seconds, elapsed);
  }
  PrintFusedRow(row);
  return row;
}

/// Same comparison for the Q-gram merge-count filter of a PS2 searcher
/// (QgramKnnSearcher::MatchCounts): unfused counts each member as a group
/// of one (each member streams every posting slice), fused counts the
/// whole group id-major, so each slice is streamed once while cache-hot.
FusedKernelRow MeasureFusedQgram(const QgramKnnSearcher& searcher,
                                 const std::vector<Trajectory>& group,
                                 size_t passes, size_t repeats) {
  FusedKernelRow row;
  row.kernel = "qgram_merge_count_2d";
  row.group = group.size();
  row.repeats = repeats;

  std::vector<const Trajectory*> members;
  for (const Trajectory& t : group) members.push_back(&t);
  std::vector<std::vector<size_t>> unfused(group.size());
  std::vector<std::vector<size_t>> fused;

  for (size_t f = 0; f < members.size(); ++f) {
    unfused[f] = std::move(searcher.MatchCounts({members[f]})[0]);
  }
  fused = searcher.MatchCounts(members);
  row.identical = unfused == fused;

  for (size_t pass = 0; pass < passes; ++pass) {
    const auto start = std::chrono::steady_clock::now();
    for (size_t r = 0; r < repeats; ++r) {
      for (size_t f = 0; f < members.size(); ++f) {
        unfused[f] = std::move(searcher.MatchCounts({members[f]})[0]);
      }
    }
    const double elapsed = SecondsSince(start);
    row.unfused_seconds =
        pass == 0 ? elapsed : std::min(row.unfused_seconds, elapsed);
  }
  for (size_t pass = 0; pass < passes; ++pass) {
    const auto start = std::chrono::steady_clock::now();
    for (size_t r = 0; r < repeats; ++r) fused = searcher.MatchCounts(members);
    const double elapsed = SecondsSince(start);
    row.fused_seconds =
        pass == 0 ? elapsed : std::min(row.fused_seconds, elapsed);
  }
  PrintFusedRow(row);
  return row;
}

struct FusedBatchRow {
  std::string method;
  double unfused_seconds = 0.0;  ///< RunScheduled, max_fusion = 1, best pass
  double fused_seconds = 0.0;    ///< RunScheduled, default policy, best pass
  SchedulerStats stats;          ///< stats of the fused run
  bool identical = true;
};

/// End-to-end scheduled batch with fusion on (default policy) versus
/// forced off (max_fusion = 1), certified against each other and the
/// sequential loop. `stats.fused_groups > 0` is the "fused path selected"
/// assertion the CI smoke leg checks.
FusedBatchRow MeasureFusedBatch(const NamedSearcher& searcher,
                                const std::vector<Trajectory>& queries,
                                size_t k, ThreadPool& pool, size_t passes) {
  FusedBatchRow row;
  row.method = searcher.name;

  std::vector<KnnResult> reference;
  reference.reserve(queries.size());
  for (const Trajectory& q : queries) {
    reference.push_back(searcher.search(q, k));
  }

  SchedulerPolicy unfused_policy;
  unfused_policy.max_fusion = 1;
  SchedulerPolicy fused_policy;
  for (size_t pass = 0; pass < passes; ++pass) {
    auto start = std::chrono::steady_clock::now();
    const std::vector<KnnResult> unfused = RunScheduled(
        searcher, queries, k, unfused_policy, &pool, nullptr, nullptr);
    const double unfused_elapsed = SecondsSince(start);
    row.unfused_seconds = pass == 0
                              ? unfused_elapsed
                              : std::min(row.unfused_seconds, unfused_elapsed);

    SchedulerStats stats;
    start = std::chrono::steady_clock::now();
    const std::vector<KnnResult> fused = RunScheduled(
        searcher, queries, k, fused_policy, &pool, nullptr, &stats);
    const double fused_elapsed = SecondsSince(start);
    if (pass == 0 || fused_elapsed < row.fused_seconds) {
      row.fused_seconds = fused_elapsed;
      row.stats = stats;
    }
    for (size_t i = 0; i < queries.size(); ++i) {
      row.identical = row.identical && SameNeighbors(reference[i], unfused[i]) &&
                      SameNeighbors(reference[i], fused[i]);
    }
  }
  std::fprintf(stderr,
               "%-22s unfused=%.3fms fused=%.3fms groups=%zu "
               "fused_queries=%zu identical=%s\n",
               row.method.c_str(), row.unfused_seconds * 1e3,
               row.fused_seconds * 1e3, row.stats.fused_groups,
               row.stats.fused_queries, row.identical ? "yes" : "NO");
  return row;
}

struct PlanCacheRow {
  std::string method;
  double cold_seconds = 0.0;  ///< empty cache: every group builds its plan
  double warm_seconds = 0.0;  ///< repeat workload: plans served, best pass
  FusedPlanCache::Stats cold_stats;
  FusedPlanCache::Stats warm_stats;
  bool identical = true;
};

/// Fused-plan cache, cold versus warm, through the production RunScheduled
/// path: the cold pass builds one plan per fusion group, the warm passes
/// replay the identical workload and must serve every plan from the cache.
PlanCacheRow MeasurePlanCache(const NamedSearcher& searcher,
                              const std::vector<Trajectory>& queries, size_t k,
                              ThreadPool& pool, size_t passes) {
  PlanCacheRow row;
  row.method = searcher.name;

  std::vector<KnnResult> reference;
  reference.reserve(queries.size());
  for (const Trajectory& q : queries) {
    reference.push_back(searcher.search(q, k));
  }

  FusedPlanCache plan_cache(64);
  SchedulerPolicy policy;
  for (size_t pass = 0; pass < passes; ++pass) {
    plan_cache.Clear();
    const auto start = std::chrono::steady_clock::now();
    const std::vector<KnnResult> cold =
        RunScheduled(searcher, queries, k, policy, &pool, nullptr, nullptr,
                     &plan_cache);
    const double elapsed = SecondsSince(start);
    row.cold_seconds = pass == 0 ? elapsed : std::min(row.cold_seconds, elapsed);
    for (size_t i = 0; i < queries.size(); ++i) {
      row.identical = row.identical && SameNeighbors(reference[i], cold[i]);
    }
  }
  row.cold_stats = plan_cache.stats();
  for (size_t pass = 0; pass < passes; ++pass) {
    const auto start = std::chrono::steady_clock::now();
    const std::vector<KnnResult> warm =
        RunScheduled(searcher, queries, k, policy, &pool, nullptr, nullptr,
                     &plan_cache);
    const double elapsed = SecondsSince(start);
    row.warm_seconds = pass == 0 ? elapsed : std::min(row.warm_seconds, elapsed);
    for (size_t i = 0; i < queries.size(); ++i) {
      row.identical = row.identical && SameNeighbors(reference[i], warm[i]);
    }
  }
  row.warm_stats = plan_cache.stats();
  std::fprintf(stderr,
               "%-22s plan cold=%.3fms warm=%.3fms hits=%llu->%llu "
               "misses=%llu identical=%s\n",
               row.method.c_str(), row.cold_seconds * 1e3,
               row.warm_seconds * 1e3,
               static_cast<unsigned long long>(row.cold_stats.hits),
               static_cast<unsigned long long>(row.warm_stats.hits),
               static_cast<unsigned long long>(row.warm_stats.misses),
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

  // Fused filter throughput: one fusion group of near-duplicate queries
  // (the workload the fused sweep targets) against the raw filter tables,
  // plus the scheduled batch with fusion on versus forced off. The kernel
  // rows keep a database long enough to amortize the fused plan build even
  // under --smoke: the saving is a database-streaming effect, and a
  // 300-trajectory pass would measure per-call setup instead of streaming.
  const size_t fused_passes = smoke ? 3 : 5;
  const size_t fused_repeats = smoke ? 10 : 20;
  const size_t fused_db_size = smoke ? 6000 : db_size;
  TrajectoryDataset fused_db_storage;
  const TrajectoryDataset* fused_db = &db;
  if (fused_db_size != db_size) {
    RandomWalkOptions fused_walks = walk_options;
    fused_walks.count = fused_db_size;
    fused_db_storage = GenRandomWalk(fused_walks);
    fused_db = &fused_db_storage;
  }
  const std::vector<Trajectory> fused_group =
      JitterGroup((*fused_db)[fused_db->size() / 2], kMaxFusionGroup);
  std::vector<Trajectory> fused_batch;
  for (size_t rep = 0; rep < 4; ++rep) {
    for (const Trajectory& q : fused_group) fused_batch.push_back(q);
  }

  std::string fused_body;
  {
    const HistogramTable hist_table(*fused_db, kEps,
                                    HistogramTable::Kind::k2D, 1);
    const QgramKnnSearcher ps2(*fused_db, kEps, /*q=*/1,
                               QgramVariant::kMerge2D);
    const FusedKernelRow kernel_rows[] = {
        MeasureFusedHistogram(hist_table, fused_group, fused_passes,
                              fused_repeats),
        MeasureFusedQgram(ps2, fused_group, fused_passes, fused_repeats),
    };
    for (const FusedKernelRow& f : kernel_rows) {
      all_identical = all_identical && f.identical;
      std::snprintf(
          buf, sizeof(buf),
          "    {\"kernel\": \"%s\", \"db_size\": %zu, \"group\": %zu, "
          "\"repeats\": %zu, \"unfused_ms\": %.3f, \"fused_ms\": %.3f, "
          "\"fused_speedup\": %.2f, \"identical\": %s},\n",
          f.kernel.c_str(), fused_db->size(), f.group, f.repeats,
          f.unfused_seconds * 1e3, f.fused_seconds * 1e3,
          f.fused_seconds > 0.0 ? f.unfused_seconds / f.fused_seconds : 0.0,
          f.identical ? "true" : "false");
      fused_body += buf;
    }

    const FusedBatchRow b =
        MeasureFusedBatch(searchers[0], fused_batch, k, pool, fused_passes);
    all_identical = all_identical && b.identical;
    std::snprintf(
        buf, sizeof(buf),
        "    {\"kernel\": \"scheduler_batch\", \"method\": \"%s\", "
        "\"batch\": %zu, \"unfused_ms\": %.3f, \"fused_ms\": %.3f, "
        "\"fused_speedup\": %.2f, \"fused_groups\": %zu, "
        "\"fused_queries\": %zu, \"fused_selected\": %s, "
        "\"identical\": %s}\n",
        b.method.c_str(), fused_batch.size(), b.unfused_seconds * 1e3,
        b.fused_seconds * 1e3,
        b.fused_seconds > 0.0 ? b.unfused_seconds / b.fused_seconds : 0.0,
        b.stats.fused_groups, b.stats.fused_queries,
        b.stats.fused_groups > 0 ? "true" : "false",
        b.identical ? "true" : "false");
    fused_body += buf;
  }

  // The fused-plan cache replaying one workload cold and warm: four jitter
  // families interleaved round-robin.
  const size_t plan_clusters = 4;
  std::vector<Trajectory> clustered;
  {
    std::vector<std::vector<Trajectory>> families;
    for (size_t c = 0; c < plan_clusters; ++c) {
      families.push_back(JitterGroup(db[(c * db.size()) / plan_clusters],
                                     kMaxFusionGroup));
    }
    for (size_t j = 0; j < kMaxFusionGroup; ++j) {
      for (size_t c = 0; c < plan_clusters; ++c) {
        clustered.push_back(families[c][j]);
      }
    }
  }

  const PlanCacheRow p =
      MeasurePlanCache(searchers[0], clustered, k, pool, fused_passes);
  all_identical = all_identical && p.identical;
  const uint64_t warm_hits = p.warm_stats.hits - p.cold_stats.hits;
  const bool plan_warm_hit = warm_hits > 0;
  std::snprintf(
      buf, sizeof(buf),
      "    {\"kernel\": \"plan_cache\", \"method\": \"%s\", \"batch\": %zu, "
      "\"plan_cold_ms\": %.3f, \"plan_warm_ms\": %.3f, "
      "\"plan_warm_faster\": %s, \"plan_cold_hits\": %llu, "
      "\"plan_cold_misses\": %llu, \"plan_warm_hits\": %llu, "
      "\"plan_warm_hit\": %s, \"plan_collisions\": %llu, "
      "\"identical\": %s}\n",
      p.method.c_str(), clustered.size(), p.cold_seconds * 1e3,
      p.warm_seconds * 1e3,
      p.warm_seconds < p.cold_seconds ? "true" : "false",
      static_cast<unsigned long long>(p.cold_stats.hits),
      static_cast<unsigned long long>(p.cold_stats.misses),
      static_cast<unsigned long long>(warm_hits),
      plan_warm_hit ? "true" : "false",
      static_cast<unsigned long long>(p.warm_stats.collisions),
      p.identical ? "true" : "false");
  const std::string plan_body = buf;

  std::fprintf(out,
               "{\n  \"bench\": \"scheduler\",\n  \"smoke\": %s,\n"
               "  \"db_size\": %zu,\n  \"queries\": %zu,\n  \"k\": %zu,\n"
               "  \"epsilon\": %.3f,\n",
               smoke ? "true" : "false", db.size(), queries.size(), k, kEps);
  bench::FprintHostJson(out);
  std::fprintf(out,
               "  \"scheduler\": [\n%s  ],\n"
               "  \"cache\": [\n%s  ],\n"
               "  \"fused\": [\n%s  ],\n"
               "  \"plan_cache\": [\n%s  ],\n"
               "  \"identical\": %s\n}\n",
               sched_body.c_str(), cache_body.c_str(), fused_body.c_str(),
               plan_body.c_str(), all_identical ? "true" : "false");
  if (out != stdout) std::fclose(out);
  // The warm pass replays the cold pass's groups, so it must hit; a miss
  // fails the bench just like a bit-identity violation would.
  return all_identical && plan_warm_hit ? 0 : 1;
}
