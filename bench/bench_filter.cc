// Filter-path microbench: the vectorized whole-database lower-bound sweep
// (at the active kernel level and pinned to scalar) against the per-row
// bound loop it replaced, on a 10k-trajectory random walk database; the
// column stores' layout census, memory and sweep time on a coarse and a
// fine (delta = 1-class) grid; the sweep on the benchmark ledger's
// NHL-like table, certified against the bound's definition, and pinned to
// each kernel dispatch level next to the Q-gram check on the same data;
// the blocks the 2HP sorted scan sweeps there (its length window) and
// their time, certified against a full-sweep scan; and the flat Q-gram
// posting-array counting pass next to the early-decided check the
// combined searcher runs instead.
//
// Emits JSON (stdout, or the file named by argv[1]):
//
//   ./bench/bench_filter BENCH_filter.json
//   ./bench/bench_filter --smoke        # seconds-scale CI contract check
//
// Numbers are machine-dependent; treat the committed BENCH_filter.json as
// a same-machine baseline for *ratios* (speedups, memory reductions), not
// absolute times.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <vector>

#include "bench_util.h"
#include "core/cpu.h"
#include "core/rng.h"
#include "core/trajectory.h"
#include "core/normalize.h"
#include "data/generators.h"
#include "data/noise.h"
#include "distance/edr_kernel.h"
#include "obs/trace.h"
#include "pruning/combined.h"
#include "pruning/histogram.h"
#include "pruning/qgram.h"
#include "query/topk.h"

namespace edr {
namespace {

double g_min_seconds = 0.2;

/// Every dispatch level, whether or not this host runs it, so the JSON
/// keeps one row per level on every host.
constexpr KernelLevel kLevels[] = {KernelLevel::kScalar, KernelLevel::kSse2,
                                   KernelLevel::kAvx2, KernelLevel::kAvx512};

double SecondsPerCall(const std::function<void()>& fn, int min_iters = 3) {
  fn();  // Warm-up sizes scratch and faults the tables in.
  int iters = min_iters;
  for (;;) {
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) fn();
    const auto stop = std::chrono::steady_clock::now();
    const double secs = std::chrono::duration<double>(stop - start).count();
    if (secs >= g_min_seconds || iters >= (1 << 20)) return secs / iters;
    iters *= 4;
  }
}

struct SweepRow {
  const char* kind = "";
  double per_row_s = 0.0;
  double sweep_scalar_s = 0.0;
  double sweep_simd_s = 0.0;
  bool identical = true;
};

/// One histogram configuration (grid resolution) measured for memory
/// against all-dense stores, and for sweep throughput.
struct LayoutRow {
  const char* grid = "";
  size_t bins = 0;
  HistogramStorageStats stats;
  double sweep_adaptive_s = 0.0;
  bool identical = true;
};

/// One kernel dispatch level on the ledger's NHL-like data, per query
/// (median of rounds): the 2-D and 1-D histogram sweeps and the combined
/// searcher's Q-gram check (AtLeastMatches2D at each row's Theorem 1
/// threshold). Unsupported levels keep their row with zero timings.
struct LevelRow {
  KernelLevel level = KernelLevel::kScalar;
  bool supported = false;
  double sweep_2d_s = 0.0;
  double sweep_1d_s = 0.0;
  double decide_s = 0.0;
  bool identical = true;  ///< every output equals the scalar level's
};

/// The sweep on the ledger's NHL-like 2HP table (2-D, delta = 1, the
/// dataset's suggested epsilon), with the sizes of both column stores.
struct LedgerRow {
  size_t db_size = 0;
  size_t queries = 0;
  double epsilon = 0.0;
  size_t bins = 0;
  double build_s = 0.0;
  double sweep_s = 0.0;  ///< per query
  /// The 2HP sorted scan at k = 20 (traced): blocks it swept and their
  /// time, per query; zero in EDR_DISABLE_OBS builds, which keep no trace.
  double windowed_blocks = 0.0;
  double windowed_sweep_s = 0.0;
  HistogramStorageStats stats;
  /// Every bound equals the definition, and every level's outputs equal
  /// the scalar level's.
  bool identical = true;
  std::vector<LevelRow> levels;
};

/// Every kernel level's row on the ledger data. Each level's sweeps and
/// decisions are certified equal to the scalar level's, which comes first.
std::vector<LevelRow> MeasureLevels(
    const TrajectoryDataset& db, const std::vector<Trajectory>& queries,
    const HistogramTable& table_2d, double epsilon) {
  const HistogramTable table_1d(db, epsilon, HistogramTable::Kind::k1D, 1);
  const QgramMeansTable means_table(db, /*q=*/1, /*dims=*/2);
  // Thresholds at each query's exact k-th distance (k = 20), as main's
  // decision pass on the random walks sets them; ids whose threshold is
  // <= 0 are skipped, as the combined searcher skips them.
  std::vector<HistogramTable::QueryHistogram> qh_2d;
  std::vector<HistogramTable::QueryHistogram> qh_1d;
  std::vector<std::vector<Point2>> query_means;
  std::vector<std::vector<long>> thresholds;
  EdrScratch scratch;
  for (const Trajectory& q : queries) {
    qh_2d.push_back(table_2d.MakeQueryHistogram(q));
    qh_1d.push_back(table_1d.MakeQueryHistogram(q));
    std::vector<Point2> means = MeanValueQgrams(q, 1);
    SortMeans(means);
    query_means.push_back(std::move(means));
    std::vector<int> dists(db.size());
    for (uint32_t id = 0; id < db.size(); ++id) {
      dists[id] = EdrDistanceBitParallel(q, db[id], epsilon, scratch);
    }
    constexpr size_t kK = 20;
    std::nth_element(dists.begin(), dists.begin() + (kK - 1), dists.end());
    std::vector<long>& th = thresholds.emplace_back(db.size());
    for (uint32_t id = 0; id < db.size(); ++id) {
      th[id] = QgramCountThreshold(q.size(), db[id].size(), 1, dists[kK - 1]);
    }
  }
  const double per_query = 1.0 / static_cast<double>(queries.size());
  const auto decide = [&](size_t f, std::vector<uint8_t>* out) {
    out->resize(db.size());
    for (uint32_t id = 0; id < db.size(); ++id) {
      const long th = thresholds[f][id];
      (*out)[id] = th <= 0 || means_table.AtLeastMatches2D(
                                  query_means[f], epsilon, id,
                                  static_cast<size_t>(th));
    }
  };

  /// Every query's outputs at one level.
  struct Outputs {
    std::vector<std::vector<int>> sweep_2d, sweep_1d;
    std::vector<std::vector<uint8_t>> decided;
    bool operator==(const Outputs&) const = default;
  };
  std::vector<LevelRow> rows;
  Outputs scalar;  // kLevels starts with kScalar
  for (const KernelLevel level : kLevels) {
    LevelRow& row = rows.emplace_back();
    row.level = level;
    row.supported = SetActiveKernelLevel(level);
    if (!row.supported) continue;
    Outputs o;
    o.sweep_2d.resize(queries.size());
    o.sweep_1d.resize(queries.size());
    o.decided.resize(queries.size());
    for (size_t f = 0; f < queries.size(); ++f) {
      table_2d.FastLowerBoundSweep(qh_2d[f], &o.sweep_2d[f]);
      table_1d.FastLowerBoundSweep(qh_1d[f], &o.sweep_1d[f]);
      decide(f, &o.decided[f]);
    }
    if (level == KernelLevel::kScalar) scalar = o;
    row.identical = o == scalar;
  }

  // The timings rotate through the levels in rounds, so the host's slow
  // drift lands on every level alike; each row reports its median round.
  constexpr size_t kRounds = 5;
  std::vector<std::vector<double>> sweep_2d(rows.size()), sweep_1d(rows.size()),
      decide_s(rows.size());
  std::vector<int> bounds;
  std::vector<uint8_t> decided;
  for (size_t round = 0; round < kRounds; ++round) {
    for (size_t i = 0; i < rows.size(); ++i) {
      if (!rows[i].supported) continue;
      SetActiveKernelLevel(rows[i].level);
      sweep_2d[i].push_back(SecondsPerCall([&] {
        for (const auto& qh : qh_2d) table_2d.FastLowerBoundSweep(qh, &bounds);
      }));
      sweep_1d[i].push_back(SecondsPerCall([&] {
        for (const auto& qh : qh_1d) table_1d.FastLowerBoundSweep(qh, &bounds);
      }));
      decide_s[i].push_back(SecondsPerCall([&] {
        for (size_t f = 0; f < queries.size(); ++f) decide(f, &decided);
      }));
    }
  }
  const auto median = [per_query](std::vector<double>& v) {
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    return per_query * v[v.size() / 2];
  };
  for (size_t i = 0; i < rows.size(); ++i) {
    LevelRow& row = rows[i];
    if (!row.supported) continue;
    row.sweep_2d_s = median(sweep_2d[i]);
    row.sweep_1d_s = median(sweep_1d[i]);
    row.decide_s = median(decide_s[i]);
    std::fprintf(stderr,
                 "ledger nhl level=%s: sweep 2D %.3fms 1D %.3fms, "
                 "qgram decide %.3fms per query identical=%s\n",
                 KernelLevelName(row.level), row.sweep_2d_s * 1e3,
                 row.sweep_1d_s * 1e3, row.decide_s * 1e3,
                 row.identical ? "yes" : "NO");
  }
  ResetActiveKernelLevel();
  return rows;
}

/// The 2HP sorted scan at k = 20 against the scan it replaced: every bound
/// from the full sweep (`bounds`), the order from CanonicalOrder, and the
/// histogram then Q-gram filters on one slot. Records the blocks the
/// searcher swept and their time per query (from its trace, over a few
/// passes), and clears row->identical unless the answers and DP counts
/// agree.
void MeasureWindow(const TrajectoryDataset& db,
                   const std::vector<Trajectory>& queries,
                   const std::vector<std::vector<int>>& bounds,
                   double epsilon, LedgerRow* row) {
  constexpr size_t kK = 20;
  const CombinedKnnSearcher combined(db, epsilon, CombinedOptions{});
  const QgramMeansTable means(db, /*q=*/1, /*dims=*/2);
  EdrScratch scratch;
  for (size_t q = 0; q < queries.size(); ++q) {
    const Trajectory& query = queries[q];
    const std::vector<int>& b = bounds[q];
    const std::vector<uint32_t> order =
        CanonicalOrder(db.size(), [&b](uint32_t id) { return b[id]; });
    std::vector<Point2> query_means = MeanValueQgrams(query, 1);
    SortMeans(query_means);
    BoundedTopK top(kK);
    size_t computed = 0;
    for (size_t rank = 0; rank < order.size(); ++rank) {
      const uint32_t id = order[rank];
      const double threshold = top.Threshold();
      if (static_cast<double>(b[id]) > threshold) break;
      if (!std::isinf(threshold)) {
        const long count = QgramCountThreshold(
            query.size(), db[id].size(), 1, static_cast<long>(threshold));
        if (count > 0 && !means.AtLeastMatches2D(query_means, epsilon, id,
                                                 static_cast<size_t>(count))) {
          continue;
        }
      }
      const int d = EdrDistanceBitParallel(query, db[id], epsilon, scratch);
      ++computed;
      if (d <= EdrBoundFromKthDistance(threshold)) {
        top.Offer(id, static_cast<double>(d), rank);
      }
    }
    const KnnResult r = combined.Knn(query, kK);
    if (r.neighbors != std::move(top).TakeSortedNeighbors() ||
        r.stats.edr_computed != computed) {
      row->identical = false;
    }
  }
  const int passes = g_min_seconds < 0.1 ? 1 : 5;
  uint64_t blocks = 0;
  double seconds = 0.0;
  for (int pass = 0; pass < passes; ++pass) {
    for (const Trajectory& query : queries) {
      const KnnResult r = combined.Knn(query, kK);
      if (r.trace == nullptr) continue;
      for (const QueryTrace::Node& node : r.trace->nodes()) {
        if (std::strcmp(node.name, "bound_sweep") == 0 && node.parent >= 0) {
          blocks += node.count;
          seconds += node.seconds;
        }
      }
    }
  }
  const double runs = static_cast<double>(passes * queries.size());
  row->windowed_blocks = static_cast<double>(blocks) / runs;
  row->windowed_sweep_s = seconds / runs;
}

/// Builds the table on GenNhlLike(count, 30, max_length, 19), normalized
/// as the ledger normalizes it, and sweeps locally time-shifted members.
LedgerRow MeasureLedgerNhl(size_t count, size_t max_length,
                           size_t num_queries) {
  TrajectoryDataset db = GenNhlLike(count, 30, max_length, 19);
  db.NormalizeAll();
  LedgerRow row;
  row.db_size = db.size();
  row.queries = num_queries;
  row.epsilon = db.SuggestedEpsilon();
  const auto start = std::chrono::steady_clock::now();
  const HistogramTable table(db, row.epsilon, HistogramTable::Kind::k2D, 1);
  row.build_s = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  row.bins = static_cast<size_t>(table.grid().NumBins2D());
  row.stats = table.storage_stats();

  Rng rng(0x51ED);
  std::vector<Trajectory> queries;
  std::vector<HistogramTable::QueryHistogram> qhs;
  for (size_t q = 0; q < num_queries; ++q) {
    Trajectory t = AddLocalTimeShifting(db[(q * 7919) % db.size()], {}, rng);
    NormalizeInPlace(t);
    qhs.push_back(table.MakeQueryHistogram(t));
    queries.push_back(std::move(t));
  }
  std::vector<int> sweep;
  const double per_call = SecondsPerCall([&] {
    for (const auto& qh : qhs) table.FastLowerBoundSweep(qh, &sweep);
  });
  row.sweep_s = per_call / static_cast<double>(num_queries);

  // Certify against the definition: dense histograms of the query and of
  // every row, through HistogramDistance2DFast.
  std::vector<std::vector<int>> bounds(qhs.size());
  for (size_t q = 0; q < qhs.size(); ++q) {
    table.FastLowerBoundSweep(qhs[q], &bounds[q]);
  }
  const HistogramGrid& grid = table.grid();
  std::vector<std::vector<int>> hq;
  for (const Trajectory& q : queries) hq.push_back(BuildHistogram2D(q, grid));
  for (uint32_t id = 0; id < db.size(); ++id) {
    const std::vector<int> hs = BuildHistogram2D(db[id], grid);
    for (size_t q = 0; q < queries.size(); ++q) {
      if (bounds[q][id] != HistogramDistance2DFast(hq[q], hs, grid)) {
        row.identical = false;
      }
    }
  }
  MeasureWindow(db, queries, bounds, row.epsilon, &row);
  row.levels = MeasureLevels(db, queries, table, row.epsilon);
  for (const LevelRow& level : row.levels) {
    row.identical = row.identical && level.identical;
  }
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
  if (smoke) g_min_seconds = 0.01;

  constexpr double kEps = 0.25;
  const size_t db_size = smoke ? 600 : 10000;
  const size_t num_queries = smoke ? 2 : 5;

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

  // --- Lower-bound sweep vs the per-row loop, both histogram kinds.
  bool all_identical = true;
  std::vector<SweepRow> rows;
  for (const HistogramTable::Kind kind :
       {HistogramTable::Kind::k2D, HistogramTable::Kind::k1D}) {
    const HistogramTable table(db, kEps, kind, 1);
    std::vector<HistogramTable::QueryHistogram> qhs;
    for (const Trajectory& q : queries) {
      qhs.push_back(table.MakeQueryHistogram(q));
    }

    SweepRow row;
    row.kind = kind == HistogramTable::Kind::k2D ? "2D" : "1D";
    std::vector<int> bounds(db.size());
    row.per_row_s = SecondsPerCall([&] {
      for (const auto& qh : qhs) {
        for (uint32_t id = 0; id < db.size(); ++id) {
          bounds[id] = table.FastLowerBound(qh, id);
        }
      }
    });
    std::vector<int> sweep;
    row.sweep_simd_s = SecondsPerCall([&] {
      for (const auto& qh : qhs) table.FastLowerBoundSweep(qh, &sweep);
    });
    // The scalar level, pinned as EDR_FORCE_KERNEL=scalar would pin it.
    std::vector<int> scalar;
    SetActiveKernelLevel(KernelLevel::kScalar);
    row.sweep_scalar_s = SecondsPerCall([&] {
      for (const auto& qh : qhs) table.FastLowerBoundSweep(qh, &scalar);
    });
    std::vector<std::vector<int>> scalar_bounds;
    for (const auto& qh : qhs) {
      table.FastLowerBoundSweep(qh, &scalar);
      scalar_bounds.push_back(scalar);
    }
    ResetActiveKernelLevel();

    // Certify equivalence on every query: sweep == scalar sweep == per-row.
    for (size_t q = 0; q < qhs.size(); ++q) {
      table.FastLowerBoundSweep(qhs[q], &sweep);
      for (uint32_t id = 0; id < db.size(); ++id) {
        if (sweep[id] != table.FastLowerBound(qhs[q], id) ||
            scalar_bounds[q][id] != sweep[id]) {
          row.identical = false;
        }
      }
    }
    all_identical = all_identical && row.identical;
    std::fprintf(stderr,
                 "%s: per_row=%.3fms sweep=%.3fms scalar=%.3fms "
                 "(simd %.2fx vs per-row) identical=%s\n",
                 row.kind, row.per_row_s * 1e3, row.sweep_simd_s * 1e3,
                 row.sweep_scalar_s * 1e3, row.per_row_s / row.sweep_simd_s,
                 row.identical ? "yes" : "NO");
    rows.push_back(row);
  }

  // --- Column layouts on coarse and fine grids. The fine grid is the
  // delta = 1-class configuration the sparse layouts exist for: a tiny
  // epsilon clamps to the ~512-bins-per-dimension cap, where all-dense
  // stores would cost bins * n * 4 bytes each (GBs at full scale) while
  // the columns are overwhelmingly sparse.
  std::vector<LayoutRow> layout_rows;
  for (const bool fine : {false, true}) {
    const double eps = fine ? kEps / 4096.0 : kEps;
    const HistogramTable adaptive(db, eps, HistogramTable::Kind::k2D, 1);
    LayoutRow row;
    row.grid = fine ? "fine" : "coarse";
    row.bins = static_cast<size_t>(adaptive.grid().NumBins2D());
    row.stats = adaptive.storage_stats();

    std::vector<HistogramTable::QueryHistogram> qhs;
    for (const Trajectory& q : queries) {
      qhs.push_back(adaptive.MakeQueryHistogram(q));
    }
    std::vector<int> a_bounds;
    row.sweep_adaptive_s = SecondsPerCall([&] {
      for (const auto& qh : qhs) adaptive.FastLowerBoundSweep(qh, &a_bounds);
    });
    // Certify the sweep against the per-row bound of the same table.
    for (const auto& qh : qhs) {
      adaptive.FastLowerBoundSweep(qh, &a_bounds);
      for (uint32_t id = 0; id < db.size(); ++id) {
        if (a_bounds[id] != adaptive.FastLowerBound(qh, id)) {
          row.identical = false;
        }
      }
    }
    all_identical = all_identical && row.identical;
    std::fprintf(
        stderr,
        "layout[%s]: bins=%zu raw cols(d/s/e)=%zu/%zu/%zu "
        "bytes=%.1fMB dense_equiv=%.1fMB (%.1fx) sweep=%.3fms "
        "identical=%s\n",
        row.grid, row.bins, row.stats.raw.dense_columns,
        row.stats.raw.sparse_columns, row.stats.raw.empty_columns,
        row.stats.column_bytes / 1048576.0,
        row.stats.dense_equivalent_bytes / 1048576.0,
        static_cast<double>(row.stats.dense_equivalent_bytes) /
            static_cast<double>(row.stats.column_bytes),
        row.sweep_adaptive_s * 1e3, row.identical ? "yes" : "NO");
    layout_rows.push_back(row);
  }

  // --- The ledger's NHL-like table: 20000 rows of length 30-256 (2000 of
  // length 30-96 in the smoke run).
  const LedgerRow ledger = smoke ? MeasureLedgerNhl(2000, 96, 4)
                                 : MeasureLedgerNhl(20000, 256, 16);
  all_identical = all_identical && ledger.identical;
  std::fprintf(stderr,
               "ledger nhl: n=%zu bins=%zu build=%.3fs sweep=%.3fms/query "
               "2HP window %.2f blocks %.3fms/query "
               "raw=%.1fMB (d/s %zu/%zu) ns=%.1fMB (d/s %zu/%zu) "
               "identical=%s\n",
               ledger.db_size, ledger.bins, ledger.build_s,
               ledger.sweep_s * 1e3, ledger.windowed_blocks,
               ledger.windowed_sweep_s * 1e3,
               ledger.stats.raw.bytes / 1048576.0,
               ledger.stats.raw.dense_columns, ledger.stats.raw.sparse_columns,
               ledger.stats.ns.bytes / 1048576.0,
               ledger.stats.ns.dense_columns, ledger.stats.ns.sparse_columns,
               ledger.identical ? "yes" : "NO");

  // --- Flat Q-gram posting arrays: the PS2-style counting pass, and the
  // combined searcher's early-decided check against the Theorem 1
  // threshold at each query's final k-th distance (k = 20); ids whose
  // threshold is <= 0 are skipped, as the searcher skips them.
  const QgramMeansTable means_table(db, /*q=*/1, /*dims=*/2);
  double qgram_count_s = 0.0;
  double qgram_decide_s = 0.0;
  {
    std::vector<size_t> counts(db.size());
    std::vector<std::vector<Point2>> query_means;
    std::vector<std::vector<long>> thresholds;
    EdrScratch scratch;
    for (const Trajectory& q : queries) {
      std::vector<Point2> means = MeanValueQgrams(q, 1);
      SortMeans(means);
      query_means.push_back(std::move(means));
      std::vector<int> dists(db.size());
      for (uint32_t id = 0; id < db.size(); ++id) {
        dists[id] = EdrDistanceBitParallel(q, db[id], kEps, scratch);
      }
      constexpr size_t kK = 20;
      std::nth_element(dists.begin(), dists.begin() + (kK - 1), dists.end());
      std::vector<long>& th = thresholds.emplace_back(db.size());
      for (uint32_t id = 0; id < db.size(); ++id) {
        th[id] = QgramCountThreshold(q.size(), db[id].size(), 1,
                                     dists[kK - 1]);
      }
    }
    qgram_count_s = SecondsPerCall([&] {
      for (const auto& qm : query_means) {
        for (uint32_t id = 0; id < db.size(); ++id) {
          counts[id] = means_table.CountMatches2D(qm, kEps, id);
        }
      }
    });
    std::vector<uint8_t> decided(db.size());
    qgram_decide_s = SecondsPerCall([&] {
      for (size_t f = 0; f < query_means.size(); ++f) {
        for (uint32_t id = 0; id < db.size(); ++id) {
          const long th = thresholds[f][id];
          decided[id] = th <= 0 || means_table.AtLeastMatches2D(
                                       query_means[f], kEps, id,
                                       static_cast<size_t>(th));
        }
      }
    });
    bool decide_identical = true;
    for (size_t f = 0; f < query_means.size(); ++f) {
      for (uint32_t id = 0; id < db.size(); ++id) {
        const long th = thresholds[f][id];
        if (th <= 0) continue;
        const size_t count =
            means_table.CountMatches2D(query_means[f], kEps, id);
        decide_identical =
            decide_identical &&
            means_table.AtLeastMatches2D(query_means[f], kEps, id,
                                         static_cast<size_t>(th)) ==
                (count >= static_cast<size_t>(th));
      }
    }
    all_identical = all_identical && decide_identical;
    std::fprintf(stderr,
                 "qgram flat count pass: %.3fms, decision pass: %.3fms per "
                 "%zu queries identical=%s\n",
                 qgram_count_s * 1e3, qgram_decide_s * 1e3, queries.size(),
                 decide_identical ? "yes" : "NO");
  }

  // --- JSON out.
  std::fprintf(out,
               "{\n  \"bench\": \"filter_path\",\n  \"smoke\": %s,\n"
               "  \"db_size\": %zu,\n"
               "  \"queries\": %zu,\n  \"epsilon\": %.3f,\n",
               smoke ? "true" : "false", db.size(), queries.size(), kEps);
  bench::FprintHostJson(out);
  std::fprintf(out, "  \"sweeps\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const SweepRow& r = rows[i];
    std::fprintf(out,
                 "    {\"kind\": \"%s\", \"per_row_ms\": %.3f, "
                 "\"sweep_simd_ms\": %.3f, \"sweep_scalar_ms\": %.3f, "
                 "\"speedup_sweep_vs_per_row\": %.2f, "
                 "\"speedup_simd_vs_scalar\": %.2f, \"identical\": %s}%s\n",
                 r.kind, r.per_row_s * 1e3, r.sweep_simd_s * 1e3,
                 r.sweep_scalar_s * 1e3, r.per_row_s / r.sweep_simd_s,
                 r.sweep_scalar_s / r.sweep_simd_s,
                 r.identical ? "true" : "false",
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n  \"layouts\": [\n");
  for (size_t i = 0; i < layout_rows.size(); ++i) {
    const LayoutRow& r = layout_rows[i];
    std::fprintf(out,
                 "    {\"grid\": \"%s\", \"bins\": %zu, "
                 "\"dense_columns\": %zu, "
                 "\"sparse_columns\": %zu, \"empty_columns\": %zu,\n"
                 "     \"ns_dense_columns\": %zu, "
                 "\"ns_sparse_columns\": %zu, "
                 "\"ns_empty_columns\": %zu,\n"
                 "     \"raw_bytes\": %zu, \"ns_bytes\": %zu, "
                 "\"adaptive_bytes\": %zu, \"dense_bytes\": %zu, "
                 "\"memory_reduction\": %.2f,\n"
                 "     \"sweep_adaptive_ms\": %.3f, \"identical\": %s}%s\n",
                 r.grid, r.bins, r.stats.raw.dense_columns,
                 r.stats.raw.sparse_columns, r.stats.raw.empty_columns,
                 r.stats.ns.dense_columns, r.stats.ns.sparse_columns,
                 r.stats.ns.empty_columns, r.stats.raw.bytes,
                 r.stats.ns.bytes, r.stats.column_bytes,
                 r.stats.dense_equivalent_bytes,
                 static_cast<double>(r.stats.dense_equivalent_bytes) /
                     static_cast<double>(r.stats.column_bytes),
                 r.sweep_adaptive_s * 1e3, r.identical ? "true" : "false",
                 i + 1 < layout_rows.size() ? "," : "");
  }
  std::fprintf(
      out,
      "  ],\n  \"ledger_nhl\": {\"db_size\": %zu, \"queries\": %zu, "
      "\"epsilon\": %.6f, \"bins\": %zu,\n"
      "    \"build_s\": %.3f, \"sweep_ms_per_query\": %.3f,\n"
      "    \"windowed_blocks_per_query\": %.3f, "
      "\"windowed_sweep_ms_per_query\": %.3f,\n"
      "    \"raw_bytes\": %zu, \"raw_dense_columns\": %zu, "
      "\"raw_sparse_columns\": %zu,\n"
      "    \"ns_bytes\": %zu, \"ns_dense_columns\": %zu, "
      "\"ns_sparse_columns\": %zu,\n"
      "    \"levels\": [\n",
      ledger.db_size, ledger.queries, ledger.epsilon, ledger.bins,
      ledger.build_s, ledger.sweep_s * 1e3, ledger.windowed_blocks,
      ledger.windowed_sweep_s * 1e3, ledger.stats.raw.bytes,
      ledger.stats.raw.dense_columns, ledger.stats.raw.sparse_columns,
      ledger.stats.ns.bytes, ledger.stats.ns.dense_columns,
      ledger.stats.ns.sparse_columns);
  const LevelRow& scalar = ledger.levels.front();
  const auto speedup = [](double base_s, double s) {
    return s > 0.0 ? base_s / s : 0.0;
  };
  for (size_t i = 0; i < ledger.levels.size(); ++i) {
    const LevelRow& r = ledger.levels[i];
    std::fprintf(
        out,
        "      {\"level\": \"%s\", \"supported\": %s, "
        "\"sweep_2d_ms_per_query\": %.4f, \"sweep_1d_ms_per_query\": %.4f, "
        "\"qgram_decide_ms_per_query\": %.4f,\n"
        "       \"sweep_2d_speedup_vs_scalar\": %.2f, "
        "\"sweep_1d_speedup_vs_scalar\": %.2f, "
        "\"qgram_decide_speedup_vs_scalar\": %.2f, \"identical\": %s}%s\n",
        KernelLevelName(r.level), r.supported ? "true" : "false",
        r.sweep_2d_s * 1e3, r.sweep_1d_s * 1e3, r.decide_s * 1e3,
        speedup(scalar.sweep_2d_s, r.sweep_2d_s),
        speedup(scalar.sweep_1d_s, r.sweep_1d_s),
        speedup(scalar.decide_s, r.decide_s), r.identical ? "true" : "false",
        i + 1 < ledger.levels.size() ? "," : "");
  }
  std::fprintf(out, "    ],\n    \"identical\": %s},\n",
               ledger.identical ? "true" : "false");
  std::fprintf(out,
               "  \"qgram_flat_count_ms\": %.3f,\n"
               "  \"qgram_decide_ms\": %.3f,\n"
               "  \"identical\": %s\n}\n",
               qgram_count_s * 1e3, qgram_decide_s * 1e3,
               all_identical ? "true" : "false");
  if (out != stdout) std::fclose(out);
  return all_identical ? 0 : 1;
}
