// Filter-path microbench: the vectorized whole-database lower-bound sweep
// against the per-row bound loop it replaced, on a 10k-trajectory random
// walk database; the adaptive column-storage layouts against the all-dense
// baseline on a coarse and a fine (delta = 1-class) grid; the sweep on the
// benchmark ledger's NHL-like table, certified against the bound's
// definition; and the flat Q-gram posting-array counting pass next to the
// early-decided check the combined searcher runs instead.
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
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/rng.h"
#include "core/trajectory.h"
#include "core/normalize.h"
#include "data/generators.h"
#include "data/noise.h"
#include "distance/edr_kernel.h"
#include "pruning/histogram.h"
#include "pruning/qgram.h"

namespace edr {
namespace {

double g_min_seconds = 0.2;

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

/// One adaptive-vs-dense comparison: a histogram configuration (grid
/// resolution) measured for memory and sweep throughput in both layouts.
struct LayoutRow {
  const char* grid = "";
  size_t bins = 0;
  HistogramStorageStats stats;      // of the adaptive table
  double sweep_adaptive_s = 0.0;
  double sweep_dense_s = -1.0;      // < 0: dense table infeasible, skipped
  bool identical = true;
};

/// The sweep on the ledger's NHL-like 2HPN table (2-D, delta = 1, the
/// dataset's suggested epsilon), with the sizes of both column stores.
struct LedgerRow {
  size_t db_size = 0;
  size_t queries = 0;
  double epsilon = 0.0;
  size_t bins = 0;
  double build_s = 0.0;
  double sweep_s = 0.0;  ///< per query
  HistogramStorageStats stats;
  bool identical = true;  ///< every bound equals the definition
};

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
  return row;
}

/// Building the all-dense table allocates stats.dense_equivalent_bytes in
/// one block; cap what the bench will actually try (the fine grid's dense
/// block is tens of GB at full scale — that infeasibility is the point).
constexpr size_t kDenseFeasibleBytes = size_t{512} << 20;

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
    std::vector<int> scalar;
    row.sweep_scalar_s = SecondsPerCall([&] {
      for (const auto& qh : qhs) table.FastLowerBoundSweepScalar(qh, &scalar);
    });

    // Certify equivalence on every query: sweep == scalar sweep == per-row.
    for (const auto& qh : qhs) {
      table.FastLowerBoundSweep(qh, &sweep);
      table.FastLowerBoundSweepScalar(qh, &scalar);
      for (uint32_t id = 0; id < db.size(); ++id) {
        if (sweep[id] != table.FastLowerBound(qh, id) ||
            scalar[id] != sweep[id]) {
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

  // --- Adaptive column layouts vs the all-dense block, coarse and fine
  // grids. The fine grid is the delta = 1-class configuration the adaptive
  // layout exists for: a tiny epsilon clamps to the ~512-bins-per-dimension
  // cap, where the dense block costs bins * n * 4 bytes (GBs at full
  // scale) while the columns are overwhelmingly sparse.
  std::vector<LayoutRow> layout_rows;
  for (const bool fine : {false, true}) {
    const double eps = fine ? kEps / 4096.0 : kEps;
    const HistogramTable adaptive(db, eps, HistogramTable::Kind::k2D, 1,
                                  HistogramLayout::kAdaptive);
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

    if (row.stats.dense_equivalent_bytes <= kDenseFeasibleBytes) {
      const HistogramTable dense(db, eps, HistogramTable::Kind::k2D, 1,
                                 HistogramLayout::kDense);
      std::vector<int> d_bounds;
      row.sweep_dense_s = SecondsPerCall([&] {
        for (const auto& qh : qhs) dense.FastLowerBoundSweep(qh, &d_bounds);
      });
      // Bit-identical bounds across layouts, every query, every id.
      for (const auto& qh : qhs) {
        adaptive.FastLowerBoundSweep(qh, &a_bounds);
        dense.FastLowerBoundSweep(qh, &d_bounds);
        if (a_bounds != d_bounds) row.identical = false;
      }
    } else {
      // Dense block infeasible here; certify adaptive against the per-row
      // bound of the same table instead.
      for (const auto& qh : qhs) {
        adaptive.FastLowerBoundSweep(qh, &a_bounds);
        for (uint32_t id = 0; id < db.size(); ++id) {
          if (a_bounds[id] != adaptive.FastLowerBound(qh, id)) {
            row.identical = false;
          }
        }
      }
    }
    all_identical = all_identical && row.identical;
    std::fprintf(
        stderr,
        "layout[%s]: bins=%zu raw cols(d/b/s/e)=%zu/%zu/%zu/%zu "
        "bytes=%.1fMB dense_equiv=%.1fMB (%.1fx) sweep=%.3fms dense=%s "
        "identical=%s\n",
        row.grid, row.bins, row.stats.raw.dense_columns,
        row.stats.raw.bitmap_columns, row.stats.raw.sparse_columns,
        row.stats.raw.empty_columns, row.stats.column_bytes / 1048576.0,
        row.stats.dense_equivalent_bytes / 1048576.0,
        static_cast<double>(row.stats.dense_equivalent_bytes) /
            static_cast<double>(row.stats.column_bytes),
        row.sweep_adaptive_s * 1e3,
        row.sweep_dense_s < 0
            ? "skipped"
            : (std::to_string(row.sweep_dense_s * 1e3) + "ms").c_str(),
        row.identical ? "yes" : "NO");
    layout_rows.push_back(row);
  }

  // --- The ledger's NHL-like table: 20000 rows of length 30-256 (2000 of
  // length 30-96 in the smoke run).
  const LedgerRow ledger = smoke ? MeasureLedgerNhl(2000, 96, 4)
                                 : MeasureLedgerNhl(20000, 256, 16);
  all_identical = all_identical && ledger.identical;
  std::fprintf(stderr,
               "ledger nhl: n=%zu bins=%zu build=%.3fs sweep=%.3fms/query "
               "raw=%.1fMB (d/b/s %zu/%zu/%zu) ns=%.1fMB (d/b/s %zu/%zu/%zu) "
               "identical=%s\n",
               ledger.db_size, ledger.bins, ledger.build_s,
               ledger.sweep_s * 1e3, ledger.stats.raw.bytes / 1048576.0,
               ledger.stats.raw.dense_columns, ledger.stats.raw.bitmap_columns,
               ledger.stats.raw.sparse_columns,
               ledger.stats.ns.bytes / 1048576.0,
               ledger.stats.ns.dense_columns, ledger.stats.ns.bitmap_columns,
               ledger.stats.ns.sparse_columns,
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
                 "\"dense_columns\": %zu, \"bitmap_columns\": %zu, "
                 "\"sparse_columns\": %zu, \"empty_columns\": %zu,\n"
                 "     \"ns_dense_columns\": %zu, "
                 "\"ns_bitmap_columns\": %zu, \"ns_sparse_columns\": %zu, "
                 "\"ns_empty_columns\": %zu,\n"
                 "     \"raw_bytes\": %zu, \"ns_bytes\": %zu, "
                 "\"adaptive_bytes\": %zu, \"dense_bytes\": %zu, "
                 "\"memory_reduction\": %.2f,\n"
                 "     \"sweep_adaptive_ms\": %.3f, ",
                 r.grid, r.bins, r.stats.raw.dense_columns,
                 r.stats.raw.bitmap_columns, r.stats.raw.sparse_columns,
                 r.stats.raw.empty_columns, r.stats.ns.dense_columns,
                 r.stats.ns.bitmap_columns, r.stats.ns.sparse_columns,
                 r.stats.ns.empty_columns, r.stats.raw.bytes,
                 r.stats.ns.bytes, r.stats.column_bytes,
                 r.stats.dense_equivalent_bytes,
                 static_cast<double>(r.stats.dense_equivalent_bytes) /
                     static_cast<double>(r.stats.column_bytes),
                 r.sweep_adaptive_s * 1e3);
    // A grid whose dense block was infeasible has no dense keys at all
    // (rather than nulls), so a smoke run, where every dense block fits,
    // only adds keys to a full-scale baseline and never retypes one.
    if (r.sweep_dense_s >= 0) {
      std::fprintf(out,
                   "\"sweep_dense_ms\": %.3f, \"adaptive_vs_dense\": %.3f, ",
                   r.sweep_dense_s * 1e3,
                   r.sweep_dense_s / r.sweep_adaptive_s);
    }
    std::fprintf(out, "\"identical\": %s}%s\n", r.identical ? "true" : "false",
                 i + 1 < layout_rows.size() ? "," : "");
  }
  std::fprintf(
      out,
      "  ],\n  \"ledger_nhl\": {\"db_size\": %zu, \"queries\": %zu, "
      "\"epsilon\": %.6f, \"bins\": %zu,\n"
      "    \"build_s\": %.3f, \"sweep_ms_per_query\": %.3f,\n"
      "    \"raw_bytes\": %zu, \"raw_dense_columns\": %zu, "
      "\"raw_bitmap_columns\": %zu, \"raw_sparse_columns\": %zu,\n"
      "    \"ns_bytes\": %zu, \"ns_dense_columns\": %zu, "
      "\"ns_bitmap_columns\": %zu, \"ns_sparse_columns\": %zu,\n"
      "    \"identical\": %s},\n",
      ledger.db_size, ledger.queries, ledger.epsilon, ledger.bins,
      ledger.build_s, ledger.sweep_s * 1e3, ledger.stats.raw.bytes,
      ledger.stats.raw.dense_columns, ledger.stats.raw.bitmap_columns,
      ledger.stats.raw.sparse_columns, ledger.stats.ns.bytes,
      ledger.stats.ns.dense_columns, ledger.stats.ns.bitmap_columns,
      ledger.stats.ns.sparse_columns, ledger.identical ? "true" : "false");
  std::fprintf(out,
               "  \"qgram_flat_count_ms\": %.3f,\n"
               "  \"qgram_decide_ms\": %.3f,\n"
               "  \"identical\": %s\n}\n",
               qgram_count_s * 1e3, qgram_decide_s * 1e3,
               all_identical ? "true" : "false");
  if (out != stdout) std::fclose(out);
  return all_identical ? 0 : 1;
}
