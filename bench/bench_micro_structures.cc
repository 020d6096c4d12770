// Microbenchmarks for the pruning substrates: R*-tree and B+-tree builds
// and probes, Q-gram extraction and merge-join counting, and histogram
// distance computation.

#include <benchmark/benchmark.h>

#include "core/rng.h"
#include "index/bplus_tree.h"
#include "index/rstar_tree.h"
#include "pruning/histogram.h"
#include "distance/erp.h"
#include "index/vp_tree.h"
#include "pruning/pruning3.h"
#include "pruning/qgram.h"
#include "query/subtrajectory.h"

namespace edr {
namespace {

void BM_RStarTreeInsert(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(1);
  std::vector<Point2> points;
  for (int i = 0; i < n; ++i) {
    points.push_back({rng.Uniform(-10, 10), rng.Uniform(-10, 10)});
  }
  for (auto _ : state) {
    RStarTree tree;
    for (int i = 0; i < n; ++i) {
      tree.Insert(points[static_cast<size_t>(i)], static_cast<uint32_t>(i));
    }
    benchmark::DoNotOptimize(tree.size());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_RStarTreeInsert)->Range(1024, 65536);

void BM_RStarTreeRangeQuery(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(2);
  RStarTree tree;
  for (int i = 0; i < n; ++i) {
    tree.Insert({rng.Uniform(-10, 10), rng.Uniform(-10, 10)},
                static_cast<uint32_t>(i));
  }
  size_t sink = 0;
  for (auto _ : state) {
    const Point2 c{rng.Uniform(-10, 10), rng.Uniform(-10, 10)};
    tree.SearchRange(Rect::Around(c, 0.25),
                     [&sink](uint32_t) { ++sink; });
  }
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_RStarTreeRangeQuery)->Range(1024, 65536);

void BM_RStarTreeBulkLoad(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(12);
  std::vector<std::pair<Point2, uint32_t>> items;
  for (int i = 0; i < n; ++i) {
    items.push_back(
        {{rng.Uniform(-10, 10), rng.Uniform(-10, 10)},
         static_cast<uint32_t>(i)});
  }
  for (auto _ : state) {
    std::vector<std::pair<Point2, uint32_t>> copy = items;
    RStarTree tree = RStarTree::BulkLoad(std::move(copy));
    benchmark::DoNotOptimize(tree.size());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_RStarTreeBulkLoad)->Range(1024, 65536);

void BM_BPlusTreeInsert(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(3);
  std::vector<double> keys;
  for (int i = 0; i < n; ++i) keys.push_back(rng.Uniform(-10, 10));
  for (auto _ : state) {
    BPlusTree tree;
    for (int i = 0; i < n; ++i) {
      tree.Insert(keys[static_cast<size_t>(i)], static_cast<uint32_t>(i));
    }
    benchmark::DoNotOptimize(tree.size());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_BPlusTreeInsert)->Range(1024, 65536);

void BM_BPlusTreeRangeQuery(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(4);
  BPlusTree tree;
  for (int i = 0; i < n; ++i) {
    tree.Insert(rng.Uniform(-10, 10), static_cast<uint32_t>(i));
  }
  size_t sink = 0;
  for (auto _ : state) {
    const double lo = rng.Uniform(-10, 10);
    tree.SearchRange(lo, lo + 0.5, [&sink](double, uint32_t) { ++sink; });
  }
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_BPlusTreeRangeQuery)->Range(1024, 65536);

Trajectory MakeWalk(uint64_t seed, size_t length) {
  Rng rng(seed);
  Trajectory t;
  Point2 pos{0.0, 0.0};
  for (size_t i = 0; i < length; ++i) {
    t.Append(pos);
    pos.x += rng.Gaussian(0.0, 0.4);
    pos.y += rng.Gaussian(0.0, 0.4);
  }
  return t;
}

void BM_QgramExtractAndSort(benchmark::State& state) {
  const Trajectory t = MakeWalk(5, static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    std::vector<Point2> means = MeanValueQgrams(t, 1);
    SortMeans(means);
    benchmark::DoNotOptimize(means.data());
  }
}
BENCHMARK(BM_QgramExtractAndSort)->Range(64, 2048);

void BM_QgramMergeJoinCount(benchmark::State& state) {
  const size_t len = static_cast<size_t>(state.range(0));
  std::vector<Point2> a = MeanValueQgrams(MakeWalk(6, len), 1);
  std::vector<Point2> b = MeanValueQgrams(MakeWalk(7, len), 1);
  SortMeans(a);
  SortMeans(b);
  for (auto _ : state) {
    benchmark::DoNotOptimize(CountMatchingMeans2D(a, b, 0.25));
  }
}
BENCHMARK(BM_QgramMergeJoinCount)->Range(64, 2048);

void BM_HistogramDistance2D(benchmark::State& state) {
  const size_t len = static_cast<size_t>(state.range(0));
  TrajectoryDataset db;
  db.Add(MakeWalk(8, len));
  db.Add(MakeWalk(9, len));
  const HistogramGrid grid = HistogramGrid::For(db.Stats(), 0.25);
  const std::vector<int> a = BuildHistogram2D(db[0], grid);
  const std::vector<int> b = BuildHistogram2D(db[1], grid);
  for (auto _ : state) {
    benchmark::DoNotOptimize(HistogramDistance2D(a, b, grid));
  }
}
BENCHMARK(BM_HistogramDistance2D)->Range(64, 2048);

void BM_HistogramDistance1D(benchmark::State& state) {
  const size_t len = static_cast<size_t>(state.range(0));
  TrajectoryDataset db;
  db.Add(MakeWalk(10, len));
  db.Add(MakeWalk(11, len));
  const HistogramGrid grid = HistogramGrid::For(db.Stats(), 0.25);
  const std::vector<int> a = BuildHistogram1D(db[0], grid, true);
  const std::vector<int> b = BuildHistogram1D(db[1], grid, true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(HistogramDistance1D(a, b));
  }
}
BENCHMARK(BM_HistogramDistance1D)->Range(64, 2048);

void BM_VpTreeKnnErp(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(14);
  std::vector<Trajectory> db;
  for (size_t i = 0; i < n; ++i) db.push_back(MakeWalk(rng.NextU64(), 24));
  const VpTree tree(n, [&db](uint32_t a, uint32_t b) {
    return ErpDistance(db[a], db[b]);
  });
  size_t q = 0;
  for (auto _ : state) {
    const Trajectory& query = db[q++ % n];
    benchmark::DoNotOptimize(tree.Knn(
        [&db, &query](uint32_t i) { return ErpDistance(query, db[i]); },
        10));
  }
}
BENCHMARK(BM_VpTreeKnnErp)->Range(64, 1024);

void BM_SubtrajectoryMatch(benchmark::State& state) {
  const size_t text_len = static_cast<size_t>(state.range(0));
  const Trajectory text = MakeWalk(15, text_len);
  const Trajectory query = MakeWalk(16, 32);
  for (auto _ : state) {
    benchmark::DoNotOptimize(BestSubtrajectoryMatch(query, text, 0.25));
  }
}
BENCHMARK(BM_SubtrajectoryMatch)->Range(128, 8192);

void BM_Knn3Searcher(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(17);
  std::vector<Trajectory3> db;
  for (size_t i = 0; i < n; ++i) {
    Trajectory3 t;
    Point3 pos{0.0, 0.0, 0.0};
    for (int j = 0; j < 32; ++j) {
      t.Append(pos);
      pos.x += rng.Gaussian(0.0, 0.4);
      pos.y += rng.Gaussian(0.0, 0.4);
      pos.z += rng.Gaussian(0.0, 0.4);
    }
    db.push_back(std::move(t));
  }
  const Knn3Searcher searcher(db, 0.25);
  size_t q = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(searcher.Knn(db[q++ % n], 10));
  }
}
BENCHMARK(BM_Knn3Searcher)->Range(64, 1024);

}  // namespace
}  // namespace edr

BENCHMARK_MAIN();
