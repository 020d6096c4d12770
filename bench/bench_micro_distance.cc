// Microbenchmarks for the distance kernels (google-benchmark): scaling of
// the O(n^2) DP distances with trajectory length, the cost of the banded
// and early-abandoning EDR variants, and the linear-time measures.

#include <benchmark/benchmark.h>

#include "core/rng.h"
#include "core/trajectory.h"
#include "distance/dtw.h"
#include "distance/edr.h"
#include "distance/edr_kernel.h"
#include "distance/erp.h"
#include "distance/euclidean.h"
#include "distance/lcss.h"

namespace edr {
namespace {

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

void BM_Edr(benchmark::State& state) {
  const size_t len = static_cast<size_t>(state.range(0));
  const Trajectory a = MakeWalk(1, len);
  const Trajectory b = MakeWalk(2, len);
  for (auto _ : state) {
    benchmark::DoNotOptimize(EdrDistance(a, b, 0.25));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Edr)->RangeMultiplier(2)->Range(32, 1024)->Complexity();

void BM_EdrBanded(benchmark::State& state) {
  const size_t len = static_cast<size_t>(state.range(0));
  const Trajectory a = MakeWalk(1, len);
  const Trajectory b = MakeWalk(2, len);
  for (auto _ : state) {
    benchmark::DoNotOptimize(EdrDistanceBanded(a, b, 0.25, 16));
  }
}
BENCHMARK(BM_EdrBanded)->RangeMultiplier(2)->Range(32, 1024);

void BM_EdrBoundedTightBound(benchmark::State& state) {
  const size_t len = static_cast<size_t>(state.range(0));
  // Dissimilar trajectories with a tight bound: abandons after a few rows.
  Trajectory a = MakeWalk(1, len);
  Trajectory b = MakeWalk(2, len);
  for (Point2& p : b.mutable_points()) p.x += 100.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(EdrDistanceBounded(a, b, 0.25, 5));
  }
}
BENCHMARK(BM_EdrBoundedTightBound)->RangeMultiplier(2)->Range(32, 1024);

// The kernel layer: scalar-with-scratch vs Myers bit-parallel, both exact.
// Compare against BM_Edr to see the allocation cost and the word-parallel
// speedup separately.

void BM_EdrScalarScratch(benchmark::State& state) {
  const size_t len = static_cast<size_t>(state.range(0));
  const Trajectory a = MakeWalk(1, len);
  const Trajectory b = MakeWalk(2, len);
  EdrScratch scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        EdrDistanceWith(EdrKernel::kScalar, scratch, a, b, 0.25));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_EdrScalarScratch)->RangeMultiplier(2)->Range(32, 1024)->Complexity();

void BM_EdrBitParallel(benchmark::State& state) {
  const size_t len = static_cast<size_t>(state.range(0));
  const Trajectory a = MakeWalk(1, len);
  const Trajectory b = MakeWalk(2, len);
  EdrScratch scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(EdrDistanceBitParallel(a, b, 0.25, scratch));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_EdrBitParallel)->RangeMultiplier(2)->Range(32, 1024)->Complexity();

void BM_EdrBitParallelBoundedTightBound(benchmark::State& state) {
  const size_t len = static_cast<size_t>(state.range(0));
  Trajectory a = MakeWalk(1, len);
  Trajectory b = MakeWalk(2, len);
  for (Point2& p : b.mutable_points()) p.x += 100.0;
  EdrScratch scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        EdrDistanceBitParallelBounded(a, b, 0.25, 5, scratch));
  }
}
BENCHMARK(BM_EdrBitParallelBoundedTightBound)
    ->RangeMultiplier(2)
    ->Range(32, 1024);

void BM_Dtw(benchmark::State& state) {
  const size_t len = static_cast<size_t>(state.range(0));
  const Trajectory a = MakeWalk(3, len);
  const Trajectory b = MakeWalk(4, len);
  for (auto _ : state) {
    benchmark::DoNotOptimize(DtwDistance(a, b));
  }
}
BENCHMARK(BM_Dtw)->RangeMultiplier(2)->Range(32, 1024);

void BM_Erp(benchmark::State& state) {
  const size_t len = static_cast<size_t>(state.range(0));
  const Trajectory a = MakeWalk(5, len);
  const Trajectory b = MakeWalk(6, len);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ErpDistance(a, b));
  }
}
BENCHMARK(BM_Erp)->RangeMultiplier(2)->Range(32, 1024);

void BM_Lcss(benchmark::State& state) {
  const size_t len = static_cast<size_t>(state.range(0));
  const Trajectory a = MakeWalk(7, len);
  const Trajectory b = MakeWalk(8, len);
  for (auto _ : state) {
    benchmark::DoNotOptimize(LcssLength(a, b, 0.25));
  }
}
BENCHMARK(BM_Lcss)->RangeMultiplier(2)->Range(32, 1024);

void BM_SlidingEuclidean(benchmark::State& state) {
  const size_t len = static_cast<size_t>(state.range(0));
  const Trajectory a = MakeWalk(9, len);
  const Trajectory b = MakeWalk(10, len / 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SlidingEuclideanDistance(a, b));
  }
}
BENCHMARK(BM_SlidingEuclidean)->RangeMultiplier(2)->Range(32, 1024);

}  // namespace
}  // namespace edr

BENCHMARK_MAIN();
