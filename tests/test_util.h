#ifndef EDR_TESTS_TEST_UTIL_H_
#define EDR_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <vector>

#include "core/cpu.h"
#include "core/dataset.h"
#include "core/rng.h"
#include "core/trajectory.h"
#include "pruning/histogram.h"
#include "query/knn.h"

namespace edr {
namespace testutil {

/// A random-walk trajectory with correlated steps (more realistic and more
/// compressible by the filters than white noise).
inline Trajectory RandomWalk(Rng& rng, size_t length, double step = 0.4) {
  Trajectory t;
  Point2 pos{rng.Gaussian(), rng.Gaussian()};
  for (size_t i = 0; i < length; ++i) {
    t.Append(pos);
    pos.x += rng.Gaussian(0.0, step);
    pos.y += rng.Gaussian(0.0, step);
  }
  return t;
}

/// A small normalized variable-length dataset for losslessness tests.
inline TrajectoryDataset SmallDataset(uint64_t seed, size_t count = 60,
                                      size_t min_len = 10,
                                      size_t max_len = 50) {
  Rng rng(seed);
  TrajectoryDataset db("test");
  for (size_t i = 0; i < count; ++i) {
    const size_t len = static_cast<size_t>(rng.UniformInt(
        static_cast<int64_t>(min_len), static_cast<int64_t>(max_len)));
    db.Add(RandomWalk(rng, len));
  }
  db.NormalizeAll();
  return db;
}

/// Query trajectories related to (but not identical with) dataset members:
/// dataset members with a few perturbed elements, plus fresh walks.
inline std::vector<Trajectory> MakeQueries(const TrajectoryDataset& db,
                                           uint64_t seed, size_t count = 5) {
  Rng rng(seed);
  std::vector<Trajectory> queries;
  for (size_t i = 0; i < count && i < db.size(); ++i) {
    Trajectory q = db[(i * 7) % db.size()];
    if (!q.empty()) {
      const size_t at = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(q.size()) - 1));
      q[at] = {q[at].x + rng.Gaussian(0.0, 2.0),
               q[at].y + rng.Gaussian(0.0, 2.0)};
    }
    queries.push_back(std::move(q));
  }
  return queries;
}

/// The table's fast histogram bound between `q` and `s` from its
/// definition: HistogramDistance2DFast on dense histograms over the
/// table's grid, or for Kind::k1D the larger of the two per-dimension
/// HistogramDistance1DFast. Independent of the table's column stores.
inline int DefinitionFastBound(const HistogramTable& table,
                               const Trajectory& q, const Trajectory& s) {
  const HistogramGrid& grid = table.grid();
  if (table.kind() == HistogramTable::Kind::k2D) {
    return HistogramDistance2DFast(BuildHistogram2D(q, grid),
                                   BuildHistogram2D(s, grid), grid);
  }
  return std::max(
      HistogramDistance1DFast(BuildHistogram1D(q, grid, true),
                              BuildHistogram1D(s, grid, true)),
      HistogramDistance1DFast(BuildHistogram1D(q, grid, false),
                              BuildHistogram1D(s, grid, false)));
}

/// HistogramTable::FastLowerBoundSweep for one query: a group of one.
inline std::vector<int> SweepOne(const HistogramTable& table,
                                 const HistogramTable::QueryHistogram& qh,
                                 const KnnOptions& options = {}) {
  std::vector<int> out;
  table.FastLowerBoundSweep({&qh}, {&out}, options);
  return out;
}

/// SweepOne with the kernel dispatch pinned to the portable scalar level;
/// the environment-resolved level is restored afterwards.
inline std::vector<int> ScalarSweep(const HistogramTable& table,
                                    const HistogramTable::QueryHistogram& qh) {
  struct Unpin {
    ~Unpin() { ResetActiveKernelLevel(); }
  } unpin;
  SetActiveKernelLevel(KernelLevel::kScalar);
  return SweepOne(table, qh);
}

/// The exact transport bound the fast one relaxes, by the same
/// definition: HistogramDistance2D, or the larger HistogramDistance1D.
inline int DefinitionExactBound(const HistogramTable& table,
                                const Trajectory& q, const Trajectory& s) {
  const HistogramGrid& grid = table.grid();
  if (table.kind() == HistogramTable::Kind::k2D) {
    return HistogramDistance2D(BuildHistogram2D(q, grid),
                               BuildHistogram2D(s, grid), grid);
  }
  return std::max(HistogramDistance1D(BuildHistogram1D(q, grid, true),
                                      BuildHistogram1D(s, grid, true)),
                  HistogramDistance1D(BuildHistogram1D(q, grid, false),
                                      BuildHistogram1D(s, grid, false)));
}

}  // namespace testutil
}  // namespace edr

#endif  // EDR_TESTS_TEST_UTIL_H_
