// Quickstart: the smallest end-to-end use of the library.
//
//   1. Build a trajectory dataset (here: synthetic hockey-player tracks).
//   2. Normalize it and pick the matching threshold.
//   3. Compare two trajectories under all five distance functions.
//   4. Answer a k-NN query with the combined pruning searcher and verify
//      it against a sequential scan.
//
// Build: cmake -B build -G Ninja && cmake --build build
// Run:   ./build/examples/quickstart

#include <cstdio>

#include "core/normalize.h"
#include "data/generators.h"
#include "distance/distance.h"
#include "query/engine.h"

int main() {
  // 1. A dataset of 500 rink-bounded player movements.
  edr::TrajectoryDataset db = edr::GenNhlLike(500, 30, 256, /*seed=*/42);
  std::printf("dataset: %zu trajectories, lengths %zu-%zu\n", db.size(),
              db.Stats().min_length, db.Stats().max_length);

  // 2. Normalize (shift/scale invariance) and derive epsilon: a quarter of
  //    the maximum trajectory standard deviation, i.e. 0.25 after
  //    normalization.
  db.NormalizeAll();
  const double epsilon = db.SuggestedEpsilon();
  std::printf("matching threshold epsilon = %.2f\n\n", epsilon);

  // 3. All five distance functions on one pair.
  const edr::Trajectory& a = db[0];
  const edr::Trajectory& b = db[1];
  edr::DistanceOptions options;
  options.epsilon = epsilon;
  for (const edr::DistanceKind kind : edr::kAllDistanceKinds) {
    const edr::DistanceFn fn = edr::MakeDistance(kind, options);
    std::printf("%-5s(db[0], db[1]) = %.3f\n", edr::DistanceKindName(kind),
                fn(a, b));
  }

  // 4. 10-NN under EDR, with and without pruning.
  edr::QueryEngine engine(db, epsilon);
  const edr::Trajectory& query = db[123];

  const edr::KnnResult exact = engine.SeqScan(query, 10);
  edr::CombinedOptions combo;  // histograms -> Q-grams
  const edr::KnnResult fast = engine.Combined(combo).Knn(query, 10);

  std::printf("\n10-NN of trajectory %u under EDR:\n", query.id());
  std::printf("  %-10s computed %4zu/%zu EDR distances (%.0f ms)\n",
              "SeqScan", exact.stats.edr_computed, exact.stats.db_size,
              exact.stats.elapsed_seconds * 1e3);
  std::printf("  %-10s computed %4zu/%zu EDR distances (%.0f ms)\n",
              engine.Combined(combo).name().c_str(),
              fast.stats.edr_computed, fast.stats.db_size,
              fast.stats.elapsed_seconds * 1e3);
  std::printf("  identical results: %s\n",
              edr::SameKnnDistances(exact, fast) ? "yes" : "NO");
  for (const edr::Neighbor& n : fast.neighbors) {
    std::printf("    id=%-5u EDR=%.0f\n", n.id, n.distance);
  }
  return 0;
}
