// Sports analytics: "find plays like this one" over a season of player
// tracking data — the NHL scenario from the paper's evaluation.
//
// A coach selects one shift (trajectory) of interest; the system retrieves
// the k most similar movement patterns from the whole season under EDR,
// using the combined pruning searcher so the answer arrives at interactive
// latency. The example also shows why EDR: the query is corrupted with
// tracking dropouts (outliers), and EDR still retrieves the clean
// originals while Euclidean ranking is thrown off.

#include <cstdio>

#include "core/rng.h"
#include "data/generators.h"
#include "data/noise.h"
#include "distance/euclidean.h"
#include "query/engine.h"

int main() {
  // A season's worth of shifts (scaled down; pass --full-sized data
  // through the library API in real use).
  edr::TrajectoryDataset db = edr::GenNhlLike(3000, 30, 256, /*seed=*/7);
  db.NormalizeAll();
  const double epsilon = db.SuggestedEpsilon();
  edr::QueryEngine engine(db, epsilon);

  // The coach's play of interest — as it came off the tracking system,
  // with sensor dropouts (interpolated Gaussian outliers).
  edr::Rng rng(99);
  edr::NoiseOptions noise;
  const edr::Trajectory query =
      edr::AddInterpolatedGaussianNoise(db[777], noise, rng);
  std::printf("query: shift %u corrupted with %zu outlier samples\n",
              db[777].id(), query.size() - db[777].size());

  // Interactive retrieval: histograms -> Q-grams.
  edr::CombinedOptions combo;
  combo.histogram_kind = edr::HistogramTable::Kind::k1D;  // "1HP"
  const edr::NamedSearcher searcher = engine.MakeCombined(combo);

  const edr::KnnResult result = searcher.search(query, 5);
  std::printf("\n%s retrieved 5 similar plays in %.1f ms "
              "(%.0f%% of the database pruned):\n",
              searcher.name.c_str(), result.stats.elapsed_seconds * 1e3,
              result.stats.PruningPower() * 100.0);
  for (const edr::Neighbor& n : result.neighbors) {
    std::printf("  shift %-5u EDR=%-4.0f length=%zu\n", n.id, n.distance,
                db[n.id].size());
  }

  // Robustness: the uncorrupted original must come back among the top
  // answers (its cluster siblings legitimately tie with it).
  bool found_original = false;
  for (const edr::Neighbor& n : result.neighbors) {
    if (n.id == 777) found_original = true;
  }
  std::printf("\nEDR retrieves the uncorrupted original in the top 5: %s\n",
              found_original ? "yes" : "no");

  // Contrast with Euclidean distance, which the outliers dominate.
  double best_eu = 1e300;
  uint32_t best_eu_id = 0;
  for (const edr::Trajectory& t : db) {
    const double d = edr::SlidingEuclideanDistance(query, t);
    if (d < best_eu) {
      best_eu = d;
      best_eu_id = t.id();
    }
  }
  std::printf("Euclidean nearest neighbor: shift %u (%s)\n", best_eu_id,
              best_eu_id == 777 ? "also correct here"
                                : "NOT the original - noise sensitivity");
  return 0;
}
