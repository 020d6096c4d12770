// Store surveillance: the paper's merchandise-arrangement motivation.
//
// A store camera tracks customer movements frame-to-frame; the analyst
// wants the k movement patterns most similar to a "browse aisle 3, then
// checkout" reference path. This example also exercises the persistence
// path: tracks are written to CSV (as a tracking pipeline would), loaded
// back, and queried. Frame-to-frame tracking loses and re-acquires people
// constantly, so the query runs under EDR, which tolerates those outliers.

#include <cstdio>
#include <string>

#include "core/rng.h"
#include "data/io.h"
#include "data/noise.h"
#include "query/engine.h"

namespace {

/// Synthesizes customer tracks through a 20m x 10m store: enter at the
/// door, wander a few aisles, end at a checkout. A fraction of customers
/// follow the "aisle 3 then checkout" pattern of interest.
edr::TrajectoryDataset MakeTracks(int count, uint64_t seed) {
  edr::Rng rng(seed);
  edr::TrajectoryDataset db("store_tracks");
  for (int i = 0; i < count; ++i) {
    // Every tenth customer is steered to aisle 3; others pick at random
    // (so some regular shoppers also browse aisle 3 — they count as true
    // matches too).
    const int frames = static_cast<int>(rng.UniformInt(60, 180));
    const double aisle = i % 10 == 0
                             ? 3.0
                             : static_cast<double>(rng.UniformInt(0, 4));
    edr::Trajectory t;
    for (int f = 0; f < frames; ++f) {
      const double u = static_cast<double>(f) / static_cast<double>(frames);
      edr::Point2 p;
      if (u < 0.3) {  // Door (0,5) to aisle entrance.
        p = {u / 0.3 * (4.0 * aisle + 2.0), 5.0 + 4.0 * u};
      } else if (u < 0.7) {  // Down and up the aisle.
        const double v = (u - 0.3) / 0.4;
        p = {4.0 * aisle + 2.0, 6.2 - 5.0 * std::fabs(2.0 * v - 1.0)};
      } else {  // To checkout at (18, 1).
        const double v = (u - 0.7) / 0.3;
        p = {4.0 * aisle + 2.0 + v * (18.0 - 4.0 * aisle - 2.0),
             6.2 - 5.2 * v};
      }
      // Tracker jitter plus occasional mis-detections.
      p.x += rng.Gaussian(0.0, 0.05);
      p.y += rng.Gaussian(0.0, 0.05);
      if (rng.NextDouble() < 0.02) {
        p.x += rng.Gaussian(0.0, 5.0);  // Identity switch glitch.
      }
      t.Append(p);
    }
    t.set_label(aisle == 3.0 ? 1 : 0);
    db.Add(std::move(t));
  }
  return db;
}

}  // namespace

int main() {
  const std::string csv_path = "/tmp/edr_store_tracks.csv";

  // Tracking pipeline side: detect, track, persist.
  {
    const edr::TrajectoryDataset tracks = MakeTracks(800, 5);
    const edr::Status status = edr::SaveCsv(tracks, csv_path);
    if (!status.ok()) {
      std::printf("save failed: %s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("persisted %zu tracks to %s\n", tracks.size(),
                csv_path.c_str());
  }

  // Analyst side: load, normalize, query.
  edr::Result<edr::TrajectoryDataset> loaded = edr::LoadCsv(csv_path);
  if (!loaded.ok()) {
    std::printf("load failed: %s\n", loaded.status().ToString().c_str());
    return 1;
  }
  edr::TrajectoryDataset db = std::move(loaded).value();
  // Deliberately NOT normalized: in a store, *where* a customer walks is
  // the signal — normalization would make every aisle look alike. The
  // matching threshold still follows the quarter-of-max-std-dev rule,
  // just in raw meters.
  edr::QueryEngine engine(db, db.SuggestedEpsilon());

  // Reference path: one known aisle-3 shopper.
  uint32_t reference = 0;
  for (const edr::Trajectory& t : db) {
    if (t.label() == 1) {
      reference = t.id();
      break;
    }
  }

  edr::CombinedOptions combo;
  const edr::KnnResult result =
      engine.Combined(combo).Knn(db[reference], 10);

  std::printf("\n10 tracks most similar to the aisle-3 reference "
              "(%.0f%% of the database pruned, %.1f ms):\n",
              result.stats.PruningPower() * 100.0,
              result.stats.elapsed_seconds * 1e3);
  size_t pattern_hits = 0;
  for (const edr::Neighbor& n : result.neighbors) {
    const bool hit = db[n.id].label() == 1;
    pattern_hits += hit ? 1 : 0;
    std::printf("  track %-5u EDR=%-4.0f %s\n", n.id, n.distance,
                hit ? "[aisle-3 pattern]" : "");
  }
  std::printf("\n%zu of 10 retrieved tracks are true aisle-3 shoppers\n",
              pattern_hits);
  std::remove(csv_path.c_str());
  return 0;
}
