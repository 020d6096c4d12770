// Reproduces Figures 12 and 13: pruning power and speedup ratio of the
// combined methods against each technique alone, on three large data
// sets: NHL, Mixed, and Randomwalk.
//
// Methods, in the paper's naming: NTR (near triangle inequality alone),
// PS2 q=1 (merge-join mean-value Q-grams alone), HSR-2HE / HSR-1HE
// (histogram pruning alone), and the combinations 2HP and 1HP
// (histograms -> Q-grams). These are the paper's 2HPN and 1HPN without the
// near-triangle step, which prunes nothing a histogram bound does not
// (docs/ALGORITHMS.md §5), so their pruning is the paper's.
//
// Paper shape to reproduce: the combined methods dominate; 1HP (with
// per-dimension histograms) achieves the best speedup — about twice
// histogram-only, five times Q-gram-only, and twenty times NTR-only —
// because 2-D histograms' many bins make their distance computation
// expensive on large databases.
//
// The paper's full sizes (Mixed: 32768 x len<=2000, Randomwalk: 100000 x
// len<=1024) need hours of offline EDR matrix construction; the default
// scale reduces counts/lengths (pass --full for paper scale).

#include <cstdio>

#include "bench_util.h"
#include "data/generators.h"

namespace edr {
namespace {

void RunDataset(const char* name, TrajectoryDataset db,
                const bench::BenchConfig& config, size_t refs) {
  db.NormalizeAll();
  QueryEngine engine(db, db.SuggestedEpsilon());

  std::vector<NamedSearcher> searchers;
  searchers.push_back(engine.MakeNearTriangle(refs));
  searchers.push_back(engine.MakeQgram(QgramVariant::kMerge2D, 1));
  searchers.push_back(engine.MakeHistogram(HistogramTable::Kind::k2D, 1,
                                           HistogramScan::kSorted));
  searchers.push_back(engine.MakeHistogram(HistogramTable::Kind::k1D, 1,
                                           HistogramScan::kSorted));
  CombinedOptions combo;
  combo.histogram_kind = HistogramTable::Kind::k2D;
  searchers.push_back(engine.MakeCombined(combo));  // 2HP
  combo.histogram_kind = HistogramTable::Kind::k1D;
  searchers.push_back(engine.MakeCombined(combo));  // 1HP

  bench::RunSuite(name, engine, searchers, config);
}

}  // namespace
}  // namespace edr

int main(int argc, char** argv) {
  const auto config = edr::bench::BenchConfig::FromArgs(argc, argv);
  std::printf("Figures 12 & 13: combined pruning methods\n");

  const size_t nhl_count = config.full ? 5000 : 2000;
  const size_t nhl_refs = config.full ? 400 : 200;
  edr::RunDataset("NHL", edr::GenNhlLike(nhl_count, 30, 256, 19), config,
                  nhl_refs);

  const size_t mixed_count = config.full ? 32768 : 1024;
  const size_t mixed_max_len = config.full ? 2000 : 384;
  edr::RunDataset(
      "Mixed", edr::GenMixedLike(mixed_count, 60, mixed_max_len, 23),
      config, config.full ? 400 : 100);

  edr::RandomWalkOptions rw;
  rw.count = config.full ? 100000 : 4096;
  rw.min_length = 30;
  rw.max_length = config.full ? 1024 : 128;
  rw.seed = 29;
  edr::RunDataset("Randomwalk", edr::GenRandomWalk(rw), config,
                  config.full ? 400 : 100);
  return edr::bench::ExitStatus();
}
