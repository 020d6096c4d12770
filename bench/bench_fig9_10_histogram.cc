// Reproduces Figures 9 and 10: pruning power and speedup ratio of
// histogram pruning on the ASL (710), Slip, and Kungfu data sets, for
// both scan strategies (HSR sorted, HSE sequential) and five embeddings:
// 1HE (per-dimension 1-D histograms, bin eps), 2HE/2H2E/2H3E/2H4E (2-D
// trajectory histograms with bin sizes eps..4*eps).
//
// Paper shape to reproduce:
//  - 2HE (finest 2-D histograms) has the highest pruning power;
//  - 1HE beats the coarser 2-D variants (the better way to shrink bins);
//  - HSR >= HSE in both power and speedup (sorting pays for itself);
//  - histograms prune more than mean-value Q-grams (compare Figure 7).

#include <cstdio>

#include "bench_util.h"
#include "data/generators.h"

namespace edr {
namespace {

void RunDataset(const char* name, TrajectoryDataset db,
                const bench::BenchConfig& config) {
  db.NormalizeAll();
  QueryEngine engine(db, db.SuggestedEpsilon());
  std::vector<NamedSearcher> searchers;
  for (const HistogramScan scan :
       {HistogramScan::kSorted, HistogramScan::kSequential}) {
    searchers.push_back(
        engine.MakeHistogram(HistogramTable::Kind::k1D, 1, scan));
    for (int delta = 1; delta <= 4; ++delta) {
      searchers.push_back(
          engine.MakeHistogram(HistogramTable::Kind::k2D, delta, scan));
    }
  }
  bench::RunSuite(name, engine, searchers, config);
}

}  // namespace
}  // namespace edr

int main(int argc, char** argv) {
  const auto config = edr::bench::BenchConfig::FromArgs(argc, argv);
  std::printf("Figures 9 & 10: histogram pruning power and speedup\n");
  edr::RunDataset("ASL-710", edr::GenAslLike(10, 71, 11), config);
  edr::RunDataset("Slip",
                  edr::GenSlipLike(495, config.full ? 400 : 120, 17),
                  config);
  edr::RunDataset("Kungfu",
                  edr::GenKungfuLike(495, config.full ? 640 : 160, 13),
                  config);
  return edr::bench::ExitStatus();
}
