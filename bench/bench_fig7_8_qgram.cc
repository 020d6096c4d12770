// Reproduces Figures 7 and 8: pruning power and speedup ratio of the four
// mean-value Q-gram implementations (PR: R*-tree 2-D, PB: B+-tree 1-D,
// PS2: merge join 2-D, PS1: merge join 1-D) with Q-gram sizes 1-4 on the
// ASL (710 trajectories), Slip, and Kungfu data sets.
//
// Paper shape to reproduce:
//  - pruning power: PR >= PS2 >= PS1, PR >= PB; power drops as q grows
//    (to ~0 on Slip for q > 1); q = 1 is the most effective size;
//  - speedup: the index-based variants (PR/PB) pay search overhead that
//    often cancels their extra pruning, so PS2/PS1 win; PS2 with q = 1 is
//    the best overall Q-gram filter.
//
// Default scale shortens Kungfu/Slip trajectories (--full for 640/400).

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
  for (const QgramVariant variant :
       {QgramVariant::kRtree2D, QgramVariant::kBtree1D,
        QgramVariant::kMerge2D, QgramVariant::kMerge1D}) {
    for (int q = 1; q <= 4; ++q) {
      searchers.push_back(engine.MakeQgram(variant, q));
    }
  }
  bench::RunSuite(name, engine, searchers, config);
}

}  // namespace
}  // namespace edr

int main(int argc, char** argv) {
  const auto config = edr::bench::BenchConfig::FromArgs(argc, argv);
  std::printf(
      "Figures 7 & 8: mean-value Q-gram pruning power and speedup\n");
  edr::RunDataset("ASL-710", edr::GenAslLike(10, 71, 11), config);
  edr::RunDataset("Slip",
                  edr::GenSlipLike(495, config.full ? 400 : 120, 17),
                  config);
  edr::RunDataset("Kungfu",
                  edr::GenKungfuLike(495, config.full ? 640 : 160, 13),
                  config);
  return edr::bench::ExitStatus();
}
