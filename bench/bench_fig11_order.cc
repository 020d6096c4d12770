// Reproduces Figure 11: speedup ratio of the application orders of the
// pruning methods (H = histogram, P = mean-value Q-grams) on the NHL data
// set.
//
// The paper orders three filters, adding N (the near triangle inequality),
// in all six ways. N's bound EDR(Q,R) - EDR(S,R) - |S| never exceeds
// max(0, |Q| - |S|), and the histogram bound is never below that, so N
// prunes nothing H does not; it is left out, and the two orders of H and
// P remain (docs/ALGORITHMS.md §3 and §5, EXPERIMENTS.md).
//
// Paper shape to reproduce: every order achieves the same pruning power
// (each filter is lossless and the scan visits every candidate), but
// applying the cheap high-power filter first wins on time — H, then P
// ("2HP", the paper's "2HPN") is the faster order.

#include <cstdio>

#include "bench_util.h"
#include "data/generators.h"

int main(int argc, char** argv) {
  const auto config = edr::bench::BenchConfig::FromArgs(argc, argv);
  const size_t count = config.full ? 5000 : 2000;
  std::printf("Figure 11: speedup of pruning-method orders, NHL data "
              "(N=%zu)\n", count);

  edr::TrajectoryDataset db = edr::GenNhlLike(count, 30, 256, 19);
  db.NormalizeAll();
  edr::QueryEngine engine(db, db.SuggestedEpsilon());

  std::vector<edr::NamedSearcher> searchers;
  for (const auto& order : edr::AllPruneOrders()) {
    edr::CombinedOptions options;
    options.order = order;
    // Figure 11 compares pure application orders: every order scans in
    // database order so the pruning power is identical across the
    // permutations (the paper's observation) and only the time differs.
    options.sorted_histogram_scan = false;
    searchers.push_back(engine.MakeCombined(options));
  }
  edr::bench::RunSuite("NHL", engine, searchers, config);
  return edr::bench::ExitStatus();
}
