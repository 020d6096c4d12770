#ifndef EDR_BENCH_BENCH_UTIL_H_
#define EDR_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/dataset.h"
#include "eval/metrics.h"
#include "obs/obs.h"
#include "query/engine.h"

namespace edr {
namespace bench {

/// Hardware concurrency as reported by the host (0 is mapped to 1).
inline unsigned HostCores() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

/// Prints a warning banner when the host has a single core: parallel
/// speedup numbers measured here are meaningless (every "parallel" run
/// time-slices one core) and should not be quoted.
inline void WarnIfSingleCore() {
  if (HostCores() <= 1) {
    std::fprintf(stderr,
                 "WARNING: single-core host (host_cores=1); parallel "
                 "speedups below are not meaningful.\n");
  }
}

/// Emits the host-core fields every BENCH_*.json records — two top-level
/// lines `"host_cores": N` and `"single_core_warning": bool`, both
/// comma-terminated — so consumers can discount parallel numbers measured
/// on starved hosts. The single shared emitter: benches must not print
/// these fields themselves.
inline void FprintHostJson(std::FILE* out) {
  std::fprintf(out, "  \"host_cores\": %u,\n  \"single_core_warning\": %s,\n",
               HostCores(), HostCores() <= 1 ? "true" : "false");
}

/// Scale control for the paper-reproduction benches.
///
/// The paper's largest workloads (Mixed: 32768 trajectories up to length
/// 2000; random walk: 100000 trajectories) take hours with quadratic EDR
/// on one core, so every bench defaults to a reduced scale that preserves
/// the *shape* of the results and finishes in seconds to minutes. Pass
/// `--full` (or set EDR_BENCH_FULL=1) to run at paper scale;
/// EDR_BENCH_QUERIES overrides the query count.
struct BenchConfig {
  bool full = false;
  size_t queries = 5;
  size_t k = 20;  // The paper reports k = 20.

  static BenchConfig FromArgs(int argc, char** argv) {
    BenchConfig config;
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--full") == 0) config.full = true;
    }
    if (const char* env = std::getenv("EDR_BENCH_FULL");
        env != nullptr && env[0] == '1') {
      config.full = true;
    }
    if (const char* env = std::getenv("EDR_BENCH_QUERIES");
        env != nullptr) {
      config.queries = static_cast<size_t>(std::atoi(env));
      if (config.queries == 0) config.queries = 1;
    }
    return config;
  }
};

/// A paper bench's exit status, which its main returns: RunSuite sets it
/// to 1 when a row is not lossless, so that a lost answer fails the run,
/// not only its printed certificate.
inline int& ExitStatus() {
  static int status = 0;
  return status;
}

/// Runs one dataset through a list of searchers, printing paper-style
/// rows: pruning power, mean per-query latency, speedup vs sequential
/// scan, and a losslessness certificate. Returns the results; a row that
/// is not lossless also prints an error line and sets ExitStatus() to 1.
inline std::vector<WorkloadResult> RunSuite(
    const std::string& title, QueryEngine& engine,
    const std::vector<NamedSearcher>& searchers, const BenchConfig& config) {
  std::printf("\n-- %s (N=%zu, k=%zu, %zu queries, eps=%.3g)\n",
              title.c_str(), engine.db().size(), config.k, config.queries,
              engine.epsilon());
  const std::vector<Trajectory> queries =
      SampleQueries(engine.db(), config.queries);
  const std::vector<KnnResult> gt =
      RunGroundTruth(engine, queries, config.k);
  const double base = MeanSeconds(gt);
  std::printf("%s\n", FormatWorkloadHeader().c_str());
  WorkloadResult seq;
  seq.method = "SeqScan";
  seq.queries = queries.size();
  seq.avg_seconds = base;
  seq.speedup = 1.0;
  std::vector<double> seq_latencies;
  seq_latencies.reserve(gt.size());
  for (const KnnResult& r : gt) {
    seq_latencies.push_back(r.stats.elapsed_seconds);
  }
  FillLatencyPercentiles(&seq, std::move(seq_latencies));
  for (const KnnResult& r : gt) {
    seq.stage_totals.Add(r.stats.stages);
    seq.db_size_total += r.stats.db_size;
  }
  std::printf("%s\n", FormatWorkloadRow(seq).c_str());

  std::vector<WorkloadResult> results;
  for (const NamedSearcher& s : searchers) {
    const WorkloadResult r = RunWorkload(s, queries, config.k, &gt, base);
    std::printf("%s\n", FormatWorkloadRow(r).c_str());
    std::fflush(stdout);
    if (!r.lossless) {
      std::fprintf(stderr, "error: %s on %s is not lossless\n",
                   r.method.c_str(), title.c_str());
      ExitStatus() = 1;
    }
    results.push_back(r);
  }

  // Stage-decomposition companion table: which filter earned the pruning
  // power above. Compiled out with the observability layer.
  if constexpr (kObsEnabled) {
    std::printf("%s\n", FormatStageHeader().c_str());
    std::printf("%s\n", FormatStageRow(seq).c_str());
    for (const WorkloadResult& r : results) {
      std::printf("%s\n", FormatStageRow(r).c_str());
    }
    std::fflush(stdout);
  }
  return results;
}

}  // namespace bench
}  // namespace edr

#endif  // EDR_BENCH_BENCH_UTIL_H_
