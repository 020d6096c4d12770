// EDR kernel baseline: scalar (allocating) vs scalar-with-scratch vs
// bit-parallel, as DP cells/second across trajectory lengths; the
// bit-parallel kernel at every dispatch level on the word skip's best
// case (a coherent walk against a noisy copy of itself) and worst case (an
// incoherent uniform pattern, whose group boxes span the whole field); and
// the end-to-end k-NN effect of the kernel + bounded-refinement rewiring.
//
// Emits JSON (stdout, or the named file) so future changes have a
// machine-readable perf trajectory to regress against:
//
//   ./bench/bench_kernel BENCH_kernel.json
//   ./bench/bench_kernel --smoke out.json   # seconds-scale CI check
//
// Exits 1 unless every level and both kernels return the scalar DP's
// distances. Numbers are machine-dependent; treat the committed
// BENCH_kernel.json as a same-machine baseline for *ratios* (speedups),
// not absolute times.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/cpu.h"
#include "core/rng.h"
#include "core/trajectory.h"
#include "data/generators.h"
#include "distance/edr.h"
#include "distance/edr_kernel.h"
#include "pruning/combined.h"
#include "query/knn.h"

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

int g_min_iters = 20;
double g_min_seconds = 0.2;

// Every dispatch level, whether or not this host runs it, so the JSON
// shape does not depend on the host.
constexpr KernelLevel kLevels[] = {KernelLevel::kScalar, KernelLevel::kSse2,
                                   KernelLevel::kAvx2, KernelLevel::kAvx512};

Trajectory MakeNoisyCopy(const Trajectory& t, uint64_t seed) {
  Rng rng(seed);
  Trajectory copy;
  for (size_t i = 0; i < t.size(); ++i) {
    copy.Append(t[i].x + rng.Gaussian(0.0, 0.1),
                t[i].y + rng.Gaussian(0.0, 0.1));
  }
  return copy;
}

Trajectory MakeUniform(uint64_t seed, size_t length) {
  Rng rng(seed);
  Trajectory t;
  for (size_t i = 0; i < length; ++i) {
    t.Append(rng.Uniform(-1.0, 1.0), rng.Uniform(-1.0, 1.0));
  }
  return t;
}

double SecondsPerCall(const std::function<int()>& fn) {
  // Warm up (also sizes the scratch buffers so the timed region is
  // allocation-free where the kernel promises it).
  volatile int sink = fn();
  (void)sink;
  int iters = g_min_iters;
  for (;;) {
    const auto start = std::chrono::steady_clock::now();
    int acc = 0;
    for (int i = 0; i < iters; ++i) acc += fn();
    const auto stop = std::chrono::steady_clock::now();
    const double secs = std::chrono::duration<double>(stop - start).count();
    if (secs >= g_min_seconds || iters >= (1 << 22)) {
      volatile int keep = acc;
      (void)keep;
      return secs / iters;
    }
    iters *= 4;
  }
}

struct KernelRow {
  size_t length = 0;
  double scalar_s = 0.0;
  double scalar_scratch_s = 0.0;
  double bitparallel_s = 0.0;
};

struct LevelRow {
  const char* pattern = "";
  KernelLevel level = KernelLevel::kScalar;
  bool supported = false;
  bool identical = true;
  double seconds = 0.0;
  double speedup_vs_scalar_level = 0.0;
};

}  // namespace
}  // namespace edr

int main(int argc, char** argv) {
  using namespace edr;
  bench::WarnIfSingleCore();

  bool smoke = false;
  const char* out_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      out_path = argv[i];
    }
  }
  std::FILE* out = stdout;
  if (out_path != nullptr) {
    out = std::fopen(out_path, "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", out_path);
      return 1;
    }
  }
  if (smoke) {
    g_min_iters = 2;
    g_min_seconds = 0.005;
  }

  constexpr double kEps = 0.25;
  EdrScratch scratch;
  bool identical = true;

  // --- Kernel micro: same-length pairs across the word-boundary range.
  const size_t lengths[] = {64, 128, 256, 512, 1024};
  std::vector<KernelRow> rows;
  for (const size_t len : lengths) {
    const Trajectory a = MakeWalk(2 * len + 1, len);
    const Trajectory b = MakeWalk(2 * len + 2, len);
    KernelRow row;
    row.length = len;
    row.scalar_s = SecondsPerCall([&] { return EdrDistance(a, b, kEps); });
    row.scalar_scratch_s = SecondsPerCall(
        [&] { return EdrDistanceWith(EdrKernel::kScalar, scratch, a, b, kEps); });
    row.bitparallel_s =
        SecondsPerCall([&] { return EdrDistanceBitParallel(a, b, kEps, scratch); });
    rows.push_back(row);
    identical = identical && EdrDistance(a, b, kEps) ==
                                 EdrDistanceBitParallel(a, b, kEps, scratch);
    std::fprintf(stderr, "len=%zu scalar=%.0fns scratch=%.0fns bitpar=%.0fns (%.1fx)\n",
                 len, row.scalar_s * 1e9, row.scalar_scratch_s * 1e9,
                 row.bitparallel_s * 1e9, row.scalar_s / row.bitparallel_s);
  }

  // --- Per level: the bit-parallel kernel pinned to each dispatch
  // level at the Kung-fu length, on the word skip's best and worst case.
  constexpr size_t kLevelLength = 640;
  const Trajectory walk = MakeWalk(77, kLevelLength);
  const Trajectory uniform = MakeUniform(78, kLevelLength);
  struct LevelPair {
    const char* name;
    Trajectory a, b;
  };
  const LevelPair level_pairs[] = {
      {"walk", walk, MakeNoisyCopy(walk, 79)},
      {"uniform", uniform, MakeUniform(80, kLevelLength)},
  };
  std::vector<LevelRow> level_rows;
  for (const LevelPair& pair : level_pairs) {
    const int expected = EdrDistance(pair.a, pair.b, kEps);
    double scalar_level_s = 0.0;  // kLevels starts with kScalar
    for (const KernelLevel level : kLevels) {
      LevelRow row;
      row.pattern = pair.name;
      row.level = level;
      row.supported = SetActiveKernelLevel(level);
      if (row.supported) {
        row.identical =
            EdrDistanceBitParallel(pair.a, pair.b, kEps, scratch) == expected;
        row.seconds = SecondsPerCall([&] {
          return EdrDistanceBitParallel(pair.a, pair.b, kEps, scratch);
        });
        if (level == KernelLevel::kScalar) scalar_level_s = row.seconds;
        row.speedup_vs_scalar_level = scalar_level_s / row.seconds;
        identical = identical && row.identical;
        std::fprintf(stderr, "%s level=%s %.0fns%s\n", pair.name,
                     KernelLevelName(level), row.seconds * 1e9,
                     row.identical ? "" : " MISMATCH");
      }
      level_rows.push_back(row);
    }
  }
  ResetActiveKernelLevel();

  // --- End-to-end: combined searcher and sequential scan on a random-walk
  // dataset, scalar kernel vs bit-parallel kernel (both with the bounded
  // refinement wiring; identical results certified below).
  RandomWalkOptions walk_options;
  walk_options.count = 400;
  walk_options.min_length = 60;
  walk_options.max_length = 256;
  walk_options.seed = 5;
  const TrajectoryDataset db = GenRandomWalk(walk_options);
  std::vector<Trajectory> queries;
  for (uint64_t q = 0; q < 5; ++q) queries.push_back(MakeWalk(900 + q, 128));
  constexpr size_t kK = 20;

  CombinedOptions combined_options;

  struct EndToEnd {
    double seq_s = 0.0;
    double combined_s = 0.0;
  };
  EndToEnd e2e[2];
  std::vector<KnnResult> reference;
  bool lossless = true;
  for (const EdrKernel kernel : {EdrKernel::kScalar, EdrKernel::kBitParallel}) {
    SetDefaultEdrKernel(kernel);
    const int slot = kernel == EdrKernel::kScalar ? 0 : 1;
    const CombinedKnnSearcher searcher(db, kEps, combined_options);
    for (int rep = 0; rep < (smoke ? 1 : 3); ++rep) {
      double seq_s = 0.0;
      double comb_s = 0.0;
      for (size_t q = 0; q < queries.size(); ++q) {
        const KnnResult seq = SequentialScanKnn(db, queries[q], kK, kEps);
        const KnnResult comb = searcher.Knn(queries[q], kK);
        seq_s += seq.stats.elapsed_seconds;
        comb_s += comb.stats.elapsed_seconds;
        if (kernel == EdrKernel::kScalar && rep == 0) {
          reference.push_back(seq);
        }
        lossless = lossless && SameKnnDistances(reference[q], seq) &&
                   SameKnnDistances(reference[q], comb);
      }
      // Keep the fastest of three repetitions per kernel.
      seq_s /= static_cast<double>(queries.size());
      comb_s /= static_cast<double>(queries.size());
      if (rep == 0 || seq_s < e2e[slot].seq_s) e2e[slot].seq_s = seq_s;
      if (rep == 0 || comb_s < e2e[slot].combined_s) {
        e2e[slot].combined_s = comb_s;
      }
    }
  }
  SetDefaultEdrKernel(EdrKernel::kBitParallel);

  // --- JSON out.
  std::fprintf(out,
               "{\n  \"bench\": \"edr_kernel\",\n  \"smoke\": %s,\n"
               "  \"epsilon\": %.3f,\n",
               smoke ? "true" : "false", kEps);
  std::fprintf(out, "  \"kernels\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const KernelRow& r = rows[i];
    const double cells =
        static_cast<double>(r.length) * static_cast<double>(r.length);
    std::fprintf(out,
                 "    {\"length\": %zu, \"scalar_ns\": %.1f, "
                 "\"scalar_scratch_ns\": %.1f, \"bitparallel_ns\": %.1f, "
                 "\"scalar_cells_per_sec\": %.3e, "
                 "\"bitparallel_cells_per_sec\": %.3e, "
                 "\"speedup_vs_scalar\": %.2f}%s\n",
                 r.length, r.scalar_s * 1e9, r.scalar_scratch_s * 1e9,
                 r.bitparallel_s * 1e9, cells / r.scalar_s,
                 cells / r.bitparallel_s, r.scalar_s / r.bitparallel_s,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  // Unsupported levels keep their rows (zero timings) so every host emits
  // the same keys.
  std::fprintf(out, "  \"levels\": [\n");
  const double level_cells = static_cast<double>(kLevelLength) *
                             static_cast<double>(kLevelLength);
  for (size_t i = 0; i < level_rows.size(); ++i) {
    const LevelRow& r = level_rows[i];
    std::fprintf(out,
                 "    {\"pattern\": \"%s\", \"level\": \"%s\", "
                 "\"length\": %zu, \"supported\": %s, \"ns\": %.1f, "
                 "\"cells_per_sec\": %.3e, \"speedup_vs_scalar_level\": %.2f, "
                 "\"identical\": %s}%s\n",
                 r.pattern, KernelLevelName(r.level), kLevelLength,
                 r.supported ? "true" : "false", r.seconds * 1e9,
                 r.supported ? level_cells / r.seconds : 0.0,
                 r.speedup_vs_scalar_level,
                 r.identical ? "true" : "false",
                 i + 1 < level_rows.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out, "  \"identical\": %s,\n", identical ? "true" : "false");
  bench::FprintHostJson(out);
  std::fprintf(out,
               "  \"knn\": {\"db_size\": %zu, \"k\": %zu, \"queries\": %zu,\n"
               "    \"seqscan_scalar_s\": %.6f, \"seqscan_bitparallel_s\": %.6f,\n"
               "    \"combined_scalar_s\": %.6f, \"combined_bitparallel_s\": %.6f,\n"
               "    \"seqscan_speedup\": %.2f, \"combined_speedup\": %.2f,\n"
               "    \"lossless\": %s}\n",
               db.size(), kK, queries.size(), e2e[0].seq_s, e2e[1].seq_s,
               e2e[0].combined_s, e2e[1].combined_s,
               e2e[0].seq_s / e2e[1].seq_s,
               e2e[0].combined_s / e2e[1].combined_s,
               lossless ? "true" : "false");
  std::fprintf(out, "}\n");
  if (out != stdout) std::fclose(out);
  return lossless && identical ? 0 : 1;
}
