#include "core/cpu.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace edr {

namespace {

// True when the running CPU supports the instruction set *and* the build
// can emit it (x86-64, GCC/Clang, SIMD not disabled). Each probe runs
// once; KernelLevelSupported is how the rest of the library asks, so one
// binary dispatches correctly on any x86-64 machine.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(EDR_DISABLE_SIMD)

bool CpuHasAvx2() {
  static const bool has = __builtin_cpu_supports("avx2") != 0;
  return has;
}

/// The AVX-512 foundation subset (AVX-512F) the kernels need.
bool CpuHasAvx512() {
  static const bool has = __builtin_cpu_supports("avx512f") != 0;
  return has;
}

#else

bool CpuHasAvx2() { return false; }
bool CpuHasAvx512() { return false; }

#endif

}  // namespace

const char* KernelLevelName(KernelLevel level) {
  switch (level) {
    case KernelLevel::kScalar: return "scalar";
    case KernelLevel::kSse2: return "sse2";
    case KernelLevel::kAvx2: return "avx2";
    case KernelLevel::kAvx512: return "avx512";
  }
  return "?";
}

bool ParseKernelLevel(const char* name, KernelLevel* out) {
  if (name == nullptr) return false;
  for (const KernelLevel level :
       {KernelLevel::kScalar, KernelLevel::kSse2, KernelLevel::kAvx2,
        KernelLevel::kAvx512}) {
    if (std::strcmp(name, KernelLevelName(level)) == 0) {
      *out = level;
      return true;
    }
  }
  return false;
}

bool KernelLevelSupported(KernelLevel level) {
  switch (level) {
    case KernelLevel::kScalar:
      return true;
    case KernelLevel::kSse2:
#if defined(__SSE2__) && !defined(EDR_DISABLE_SIMD)
      return true;
#else
      return false;
#endif
    case KernelLevel::kAvx2:
      return CpuHasAvx2();
    case KernelLevel::kAvx512:
      return CpuHasAvx512();
  }
  return false;
}

namespace {

/// -1 = unresolved; re-resolved lazily after ResetActiveKernelLevel.
std::atomic<int> g_active_level{-1};

KernelLevel WidestSupportedLevel() {
  if (CpuHasAvx512()) return KernelLevel::kAvx512;
  if (CpuHasAvx2()) return KernelLevel::kAvx2;
  if (KernelLevelSupported(KernelLevel::kSse2)) return KernelLevel::kSse2;
  return KernelLevel::kScalar;
}

KernelLevel ResolveActiveLevel() {
  const char* env = std::getenv("EDR_FORCE_KERNEL");
  if (env == nullptr || env[0] == '\0') return WidestSupportedLevel();
  KernelLevel forced;
  if (!ParseKernelLevel(env, &forced)) {
    std::fprintf(stderr,
                 "EDR_FORCE_KERNEL: unknown kernel level \"%s\" "
                 "(expected scalar|sse2|avx2|avx512)\n",
                 env);
    std::exit(2);
  }
  if (!KernelLevelSupported(forced)) {
    std::fprintf(stderr,
                 "EDR_FORCE_KERNEL: kernel level \"%s\" is not supported on "
                 "this host/build\n",
                 env);
    std::exit(2);
  }
  return forced;
}

}  // namespace

KernelLevel ActiveKernelLevel() {
  int v = g_active_level.load(std::memory_order_relaxed);
  if (v < 0) {
    // Benign race: concurrent first callers resolve the same value.
    v = static_cast<int>(ResolveActiveLevel());
    g_active_level.store(v, std::memory_order_relaxed);
  }
  return static_cast<KernelLevel>(v);
}

bool SetActiveKernelLevel(KernelLevel level) {
  if (!KernelLevelSupported(level)) return false;
  g_active_level.store(static_cast<int>(level), std::memory_order_relaxed);
  return true;
}

void ResetActiveKernelLevel() {
  g_active_level.store(-1, std::memory_order_relaxed);
}

}  // namespace edr
