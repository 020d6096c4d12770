#ifndef EDR_CORE_CPU_H_
#define EDR_CORE_CPU_H_

namespace edr {

/// Lane widths the integer sweep / merge-count / match-vector kernels are
/// compiled for. Every level computes bit-identical results — the level is
/// a pure performance knob — so kernels may be pinned freely for debugging
/// or CI without changing any searcher's answer.
enum class KernelLevel {
  kScalar = 0,  ///< portable C++ bodies, every platform
  kSse2,        ///< 128-bit lanes (baseline on x86-64)
  kAvx2,        ///< 256-bit lanes
  kAvx512,      ///< 512-bit lanes (AVX-512F)
};

/// "scalar", "sse2", "avx2", "avx512".
const char* KernelLevelName(KernelLevel level);

/// Parses a kernel-level name as accepted by EDR_FORCE_KERNEL. Returns
/// false (leaving *out untouched) for unknown names.
bool ParseKernelLevel(const char* name, KernelLevel* out);

/// True when this build can emit the level's instructions *and* the running
/// CPU executes them. kScalar is always supported; every SIMD level is
/// unsupported under EDR_DISABLE_SIMD.
bool KernelLevelSupported(KernelLevel level);

/// The level all dispatching kernels run at, resolved on first use:
/// the EDR_FORCE_KERNEL environment variable (scalar|sse2|avx2|avx512)
/// when set — exiting with an error message if the named level is unknown
/// or unsupported on this host/build — otherwise the widest supported
/// level. Kernels re-read this per call, so tests can flip it at runtime.
KernelLevel ActiveKernelLevel();

/// Pins the active level (test/debug hook; EDR_FORCE_KERNEL is the
/// equivalent for whole processes). Returns false, leaving the level
/// unchanged, when the requested level is unsupported here.
bool SetActiveKernelLevel(KernelLevel level);

/// Drops any pinned level; the next ActiveKernelLevel() call re-resolves
/// from the environment / CPU probe.
void ResetActiveKernelLevel();

}  // namespace edr

#endif  // EDR_CORE_CPU_H_
