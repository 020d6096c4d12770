#ifndef EDR_DISTANCE_EDR_KERNEL_H_
#define EDR_DISTANCE_EDR_KERNEL_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <new>
#include <vector>

#include "core/trajectory.h"
#include "core/trajectory3.h"

namespace edr {

/// The EDR verification kernels. EDR (Definition 2) is unit-cost edit
/// distance under the epsilon-match predicate (Definition 1), so Myers'
/// bit-parallel Levenshtein recurrence applies exactly: the scalar
/// O(m*n)-cell DP and the O(ceil(m/64)*n)-word bit-parallel kernel compute
/// the *same integer* on every input. The kernel choice is therefore a pure
/// performance knob — every searcher stays lossless under either one.
enum class EdrKernel {
  kScalar,       ///< Rolling two-row integer DP (the paper's formulation).
  kBitParallel,  ///< Myers/Hyyro word-parallel DP, 64 rows per machine word.
};

const char* EdrKernelName(EdrKernel kernel);

/// Process-wide kernel used by the searchers' refinement loops. Defaults to
/// kBitParallel; tests flip it to certify result-identity across kernels.
/// (Banded EDR has no bit-parallel form and always uses the scalar DP.)
EdrKernel DefaultEdrKernel();
void SetDefaultEdrKernel(EdrKernel kernel);

/// Allocates on 64-byte (cache-line) boundaries. The widest match kernel
/// reads each 8-row group of the SoA pattern copy with one 64-byte load;
/// from a line-aligned buffer that load never straddles two cache lines,
/// wherever earlier allocations happened to leave the heap.
template <typename T>
struct CacheLineAllocator {
  using value_type = T;
  static constexpr std::align_val_t kAlignment{64};

  CacheLineAllocator() = default;
  template <typename U>
  CacheLineAllocator(const CacheLineAllocator<U>&) {}

  T* allocate(size_t n) {
    return static_cast<T*>(::operator new(n * sizeof(T), kAlignment));
  }
  void deallocate(T* p, size_t) { ::operator delete(p, kAlignment); }

  friend bool operator==(const CacheLineAllocator&,
                         const CacheLineAllocator&) {
    return true;
  }
};

/// Reusable working memory for the EDR kernels, sized once and grown
/// monotonically, so no distance call on a query's refinement loop touches
/// the allocator. One instance per thread; see ThreadLocalEdrScratch().
///
/// Layout: a flat SoA copy of the pattern trajectory (px/py/pz) that the
/// match tests stream over, padded with NaN up to whole 64-row words so
/// every kernel level runs whole words with no tail (NaN never
/// epsilon-matches); the bounding box of every 8-row group of that copy
/// (box, kBoxStride doubles per word: eight min-x, eight max-x, then y and
/// z likewise), which lets a kernel prove a whole word mismatches without
/// the exact compares; the two bit-vector words of the Myers recurrence
/// (vp/vn, one bit per pattern row; the match words are built inside the
/// word loop and never stored); and the two rolling integer rows of the
/// scalar DP. The pattern rows and boxes start on cache-line boundaries
/// (CacheLineAllocator).
class EdrScratch {
 public:
  static constexpr size_t kBoxStride = 6 * 8;

  /// Ensures capacity for a pattern of length m: ceil(m/64) words, i.e.
  /// the padded SoA rows, their group boxes and the bit-vector words.
  /// Never shrinks.
  void ReservePattern(size_t m) {
    const size_t words = (m + 63) / 64;
    if (vp_.size() < words) {
      px_.resize(words * 64);
      py_.resize(words * 64);
      pz_.resize(words * 64);
      box_.resize(words * kBoxStride);
      vp_.resize(words);
      vn_.resize(words);
    }
  }

  /// Ensures capacity for scalar DP rows over a text of length n.
  void ReserveRows(size_t n) {
    if (prev_.size() < n + 1) {
      prev_.resize(n + 1);
      curr_.resize(n + 1);
    }
  }

  double* px() { return px_.data(); }
  double* py() { return py_.data(); }
  double* pz() { return pz_.data(); }
  double* box() { return box_.data(); }
  uint64_t* vp() { return vp_.data(); }
  uint64_t* vn() { return vn_.data(); }
  int* prev_row() { return prev_.data(); }
  int* curr_row() { return curr_.data(); }

 private:
  std::vector<double, CacheLineAllocator<double>> px_, py_, pz_, box_;
  std::vector<uint64_t> vp_, vn_;
  std::vector<int> prev_, curr_;
};

/// The calling thread's scratch buffer. Parallel users (pool workers
/// refining a batch, PairwiseEdrMatrix::BuildParallel) each get their own
/// copy for free; single-threaded searchers share one warm buffer per
/// thread.
EdrScratch& ThreadLocalEdrScratch();

/// Bound value meaning "no early abandon": large enough that no reachable
/// EDR value or per-column lower bound exceeds it, small enough that the
/// bound arithmetic cannot overflow int.
inline constexpr int kEdrNoBound = std::numeric_limits<int>::max() / 4;

/// Converts a KnnResultList::KthDistance() pruning threshold into an
/// EdrDistanceBounded*-style integer bound. +infinity (fewer than k
/// neighbors stored yet) disables abandoning so seed distances stay exact;
/// -infinity (k == 0, nothing can ever be kept) makes every computation
/// abandon immediately.
inline int EdrBoundFromKthDistance(double kth_distance) {
  if (std::isinf(kth_distance)) return kth_distance > 0.0 ? kEdrNoBound : -1;
  return static_cast<int>(kth_distance);
}

/// Exact EDR via the bit-parallel kernel. Bit-identical to EdrDistance.
int EdrDistanceBitParallel(const Trajectory& r, const Trajectory& s,
                           double epsilon, EdrScratch& scratch);
int EdrDistanceBitParallel(const Trajectory3& r, const Trajectory3& s,
                           double epsilon, EdrScratch& scratch);

/// Early-abandoning bit-parallel EDR with Hyyro-style score tracking:
/// exact when the result is <= bound, otherwise returns a lower bound
/// strictly greater than `bound` (drop-in for EdrDistanceBounded's
/// contract; the out-of-bound value itself may differ from the scalar
/// row-minimum, which no caller depends on).
int EdrDistanceBitParallelBounded(const Trajectory& r, const Trajectory& s,
                                  double epsilon, int bound,
                                  EdrScratch& scratch);
int EdrDistanceBitParallelBounded(const Trajectory3& r, const Trajectory3& s,
                                  double epsilon, int bound,
                                  EdrScratch& scratch);

/// Kernel-dispatched exact EDR. Both kernels run allocation-free out of
/// `scratch` once it is warm.
int EdrDistanceWith(EdrKernel kernel, EdrScratch& scratch,
                    const Trajectory& r, const Trajectory& s, double epsilon);
int EdrDistanceWith(EdrKernel kernel, EdrScratch& scratch,
                    const Trajectory3& r, const Trajectory3& s,
                    double epsilon);

/// Kernel-dispatched early-abandoning EDR (EdrDistanceBounded contract).
int EdrDistanceBoundedWith(EdrKernel kernel, EdrScratch& scratch,
                           const Trajectory& r, const Trajectory& s,
                           double epsilon, int bound);
int EdrDistanceBoundedWith(EdrKernel kernel, EdrScratch& scratch,
                           const Trajectory3& r, const Trajectory3& s,
                           double epsilon, int bound);

}  // namespace edr

#endif  // EDR_DISTANCE_EDR_KERNEL_H_
