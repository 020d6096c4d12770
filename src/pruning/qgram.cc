#include "pruning/qgram.h"

#include <algorithm>
#include <cmath>

#include "core/cpu.h"
#include "query/thread_pool.h"

#if defined(__x86_64__) && defined(__GNUC__) && !defined(EDR_DISABLE_SIMD)
#include <immintrin.h>
#define EDR_QGRAM_AVX2 1
#define EDR_QGRAM_AVX512 1
#endif

namespace edr {

std::vector<Point2> MeanValueQgrams(const Trajectory& t, int q) {
  std::vector<Point2> means;
  if (q <= 0 || t.size() < static_cast<size_t>(q)) return means;
  const size_t grams = t.size() - static_cast<size_t>(q) + 1;
  means.reserve(grams);
  // Each window is summed afresh (q is 1..4 in the paper). A running sum
  // would carry the rounding error of a large element, or its NaN, into
  // every later window after the element has left it.
  const double inv_q = 1.0 / static_cast<double>(q);
  for (size_t i = 0; i < grams; ++i) {
    double sum_x = 0.0;
    double sum_y = 0.0;
    for (size_t j = i; j < i + static_cast<size_t>(q); ++j) {
      sum_x += t[j].x;
      sum_y += t[j].y;
    }
    const Point2 mean{sum_x * inv_q, sum_y * inv_q};
    if (!std::isnan(mean.x) && !std::isnan(mean.y)) means.push_back(mean);
  }
  return means;
}

std::vector<double> MeanValueQgrams1D(const Trajectory& t, int q, bool use_x) {
  std::vector<double> means;
  if (q <= 0 || t.size() < static_cast<size_t>(q)) return means;
  const size_t grams = t.size() - static_cast<size_t>(q) + 1;
  means.reserve(grams);
  const double inv_q = 1.0 / static_cast<double>(q);
  for (size_t i = 0; i < grams; ++i) {
    double sum = 0.0;
    for (size_t j = i; j < i + static_cast<size_t>(q); ++j) {
      sum += use_x ? t[j].x : t[j].y;
    }
    const double mean = sum * inv_q;
    if (!std::isnan(mean)) means.push_back(mean);
  }
  return means;
}

long QgramCountThreshold(size_t m, size_t n, int q, long k) {
  const long max_len = static_cast<long>(std::max(m, n));
  return max_len - static_cast<long>(q) + 1 - k * static_cast<long>(q);
}

void SortMeans(std::vector<Point2>& means) {
  std::sort(means.begin(), means.end(), [](Point2 a, Point2 b) {
    if (a.x != b.x) return a.x < b.x;
    return a.y < b.y;
  });
}

size_t CountMatchingMeans2D(const std::vector<Point2>& query_means,
                            const std::vector<Point2>& data_means,
                            double epsilon) {
  size_t count = 0;
  size_t window_start = 0;
  // Merge join: both lists are sorted by x, so for each query mean the
  // x-compatible data means form a window that only advances.
  for (const Point2& qm : query_means) {
    while (window_start < data_means.size() &&
           data_means[window_start].x < qm.x - epsilon) {
      ++window_start;
    }
    for (size_t j = window_start; j < data_means.size(); ++j) {
      if (data_means[j].x > qm.x + epsilon) break;
      if (std::fabs(data_means[j].y - qm.y) <= epsilon) {
        ++count;
        break;
      }
    }
  }
  return count;
}

size_t CountMatchingMeans1D(const std::vector<double>& query_means,
                            const std::vector<double>& data_means,
                            double epsilon) {
  size_t count = 0;
  size_t window_start = 0;
  for (const double qm : query_means) {
    while (window_start < data_means.size() &&
           data_means[window_start] < qm - epsilon) {
      ++window_start;
    }
    if (window_start < data_means.size() &&
        data_means[window_start] <= qm + epsilon) {
      ++count;
    }
  }
  return count;
}

namespace {

/// First index in [begin, end) with xs[idx] >= limit, by galloping:
/// exponential probe from `begin`, then binary search the bracketed run.
/// Equivalent to std::lower_bound but O(log gap) when the answer is near
/// `begin` — the common case for sorted merge windows that only advance.
///
/// This, the window scans below and AtLeastMatches2D start on 64-byte
/// boundaries, like the Myers kernels, so their loops keep their place in
/// the instruction fetch windows when unrelated code linked before them
/// changes size.
__attribute__((aligned(64))) size_t GallopLowerBound(const double* xs,
                                                     size_t begin, size_t end,
                                                     double limit) {
  if (begin >= end || xs[begin] >= limit) return begin;
  size_t offset = 1;
  while (begin + offset < end && xs[begin + offset] < limit) offset <<= 1;
  // xs[begin + offset/2] < limit held on the last passing probe; the
  // answer lies in (begin + offset/2, min(begin + offset, end)].
  const double* lo = xs + begin + offset / 2 + 1;
  const double* hi = xs + std::min(begin + offset, end);
  return static_cast<size_t>(std::lower_bound(lo, hi, limit) - xs);
}

}  // namespace

QgramMeansTable::QgramMeansTable(const TrajectoryDataset& db, int q,
                                 int dims)
    : dims_(dims) {
  // Each trajectory sorts and writes its means into its own disjoint
  // slice, making the build embarrassingly parallel while producing the
  // exact array a sequential append would. A slice holds every window
  // whose mean is a number, so the slices are sized by a first pass that
  // counts them.
  const size_t n = db.size();
  const auto gram_count = [&](size_t id) {
    return dims_ == 2 ? MeanValueQgrams(db[id], q).size()
                      : MeanValueQgrams1D(db[id], q, /*use_x=*/true).size();
  };
  offsets_.assign(n + 1, 0);
  ThreadPool::Global().ParallelFor(n, [&](size_t id) {
    offsets_[id + 1] = static_cast<uint32_t>(gram_count(id));
  });
  for (size_t id = 0; id < n; ++id) offsets_[id + 1] += offsets_[id];
  xs_.resize(offsets_[n]);
  if (dims_ == 2) ys_.resize(offsets_[n]);

  ThreadPool::Global().ParallelFor(n, [&](size_t id) {
    const uint32_t begin = offsets_[id];
    if (dims_ == 2) {
      std::vector<Point2> means = MeanValueQgrams(db[id], q);
      SortMeans(means);
      for (size_t i = 0; i < means.size(); ++i) {
        xs_[begin + i] = means[i].x;
        ys_[begin + i] = means[i].y;
      }
    } else {
      std::vector<double> means = MeanValueQgrams1D(db[id], q, /*use_x=*/true);
      std::sort(means.begin(), means.end());
      std::copy(means.begin(), means.end(), xs_.begin() + begin);
    }
  });
}

namespace {

/// One window scan of the 2-D merge-count: true iff some j in
/// [window_start, end) with xs[j] <= x_hi has |ys[j] - qy| <= epsilon,
/// stopping at the first j with xs[j] > x_hi (xs is sorted).
__attribute__((aligned(64))) inline bool WindowHasMatchScalar(
    const double* xs, const double* ys, size_t window_start, size_t end,
    double x_hi, double qy, double epsilon) {
  for (size_t j = window_start; j < end; ++j) {
    if (xs[j] > x_hi) return false;
    if (std::fabs(ys[j] - qy) <= epsilon) return true;
  }
  return false;
}

#if defined(EDR_QGRAM_AVX2)

/// AVX2 window scan, 4 mean pairs per step: identical per-lane comparisons
/// to the scalar loop (no arithmetic reassociation), so the answer is
/// bit-identical. A block is conclusive as soon as either a lane matches
/// (in-window x AND y within epsilon) or some lane leaves the x-window —
/// the match mask already excludes out-of-window lanes, and the sorted xs
/// guarantee nothing beyond the first out-of-window lane can match.
__attribute__((target("avx2"), aligned(64))) bool WindowHasMatchAvx2(
    const double* xs, const double* ys, size_t window_start, size_t end,
    double x_hi, double qy, double epsilon) {
  const __m256d v_hi = _mm256_set1_pd(x_hi);
  const __m256d v_qy = _mm256_set1_pd(qy);
  const __m256d v_eps = _mm256_set1_pd(epsilon);
  const __m256d abs_mask =
      _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fffffffffffffffLL));
  size_t j = window_start;
  for (; j + 4 <= end; j += 4) {
    const __m256d x = _mm256_loadu_pd(xs + j);
    const __m256d in_window = _mm256_cmp_pd(x, v_hi, _CMP_LE_OQ);
    const int in_bits = _mm256_movemask_pd(in_window);
    if (in_bits == 0) return false;  // Whole block past the window.
    const __m256d y = _mm256_loadu_pd(ys + j);
    const __m256d dy =
        _mm256_and_pd(_mm256_sub_pd(y, v_qy), abs_mask);
    const __m256d y_ok = _mm256_cmp_pd(dy, v_eps, _CMP_LE_OQ);
    if (_mm256_movemask_pd(_mm256_and_pd(in_window, y_ok)) != 0) return true;
    if (in_bits != 0xf) return false;  // Window ended inside the block.
  }
  return WindowHasMatchScalar(xs, ys, j, end, x_hi, qy, epsilon);
}

#endif  // defined(EDR_QGRAM_AVX2)

#if defined(EDR_QGRAM_AVX512)

/// AVX-512 window scan, 8 mean pairs per step. Same early-exit logic as
/// the AVX2 body, using predicate masks directly: sorted xs make the
/// in-window mask a *prefix* mask, so a match bit can never sit past the
/// first out-of-window lane and the block verdicts match scalar order.
__attribute__((target("avx512f"), aligned(64))) bool WindowHasMatchAvx512(
    const double* xs, const double* ys, size_t window_start, size_t end,
    double x_hi, double qy, double epsilon) {
  const __m512d v_hi = _mm512_set1_pd(x_hi);
  const __m512d v_qy = _mm512_set1_pd(qy);
  const __m512d v_eps = _mm512_set1_pd(epsilon);
  size_t j = window_start;
  for (; j + 8 <= end; j += 8) {
    const __m512d x = _mm512_loadu_pd(xs + j);
    const __mmask8 in_window = _mm512_cmp_pd_mask(x, v_hi, _CMP_LE_OQ);
    if (in_window == 0) return false;  // Whole block past the window.
    const __m512d y = _mm512_loadu_pd(ys + j);
    const __m512d dy = _mm512_abs_pd(_mm512_sub_pd(y, v_qy));
    const __mmask8 y_ok = _mm512_cmp_pd_mask(dy, v_eps, _CMP_LE_OQ);
    if ((in_window & y_ok) != 0) return true;
    if (in_window != 0xff) return false;  // Window ended inside the block.
  }
  return WindowHasMatchScalar(xs, ys, j, end, x_hi, qy, epsilon);
}

#endif  // defined(EDR_QGRAM_AVX512)

using WindowHasMatchFn = bool (*)(const double*, const double*, size_t,
                                  size_t, double, double, double);

/// Kernel for a dispatch level, resolved per CountMatches2D call from
/// ActiveKernelLevel() so EDR_FORCE_KERNEL / test pins are honored. The
/// merge-count has no profitable 128-bit double variant on x86 (2 lanes
/// don't amortize the mask extraction), so kSse2 shares the scalar body.
WindowHasMatchFn WindowHasMatchFor(KernelLevel level) {
  switch (level) {
#if defined(EDR_QGRAM_AVX512)
    case KernelLevel::kAvx512: return WindowHasMatchAvx512;
#endif
#if defined(EDR_QGRAM_AVX2)
    case KernelLevel::kAvx2: return WindowHasMatchAvx2;
#endif
    default: return WindowHasMatchScalar;
  }
}

}  // namespace

size_t QgramMeansTable::CountMatches2D(const std::vector<Point2>& query_means,
                                       double epsilon, uint32_t id) const {
  const size_t end = offsets_[id + 1];
  const WindowHasMatchFn window_has_match =
      WindowHasMatchFor(ActiveKernelLevel());
  size_t count = 0;
  size_t window_start = offsets_[id];
  for (const Point2& qm : query_means) {
    window_start =
        GallopLowerBound(xs_.data(), window_start, end, qm.x - epsilon);
    if (window_has_match(xs_.data(), ys_.data(), window_start, end,
                         qm.x + epsilon, qm.y, epsilon)) {
      ++count;
    }
  }
  return count;
}

__attribute__((aligned(64))) bool QgramMeansTable::AtLeastMatches2D(
    const std::vector<Point2>& query_means, double epsilon, uint32_t id,
    size_t threshold) const {
  // The same merge as CountMatches2D, so the count after every query mean
  // equals its prefix count there. It can only grow by one per query mean
  // still to come, and once the window reaches the end of the slice no
  // later mean matches (GallopLowerBound and the window scan both return
  // empty from there).
  const size_t end = offsets_[id + 1];
  const WindowHasMatchFn window_has_match =
      WindowHasMatchFor(ActiveKernelLevel());
  size_t count = 0;
  size_t window_start = offsets_[id];
  size_t left = query_means.size();
  for (const Point2& qm : query_means) {
    if (count >= threshold) return true;
    if (count + left < threshold || window_start == end) return false;
    --left;
    window_start =
        GallopLowerBound(xs_.data(), window_start, end, qm.x - epsilon);
    if (window_has_match(xs_.data(), ys_.data(), window_start, end,
                         qm.x + epsilon, qm.y, epsilon)) {
      ++count;
    }
  }
  return count >= threshold;
}

size_t QgramMeansTable::CountMatches1D(const std::vector<double>& query_means,
                                       double epsilon, uint32_t id) const {
  const size_t end = offsets_[id + 1];
  size_t count = 0;
  size_t window_start = offsets_[id];
  for (const double qm : query_means) {
    window_start =
        GallopLowerBound(xs_.data(), window_start, end, qm - epsilon);
    if (window_start < end && xs_[window_start] <= qm + epsilon) ++count;
  }
  return count;
}

}  // namespace edr
