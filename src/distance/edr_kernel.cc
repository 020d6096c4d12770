#include "distance/edr_kernel.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <limits>
#include <type_traits>

#include "core/cpu.h"

#if defined(__SSE2__) && !defined(EDR_DISABLE_SIMD)
#include <emmintrin.h>
#define EDR_EDRKERNEL_SSE2 1
#endif

#if defined(__x86_64__) && defined(__GNUC__) && !defined(EDR_DISABLE_SIMD)
#include <immintrin.h>
#define EDR_EDRKERNEL_AVX2 1
#define EDR_EDRKERNEL_AVX512 1
#endif

namespace edr {

namespace {

std::atomic<EdrKernel> g_default_kernel{EdrKernel::kBitParallel};

// ---------------------------------------------------------------------------
// Pattern preparation. The match compares stream over a flat SoA copy of
// the pattern (the compiler cannot vectorize over the AoS Point2/Point3
// layout inside Trajectory), padded with NaN to whole 64-row words, plus
// the bounding box of each 8-row group of it.
// ---------------------------------------------------------------------------

constexpr size_t kBoxStride = EdrScratch::kBoxStride;
// Offsets of the eight-group fields inside one word's kBoxStride block.
constexpr size_t kMinX = 0;
constexpr size_t kMaxX = 8;
constexpr size_t kMinY = 16;
constexpr size_t kMaxY = 24;
constexpr size_t kMinZ = 32;
constexpr size_t kMaxZ = 40;

template <typename PointT>
constexpr bool kIs3D = std::is_same_v<PointT, Point3>;

template <typename PointT>
double PointZ(PointT p) {
  if constexpr (kIs3D<PointT>) {
    return p.z;
  } else {
    return 0.0;
  }
}

/// The padded pattern as the match compares read it: `words` * 64 rows of
/// x/y (and z in 3-D), and the group boxes.
struct Pattern {
  const double* x;
  const double* y;
  const double* z;
  const double* box;
  size_t words;
};

template <typename TrajectoryT>
Pattern FillPattern(EdrScratch& sc, const TrajectoryT& t) {
  constexpr size_t dims = std::is_same_v<TrajectoryT, Trajectory3> ? 3 : 2;
  const size_t m = t.size();
  const size_t words = (m + 63) / 64;
  sc.ReservePattern(m);
  double* const rows[3] = {sc.px(), sc.py(), sc.pz()};
  for (size_t i = 0; i < m; ++i) {
    rows[0][i] = t[i].x;
    rows[1][i] = t[i].y;
    if constexpr (dims == 3) rows[2][i] = t[i].z;
  }
  for (size_t d = 0; d < dims; ++d) {
    std::fill(rows[d] + m, rows[d] + words * 64,
              std::numeric_limits<double>::quiet_NaN());
  }
  // NaN compares false, so NaN rows (the padding included) stay out of
  // their group's box; an all-NaN group keeps the empty box [+inf, -inf].
  double* box = sc.box();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (size_t g = 0; g < words * 8; ++g) {
    double* b = box + (g / 8) * kBoxStride + g % 8;
    for (size_t d = 0; d < dims; ++d) {
      double lo = kInf;
      double hi = -kInf;
      for (size_t i = g * 8; i < g * 8 + 8; ++i) {
        const double v = rows[d][i];
        if (v < lo) lo = v;
        if (v > hi) hi = v;
      }
      b[kMinX + 16 * d] = lo;
      b[kMaxX + 16 * d] = hi;
    }
  }
  return {rows[0], rows[1], rows[2], box, words};
}

// ---------------------------------------------------------------------------
// Match words: bit i of word w is set iff pattern row 64w + i
// epsilon-matches the current text point (Definition 1, boundary inclusive
// — exactly the Match() predicate of the scalar DP). NaN padding rows never
// match, so every level works in whole words.
//
// Word skip: a group box [lo, hi] is *far* from text coordinate s when
// fl(lo - s) > eps or fl(hi - s) < -eps in some dimension. Rounded
// subtraction is monotone in its first operand, so every row value v in
// the box has fl(v - s) >= fl(lo - s) > eps, or fl(v - s) <= fl(hi - s) <
// -eps: |fl(v - s)| > eps, exactly the compare Match() fails on. When all
// eight group boxes of a word are far, the word is 0 without the exact
// compares. Any NaN operand makes both strict compares false, so the group
// is kept and the exact compare decides; results stay bit-identical.
//
// Each dispatch level has one MatchWord function: the box test, then the
// exact compares. MyersCore calls it inside its word loop, and each
// level's entry point is flattened, so the level's compares inline into the
// loop and each word's match bits are built where the recurrence consumes
// them. The match build of word w does not depend on the carry chain, so
// the core overlaps it with the latency-bound carries of the words before.
// ---------------------------------------------------------------------------

template <typename PointT>
bool WordFarScalar(const double* b, PointT s, double eps) {
  bool far = true;
  for (size_t g = 0; g < 8; ++g) {
    bool group_far =
        (b[kMinX + g] - s.x > eps) | (b[kMaxX + g] - s.x < -eps) |
        (b[kMinY + g] - s.y > eps) | (b[kMaxY + g] - s.y < -eps);
    if constexpr (kIs3D<PointT>) {
      group_far |= (b[kMinZ + g] - s.z > eps) | (b[kMaxZ + g] - s.z < -eps);
    }
    far &= group_far;
  }
  return far;
}

// Packs 64 one-byte bools into a word: the partial products of kPackMagic
// land on pairwise-distinct bit positions, so no carries and the pack is
// exact.
constexpr uint64_t kPackMagic = 0x0102040810204080ULL;

inline uint64_t PackMatchBytes(const uint8_t* match) {
  uint64_t bits = 0;
  for (size_t g = 0; g < 8; ++g) {
    uint64_t chunk;
    std::memcpy(&chunk, match + g * 8, sizeof(chunk));
    bits |= ((chunk * kPackMagic) >> 56) << (8 * g);
  }
  return bits;
}

// Scalar reference body: a branch-free compare loop writing one 0/1 byte
// per row, which the compiler vectorizes, then the multiply-pack. Every
// platform compiles it; it is also the kScalar dispatch target and the only
// path under EDR_DISABLE_SIMD.
template <typename PointT>
uint64_t MatchWordScalar(const Pattern& p, size_t w, PointT s,
                         double epsilon) {
  if (WordFarScalar(p.box + w * kBoxStride, s, epsilon)) return 0;
  const size_t base = w * 64;
  uint8_t match[64];
  for (size_t k = 0; k < 64; ++k) {
    bool hit = (std::fabs(p.x[base + k] - s.x) <= epsilon) &
               (std::fabs(p.y[base + k] - s.y) <= epsilon);
    if constexpr (kIs3D<PointT>) {
      hit &= std::fabs(p.z[base + k] - s.z) <= epsilon;
    }
    match[k] = static_cast<uint8_t>(hit);
  }
  return PackMatchBytes(match);
}

#if defined(EDR_EDRKERNEL_SSE2)

// SSE2 path (baseline on x86-64): |d| <= eps computed exactly as the
// scalar Match() — fabs is a sign-bit clear, the compare is the same
// IEEE <= — and two lanes at a time drop straight into the word via
// movemask. The wider-lane variants below repeat the same per-lane
// operations, so every level builds the identical word. The box tests use
// the negated (unordered) compares, so a lane is "near" exactly when it is
// not far. The broadcasts of s and eps are loop-invariant; once inlined
// into the word loop they are hoisted out of it.

inline __m128d NearSse2(const double* lo, const double* hi, __m128d s,
                        __m128d eps, __m128d neg_eps) {
  return _mm_and_pd(_mm_cmpngt_pd(_mm_sub_pd(_mm_loadu_pd(lo), s), eps),
                    _mm_cmpnlt_pd(_mm_sub_pd(_mm_loadu_pd(hi), s), neg_eps));
}

inline __m128d MatchSse2(const double* v, __m128d s, __m128d eps) {
  return _mm_cmple_pd(
      _mm_andnot_pd(_mm_set1_pd(-0.0), _mm_sub_pd(_mm_loadu_pd(v), s)), eps);
}

template <typename PointT>
uint64_t MatchWordSse2(const Pattern& p, size_t w, PointT s,
                       double epsilon) {
  const __m128d eps = _mm_set1_pd(epsilon);
  const __m128d neg_eps = _mm_set1_pd(-epsilon);
  const __m128d sx = _mm_set1_pd(s.x);
  const __m128d sy = _mm_set1_pd(s.y);
  const __m128d sz = _mm_set1_pd(PointZ(s));
  const double* b = p.box + w * kBoxStride;
  __m128d near = _mm_setzero_pd();
  for (size_t g = 0; g < 8; g += 2) {
    __m128d n =
        _mm_and_pd(NearSse2(b + kMinX + g, b + kMaxX + g, sx, eps, neg_eps),
                   NearSse2(b + kMinY + g, b + kMaxY + g, sy, eps, neg_eps));
    if constexpr (kIs3D<PointT>) {
      n = _mm_and_pd(n,
                     NearSse2(b + kMinZ + g, b + kMaxZ + g, sz, eps, neg_eps));
    }
    near = _mm_or_pd(near, n);
  }
  if (_mm_movemask_pd(near) == 0) return 0;
  const size_t base = w * 64;
  uint64_t bits = 0;
  for (size_t k = 0; k < 64; k += 2) {
    __m128d c = _mm_and_pd(MatchSse2(p.x + base + k, sx, eps),
                           MatchSse2(p.y + base + k, sy, eps));
    if constexpr (kIs3D<PointT>) {
      c = _mm_and_pd(c, MatchSse2(p.z + base + k, sz, eps));
    }
    bits |= static_cast<uint64_t>(_mm_movemask_pd(c)) << k;
  }
  return bits;
}

#endif  // defined(EDR_EDRKERNEL_SSE2)

#if defined(EDR_EDRKERNEL_AVX2)

__attribute__((target("avx2"))) inline __m256d NearAvx2(const double* lo,
                                                        const double* hi,
                                                        __m256d s, __m256d eps,
                                                        __m256d neg_eps) {
  return _mm256_and_pd(
      _mm256_cmp_pd(_mm256_sub_pd(_mm256_loadu_pd(lo), s), eps, _CMP_NGT_UQ),
      _mm256_cmp_pd(_mm256_sub_pd(_mm256_loadu_pd(hi), s), neg_eps,
                    _CMP_NLT_UQ));
}

__attribute__((target("avx2"))) inline __m256d MatchAvx2(const double* v,
                                                         __m256d s,
                                                         __m256d eps) {
  return _mm256_cmp_pd(
      _mm256_andnot_pd(_mm256_set1_pd(-0.0),
                       _mm256_sub_pd(_mm256_loadu_pd(v), s)),
      eps, _CMP_LE_OQ);
}

template <typename PointT>
__attribute__((target("avx2"))) uint64_t MatchWordAvx2(const Pattern& p,
                                                       size_t w, PointT s,
                                                       double epsilon) {
  const __m256d eps = _mm256_set1_pd(epsilon);
  const __m256d neg_eps = _mm256_set1_pd(-epsilon);
  const __m256d sx = _mm256_set1_pd(s.x);
  const __m256d sy = _mm256_set1_pd(s.y);
  const __m256d sz = _mm256_set1_pd(PointZ(s));
  const double* b = p.box + w * kBoxStride;
  __m256d near = _mm256_setzero_pd();
  for (size_t g = 0; g < 8; g += 4) {
    __m256d n = _mm256_and_pd(
        NearAvx2(b + kMinX + g, b + kMaxX + g, sx, eps, neg_eps),
        NearAvx2(b + kMinY + g, b + kMaxY + g, sy, eps, neg_eps));
    if constexpr (kIs3D<PointT>) {
      n = _mm256_and_pd(
          n, NearAvx2(b + kMinZ + g, b + kMaxZ + g, sz, eps, neg_eps));
    }
    near = _mm256_or_pd(near, n);
  }
  if (_mm256_movemask_pd(near) == 0) return 0;
  const size_t base = w * 64;
  uint64_t bits = 0;
  for (size_t k = 0; k < 64; k += 4) {
    __m256d c = _mm256_and_pd(MatchAvx2(p.x + base + k, sx, eps),
                              MatchAvx2(p.y + base + k, sy, eps));
    if constexpr (kIs3D<PointT>) {
      c = _mm256_and_pd(c, MatchAvx2(p.z + base + k, sz, eps));
    }
    bits |= static_cast<uint64_t>(_mm256_movemask_pd(c)) << k;
  }
  return bits;
}

#endif  // defined(EDR_EDRKERNEL_AVX2)

#if defined(EDR_EDRKERNEL_AVX512)

// AVX-512 drops the movemask: compares produce mask registers whose bits go
// straight into the word, eight rows (one group) per step. Both the box
// test and the exact test chain masked compares, one per bound or
// dimension, with no mask ANDs. The exact test keeps one ordered compare
// per dimension (AVX-512F only): VRANGEPD's max(|dx|, |dy|) would need
// AVX512DQ and returns the other operand when one is a quiet NaN, so a NaN
// difference could match.

__attribute__((target("avx512f"))) inline __mmask8 NearAvx512(
    __mmask8 k, const double* lo, const double* hi, __m512d s, __m512d eps,
    __m512d neg_eps) {
  k = _mm512_mask_cmp_pd_mask(k, _mm512_sub_pd(_mm512_loadu_pd(lo), s), eps,
                              _CMP_NGT_UQ);
  return _mm512_mask_cmp_pd_mask(k, _mm512_sub_pd(_mm512_loadu_pd(hi), s),
                                 neg_eps, _CMP_NLT_UQ);
}

__attribute__((target("avx512f"))) inline __mmask8 MatchAvx512(
    __mmask8 k, const double* v, __m512d s, __m512d eps) {
  return _mm512_mask_cmp_pd_mask(
      k, _mm512_abs_pd(_mm512_sub_pd(_mm512_loadu_pd(v), s)), eps,
      _CMP_LE_OQ);
}

template <typename PointT>
__attribute__((target("avx512f"))) uint64_t MatchWordAvx512(
    const Pattern& p, size_t w, PointT s, double epsilon) {
  const __m512d eps = _mm512_set1_pd(epsilon);
  const __m512d neg_eps = _mm512_set1_pd(-epsilon);
  const __m512d sx = _mm512_set1_pd(s.x);
  const __m512d sy = _mm512_set1_pd(s.y);
  const __m512d sz = _mm512_set1_pd(PointZ(s));
  const double* b = p.box + w * kBoxStride;
  __mmask8 near = NearAvx512(0xFF, b + kMinX, b + kMaxX, sx, eps, neg_eps);
  near = NearAvx512(near, b + kMinY, b + kMaxY, sy, eps, neg_eps);
  if constexpr (kIs3D<PointT>) {
    near = NearAvx512(near, b + kMinZ, b + kMaxZ, sz, eps, neg_eps);
  }
  if (near == 0) return 0;
  const size_t base = w * 64;
  uint64_t bits = 0;
  for (size_t k = 0; k < 64; k += 8) {
    __mmask8 c = MatchAvx512(0xFF, p.x + base + k, sx, eps);
    c = MatchAvx512(c, p.y + base + k, sy, eps);
    if constexpr (kIs3D<PointT>) {
      c = MatchAvx512(c, p.z + base + k, sz, eps);
    }
    bits |= static_cast<uint64_t>(c) << k;
  }
  return bits;
}

#endif  // defined(EDR_EDRKERNEL_AVX512)

// ---------------------------------------------------------------------------
// Myers' bit-parallel recurrence (Myers 1999, with Hyyro's carry-in
// correction as implemented in edlib). The pattern is the shorter
// trajectory; each machine word holds 64 DP rows as vertical-delta bits
// (vp: +1, vn: -1), and one column of the DP advances with ~15 word ops
// per word, on the word's match bits from MatchWord. The horizontal delta
// carried from word to word is a pair of 0/1 words (hp: +1, hn: -1; never
// both), so the recurrence has no branches. score tracks D[m][j] from the
// last word's horizontal-delta bits at row m, read once per column after
// the word loop.
//
// Unused high bits of the last word start as vp=1 garbage; every operation
// propagates information strictly upward (addition carries, shifts), so
// they never reach the tracked row-m bit and no masking is needed.
//
// `bound` enables Hyyro-style early abandoning: adjacent column scores
// differ by at most 1, so D[m][n] >= score - (columns remaining); once that
// exceeds the bound the scan stops and returns it (a certified lower bound
// strictly greater than the bound). Exact callers pass kEdrNoBound.
// ---------------------------------------------------------------------------

template <auto MatchWord, typename PointT>
int MyersCore(const Pattern& p, const PointT* text, size_t n, size_t m,
              double epsilon, int bound, EdrScratch& sc) {
  const size_t words = p.words;
  uint64_t* vp = sc.vp();
  uint64_t* vn = sc.vn();
  std::fill_n(vp, words, ~uint64_t{0});
  std::fill_n(vn, words, uint64_t{0});
  const unsigned last_row = static_cast<unsigned>((m - 1) & 63);
  int score = static_cast<int>(m);

  for (size_t j = 0; j < n; ++j) {
    const PointT s = text[j];
    // D[0][j] - D[0][j-1] = +1: deleting text costs 1 per step.
    uint64_t hp = 1;
    uint64_t hn = 0;
    uint64_t ph = 0;
    uint64_t mh = 0;
    for (size_t w = 0; w < words; ++w) {
      const uint64_t e = MatchWord(p, w, s, epsilon);
      const uint64_t pv = vp[w];
      const uint64_t mv = vn[w];
      const uint64_t xv = e | mv;
      const uint64_t eqw = e | hn;
      const uint64_t xh = (((eqw & pv) + pv) ^ pv) | eqw;
      ph = mv | ~(xh | pv);
      mh = pv & xh;
      const uint64_t ph_in = (ph << 1) | hp;
      const uint64_t mh_in = (mh << 1) | hn;
      hp = ph >> 63;
      hn = mh >> 63;
      vp[w] = mh_in | ~(xv | ph_in);
      vn[w] = ph_in & xv;
    }
    score += static_cast<int>((ph >> last_row) & 1) -
             static_cast<int>((mh >> last_row) & 1);
    const int floor_now = score - static_cast<int>(n - 1 - j);
    if (floor_now > bound) return floor_now;
  }
  return score;
}

// The fused kernel of each level: MyersCore with that level's MatchWord,
// flattened so the compares inline into the word loop (and, for the
// wider levels, compiled for the level's instruction set). Each starts on
// a 64-byte boundary, so the word loop keeps its place in the instruction
// fetch windows when unrelated code before it in the binary changes size:
// on a 4-core AVX-512 Xeon, a 16-byte shift of the AVX-512 loop cost the
// Kung-fu workload about 10% of its DP throughput.

template <typename PointT>
__attribute__((flatten, aligned(64))) int MyersScalar(
    const Pattern& p, const PointT* text, size_t n, size_t m, double epsilon,
    int bound, EdrScratch& sc) {
  return MyersCore<MatchWordScalar<PointT>>(p, text, n, m, epsilon, bound,
                                            sc);
}

#if defined(EDR_EDRKERNEL_SSE2)
template <typename PointT>
__attribute__((flatten, aligned(64))) int MyersSse2(
    const Pattern& p, const PointT* text, size_t n, size_t m, double epsilon,
    int bound, EdrScratch& sc) {
  return MyersCore<MatchWordSse2<PointT>>(p, text, n, m, epsilon, bound, sc);
}
#endif

#if defined(EDR_EDRKERNEL_AVX2)
template <typename PointT>
__attribute__((target("avx2"), flatten, aligned(64))) int MyersAvx2(
    const Pattern& p, const PointT* text, size_t n, size_t m, double epsilon,
    int bound, EdrScratch& sc) {
  return MyersCore<MatchWordAvx2<PointT>>(p, text, n, m, epsilon, bound, sc);
}
#endif

#if defined(EDR_EDRKERNEL_AVX512)
template <typename PointT>
__attribute__((target("avx512f"), flatten, aligned(64))) int MyersAvx512(
    const Pattern& p, const PointT* text, size_t n, size_t m, double epsilon,
    int bound, EdrScratch& sc) {
  return MyersCore<MatchWordAvx512<PointT>>(p, text, n, m, epsilon, bound,
                                            sc);
}
#endif

template <typename PointT>
using MyersFn = int (*)(const Pattern&, const PointT*, size_t, size_t,
                        double, int, EdrScratch&);

/// Fused kernel for a dispatch level, resolved once per BitParallelEdr
/// call from ActiveKernelLevel(). Levels not compiled into this build fall
/// back to scalar (ActiveKernelLevel never hands them out; the mapping just
/// stays total).
template <typename PointT>
MyersFn<PointT> MyersFor(KernelLevel level) {
  switch (level) {
#if defined(EDR_EDRKERNEL_AVX512)
    case KernelLevel::kAvx512: return MyersAvx512<PointT>;
#endif
#if defined(EDR_EDRKERNEL_AVX2)
    case KernelLevel::kAvx2: return MyersAvx2<PointT>;
#endif
#if defined(EDR_EDRKERNEL_SSE2)
    case KernelLevel::kSse2: return MyersSse2<PointT>;
#endif
    default: return MyersScalar<PointT>;
  }
}

template <typename TrajectoryT>
int BitParallelEdr(const TrajectoryT& r, const TrajectoryT& s, double epsilon,
                   int bound, EdrScratch& sc) {
  // EDR is symmetric; make the shorter trajectory the pattern so the
  // column loop runs over fewer words.
  const TrajectoryT* pat = &r;
  const TrajectoryT* txt = &s;
  if (pat->size() > txt->size()) std::swap(pat, txt);
  const size_t m = pat->size();
  const size_t n = txt->size();
  if (m == 0) return static_cast<int>(n);

  const int length_bound = static_cast<int>(n - m);
  if (length_bound > bound) return length_bound;

  using PointT = std::decay_t<decltype((*txt)[0])>;
  const Pattern pattern = FillPattern(sc, *pat);
  return MyersFor<PointT>(ActiveKernelLevel())(
      pattern, txt->points().data(), n, m, epsilon, bound, sc);
}

// ---------------------------------------------------------------------------
// Scalar kernels, identical cell-by-cell to elastic::Edr / elastic::
// EdrBounded (unbanded) but running out of the reusable scratch rows
// instead of allocating two vectors per call.
// ---------------------------------------------------------------------------

template <typename TrajectoryT>
int ScalarEdr(const TrajectoryT& r, const TrajectoryT& s, double epsilon,
              EdrScratch& sc) {
  const size_t m = r.size();
  const size_t n = s.size();
  if (m == 0) return static_cast<int>(n);
  if (n == 0) return static_cast<int>(m);

  sc.ReserveRows(n);
  int* prev = sc.prev_row();
  int* curr = sc.curr_row();
  for (size_t j = 0; j <= n; ++j) prev[j] = static_cast<int>(j);
  for (size_t i = 1; i <= m; ++i) {
    curr[0] = static_cast<int>(i);
    for (size_t j = 1; j <= n; ++j) {
      const int subcost = Match(r[i - 1], s[j - 1], epsilon) ? 0 : 1;
      curr[j] = std::min({prev[j - 1] + subcost, prev[j] + 1, curr[j - 1] + 1});
    }
    std::swap(prev, curr);
  }
  return prev[n];
}

template <typename TrajectoryT>
int ScalarEdrBounded(const TrajectoryT& r, const TrajectoryT& s,
                     double epsilon, int bound, EdrScratch& sc) {
  const size_t m = r.size();
  const size_t n = s.size();
  if (m == 0) return static_cast<int>(n);
  if (n == 0) return static_cast<int>(m);

  const int length_bound = static_cast<int>(
      m > n ? m - n : n - m);
  if (length_bound > bound) return length_bound;

  sc.ReserveRows(n);
  int* prev = sc.prev_row();
  int* curr = sc.curr_row();
  for (size_t j = 0; j <= n; ++j) prev[j] = static_cast<int>(j);
  for (size_t i = 1; i <= m; ++i) {
    curr[0] = static_cast<int>(i);
    int row_min = curr[0];
    for (size_t j = 1; j <= n; ++j) {
      const int subcost = Match(r[i - 1], s[j - 1], epsilon) ? 0 : 1;
      curr[j] = std::min({prev[j - 1] + subcost, prev[j] + 1, curr[j - 1] + 1});
      row_min = std::min(row_min, curr[j]);
    }
    // Every edit path crosses every row, so the row minimum lower-bounds
    // the final value; above the bound the scan can stop.
    if (row_min > bound) return row_min;
    std::swap(prev, curr);
  }
  return prev[n];
}

}  // namespace

const char* EdrKernelName(EdrKernel kernel) {
  switch (kernel) {
    case EdrKernel::kScalar: return "scalar";
    case EdrKernel::kBitParallel: return "bit-parallel";
  }
  return "?";
}

EdrKernel DefaultEdrKernel() {
  return g_default_kernel.load(std::memory_order_relaxed);
}

void SetDefaultEdrKernel(EdrKernel kernel) {
  g_default_kernel.store(kernel, std::memory_order_relaxed);
}

EdrScratch& ThreadLocalEdrScratch() {
  static thread_local EdrScratch scratch;
  return scratch;
}

int EdrDistanceBitParallel(const Trajectory& r, const Trajectory& s,
                           double epsilon, EdrScratch& scratch) {
  return BitParallelEdr(r, s, epsilon, kEdrNoBound, scratch);
}

int EdrDistanceBitParallel(const Trajectory3& r, const Trajectory3& s,
                           double epsilon, EdrScratch& scratch) {
  return BitParallelEdr(r, s, epsilon, kEdrNoBound, scratch);
}

int EdrDistanceBitParallelBounded(const Trajectory& r, const Trajectory& s,
                                  double epsilon, int bound,
                                  EdrScratch& scratch) {
  return BitParallelEdr(r, s, epsilon, std::min(bound, kEdrNoBound), scratch);
}

int EdrDistanceBitParallelBounded(const Trajectory3& r, const Trajectory3& s,
                                  double epsilon, int bound,
                                  EdrScratch& scratch) {
  return BitParallelEdr(r, s, epsilon, std::min(bound, kEdrNoBound), scratch);
}

int EdrDistanceWith(EdrKernel kernel, EdrScratch& scratch, const Trajectory& r,
                    const Trajectory& s, double epsilon) {
  return kernel == EdrKernel::kBitParallel
             ? BitParallelEdr(r, s, epsilon, kEdrNoBound, scratch)
             : ScalarEdr(r, s, epsilon, scratch);
}

int EdrDistanceWith(EdrKernel kernel, EdrScratch& scratch,
                    const Trajectory3& r, const Trajectory3& s,
                    double epsilon) {
  return kernel == EdrKernel::kBitParallel
             ? BitParallelEdr(r, s, epsilon, kEdrNoBound, scratch)
             : ScalarEdr(r, s, epsilon, scratch);
}

int EdrDistanceBoundedWith(EdrKernel kernel, EdrScratch& scratch,
                           const Trajectory& r, const Trajectory& s,
                           double epsilon, int bound) {
  bound = std::min(bound, kEdrNoBound);
  return kernel == EdrKernel::kBitParallel
             ? BitParallelEdr(r, s, epsilon, bound, scratch)
             : ScalarEdrBounded(r, s, epsilon, bound, scratch);
}

int EdrDistanceBoundedWith(EdrKernel kernel, EdrScratch& scratch,
                           const Trajectory3& r, const Trajectory3& s,
                           double epsilon, int bound) {
  bound = std::min(bound, kEdrNoBound);
  return kernel == EdrKernel::kBitParallel
             ? BitParallelEdr(r, s, epsilon, bound, scratch)
             : ScalarEdrBounded(r, s, epsilon, bound, scratch);
}

}  // namespace edr
