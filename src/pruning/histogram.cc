#include "pruning/histogram.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <memory>
#include <numeric>
#include <queue>
#include <unordered_map>

#include "core/cpu.h"
#include "query/intra_query.h"
#include "query/plan_cache.h"
#include "query/thread_pool.h"

#if defined(__SSE2__) && !defined(EDR_DISABLE_SIMD)
#include <emmintrin.h>
#define EDR_HISTOGRAM_SIMD 1
#endif

#if defined(__x86_64__) && defined(__GNUC__) && !defined(EDR_DISABLE_SIMD)
#include <immintrin.h>
#define EDR_HISTOGRAM_AVX2 1
#define EDR_HISTOGRAM_AVX512 1
#endif

#if defined(__aarch64__) && !defined(EDR_DISABLE_SIMD)
#include <arm_neon.h>
#define EDR_HISTOGRAM_NEON 1
#endif

namespace edr {

namespace {

/// A small Dinic max-flow solver used to compute the maximal cancellation
/// between positive and negative histogram residuals. Graph sizes here are
/// tiny (hundreds of nodes), so simplicity beats asymptotic tuning.
class MaxFlow {
 public:
  explicit MaxFlow(int num_nodes) : graph_(num_nodes) {}

  void AddEdge(int from, int to, int capacity) {
    graph_[from].push_back(
        {to, capacity, static_cast<int>(graph_[to].size())});
    graph_[to].push_back(
        {from, 0, static_cast<int>(graph_[from].size()) - 1});
  }

  int Compute(int source, int sink) {
    int flow = 0;
    while (Bfs(source, sink)) {
      iter_.assign(graph_.size(), 0);
      int pushed = 0;
      while ((pushed = Dfs(source, sink,
                           std::numeric_limits<int>::max())) > 0) {
        flow += pushed;
      }
    }
    return flow;
  }

 private:
  struct Edge {
    int to;
    int capacity;
    int reverse_index;
  };

  bool Bfs(int source, int sink) {
    level_.assign(graph_.size(), -1);
    std::queue<int> queue;
    level_[source] = 0;
    queue.push(source);
    while (!queue.empty()) {
      const int v = queue.front();
      queue.pop();
      for (const Edge& e : graph_[v]) {
        if (e.capacity > 0 && level_[e.to] < 0) {
          level_[e.to] = level_[v] + 1;
          queue.push(e.to);
        }
      }
    }
    return level_[sink] >= 0;
  }

  int Dfs(int v, int sink, int limit) {
    if (v == sink) return limit;
    for (size_t& i = iter_[v]; i < graph_[v].size(); ++i) {
      Edge& e = graph_[v][i];
      if (e.capacity <= 0 || level_[e.to] != level_[v] + 1) continue;
      const int pushed = Dfs(e.to, sink, std::min(limit, e.capacity));
      if (pushed > 0) {
        e.capacity -= pushed;
        graph_[e.to][e.reverse_index].capacity += pushed;
        return pushed;
      }
    }
    return 0;
  }

  std::vector<std::vector<Edge>> graph_;
  std::vector<int> level_;
  std::vector<size_t> iter_;
};

struct OccupiedBin {
  int bin;
  int count;
};

/// Computes max(m, n) - T*, where T* is the maximum transport of mass from
/// HR bins to HS bins along approximately-matching (same or adjacent) bin
/// pairs; `neighbors_of(bin, emit)` enumerates the bins matching `bin`,
/// including `bin` itself.
///
/// Soundness (the Theorem 6 guarantee): in an optimal EDR edit script,
/// every zero-cost (matched) aligned pair occupies approximately-matching
/// bins, so the matched pairs form a feasible transport of size M. All
/// other elements of the longer trajectory are each touched by a distinct
/// edit operation, hence EDR >= max(m, n) - M >= max(m, n) - T*.
///
/// Note this is deliberately *stronger-than-greedy but weaker-than-naive*:
/// the naive residual cancellation (the paper's Figure 5, which only pairs
/// leftover counts of adjacent bins) over-estimates the distance when
/// matched pairs chain across bins (r1 in b0 matching s1 in b1, r2 in b1
/// matching s2 in b2 leaves residuals two bins apart) and would cause
/// false dismissals; the transport formulation handles chains exactly.
int TransportDistance(
    const std::vector<OccupiedBin>& from, const std::vector<OccupiedBin>& to,
    const std::function<void(int, const std::function<void(int)>&)>&
        neighbors_of) {
  int m = 0;
  for (const OccupiedBin& b : from) m += b.count;
  int n = 0;
  for (const OccupiedBin& b : to) n += b.count;
  const int longer = std::max(m, n);
  if (from.empty() || to.empty()) return longer;

  std::unordered_map<int, int> to_index;
  to_index.reserve(to.size() * 2);
  for (size_t j = 0; j < to.size(); ++j) {
    to_index.emplace(to[j].bin, static_cast<int>(j));
  }

  const int p = static_cast<int>(from.size());
  const int q = static_cast<int>(to.size());
  const int source = p + q;
  const int sink = p + q + 1;
  MaxFlow flow(p + q + 2);
  for (int i = 0; i < p; ++i) flow.AddEdge(source, i, from[i].count);
  for (int j = 0; j < q; ++j) flow.AddEdge(p + j, sink, to[j].count);
  for (int i = 0; i < p; ++i) {
    neighbors_of(from[i].bin, [&](int neighbor_bin) {
      const auto it = to_index.find(neighbor_bin);
      if (it != to_index.end()) {
        flow.AddEdge(i, p + it->second,
                     std::numeric_limits<int>::max() / 2);
      }
    });
  }
  const int transported = flow.Compute(source, sink);
  return longer - transported;
}

/// Linear-time upper bound on the maximum transport: each source bin can
/// ship at most min(its mass, total destination mass in its
/// neighborhood); symmetrically for destinations. Ignores capacity
/// sharing between overlapping neighborhoods, hence an upper bound.
int TransportUpperBound(
    const std::vector<int>& hr, const std::vector<int>& hs,
    const std::function<void(int, const std::function<void(int)>&)>&
        neighbors_of) {
  int from_side = 0;
  int to_side = 0;
  for (size_t b = 0; b < hr.size(); ++b) {
    if (hr[b] > 0) {
      int reachable = 0;
      neighbors_of(static_cast<int>(b), [&](int nb) {
        if (nb >= 0 && nb < static_cast<int>(hs.size())) reachable += hs[nb];
      });
      from_side += std::min(hr[b], reachable);
    }
    if (hs[b] > 0) {
      int reachable = 0;
      neighbors_of(static_cast<int>(b), [&](int nb) {
        if (nb >= 0 && nb < static_cast<int>(hr.size())) reachable += hr[nb];
      });
      to_side += std::min(hs[b], reachable);
    }
  }
  return std::min(from_side, to_side);
}

std::vector<OccupiedBin> Occupied(const std::vector<int>& h) {
  std::vector<OccupiedBin> bins;
  for (size_t i = 0; i < h.size(); ++i) {
    if (h[i] > 0) bins.push_back({static_cast<int>(i), h[i]});
  }
  return bins;
}

// ---------------------------------------------------------------------------
// Sparse neighbourhood sums. Both the query's dilated support and the
// table's NS columns come from one occupied (bin, count) list per
// trajectory, dilated without ever materializing a dense O(bins) array —
// the fine grids (delta = 1 over a large range) hold ~10^5 bins.
// ---------------------------------------------------------------------------

/// The pass along x of a sparse 3-wide box filter on rows of nx bins:
/// out[b] = in[b - 1] + in[b] + in[b + 1], neighbours taken within b's
/// row. `in` is ascending by bin and so is `out`: the bins an element
/// touches are at least the previous element's bin, so each lands on one
/// of out's last two entries or past its end. Linear in the list, with
/// one division per row.
void BoxPassX(const std::vector<OccupiedBin>& in, int nx,
              std::vector<OccupiedBin>* out) {
  out->clear();
  int row_begin = 0;
  int row_end = 0;
  for (const OccupiedBin& e : in) {
    if (e.bin >= row_end) {
      row_begin = e.bin - e.bin % nx;
      row_end = row_begin + nx;
    }
    const int lo = e.bin > row_begin ? e.bin - 1 : e.bin;
    const int hi = e.bin + 1 < row_end ? e.bin + 1 : e.bin;
    for (int b = lo; b <= hi; ++b) {
      size_t k = out->size();
      while (k > 0 && (*out)[k - 1].bin > b) --k;
      if (k > 0 && (*out)[k - 1].bin == b) {
        (*out)[k - 1].count += e.count;
      } else {
        out->push_back({b, e.count});
      }
    }
  }
}

/// The pass along y on an nx x ny grid: out[b] = in[b - nx] + in[b] +
/// in[b + nx] over the neighbours inside the grid. `in` is ascending by
/// bin and so is `out`, the merge of three shifted copies of `in`; linear
/// in the list.
void BoxPassY(const std::vector<OccupiedBin>& in, int nx, int num_bins,
              std::vector<OccupiedBin>* out) {
  constexpr int kNone = std::numeric_limits<int>::max();
  out->clear();
  // Copy s carries in[i] to bin in[i].bin + (s - 1) * nx; head[s] is the
  // copy's next bin inside the grid, kNone once it is exhausted.
  size_t pos[3] = {0, 0, 0};
  int head[3];
  const auto seek = [&](int s) {
    const int shift = (s - 1) * nx;
    while (pos[s] < in.size()) {
      const int b = in[pos[s]].bin + shift;
      if (b >= 0 && b < num_bins) break;
      ++pos[s];
    }
    head[s] = pos[s] < in.size() ? in[pos[s]].bin + shift : kNone;
  };
  for (int s = 0; s < 3; ++s) seek(s);
  for (;;) {
    const int next = std::min({head[0], head[1], head[2]});
    if (next == kNone) return;
    int sum = 0;
    for (int s = 0; s < 3; ++s) {
      if (head[s] == next) {
        sum += in[pos[s]++].count;
        seek(s);
      }
    }
    out->push_back({next, sum});
  }
}

/// Sparse neighbourhood sums of an occupied list on an nx x ny grid:
/// (b, h[N(b)]) for every bin with h[N(b)] > 0, ascending, where N(b) is
/// b's same-or-adjacent bins (the clamped 3x3 block; the path
/// neighbourhood when ny == 1). Separable like any box filter: a pass
/// along x, then one along y.
void NeighborhoodSums(const std::vector<OccupiedBin>& occupied, int nx,
                      int ny, std::vector<OccupiedBin>* scratch,
                      std::vector<OccupiedBin>* out) {
  if (ny == 1) {
    BoxPassX(occupied, nx, out);
    return;
  }
  BoxPassX(occupied, nx, scratch);
  BoxPassY(*scratch, nx, nx * ny, out);
}

// ---------------------------------------------------------------------------
// Sweep kernels. Both sides of the fast bound add min(cap, column value)
// over a block of trajectory ids, one query column at a time — pure int32
// lane arithmetic, so every lane width (scalar/SSE2/AVX2/AVX-512/NEON) and
// every column layout produces identical integers in any order. A cap is
// always >= 1: a query bin's count, or the neighbourhood sum of a bin next
// to an occupied one.
// ---------------------------------------------------------------------------

/// Ids per cache block: the int32 accumulators of a block stay
/// L1/L2-resident while every query column streams over it. Must fit
/// uint16 local posting ids.
constexpr size_t kSweepBlock = 1024;
static_assert(kSweepBlock <= 65536, "blocked-sparse local ids are uint16");

inline void MinCapAccumScalar(int32_t cap, const int32_t* col, int32_t* side,
                              size_t len) {
  for (size_t i = 0; i < len; ++i) side[i] += std::min(cap, col[i]);
}

#if defined(EDR_HISTOGRAM_SIMD)

inline __m128i MinI32(__m128i a, __m128i b) {
  // SSE2 has no epi32 min; compose it from a compare mask (SSE4.1's
  // pminsd computes exactly this).
  const __m128i lt = _mm_cmplt_epi32(a, b);
  return _mm_or_si128(_mm_and_si128(lt, a), _mm_andnot_si128(lt, b));
}

inline void MinCapAccumSimd(int32_t cap, const int32_t* col, int32_t* side,
                            size_t len) {
  const __m128i vcap = _mm_set1_epi32(cap);
  size_t i = 0;
  for (; i + 4 <= len; i += 4) {
    const __m128i c =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(col + i));
    const __m128i s =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(side + i));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(side + i),
                     _mm_add_epi32(s, MinI32(vcap, c)));
  }
  for (; i < len; ++i) side[i] += std::min(cap, col[i]);
}

#endif  // defined(EDR_HISTOGRAM_SIMD)

#if defined(EDR_HISTOGRAM_AVX2)

// AVX2/AVX-512 bodies compiled via the target attribute (no extra compile
// flags), selected at runtime through ActiveKernelLevel() — the lane math
// is identical int32 adds/mins, only wider than the SSE2 kernels.

__attribute__((target("avx2"))) void MinCapAccumAvx2(int32_t cap,
                                                     const int32_t* col,
                                                     int32_t* side,
                                                     size_t len) {
  const __m256i vcap = _mm256_set1_epi32(cap);
  size_t i = 0;
  for (; i + 8 <= len; i += 8) {
    const __m256i c =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(col + i));
    const __m256i s =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(side + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(side + i),
                        _mm256_add_epi32(s, _mm256_min_epi32(vcap, c)));
  }
  for (; i < len; ++i) side[i] += std::min(cap, col[i]);
}

#endif  // defined(EDR_HISTOGRAM_AVX2)

#if defined(EDR_HISTOGRAM_AVX512)

__attribute__((target("avx512f"))) void MinCapAccumAvx512(int32_t cap,
                                                          const int32_t* col,
                                                          int32_t* side,
                                                          size_t len) {
  const __m512i vcap = _mm512_set1_epi32(cap);
  size_t i = 0;
  for (; i + 16 <= len; i += 16) {
    const __m512i c = _mm512_loadu_si512(col + i);
    const __m512i s = _mm512_loadu_si512(side + i);
    _mm512_storeu_si512(side + i,
                        _mm512_add_epi32(s, _mm512_min_epi32(vcap, c)));
  }
  for (; i < len; ++i) side[i] += std::min(cap, col[i]);
}

#endif  // defined(EDR_HISTOGRAM_AVX512)

#if defined(EDR_HISTOGRAM_NEON)

inline void MinCapAccumNeon(int32_t cap, const int32_t* col, int32_t* side,
                            size_t len) {
  const int32x4_t vcap = vdupq_n_s32(cap);
  size_t i = 0;
  for (; i + 4 <= len; i += 4) {
    vst1q_s32(side + i, vaddq_s32(vld1q_s32(side + i),
                                  vminq_s32(vcap, vld1q_s32(col + i))));
  }
  for (; i < len; ++i) side[i] += std::min(cap, col[i]);
}

#endif  // defined(EDR_HISTOGRAM_NEON)

// ---------------------------------------------------------------------------
// Bitmap and blocked-sparse block kernels. A bitmap column holds only 1s,
// and min(cap, 1) == 1 for every cap, so it adds +1 per set bit; a sparse
// column scatters min(cap, value) per (local id, value) posting. Both add
// the same integers to distinct accumulator slots whatever the lane shape,
// so every body below is bit-identical to the scalar walk.
// ---------------------------------------------------------------------------

/// Scalar reference: count-trailing-zeros walk over the set bits.
inline void BitmapAccumScalar(const uint64_t* words, size_t word_count,
                              int32_t* side) {
  for (size_t w = 0; w < word_count; ++w) {
    uint64_t bits = words[w];
    while (bits != 0) {
      side[w * 64 + static_cast<size_t>(__builtin_ctzll(bits))] += 1;
      bits &= bits - 1;
    }
  }
}

inline void SparseMinCapScalar(const uint16_t* local_ids,
                               const int32_t* counts, uint32_t begin,
                               uint32_t end, int32_t cap, int32_t* side) {
  for (uint32_t p = begin; p < end; ++p) {
    side[local_ids[p]] += std::min(cap, counts[p]);
  }
}

#if defined(EDR_HISTOGRAM_AVX2)

/// Expands each byte of a word into eight 0/-1 lanes (bit b set <=> lane b
/// matches its power-of-two probe) and subtracts the mask from the
/// accumulator — one masked add per byte instead of one scalar add per set
/// bit. Lanes past a short tail block read and write back unchanged
/// accumulator slots (their bits are never set), staying inside the
/// kSweepBlock stack buffer because word_count * 64 <= kSweepBlock.
__attribute__((target("avx2"))) void BitmapAccumAvx2(const uint64_t* words,
                                                     size_t word_count,
                                                     int32_t* side) {
  const __m256i bitpos = _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
  for (size_t w = 0; w < word_count; ++w) {
    const uint64_t bits = words[w];
    if (bits == 0) continue;
    int32_t* base = side + w * 64;
    for (size_t c = 0; c < 8; ++c) {
      const int32_t byte = static_cast<int32_t>((bits >> (c * 8)) & 0xFF);
      if (byte == 0) continue;
      const __m256i vb = _mm256_set1_epi32(byte);
      const __m256i m =
          _mm256_cmpeq_epi32(_mm256_and_si256(vb, bitpos), bitpos);
      __m256i a =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(base + c * 8));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(base + c * 8),
                          _mm256_sub_epi32(a, m));
    }
  }
}

#endif  // defined(EDR_HISTOGRAM_AVX2)

#if defined(EDR_HISTOGRAM_AVX512)

/// The word's 16-bit slices are the mask registers directly:
/// four masked 16-lane +1 adds per word.
__attribute__((target("avx512f"))) void BitmapAccumAvx512(
    const uint64_t* words, size_t word_count, int32_t* side) {
  const __m512i ones = _mm512_set1_epi32(1);
  for (size_t w = 0; w < word_count; ++w) {
    const uint64_t bits = words[w];
    if (bits == 0) continue;
    int32_t* base = side + w * 64;
    for (size_t c = 0; c < 4; ++c) {
      const __mmask16 m = static_cast<__mmask16>((bits >> (c * 16)) & 0xFFFF);
      if (m == 0) continue;
      __m512i a = _mm512_loadu_si512(base + c * 16);
      _mm512_storeu_si512(base + c * 16, _mm512_mask_add_epi32(a, m, a, ones));
    }
  }
}

/// Gather/min-add/scatter over 16 postings at a time. A column stores at
/// most one posting per trajectory id, so the 16 local ids are distinct
/// and the scatter is conflict-free — no vpconflictd pass needed.
__attribute__((target("avx512f"))) void SparseMinCapAvx512(
    const uint16_t* local_ids, const int32_t* counts, uint32_t begin,
    uint32_t end, int32_t cap, int32_t* side) {
  const __m512i vcap = _mm512_set1_epi32(cap);
  uint32_t p = begin;
  for (; p + 16 <= end; p += 16) {
    const __m256i raw =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(local_ids + p));
    const __m512i idx = _mm512_cvtepu16_epi32(raw);
    const __m512i c = _mm512_min_epi32(vcap, _mm512_loadu_si512(counts + p));
    // Masked form with an explicit zero source: the plain gather expands
    // to _mm512_undefined_epi32, which -Wmaybe-uninitialized flags.
    const __m512i g = _mm512_mask_i32gather_epi32(
        _mm512_setzero_si512(), static_cast<__mmask16>(0xFFFF), idx, side, 4);
    _mm512_i32scatter_epi32(side, idx, _mm512_add_epi32(g, c), 4);
  }
  for (; p < end; ++p) {
    side[local_ids[p]] += std::min(cap, counts[p]);
  }
}

#endif  // defined(EDR_HISTOGRAM_AVX512)

using MinCapAccumFn = void (*)(int32_t, const int32_t*, int32_t*, size_t);
using BitmapAccumFn = void (*)(const uint64_t*, size_t, int32_t*);
using SparseMinCapFn = void (*)(const uint16_t*, const int32_t*, uint32_t,
                                uint32_t, int32_t, int32_t*);

/// The three sweep kernels of one dispatch level, resolved together once
/// per sweep call. Levels whose bodies are not compiled into this build,
/// and families without a body at some level (the SSE2 bitmap walk, or
/// the AVX2 scatter, where gathers without scatters lose to the scalar
/// loop), fall back to scalar — every combination computes identical
/// integers.
struct SweepKernels {
  MinCapAccumFn min_cap_accum = MinCapAccumScalar;
  BitmapAccumFn bitmap_accum = BitmapAccumScalar;
  SparseMinCapFn sparse_min_cap = SparseMinCapScalar;
};

SweepKernels SweepKernelsFor(KernelLevel level) {
  SweepKernels k;
  switch (level) {
#if defined(EDR_HISTOGRAM_AVX512)
    case KernelLevel::kAvx512:
      k.min_cap_accum = MinCapAccumAvx512;
      k.bitmap_accum = BitmapAccumAvx512;
      k.sparse_min_cap = SparseMinCapAvx512;
      break;
#endif
#if defined(EDR_HISTOGRAM_AVX2)
    case KernelLevel::kAvx2:
      k.min_cap_accum = MinCapAccumAvx2;
      k.bitmap_accum = BitmapAccumAvx2;
      break;
#endif
#if defined(EDR_HISTOGRAM_SIMD)
    case KernelLevel::kSse2:
      k.min_cap_accum = MinCapAccumSimd;
      break;
#endif
#if defined(EDR_HISTOGRAM_NEON)
    case KernelLevel::kNeon:
      k.min_cap_accum = MinCapAccumNeon;
      break;
#endif
    default:
      break;
  }
  return k;
}

/// floor(pos) clamped to [0, bins - 1], with NaN sent to bin 0. The clamp
/// happens in double, before the cast, so a NaN or far-off coordinate
/// never reaches the undefined float-to-int conversion.
///
/// Clamping stays sound. The grid spans the data range plus one bin
/// (>= epsilon) of slack on each side, so in a matched pair — a query and
/// a database element within epsilon of each other in both dimensions —
/// both elements lie inside the grid, where the clamp moves nothing. A NaN
/// coordinate, or one beyond the slack, matches no database element under
/// EDR. And an element that matches nothing can sit in any bin without
/// raising the bound above EDR: the transport the bound relaxes only has
/// to carry the matched pairs of an optimal edit script.
int ClampedBin(double pos, int bins) {
  if (std::isnan(pos)) return 0;
  return static_cast<int>(
      std::clamp(std::floor(pos), 0.0, static_cast<double>(bins - 1)));
}

std::function<void(int, const std::function<void(int)>&)> GridNeighbors(
    const HistogramGrid& grid) {
  const int nx = grid.nx;
  const int ny = grid.ny;
  return [nx, ny](int bin, const std::function<void(int)>& emit) {
    const int bx = bin % nx;
    const int by = bin / nx;
    for (int dy = -1; dy <= 1; ++dy) {
      for (int dx = -1; dx <= 1; ++dx) {
        const int x = bx + dx;
        const int y = by + dy;
        if (x >= 0 && x < nx && y >= 0 && y < ny) emit(y * nx + x);
      }
    }
  };
}

/// The path neighbourhood of the 1-D histograms; out-of-range bins are
/// skipped by the consumers.
void PathNeighbors(int bin, const std::function<void(int)>& emit) {
  emit(bin - 1);
  emit(bin);
  emit(bin + 1);
}

int SumOf(const std::vector<int>& h) {
  int total = 0;
  for (const int v : h) total += v;
  return total;
}

}  // namespace

HistogramGrid HistogramGrid::For(const DatasetStats& stats, double bin_size) {
  HistogramGrid grid;
  // Guard degenerate thresholds: a zero or tiny bin size would blow the
  // grid up (or divide by zero). Clamping the bin size *up* is always
  // sound — matched pairs stay within adjacent bins for any bin size
  // >= epsilon — it only loosens the bound. Cap the grid at ~512 bins
  // per dimension.
  const double range = std::max(stats.max_xy.x - stats.min_xy.x,
                                stats.max_xy.y - stats.min_xy.y);
  bin_size = std::max({bin_size, range / 512.0, 1e-12});
  grid.bin_size = bin_size;
  // One bin of slack on each side so any element within epsilon of the
  // data range still falls in a real (non-clamped) bin.
  grid.min_x = stats.min_xy.x - bin_size;
  grid.min_y = stats.min_xy.y - bin_size;
  grid.nx = static_cast<int>(
                std::ceil((stats.max_xy.x - grid.min_x) / bin_size)) +
            2;
  grid.ny = static_cast<int>(
                std::ceil((stats.max_xy.y - grid.min_y) / bin_size)) +
            2;
  grid.nx = std::max(grid.nx, 1);
  grid.ny = std::max(grid.ny, 1);
  return grid;
}

int HistogramGrid::BinX(double x) const {
  return ClampedBin((x - min_x) / bin_size, nx);
}

int HistogramGrid::BinY(double y) const {
  return ClampedBin((y - min_y) / bin_size, ny);
}

std::vector<int> BuildHistogram2D(const Trajectory& t,
                                  const HistogramGrid& grid) {
  std::vector<int> h(static_cast<size_t>(grid.NumBins2D()), 0);
  for (const Point2& p : t) {
    h[static_cast<size_t>(grid.BinY(p.y) * grid.nx + grid.BinX(p.x))]++;
  }
  return h;
}

std::vector<int> BuildHistogram1D(const Trajectory& t,
                                  const HistogramGrid& grid, bool use_x) {
  std::vector<int> h(static_cast<size_t>(use_x ? grid.nx : grid.ny), 0);
  for (const Point2& p : t) {
    h[static_cast<size_t>(use_x ? grid.BinX(p.x) : grid.BinY(p.y))]++;
  }
  return h;
}

int HistogramDistance2D(const std::vector<int>& hr, const std::vector<int>& hs,
                        const HistogramGrid& grid) {
  return TransportDistance(Occupied(hr), Occupied(hs), GridNeighbors(grid));
}

int HistogramDistance1D(const std::vector<int>& hr,
                        const std::vector<int>& hs) {
  return TransportDistance(Occupied(hr), Occupied(hs), PathNeighbors);
}

int HistogramDistance2DFast(const std::vector<int>& hr,
                            const std::vector<int>& hs,
                            const HistogramGrid& grid) {
  const int longer = std::max(SumOf(hr), SumOf(hs));
  return longer - TransportUpperBound(hr, hs, GridNeighbors(grid));
}

int HistogramDistance1DFast(const std::vector<int>& hr,
                            const std::vector<int>& hs) {
  const int longer = std::max(SumOf(hr), SumOf(hs));
  return longer - TransportUpperBound(hr, hs, PathNeighbors);
}

const char* HistogramLayoutName(HistogramLayout layout) {
  switch (layout) {
    case HistogramLayout::kAdaptive: return "adaptive";
    case HistogramLayout::kDense: return "dense";
  }
  return "?";
}

namespace {

// ---------------------------------------------------------------------------
// Adaptive per-column storage. A "column" is the value of one bin across
// the whole database; the sweep touches columns block-wise, so every
// layout only needs O(1) entry into the [i0, i0 + len) id range.
// ---------------------------------------------------------------------------

enum ColLayout : uint8_t {
  kColEmpty = 0,   ///< no trajectory has mass there; nothing stored
  kColDense = 1,   ///< bin-major int32 column (the PR-2 layout)
  kColBitmap = 2,  ///< every stored value is 1; one bit per id
  kColSparse = 3,  ///< (local id, value) postings grouped by sweep block
};

/// Bitmap words per column.
inline size_t WordsPerColumn(size_t n) { return (n + 63) / 64; }

/// Column-density thresholds of the adaptive heuristic (ALGORITHMS.md §14).
/// Bytes per column: dense 4n; bitmap n/8; blocked-sparse ~6*occ plus the
/// 4*(num_blocks+1) block index. Bitmap wins over postings for all-ones
/// columns above ~n/48 occupancy; dense only pays once a quarter of the
/// database occupies the bin (at which point the streaming SIMD min-add
/// also beats posting scatter).
constexpr double kBitmapMinDensity = 1.0 / 32.0;
constexpr double kDenseMinDensity = 0.25;

uint8_t ClassifyColumn(HistogramLayout layout, uint32_t occ, int32_t max_count,
                       size_t n) {
  if (layout == HistogramLayout::kDense) return kColDense;
  if (occ == 0) return kColEmpty;
  const double density = static_cast<double>(occ) / static_cast<double>(n);
  if (max_count == 1 && density >= kBitmapMinDensity) return kColBitmap;
  if (density >= kDenseMinDensity) return kColDense;
  return kColSparse;
}

/// Fills `t`'s occupied (bin, count) list in ascending bin order without
/// materializing a dense num_bins-sized scratch histogram — at fine grids
/// (δ = 1) the dense scratch alone would cost O(bins) per trajectory.
/// `mode` 0 bins on the 2-D grid, 1 on the x subranges, 2 on the y ones.
void FillOccupied(const Trajectory& t, const HistogramGrid& grid, int mode,
                  std::vector<int>* scratch_bins,
                  std::vector<OccupiedBin>* occ) {
  scratch_bins->clear();
  scratch_bins->reserve(t.size());
  for (const Point2& p : t) {
    int bin;
    switch (mode) {
      case 0: bin = grid.BinY(p.y) * grid.nx + grid.BinX(p.x); break;
      case 1: bin = grid.BinX(p.x); break;
      default: bin = grid.BinY(p.y); break;
    }
    scratch_bins->push_back(bin);
  }
  std::sort(scratch_bins->begin(), scratch_bins->end());
  occ->clear();
  for (size_t i = 0; i < scratch_bins->size();) {
    size_t j = i;
    while (j < scratch_bins->size() &&
           (*scratch_bins)[j] == (*scratch_bins)[i]) {
      ++j;
    }
    occ->push_back({(*scratch_bins)[i], static_cast<int>(j - i)});
    i = j;
  }
}

/// Builds one ColumnStore from two passes over the same (id, bin, value)
/// entries in ascending id order: Count sizes every column, Allocate
/// classifies the columns and allocates each layout's arrays at their
/// exact sizes, and Put writes the values. Ascending ids keep each sparse
/// column's postings sorted, so its block index is written on the fly.
class ColumnStoreBuilder {
 public:
  explicit ColumnStoreBuilder(size_t num_bins)
      : occ_(num_bins, 0), max_(num_bins, 0) {}

  void Count(const OccupiedBin& b) {
    const size_t bin = static_cast<size_t>(b.bin);
    occ_[bin]++;
    max_[bin] = std::max(max_[bin], b.count);
  }

  void Allocate(HistogramLayout policy, size_t n,
                HistogramTable::ColumnStore* store) {
    store_ = store;
    n_ = n;
    num_blocks_ = (n + kSweepBlock - 1) / kSweepBlock;
    const size_t num_bins = occ_.size();
    store->layout.assign(num_bins, kColEmpty);
    store->slot.assign(num_bins, 0);
    uint32_t dense_cols = 0;
    uint32_t bitmap_cols = 0;
    uint32_t postings = 0;
    for (size_t b = 0; b < num_bins; ++b) {
      const uint8_t lay = ClassifyColumn(policy, occ_[b], max_[b], n);
      store->layout[b] = lay;
      switch (lay) {
        case kColDense: store->slot[b] = dense_cols++; break;
        case kColBitmap: store->slot[b] = bitmap_cols++; break;
        case kColSparse:
          store->slot[b] = static_cast<uint32_t>(cursor_.size());
          cursor_.push_back(postings);
          postings += occ_[b];
          break;
        default: break;
      }
    }
    store->dense.assign(static_cast<size_t>(dense_cols) * n, 0);
    store->bits.assign(static_cast<size_t>(bitmap_cols) * WordsPerColumn(n),
                       0);
    store->sp_block_offsets.assign(cursor_.size() * (num_blocks_ + 1), 0);
    store->sp_local_ids.resize(postings);
    store->sp_counts.resize(postings);
    next_block_.assign(cursor_.size(), 0);
  }

  void Put(uint32_t id, const OccupiedBin& b) {
    const size_t bin = static_cast<size_t>(b.bin);
    const size_t slot = store_->slot[bin];
    switch (store_->layout[bin]) {
      case kColDense:
        store_->dense[slot * n_ + id] = b.count;
        break;
      case kColBitmap:
        store_->bits[slot * WordsPerColumn(n_) + id / 64] |= uint64_t{1}
                                                             << (id & 63);
        break;
      case kColSparse: {
        const uint32_t p = cursor_[slot]++;
        const uint32_t block = static_cast<uint32_t>(id / kSweepBlock);
        uint32_t* bo =
            store_->sp_block_offsets.data() + slot * (num_blocks_ + 1);
        while (next_block_[slot] <= block) bo[next_block_[slot]++] = p;
        store_->sp_local_ids[p] =
            static_cast<uint16_t>(id - block * kSweepBlock);
        store_->sp_counts[p] = b.count;
        break;
      }
      default: break;
    }
  }

  /// Closes every sparse column's block index once all ids are put.
  void Finish() {
    for (size_t slot = 0; slot < cursor_.size(); ++slot) {
      uint32_t* bo =
          store_->sp_block_offsets.data() + slot * (num_blocks_ + 1);
      while (next_block_[slot] <= num_blocks_) {
        bo[next_block_[slot]++] = cursor_[slot];
      }
    }
  }

 private:
  std::vector<uint32_t> occ_;  ///< per bin: ids with a non-zero value
  std::vector<int32_t> max_;   ///< per bin: largest value
  HistogramTable::ColumnStore* store_ = nullptr;
  size_t n_ = 0;
  size_t num_blocks_ = 0;
  std::vector<uint32_t> cursor_;      ///< per sparse slot: next posting
  std::vector<uint32_t> next_block_;  ///< per sparse slot: first unset block
};

}  // namespace

HistogramTable::HistogramTable(const TrajectoryDataset& db, double epsilon,
                               Kind kind, int delta, HistogramLayout layout)
    : kind_(kind), delta_(std::max(1, delta)), layout_(layout) {
  grid_ = HistogramGrid::For(db.Stats(), epsilon * delta_);
  {
    // %.17g round-trips doubles exactly, so equal keys <=> equal grids.
    // The storage layout never changes a QueryHistogram, but it is part of
    // the semantic configuration — keying on it guarantees a layout change
    // can never serve a feature cached under another table config.
    char buf[176];
    std::snprintf(buf, sizeof(buf),
                  "hist.%s/grid=%d.%d/%.17g,%.17g,%.17g/layout=%s",
                  kind_ == Kind::k2D ? "2d" : "1d", grid_.nx, grid_.ny,
                  grid_.min_x, grid_.min_y, grid_.bin_size,
                  HistogramLayoutName(layout_));
    feature_key_ = buf;
  }
  totals_.reserve(db.size());
  for (const Trajectory& t : db) {
    totals_.push_back(static_cast<int32_t>(t.size()));
  }
  if (kind_ == Kind::k2D) {
    dims_.resize(1);
    dims_[0].mode = 0;
  } else {
    dims_.resize(2);
    dims_[0].mode = 1;
    dims_[1].mode = 2;
  }
  for (FlatHistograms& flat : dims_) BuildTable(db, &flat);
}

void HistogramTable::BuildTable(const TrajectoryDataset& db,
                                FlatHistograms* flat) const {
  const int mode = flat->mode;
  const int nx = mode == 2 ? grid_.ny : grid_.nx;
  const int ny = mode == 0 ? grid_.ny : 1;
  const size_t n = db.size();
  const size_t num_bins = static_cast<size_t>(nx) * static_cast<size_t>(ny);
  flat->nx = nx;
  flat->ny = ny;
  flat->n = n;
  flat->num_blocks = (n + kSweepBlock - 1) / kSweepBlock;

  // A count pass, then a fill pass, over the ids in order. Both passes
  // rebuild each trajectory's occupied list and its dilation (the NS
  // entries), a chunk of ids at a time in parallel, rather than hold them
  // for the whole table: the only transients are one chunk of lists and
  // the per-column counters.
  constexpr size_t kChunk = 256;
  std::vector<std::vector<OccupiedBin>> occupied(std::min(n, kChunk));
  std::vector<std::vector<OccupiedBin>> dilated(occupied.size());
  const auto for_each_id = [&](const auto& visit) {
    for (size_t begin = 0; begin < n; begin += kChunk) {
      const size_t end = std::min(n, begin + kChunk);
      ThreadPool::Global().ParallelFor(end - begin, [&](size_t i) {
        thread_local std::vector<int> point_bins;
        thread_local std::vector<OccupiedBin> scratch;
        FillOccupied(db[begin + i], grid_, mode, &point_bins, &occupied[i]);
        NeighborhoodSums(occupied[i], nx, ny, &scratch, &dilated[i]);
      });
      for (size_t id = begin; id < end; ++id) {
        visit(static_cast<uint32_t>(id), occupied[id - begin],
              dilated[id - begin]);
      }
    }
  };
  ColumnStoreBuilder raw(num_bins);
  ColumnStoreBuilder ns(num_bins);
  for_each_id([&](uint32_t, const std::vector<OccupiedBin>& occ,
                  const std::vector<OccupiedBin>& dil) {
    for (const OccupiedBin& b : occ) raw.Count(b);
    for (const OccupiedBin& b : dil) ns.Count(b);
  });
  raw.Allocate(layout_, n, &flat->raw);
  ns.Allocate(layout_, n, &flat->ns);
  for_each_id([&](uint32_t id, const std::vector<OccupiedBin>& occ,
                  const std::vector<OccupiedBin>& dil) {
    for (const OccupiedBin& b : occ) raw.Put(id, b);
    for (const OccupiedBin& b : dil) ns.Put(id, b);
  });
  raw.Finish();
  ns.Finish();
}

HistogramStorageStats HistogramTable::storage_stats() const {
  HistogramStorageStats stats;
  const auto add = [](const ColumnStore& s, ColumnStoreStats* out) {
    for (const uint8_t lay : s.layout) {
      switch (lay) {
        case kColDense: out->dense_columns++; break;
        case kColBitmap: out->bitmap_columns++; break;
        case kColSparse: out->sparse_columns++; break;
        default: out->empty_columns++; break;
      }
    }
    out->bytes += s.dense.size() * sizeof(int32_t) +
                  s.bits.size() * sizeof(uint64_t) +
                  s.sp_block_offsets.size() * sizeof(uint32_t) +
                  s.sp_local_ids.size() * sizeof(uint16_t) +
                  s.sp_counts.size() * sizeof(int32_t) +
                  s.layout.size() * (sizeof(uint8_t) + sizeof(uint32_t));
  };
  for (const FlatHistograms& f : dims_) {
    stats.columns += f.raw.layout.size();
    add(f.raw, &stats.raw);
    add(f.ns, &stats.ns);
    stats.dense_equivalent_bytes +=
        2 * f.raw.layout.size() * f.n * sizeof(int32_t);
  }
  stats.column_bytes = stats.raw.bytes + stats.ns.bytes;
  return stats;
}

HistogramTable::QueryHistogram HistogramTable::MakeQueryHistogram(
    const Trajectory& query) const {
  QueryHistogram qh;
  qh.total = static_cast<int>(query.size());
  qh.dims.resize(dims_.size());
  std::vector<int> point_bins;
  std::vector<OccupiedBin> occupied;
  std::vector<OccupiedBin> scratch;
  std::vector<OccupiedBin> dilated;
  const auto pairs = [](const std::vector<OccupiedBin>& list) {
    std::vector<std::pair<int, int>> out;
    out.reserve(list.size());
    for (const OccupiedBin& b : list) out.emplace_back(b.bin, b.count);
    return out;
  };
  for (size_t d = 0; d < dims_.size(); ++d) {
    const FlatHistograms& f = dims_[d];
    FillOccupied(query, grid_, f.mode, &point_bins, &occupied);
    NeighborhoodSums(occupied, f.nx, f.ny, &scratch, &dilated);
    qh.dims[d].bins = pairs(occupied);
    qh.dims[d].dilated = pairs(dilated);
  }
  return qh;
}

namespace {

/// One trajectory's value in one column of a store. The per-row bound path
/// only; the sweep enters columns block-wise.
int ColumnValueAt(const HistogramTable::FlatHistograms& f,
                  const HistogramTable::ColumnStore& s, int bin,
                  uint32_t id) {
  const size_t slot = s.slot[static_cast<size_t>(bin)];
  switch (s.layout[static_cast<size_t>(bin)]) {
    case kColDense:
      return s.dense[slot * f.n + id];
    case kColBitmap:
      return static_cast<int>(
          (s.bits[slot * WordsPerColumn(f.n) + id / 64] >> (id & 63)) & 1);
    case kColSparse: {
      const size_t block = id / kSweepBlock;
      const uint32_t* bo =
          s.sp_block_offsets.data() + slot * (f.num_blocks + 1);
      const uint16_t local = static_cast<uint16_t>(id - block * kSweepBlock);
      const uint16_t* lo = s.sp_local_ids.data() + bo[block];
      const uint16_t* hi = s.sp_local_ids.data() + bo[block + 1];
      const uint16_t* it = std::lower_bound(lo, hi, local);
      if (it != hi && *it == local) {
        return s.sp_counts[static_cast<size_t>(it - s.sp_local_ids.data())];
      }
      return 0;
    }
    default:
      return 0;
  }
}

/// One trajectory's linear transport upper bound min(side A, side B)
/// against the query in one dimension, read off both stores. The sweep
/// computes the same integers block-wise.
int TransportAt(const HistogramTable::FlatHistograms& f,
                const HistogramTable::QueryHistogram::Dim& q, uint32_t id) {
  int side_a = 0;
  for (const auto& [bin, cap] : q.bins) {
    side_a += std::min(cap, ColumnValueAt(f, f.ns, bin, id));
  }
  int side_b = 0;
  for (const auto& [bin, cap] : q.dilated) {
    side_b += std::min(cap, ColumnValueAt(f, f.raw, bin, id));
  }
  return std::min(side_a, side_b);
}

}  // namespace

int HistogramTable::FastLowerBound(const QueryHistogram& query,
                                   uint32_t id) const {
  // For Kind::k1D each per-dimension bound is a valid EDR lower bound, and
  // longer - min(tx, ty) is the larger of the two.
  int transport = std::numeric_limits<int>::max();
  for (size_t d = 0; d < dims_.size(); ++d) {
    transport = std::min(transport, TransportAt(dims_[d], query.dims[d], id));
  }
  return std::max(query.total, static_cast<int>(totals_[id])) - transport;
}

namespace {

// ---------------------------------------------------------------------------
// Sweep plumbing. Every sweep is a group sweep: the single-query paths are
// a group of one. A group's (bin, cap) lists are merged into one ascending
// list of *distinct* bins per side, so each column is resolved once per
// block and clamped into every member that uses it. Per member, the clamps
// are exactly its own (bin, cap) terms, and both sides are int32 sums, so
// a fused pass is bit-identical to F single sweeps and to the per-row
// FastLowerBound.
// ---------------------------------------------------------------------------

/// One distinct bin of a group with every member's cap on it; cap[f] == 0
/// marks members that do not use the bin.
struct FusedBinEntry {
  int32_t bin = 0;
  int32_t cap[kMaxFusionGroup] = {};
};

/// The cacheable sweep plan of one dimension: the group's distinct query
/// bins (side A, member caps HQ_f[b]) and distinct dilated bins (side B,
/// member caps HQ_f[N(b)]), each ascending. A pure function of the
/// members' occupied lists (in order) and the grid, which is exactly the
/// FusedPlanCache contract. Immutable once built.
struct FusedPlanData {
  size_t group = 0;
  std::vector<FusedBinEntry> bins;
  std::vector<FusedBinEntry> dilated;
};

std::vector<FusedBinEntry> MergeCaps(
    const std::vector<const std::vector<std::pair<int, int>>*>& lists) {
  struct Item {
    int32_t bin;
    uint32_t f;
    int32_t cap;
  };
  std::vector<Item> items;
  for (uint32_t f = 0; f < lists.size(); ++f) {
    for (const auto& [bin, cap] : *lists[f]) items.push_back({bin, f, cap});
  }
  std::sort(items.begin(), items.end(), [](const Item& a, const Item& b) {
    return a.bin != b.bin ? a.bin < b.bin : a.f < b.f;
  });
  std::vector<FusedBinEntry> out;
  for (size_t i = 0; i < items.size();) {
    FusedBinEntry e;
    e.bin = items[i].bin;
    for (; i < items.size() && items[i].bin == e.bin; ++i) {
      e.cap[items[i].f] = items[i].cap;
    }
    out.push_back(e);
  }
  return out;
}

FusedPlanData BuildFusedPlanData(
    const std::vector<const HistogramTable::QueryHistogram::Dim*>& members) {
  FusedPlanData plan;
  plan.group = members.size();
  std::vector<const std::vector<std::pair<int, int>>*> lists(members.size());
  for (size_t f = 0; f < members.size(); ++f) lists[f] = &members[f]->bins;
  plan.bins = MergeCaps(lists);
  for (size_t f = 0; f < members.size(); ++f) lists[f] = &members[f]->dilated;
  plan.dilated = MergeCaps(lists);
  return plan;
}

/// One column of a store over one sweep block, resolved once so every
/// member of a group clamps the same slice.
struct ColumnBlock {
  uint8_t layout = kColEmpty;
  const int32_t* dense = nullptr;       ///< kColDense: the block's values
  const uint64_t* words = nullptr;      ///< kColBitmap: the block's words
  const uint16_t* local_ids = nullptr;  ///< kColSparse: postings
  const int32_t* counts = nullptr;      ///<   [begin, end) of the block
  uint32_t begin = 0;
  uint32_t end = 0;
};

/// Enters column `bin` at sweep block `block`. Blocks start at multiples
/// of kSweepBlock, so bitmap reads start on a word boundary and the
/// blocked-sparse block index applies directly.
ColumnBlock BlockOf(const HistogramTable::FlatHistograms& f,
                    const HistogramTable::ColumnStore& s, int bin,
                    size_t block) {
  ColumnBlock c;
  c.layout = s.layout[static_cast<size_t>(bin)];
  const size_t slot = s.slot[static_cast<size_t>(bin)];
  const size_t i0 = block * kSweepBlock;
  switch (c.layout) {
    case kColDense:
      c.dense = s.dense.data() + slot * f.n + i0;
      break;
    case kColBitmap:
      c.words = s.bits.data() + slot * WordsPerColumn(f.n) + i0 / 64;
      break;
    case kColSparse: {
      const uint32_t* bo =
          s.sp_block_offsets.data() + slot * (f.num_blocks + 1);
      c.local_ids = s.sp_local_ids.data();
      c.counts = s.sp_counts.data();
      c.begin = bo[block];
      c.end = bo[block + 1];
      break;
    }
    default:
      break;
  }
  return c;
}

/// side[j] += min(cap, the column's value at the block's j-th id), for
/// j < len, dispatching on the column's layout; cap >= 1.
inline void MinCapBlock(const ColumnBlock& c, int32_t cap, size_t len,
                        int32_t* side, const SweepKernels& kernels) {
  switch (c.layout) {
    case kColDense: kernels.min_cap_accum(cap, c.dense, side, len); break;
    case kColBitmap:
      kernels.bitmap_accum(c.words, (len + 63) / 64, side);
      break;
    case kColSparse:
      kernels.sparse_min_cap(c.local_ids, c.counts, c.begin, c.end, cap,
                             side);
      break;
    default: break;
  }
}

/// Clamps the column of every plan entry into the side accumulator of
/// every member with a cap on it, over one block.
void ClampColumns(const HistogramTable::FlatHistograms& f,
                  const HistogramTable::ColumnStore& store,
                  const std::vector<FusedBinEntry>& entries, size_t group,
                  size_t block, size_t len, const SweepKernels& kernels,
                  int32_t (*side)[kSweepBlock]) {
  for (const FusedBinEntry& e : entries) {
    const ColumnBlock c = BlockOf(f, store, e.bin, block);
    if (c.layout == kColEmpty) continue;
    for (size_t fq = 0; fq < group; ++fq) {
      if (e.cap[fq] > 0) MinCapBlock(c, e.cap[fq], len, side[fq], kernels);
    }
  }
}

/// out[f][j] = member f's min(side A, side B) for the block's j-th id:
/// side A clamps the NS columns of the query bins, side B the raw columns
/// of the dilated bins.
void TransportBlock(const HistogramTable::FlatHistograms& f,
                    const FusedPlanData& plan, const SweepKernels& kernels,
                    size_t block, size_t len, int32_t (*out)[kSweepBlock]) {
  alignas(64) int32_t side_b[kMaxFusionGroup][kSweepBlock];
  for (size_t fq = 0; fq < plan.group; ++fq) {
    std::fill_n(out[fq], len, 0);
    std::fill_n(side_b[fq], len, 0);
  }
  ClampColumns(f, f.ns, plan.bins, plan.group, block, len, kernels, out);
  ClampColumns(f, f.raw, plan.dilated, plan.group, block, len, kernels,
               side_b);
  for (size_t fq = 0; fq < plan.group; ++fq) {
    for (size_t j = 0; j < len; ++j) {
      out[fq][j] = std::min(out[fq][j], side_b[fq][j]);
    }
  }
}

}  // namespace

void HistogramTable::SweepGroup(
    const std::vector<const QueryHistogram*>& queries,
    const std::vector<std::vector<int>*>& outs, KernelLevel level,
    const KnnOptions* options) const {
  if (queries.size() > kMaxFusionGroup) {
    for (size_t begin = 0; begin < queries.size(); begin += kMaxFusionGroup) {
      const size_t end = std::min(queries.size(), begin + kMaxFusionGroup);
      SweepGroup(std::vector<const QueryHistogram*>(queries.begin() + begin,
                                                    queries.begin() + end),
                 std::vector<std::vector<int>*>(outs.begin() + begin,
                                                outs.begin() + end),
                 level, options);
    }
    return;
  }
  const size_t group = queries.size();
  if (group == 0) return;
  const size_t n = totals_.size();
  const size_t num_blocks = (n + kSweepBlock - 1) / kSweepBlock;
  for (std::vector<int>* out : outs) out->resize(n);

  // Multi-member groups share plans through the plan cache when one is
  // attached; a group of one always builds its (tiny) plan.
  FusedPlanCache* plan_cache =
      options != nullptr && group > 1 ? options->plan_cache : nullptr;

  // Local member views, canonically ordered when a plan cache is attached:
  // members are stably sorted by occupied-list fingerprint so every
  // arrival permutation of the same group maps to one cache key. Each
  // member's bounds are independent of its slot (side-A and side-B sums
  // are per-member), so permuting is bit-identical — certified by
  // fused_sweep_test and plan_cache_test.
  std::vector<const QueryHistogram*> qs(queries);
  std::vector<std::vector<int>*> os(outs);
  if (plan_cache != nullptr) {
    std::vector<uint64_t> fp(group, 0);
    for (size_t fq = 0; fq < group; ++fq) {
      // Combine the per-dimension fingerprints order-sensitively.
      uint64_t mul = 1;
      for (const QueryHistogram::Dim& dim : qs[fq]->dims) {
        fp[fq] ^= SparseHistogramFingerprint(dim.bins) * mul;
        mul *= 0x9e3779b97f4a7c15ull;
      }
    }
    std::vector<size_t> order(group);
    std::iota(order.begin(), order.end(), size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&fp](size_t a, size_t b) { return fp[a] < fp[b]; });
    for (size_t i = 0; i < group; ++i) {
      qs[i] = queries[order[i]];
      os[i] = outs[order[i]];
    }
  }

  // One plan per dimension. The plan is a pure function of the members'
  // occupied lists (in canonical order) and the table configuration named
  // by feature_key_ + the plan-kind suffix, which is exactly the plan
  // cache's contract; a cache hit therefore yields a bit-identical plan.
  std::vector<std::shared_ptr<const FusedPlanData>> plans(dims_.size());
  for (size_t d = 0; d < dims_.size(); ++d) {
    std::vector<const QueryHistogram::Dim*> members(group);
    std::vector<const FusedPlanCache::SparseList*> keys(group);
    for (size_t fq = 0; fq < group; ++fq) {
      members[fq] = &qs[fq]->dims[d];
      keys[fq] = &members[fq]->bins;
    }
    const auto build = [&members] { return BuildFusedPlanData(members); };
    if (plan_cache != nullptr) {
      static const char* const kSuffix[] = {"#f2d", "#fx", "#fy"};
      plans[d] = plan_cache->GetOrBuild<FusedPlanData>(
          feature_key_ + kSuffix[dims_[d].mode], keys, build);
    } else {
      plans[d] = std::make_shared<const FusedPlanData>(build());
    }
  }

  // Lane kernels, resolved once per call so every shard of this sweep runs
  // one level (EDR_FORCE_KERNEL / test pins are honored dynamically).
  const SweepKernels kernels = SweepKernelsFor(level);
  const auto sweep_range = [&](size_t block_begin, size_t block_end) {
    alignas(64) int32_t t[kMaxFusionGroup][kSweepBlock];
    alignas(64) int32_t td[kMaxFusionGroup][kSweepBlock];
    for (size_t block = block_begin; block < block_end; ++block) {
      const size_t i0 = block * kSweepBlock;
      const size_t len = std::min(kSweepBlock, n - i0);
      TransportBlock(dims_[0], *plans[0], kernels, block, len, t);
      // Kind::k1D: longer - min(tx, ty) is the max of the per-dimension
      // bounds.
      for (size_t d = 1; d < dims_.size(); ++d) {
        TransportBlock(dims_[d], *plans[d], kernels, block, len, td);
        for (size_t fq = 0; fq < group; ++fq) {
          for (size_t j = 0; j < len; ++j) {
            t[fq][j] = std::min(t[fq][j], td[fq][j]);
          }
        }
      }
      for (size_t fq = 0; fq < group; ++fq) {
        std::vector<int>& out = *os[fq];
        const int total = qs[fq]->total;
        for (size_t j = 0; j < len; ++j) {
          out[i0 + j] =
              std::max(total, static_cast<int>(totals_[i0 + j])) - t[fq][j];
        }
      }
    }
  };

  const unsigned workers =
      options != nullptr ? ResolveIntraQueryWorkers(*options) : 1;
  if (workers <= 1 || num_blocks <= 1) {
    sweep_range(0, num_blocks);
    return;
  }
  // Contiguous block ranges, one per participant; every block writes only
  // its own kSweepBlock-aligned output slices, so the sharded sweep is
  // bit-identical to the sequential one for any worker count.
  const size_t ranges = std::min<size_t>(workers, num_blocks);
  IntraQueryPool(*options).ParallelFor(
      ranges,
      [&](size_t r) {
        sweep_range(r * num_blocks / ranges, (r + 1) * num_blocks / ranges);
      },
      static_cast<unsigned>(ranges));
}

void HistogramTable::FastLowerBoundSweep(const QueryHistogram& query,
                                         std::vector<int>* out) const {
  SweepGroup({&query}, {out}, ActiveKernelLevel(), nullptr);
}

void HistogramTable::FastLowerBoundSweepParallel(
    const QueryHistogram& query, std::vector<int>* out,
    const KnnOptions& options) const {
  SweepGroup({&query}, {out}, ActiveKernelLevel(), &options);
}

void HistogramTable::FastLowerBoundSweepScalar(const QueryHistogram& query,
                                               std::vector<int>* out) const {
  SweepGroup({&query}, {out}, KernelLevel::kScalar, nullptr);
}

void HistogramTable::FastLowerBoundSweepFused(
    const std::vector<const QueryHistogram*>& queries,
    const std::vector<std::vector<int>*>& outs) const {
  SweepGroup(queries, outs, ActiveKernelLevel(), nullptr);
}

void HistogramTable::FastLowerBoundSweepFusedParallel(
    const std::vector<const QueryHistogram*>& queries,
    const std::vector<std::vector<int>*>& outs,
    const KnnOptions& options) const {
  SweepGroup(queries, outs, ActiveKernelLevel(), &options);
}

uint64_t HistogramTable::QueryBinSignature(const Trajectory& query) const {
  // splitmix64-style finalizer; the top six bits pick the mask bit, so
  // adjacent bin indices land on uncorrelated bits.
  const auto mix_bit = [](uint64_t v) -> uint64_t {
    v *= 0x9e3779b97f4a7c15ull;
    v ^= v >> 29;
    v *= 0xbf58476d1ce4e5b9ull;
    return 1ull << (v >> 58);
  };
  uint64_t sig = 0;
  for (const Point2& p : query) {
    if (kind_ == Kind::k2D) {
      const uint64_t bin =
          static_cast<uint64_t>(grid_.BinY(p.y)) *
              static_cast<uint64_t>(grid_.nx) +
          static_cast<uint64_t>(grid_.BinX(p.x));
      sig |= mix_bit(bin);
    } else {
      // Disjoint hash namespaces for the x and y subrange bins.
      sig |= mix_bit(static_cast<uint64_t>(grid_.BinX(p.x)) * 2u);
      sig |= mix_bit(static_cast<uint64_t>(grid_.BinY(p.y)) * 2u + 1u);
    }
  }
  return sig;
}

}  // namespace edr
