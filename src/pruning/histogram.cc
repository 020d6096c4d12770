#include "pruning/histogram.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <memory>
#include <numeric>
#include <queue>
#include <span>
#include <unordered_map>

#include "core/cpu.h"
#include "query/intra_query.h"
#include "query/plan_cache.h"
#include "query/thread_pool.h"

#if defined(__x86_64__) && defined(__GNUC__) && !defined(EDR_DISABLE_SIMD)
#define EDR_HISTOGRAM_WIDE 1
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
// arithmetic, so every lane width and both stored column layouts produce
// identical integers in any order. A cap is always >= 1: a query bin's
// count, or the neighbourhood sum of a bin next to an occupied one.
// ---------------------------------------------------------------------------

/// Ids per cache block: the int32 accumulators of a block stay
/// L1/L2-resident while every query column streams over it. Must fit
/// uint16 local posting ids.
constexpr size_t kSweepBlock = 1024;
static_assert(kSweepBlock <= 65536, "blocked-sparse local ids are uint16");

/// The one dense min-cap loop body. At -O3 (the Release build) GCC
/// vectorizes it for every target it is built at: to compare-and-blend
/// SSE2 at the x86-64 baseline, and to ymm / zmm vpminsd inside the AVX2
/// and AVX-512 entry points below.
inline void MinCapAccum(int32_t cap, const int32_t* col, int32_t* side,
                        size_t len) {
  for (size_t i = 0; i < len; ++i) side[i] += std::min(cap, col[i]);
}

// The entry points of each level start on 64-byte boundaries, like the
// Myers kernels, so their loops keep their place in the instruction fetch
// windows when unrelated code linked before them changes size.

__attribute__((flatten, aligned(64))) void MinCapAccumScalar(
    int32_t cap, const int32_t* col, int32_t* side, size_t len) {
  MinCapAccum(cap, col, side, len);
}

#if defined(EDR_HISTOGRAM_WIDE)

__attribute__((target("avx2"), flatten, aligned(64))) void MinCapAccumAvx2(
    int32_t cap, const int32_t* col, int32_t* side, size_t len) {
  MinCapAccum(cap, col, side, len);
}

__attribute__((target("avx512f"), flatten, aligned(64))) void
MinCapAccumAvx512(int32_t cap, const int32_t* col, int32_t* side,
                  size_t len) {
  MinCapAccum(cap, col, side, len);
}

#endif  // defined(EDR_HISTOGRAM_WIDE)

using MinCapAccumFn = void (*)(int32_t, const int32_t*, int32_t*, size_t);

/// The dense kernel of a dispatch level, resolved once per sweep call.
/// kSse2 shares the scalar entry point (the compiler already emits SSE2
/// for it), as the Q-gram window scan does; levels not compiled into this
/// build fall back to scalar too.
MinCapAccumFn MinCapAccumFor(KernelLevel level) {
  switch (level) {
#if defined(EDR_HISTOGRAM_WIDE)
    case KernelLevel::kAvx512: return MinCapAccumAvx512;
    case KernelLevel::kAvx2: return MinCapAccumAvx2;
#endif
    default: return MinCapAccumScalar;
  }
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
  // A dataset without a single point leaves the stats at min = +inf and
  // max = -inf. Its table holds no mass, so a one-bin grid serves it.
  if (!(stats.min_xy.x <= stats.max_xy.x &&
        stats.min_xy.y <= stats.max_xy.y)) {
    grid.bin_size = std::max(bin_size, 1e-12);
    return grid;
  }
  // Guard degenerate thresholds: a zero or tiny bin size would blow the
  // grid up (or divide by zero). Clamping the bin size *up* is always
  // sound — matched pairs stay within adjacent bins for any bin size
  // >= epsilon — it only loosens the bound. Cap the grid at ~512 bins
  // per dimension. Halving before subtracting keeps the span finite for
  // coordinates near +-DBL_MAX, where max - min overflows.
  const double half_range =
      std::max(stats.max_xy.x / 2 - stats.min_xy.x / 2,
               stats.max_xy.y / 2 - stats.min_xy.y / 2);
  bin_size = std::max({bin_size, half_range / 256.0, 1e-12});
  grid.bin_size = bin_size;
  // One bin of slack on each side so any element within epsilon of the
  // data range still falls in a real (non-clamped) bin. The span is halved
  // the same way (the quotient is unchanged wherever hi - lo is finite),
  // and the count is clamped in double before the cast, as ClampedBin
  // does: an infinite coordinate still makes it NaN or +inf.
  grid.min_x = stats.min_xy.x - bin_size;
  grid.min_y = stats.min_xy.y - bin_size;
  const auto bins = [bin_size](double lo, double hi) {
    const double count = std::ceil((hi / 2 - lo / 2) / (bin_size / 2)) + 2;
    if (!(count >= 1.0)) return 1;
    return static_cast<int>(std::min(count, 1024.0));
  };
  grid.nx = bins(grid.min_x, stats.max_xy.x);
  grid.ny = bins(grid.min_y, stats.max_xy.y);
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

namespace {

// ---------------------------------------------------------------------------
// Adaptive per-column storage. A "column" is the value of one bin across
// the whole database; the sweep touches columns block-wise, so every
// layout only needs O(1) entry into the [i0, i0 + len) id range.
// ---------------------------------------------------------------------------

enum ColLayout : uint8_t {
  kColEmpty = 0,   ///< no trajectory has mass there; nothing stored
  kColDense = 1,   ///< bin-major int32 column
  kColSparse = 2,  ///< (local id, value) postings grouped by sweep block
};

/// Column-density threshold of the adaptive heuristic (ALGORITHMS.md §14).
/// Bytes per column: dense 4n; blocked-sparse ~6*occ plus the
/// 4*(num_blocks+1) block index. Dense only pays once a quarter of the
/// database occupies the bin, at which point the streaming min-add also
/// beats the posting loop.
constexpr double kDenseMinDensity = 0.25;

uint8_t ClassifyColumn(uint32_t occ, size_t n) {
  if (occ == 0) return kColEmpty;
  const double density = static_cast<double>(occ) / static_cast<double>(n);
  return density >= kDenseMinDensity ? kColDense : kColSparse;
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
  explicit ColumnStoreBuilder(size_t num_bins) : occ_(num_bins, 0) {}

  void Count(const OccupiedBin& b) { occ_[static_cast<size_t>(b.bin)]++; }

  void Allocate(size_t n, HistogramTable::ColumnStore* store) {
    store_ = store;
    n_ = n;
    num_blocks_ = (n + kSweepBlock - 1) / kSweepBlock;
    const size_t num_bins = occ_.size();
    store->layout.assign(num_bins, kColEmpty);
    store->slot.assign(num_bins, 0);
    uint32_t dense_cols = 0;
    uint32_t postings = 0;
    for (size_t b = 0; b < num_bins; ++b) {
      const uint8_t lay = ClassifyColumn(occ_[b], n);
      store->layout[b] = lay;
      switch (lay) {
        case kColDense: store->slot[b] = dense_cols++; break;
        case kColSparse:
          store->slot[b] = static_cast<uint32_t>(cursor_.size());
          cursor_.push_back(postings);
          postings += occ_[b];
          break;
        default: break;
      }
    }
    store->dense.assign(static_cast<size_t>(dense_cols) * n, 0);
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
  HistogramTable::ColumnStore* store_ = nullptr;
  size_t n_ = 0;
  size_t num_blocks_ = 0;
  std::vector<uint32_t> cursor_;      ///< per sparse slot: next posting
  std::vector<uint32_t> next_block_;  ///< per sparse slot: first unset block
};

}  // namespace

HistogramTable::HistogramTable(const TrajectoryDataset& db, double epsilon,
                               Kind kind, int delta)
    : kind_(kind), delta_(std::max(1, delta)) {
  grid_ = HistogramGrid::For(db.Stats(), epsilon * delta_);
  {
    // %.17g round-trips doubles exactly, so equal keys <=> equal grids.
    char buf[160];
    std::snprintf(buf, sizeof(buf), "hist.%s/grid=%d.%d/%.17g,%.17g,%.17g",
                  kind_ == Kind::k2D ? "2d" : "1d", grid_.nx, grid_.ny,
                  grid_.min_x, grid_.min_y, grid_.bin_size);
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
  raw.Allocate(n, &flat->raw);
  ns.Allocate(n, &flat->ns);
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
        case kColSparse: out->sparse_columns++; break;
        default: out->empty_columns++; break;
      }
    }
    out->bytes += s.dense.size() * sizeof(int32_t) +
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
// Sweep plumbing. Every sweep is a group sweep: a single query is a group
// of one. A group's (bin, cap) lists are merged into one ascending
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
  const uint16_t* local_ids = nullptr;  ///< kColSparse: postings
  const int32_t* counts = nullptr;      ///<   [begin, end) of the block
  uint32_t begin = 0;
  uint32_t end = 0;
};

/// Enters column `bin` at sweep block `block`. Blocks start at multiples
/// of kSweepBlock, so the blocked-sparse block index applies directly.
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
/// j < len, dispatching on the column's layout; cap >= 1. Dense columns
/// run the level's kernel; sparse ones add min(cap, value) per posting of
/// the block with the same scalar loop at every level.
inline void MinCapBlock(const ColumnBlock& c, int32_t cap, size_t len,
                        int32_t* side, MinCapAccumFn min_cap_accum) {
  switch (c.layout) {
    case kColDense: min_cap_accum(cap, c.dense, side, len); break;
    case kColSparse:
      for (uint32_t p = c.begin; p < c.end; ++p) {
        side[c.local_ids[p]] += std::min(cap, c.counts[p]);
      }
      break;
    default: break;
  }
}

/// Clamps the column of every plan entry into the side accumulator of
/// every member with a cap on it, over one block.
__attribute__((aligned(64))) void ClampColumns(
    const HistogramTable::FlatHistograms& f,
    const HistogramTable::ColumnStore& store,
    const std::vector<FusedBinEntry>& entries, size_t group, size_t block,
    size_t len, MinCapAccumFn min_cap_accum, int32_t (*side)[kSweepBlock]) {
  for (const FusedBinEntry& e : entries) {
    const ColumnBlock c = BlockOf(f, store, e.bin, block);
    if (c.layout == kColEmpty) continue;
    for (size_t fq = 0; fq < group; ++fq) {
      if (e.cap[fq] > 0) {
        MinCapBlock(c, e.cap[fq], len, side[fq], min_cap_accum);
      }
    }
  }
}

/// out[f][j] = member f's min(side A, side B) for the block's j-th id:
/// side A clamps the NS columns of the query bins, side B the raw columns
/// of the dilated bins.
__attribute__((aligned(64))) void TransportBlock(
    const HistogramTable::FlatHistograms& f, const FusedPlanData& plan,
    MinCapAccumFn min_cap_accum, size_t block, size_t len,
    int32_t (*out)[kSweepBlock]) {
  alignas(64) int32_t side_b[kMaxFusionGroup][kSweepBlock];
  for (size_t fq = 0; fq < plan.group; ++fq) {
    std::fill_n(out[fq], len, 0);
    std::fill_n(side_b[fq], len, 0);
  }
  ClampColumns(f, f.ns, plan.bins, plan.group, block, len, min_cap_accum,
               out);
  ClampColumns(f, f.raw, plan.dilated, plan.group, block, len, min_cap_accum,
               side_b);
  for (size_t fq = 0; fq < plan.group; ++fq) {
    for (size_t j = 0; j < len; ++j) {
      out[fq][j] = std::min(out[fq][j], side_b[fq][j]);
    }
  }
}

}  // namespace

void HistogramTable::FastLowerBoundSweep(
    const std::vector<const QueryHistogram*>& queries,
    const std::vector<std::vector<int>*>& outs,
    const KnnOptions& options) const {
  // One level for every chunk and shard of the call, so an
  // EDR_FORCE_KERNEL or test pin applies to the whole sweep.
  const KernelLevel level = ActiveKernelLevel();
  for (size_t begin = 0; begin < queries.size(); begin += kMaxFusionGroup) {
    const size_t group = std::min(kMaxFusionGroup, queries.size() - begin);
    SweepGroup(std::span(queries).subspan(begin, group),
               std::span(outs).subspan(begin, group), level, options);
  }
}

void HistogramTable::SweepGroup(
    std::span<const QueryHistogram* const> queries,
    std::span<std::vector<int>* const> outs, KernelLevel level,
    const KnnOptions& options) const {
  const MinCapAccumFn min_cap_accum = MinCapAccumFor(level);
  const size_t group = queries.size();
  const size_t n = totals_.size();
  const size_t num_blocks = (n + kSweepBlock - 1) / kSweepBlock;
  for (std::vector<int>* out : outs) out->resize(n);

  // Multi-member groups share plans through the plan cache when one is
  // attached; a group of one always builds its (tiny) plan.
  FusedPlanCache* plan_cache = group > 1 ? options.plan_cache : nullptr;

  // Local member views, canonically ordered when a plan cache is attached:
  // members are stably sorted by occupied-list fingerprint so every
  // arrival permutation of the same group maps to one cache key. Each
  // member's bounds are independent of its slot (side-A and side-B sums
  // are per-member), so permuting is bit-identical — certified by
  // fused_sweep_test and plan_cache_test.
  std::vector<const QueryHistogram*> qs(queries.begin(), queries.end());
  std::vector<std::vector<int>*> os(outs.begin(), outs.end());
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

  const auto sweep_range = [&](size_t block_begin, size_t block_end) {
    alignas(64) int32_t t[kMaxFusionGroup][kSweepBlock];
    alignas(64) int32_t td[kMaxFusionGroup][kSweepBlock];
    for (size_t block = block_begin; block < block_end; ++block) {
      const size_t i0 = block * kSweepBlock;
      const size_t len = std::min(kSweepBlock, n - i0);
      TransportBlock(dims_[0], *plans[0], min_cap_accum, block, len, t);
      // Kind::k1D: longer - min(tx, ty) is the max of the per-dimension
      // bounds.
      for (size_t d = 1; d < dims_.size(); ++d) {
        TransportBlock(dims_[d], *plans[d], min_cap_accum, block, len, td);
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

  const unsigned workers = ResolveIntraQueryWorkers(options);
  if (workers <= 1 || num_blocks <= 1) {
    sweep_range(0, num_blocks);
    return;
  }
  // Contiguous block ranges, one per participant; every block writes only
  // its own kSweepBlock-aligned output slices, so the sharded sweep is
  // bit-identical to the sequential one for any worker count.
  const size_t ranges = std::min<size_t>(workers, num_blocks);
  IntraQueryPool(options).ParallelFor(
      ranges,
      [&](size_t r) {
        sweep_range(r * num_blocks / ranges, (r + 1) * num_blocks / ranges);
      },
      static_cast<unsigned>(ranges));
}

}  // namespace edr
