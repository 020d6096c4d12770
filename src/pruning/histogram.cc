#include "pruning/histogram.h"

#include <algorithm>
#include <chrono>
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

constexpr size_t kSweepBlock = HistogramTable::kSweepBlock;
static_assert(kSweepBlock <= 65536, "blocked-sparse local rows are uint16");

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

/// Builds one ColumnStore from two passes over the same (row, bin, value)
/// entries in ascending row order: Count sizes every column, Allocate
/// classifies the columns and allocates each layout's arrays at their
/// exact sizes, and Put writes the values. Ascending rows keep each sparse
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

  void Put(uint32_t row, const OccupiedBin& b) {
    const size_t bin = static_cast<size_t>(b.bin);
    const size_t slot = store_->slot[bin];
    switch (store_->layout[bin]) {
      case kColDense:
        store_->dense[slot * n_ + row] = b.count;
        break;
      case kColSparse: {
        const uint32_t p = cursor_[slot]++;
        const uint32_t block = static_cast<uint32_t>(row / kSweepBlock);
        uint32_t* bo =
            store_->sp_block_offsets.data() + slot * (num_blocks_ + 1);
        while (next_block_[slot] <= block) bo[next_block_[slot]++] = p;
        store_->sp_local_ids[p] =
            static_cast<uint16_t>(row - block * kSweepBlock);
        store_->sp_counts[p] = b.count;
        break;
      }
      default: break;
    }
  }

  /// Closes every sparse column's block index once all rows are put.
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
  std::vector<uint32_t> occ_;  ///< per bin: rows with a non-zero value
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
  // Rows in ascending (length, id) order: one stable sort of the ids.
  const size_t n = db.size();
  id_of_row_.resize(n);
  std::iota(id_of_row_.begin(), id_of_row_.end(), uint32_t{0});
  std::stable_sort(id_of_row_.begin(), id_of_row_.end(),
                   [&db](uint32_t a, uint32_t b) {
                     return db[a].size() < db[b].size();
                   });
  row_of_id_.resize(n);
  totals_.resize(n);
  for (size_t row = 0; row < n; ++row) {
    row_of_id_[id_of_row_[row]] = static_cast<uint32_t>(row);
    totals_[row] = static_cast<int32_t>(db[id_of_row_[row]].size());
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

  // A count pass, then a fill pass, over the rows in order. Both passes
  // rebuild each trajectory's occupied list and its dilation (the NS
  // entries), a chunk of rows at a time in parallel, rather than hold them
  // for the whole table: the only transients are one chunk of lists and
  // the per-column counters.
  constexpr size_t kChunk = 256;
  std::vector<std::vector<OccupiedBin>> occupied(std::min(n, kChunk));
  std::vector<std::vector<OccupiedBin>> dilated(occupied.size());
  const auto for_each_row = [&](const auto& visit) {
    for (size_t begin = 0; begin < n; begin += kChunk) {
      const size_t end = std::min(n, begin + kChunk);
      ThreadPool::Global().ParallelFor(end - begin, [&](size_t i) {
        thread_local std::vector<int> point_bins;
        thread_local std::vector<OccupiedBin> scratch;
        FillOccupied(db[id_of_row_[begin + i]], grid_, mode, &point_bins,
                     &occupied[i]);
        NeighborhoodSums(occupied[i], nx, ny, &scratch, &dilated[i]);
      });
      for (size_t row = begin; row < end; ++row) {
        visit(static_cast<uint32_t>(row), occupied[row - begin],
              dilated[row - begin]);
      }
    }
  };
  ColumnStoreBuilder raw(num_bins);
  ColumnStoreBuilder ns(num_bins);
  for_each_row([&](uint32_t, const std::vector<OccupiedBin>& occ,
                   const std::vector<OccupiedBin>& dil) {
    for (const OccupiedBin& b : occ) raw.Count(b);
    for (const OccupiedBin& b : dil) ns.Count(b);
  });
  raw.Allocate(n, &flat->raw);
  ns.Allocate(n, &flat->ns);
  for_each_row([&](uint32_t row, const std::vector<OccupiedBin>& occ,
                   const std::vector<OccupiedBin>& dil) {
    for (const OccupiedBin& b : occ) raw.Put(row, b);
    for (const OccupiedBin& b : dil) ns.Put(row, b);
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

/// One row's value in one column of a store. The per-row bound path only;
/// the sweep enters columns block-wise.
int ColumnValueAt(const HistogramTable::FlatHistograms& f,
                  const HistogramTable::ColumnStore& s, int bin,
                  uint32_t row) {
  const size_t slot = s.slot[static_cast<size_t>(bin)];
  switch (s.layout[static_cast<size_t>(bin)]) {
    case kColDense:
      return s.dense[slot * f.n + row];
    case kColSparse: {
      const size_t block = row / kSweepBlock;
      const uint32_t* bo =
          s.sp_block_offsets.data() + slot * (f.num_blocks + 1);
      const uint16_t local =
          static_cast<uint16_t>(row - block * kSweepBlock);
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

/// One row's linear transport upper bound min(side A, side B) against the
/// query in one dimension, read off both stores. The sweep computes the
/// same integers block-wise.
int TransportAt(const HistogramTable::FlatHistograms& f,
                const HistogramTable::QueryHistogram::Dim& q, uint32_t row) {
  int side_a = 0;
  for (const auto& [bin, cap] : q.bins) {
    side_a += std::min(cap, ColumnValueAt(f, f.ns, bin, row));
  }
  int side_b = 0;
  for (const auto& [bin, cap] : q.dilated) {
    side_b += std::min(cap, ColumnValueAt(f, f.raw, bin, row));
  }
  return std::min(side_a, side_b);
}

}  // namespace

int HistogramTable::FastLowerBound(const QueryHistogram& query,
                                   uint32_t id) const {
  // For Kind::k1D each per-dimension bound is a valid EDR lower bound, and
  // longer - min(tx, ty) is the larger of the two.
  const uint32_t row = row_of_id_[id];
  int transport = std::numeric_limits<int>::max();
  for (size_t d = 0; d < dims_.size(); ++d) {
    transport = std::min(transport, TransportAt(dims_[d], query.dims[d], row));
  }
  return std::max(query.total, static_cast<int>(totals_[row])) - transport;
}

namespace {

/// One column of a store over one sweep block.
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

/// side[j] += min(cap, the column's value at the block's j-th row), for
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

/// Clamps the column of every (bin, cap) entry of one of the query's
/// ascending lists into the side accumulator, over one block. Every cap is
/// at least 1: the lists hold only occupied bins.
__attribute__((aligned(64))) void ClampColumns(
    const HistogramTable::FlatHistograms& f,
    const HistogramTable::ColumnStore& store,
    const std::vector<std::pair<int, int>>& entries, size_t block,
    size_t len, MinCapAccumFn min_cap_accum, int32_t* side) {
  for (const auto& [bin, cap] : entries) {
    MinCapBlock(BlockOf(f, store, bin, block), cap, len, side, min_cap_accum);
  }
}

/// out[j] = the query's min(side A, side B) for the block's j-th row: side
/// A clamps the NS columns of the query bins, side B the raw columns of the
/// dilated bins. Both sides are int32 sums of the query's own (bin, cap)
/// terms, so every path computes the same integers as the per-row
/// FastLowerBound.
__attribute__((aligned(64))) void TransportBlock(
    const HistogramTable::FlatHistograms& f,
    const HistogramTable::QueryHistogram::Dim& query,
    MinCapAccumFn min_cap_accum, size_t block, size_t len, int32_t* out) {
  alignas(64) int32_t side_b[kSweepBlock];
  std::fill_n(out, len, 0);
  std::fill_n(side_b, len, 0);
  ClampColumns(f, f.ns, query.bins, block, len, min_cap_accum, out);
  ClampColumns(f, f.raw, query.dilated, block, len, min_cap_accum, side_b);
  for (size_t j = 0; j < len; ++j) out[j] = std::min(out[j], side_b[j]);
}

}  // namespace

void HistogramTable::BoundBlock(const QueryHistogram& query,
                                KernelLevel level, size_t block,
                                int32_t* bounds) const {
  const MinCapAccumFn min_cap_accum = MinCapAccumFor(level);
  const size_t i0 = block * kSweepBlock;
  const size_t len = std::min(kSweepBlock, totals_.size() - i0);
  TransportBlock(dims_[0], query.dims[0], min_cap_accum, block, len, bounds);
  // Kind::k1D: longer - min(tx, ty) is the max of the per-dimension bounds.
  for (size_t d = 1; d < dims_.size(); ++d) {
    alignas(64) int32_t td[kSweepBlock];
    TransportBlock(dims_[d], query.dims[d], min_cap_accum, block, len, td);
    for (size_t j = 0; j < len; ++j) bounds[j] = std::min(bounds[j], td[j]);
  }
  for (size_t j = 0; j < len; ++j) {
    bounds[j] =
        std::max(query.total, static_cast<int>(totals_[i0 + j])) - bounds[j];
  }
}

void HistogramTable::FastLowerBoundSweep(const QueryHistogram& query,
                                         std::vector<int>* out,
                                         const KnnOptions& options) const {
  // One level for every shard of the call, so an EDR_FORCE_KERNEL or test
  // pin applies to the whole sweep.
  const KernelLevel level = ActiveKernelLevel();
  const size_t n = totals_.size();
  const size_t num_blocks = (n + kSweepBlock - 1) / kSweepBlock;
  out->resize(n);
  int* bounds = out->data();

  // Every block's bounds go out by id.
  const auto sweep_range = [&](size_t block_begin, size_t block_end) {
    alignas(64) int32_t t[kSweepBlock];
    for (size_t block = block_begin; block < block_end; ++block) {
      BoundBlock(query, level, block, t);
      const size_t i0 = block * kSweepBlock;
      const size_t len = std::min(kSweepBlock, n - i0);
      for (size_t j = 0; j < len; ++j) bounds[id_of_row_[i0 + j]] = t[j];
    }
  };

  const unsigned workers = ResolveIntraQueryWorkers(options);
  if (workers <= 1 || num_blocks <= 1) {
    sweep_range(0, num_blocks);
    return;
  }
  // Contiguous block ranges, one per participant; every block writes only
  // the outputs of its own rows, so the sharded sweep is bit-identical to
  // the sequential one for any worker count.
  const size_t ranges = std::min<size_t>(workers, num_blocks);
  IntraQueryPool(options).ParallelFor(
      ranges,
      [&](size_t r) {
        sweep_range(r * num_blocks / ranges, (r + 1) * num_blocks / ranges);
      },
      static_cast<unsigned>(ranges));
}

namespace {

constexpr uint32_t kNoRow = std::numeric_limits<uint32_t>::max();

}  // namespace

HistogramTable::BoundOrder::BoundOrder(const HistogramTable& table,
                                       const QueryHistogram& query,
                                       const std::vector<int>* swept)
    : table_(table),
      query_(query),
      query_total_(static_cast<size_t>(query.total)),
      level_(ActiveKernelLevel()),
      ids_(std::make_unique_for_overwrite<uint32_t[]>(table.size())),
      next_(std::make_unique_for_overwrite<uint32_t[]>(table.size())) {
  if (swept != nullptr) {
    bounds_ = swept->data();
  } else {
    // The query's bounds land here block by block.
    own_bounds_ = std::make_unique_for_overwrite<int[]>(table.size());
    bounds_ = own_bounds_.get();
  }
  // A bound never exceeds max(|Q|, |S|), so keys run up to the query's
  // length or the longest row's.
  const std::vector<int32_t>& totals = table.totals_;
  const size_t longest =
      totals.empty() ? 0 : static_cast<size_t>(totals.back());
  head_.assign(std::max(query_total_, longest) + 1, kNoRow);
  // Start at the first block whose longest row is at least as long as the
  // query: the gaps of the blocks from there on grow with the index, and
  // those of the blocks before it with the distance back.
  const size_t num_blocks = (totals.size() + kSweepBlock - 1) / kSweepBlock;
  size_t lo = 0;
  size_t hi = num_blocks;
  while (lo < hi) {
    const size_t mid = (lo + hi) / 2;
    const size_t last = std::min(totals.size(), (mid + 1) * kSweepBlock) - 1;
    if (static_cast<size_t>(totals[last]) < query_total_) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  left_ = right_ = lo;
}

size_t HistogramTable::BoundOrder::Gap(size_t block) const {
  const std::vector<int32_t>& totals = table_.totals_;
  const size_t shortest = static_cast<size_t>(totals[block * kSweepBlock]);
  const size_t longest = static_cast<size_t>(
      totals[std::min(totals.size(), (block + 1) * kSweepBlock) - 1]);
  if (query_total_ < shortest) return shortest - query_total_;
  if (query_total_ > longest) return query_total_ - longest;
  return 0;
}

void HistogramTable::BoundOrder::Take(size_t block) {
  const size_t i0 = block * kSweepBlock;
  const size_t len = std::min(kSweepBlock, table_.size() - i0);
  const uint32_t* id_of_row = table_.id_of_row_.data() + i0;
  if (own_bounds_ != nullptr) {
    const auto start = std::chrono::steady_clock::now();
    alignas(64) int32_t swept[kSweepBlock];
    table_.BoundBlock(query_, level_, block, swept);
    for (size_t j = 0; j < len; ++j) own_bounds_[id_of_row[j]] = swept[j];
    sweep_seconds_ += std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    ++blocks_swept_;
  }
  for (size_t j = 0; j < len; ++j) {
    const size_t key = static_cast<size_t>(bounds_[id_of_row[j]]);
    next_[i0 + j] = head_[key];
    head_[key] = static_cast<uint32_t>(i0 + j);
  }
}

size_t HistogramTable::BoundOrder::Extend(double threshold) {
  const size_t num_blocks = (table_.size() + kSweepBlock - 1) / kSweepBlock;
  constexpr size_t kNone = std::numeric_limits<size_t>::max();
  // Hands out keys up to about kBatch ids per call, so that the workers of
  // a scan take its lock less often, but sweeps no block for the batch:
  // once some key is out, it stops where the next key needs a sweep.
  constexpr size_t kBatch = 256;
  const size_t start = count_;
  // Invariant: every block not yet taken has a gap of at least key_, so it
  // holds no row of a key below key_.
  while (key_ < head_.size() && static_cast<double>(key_) <= threshold &&
         count_ < start + kBatch) {
    const size_t left_gap = left_ > 0 ? Gap(left_ - 1) : kNone;
    const size_t right_gap = right_ < num_blocks ? Gap(right_) : kNone;
    if (std::min(left_gap, right_gap) <= key_) {
      if (own_bounds_ != nullptr && count_ > start) break;
      Take(left_gap <= right_gap ? --left_ : right_++);
      continue;
    }
    // Every row of key_ is taken: hand its ids out in ascending order.
    const size_t first = count_;
    for (uint32_t row = head_[key_]; row != kNoRow; row = next_[row]) {
      ids_[count_++] = table_.id_of_row_[row];
    }
    std::sort(ids_.get() + first, ids_.get() + count_);
    ++key_;
  }
  return count_;
}

OrderWork HistogramTable::BoundOrder::work() const {
  return {"bound_sweep", sweep_seconds_, blocks_swept_};
}

}  // namespace edr
