#ifndef EDR_PRUNING_HISTOGRAM_H_
#define EDR_PRUNING_HISTOGRAM_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/cpu.h"
#include "core/dataset.h"
#include "core/trajectory.h"
#include "query/knn.h"

namespace edr {

struct OrderWork;  // query/intra_query.h

/// The shared binning of the embedding space (Section 4.3): the data range
/// [min, max] of each dimension is divided into equal subranges of width
/// `bin_size` (the matching threshold epsilon, or delta * epsilon for the
/// coarser variants of Corollary 1).
struct HistogramGrid {
  double min_x = 0.0;
  double min_y = 0.0;
  double bin_size = 0.25;
  int nx = 1;  ///< number of bins along x
  int ny = 1;  ///< number of bins along y

  /// Builds a grid covering `stats` with the given bin size. One bin of
  /// slack is added on each side so boundary samples never fall outside.
  static HistogramGrid For(const DatasetStats& stats, double bin_size);

  /// Bin of a coordinate, clamped to the grid; a NaN coordinate maps to
  /// bin 0 (see ClampedBin in histogram.cc for why that stays sound).
  int BinX(double x) const;
  int BinY(double y) const;
  int NumBins2D() const { return nx * ny; }
};

/// A 2-D trajectory histogram: bin i (= by * nx + bx) counts the elements
/// falling in that cell. The histogram of S changes by at most one unit
/// per EDR edit operation, which is what makes histogram distance a lower
/// bound of EDR (Theorem 6).
std::vector<int> BuildHistogram2D(const Trajectory& t,
                                  const HistogramGrid& grid);

/// Per-dimension 1-D histograms (Corollary 1): element counts over the x
/// (resp. y) subranges only.
std::vector<int> BuildHistogram1D(const Trajectory& t,
                                  const HistogramGrid& grid, bool use_x);

/// Histogram distance HD between two 2-D histograms on the same grid
/// (Definition 4 / Figure 5, strengthened — see below).
///
/// Elements that match under EDR (within epsilon in both dimensions) land
/// in the same or *adjacent* bins (Definition 5's "approximately match":
/// Chebyshev-adjacent cells for a bin size >= epsilon). We compute
///
///   HD = max(m, n) - T*,
///
/// where T* is the maximum transport of histogram mass from HR to HS
/// along approximately-matching bin pairs (a small max-flow). Soundness
/// (the Theorem 6 guarantee HD <= EDR): the zero-cost matched pairs of an
/// optimal edit script form a feasible transport of size M, and each of
/// the remaining max(m, n) - M elements of the longer trajectory needs
/// its own edit operation.
///
/// Note: the paper's Figure 5 algorithm cancels only *residual* counts of
/// adjacent bins in a single pass. That overestimates the distance when
/// matched pairs chain across bins (r1 in b0 ~ s1 in b1, r2 in b1 ~ s2 in
/// b2 leaves residuals two bins apart with EDR = 0) and would introduce
/// false dismissals; the transport formulation handles chains exactly and
/// is never larger than the true EDR.
int HistogramDistance2D(const std::vector<int>& hr, const std::vector<int>& hs,
                        const HistogramGrid& grid);

/// Histogram distance between two 1-D histograms (adjacency = neighboring
/// subranges). Same construction as HistogramDistance2D on a path graph.
int HistogramDistance1D(const std::vector<int>& hr,
                        const std::vector<int>& hs);

/// Fast relaxation of HistogramDistance2D: max(m, n) - U where U is the
/// linear-time transport upper bound
///
///   U = min( sum_b min(HR[b], HS[N(b)]),  sum_b min(HS[b], HR[N(b)]) ),
///
/// with HS[N(b)] the total HS mass in b's same-or-adjacent bins. Since
/// U >= T*, the result never exceeds HistogramDistance2D and is therefore
/// also a valid EDR lower bound — a cheap first-stage filter before the
/// exact max-flow distance.
int HistogramDistance2DFast(const std::vector<int>& hr,
                            const std::vector<int>& hs,
                            const HistogramGrid& grid);

/// 1-D analogue of HistogramDistance2DFast.
int HistogramDistance1DFast(const std::vector<int>& hr,
                            const std::vector<int>& hs);

/// Layout census and byte count of one column store of a HistogramTable.
struct ColumnStoreStats {
  size_t dense_columns = 0;   ///< stored as dense int32 columns
  size_t sparse_columns = 0;  ///< blocked-sparse posting columns
  size_t empty_columns = 0;   ///< nothing stored at all
  /// Dense block + postings + block index + per-column layout/slot tables.
  size_t bytes = 0;
};

/// What the column stores of one HistogramTable actually hold, for memory
/// accounting and the layout benches.
struct HistogramStorageStats {
  size_t columns = 0;  ///< bin columns per store, across all dimensions
  ColumnStoreStats raw;  ///< the bin counts H[b] (side B of the bound)
  ColumnStoreStats ns;   ///< the neighbourhood sums H[N(b)] (side A)
  size_t column_bytes = 0;  ///< raw.bytes + ns.bytes
  /// What both stores would cost all-dense:
  /// 2 * columns * n * sizeof(int32).
  size_t dense_equivalent_bytes = 0;
};

/// Precomputed histograms for a whole dataset, shared by the histogram
/// searchers and the combined searcher.
///
/// The fast bound's transport upper bound U = min(A, B) (see
/// HistogramDistance2DFast) is read off two column stores per histogram
/// dimension, each holding the value of one bin across the whole database
/// ("a bin column"):
///
///  - the *raw* store, raw_b[id] = H_id[b], gives side B as
///    sum over the query's dilated support of min(HQ[N(b)], raw_b[id]);
///  - the *neighbourhood-sum* (NS) store, ns_b[id] = H_id[N(b)], gives
///    side A as sum over the query's bins of min(HQ[b], ns_b[id]);
///
/// with N(b) the same-or-adjacent bins of b. Either way a query touches
/// one column per bin it occupies or neighbours, so the sweep's cost
/// follows the query's neighbourhood rather than the table. Each column is
/// kept in one of three layouts, chosen per column at build time from its
/// density alone (a dense block for every column would cost O(bins * n)
/// memory, which blows up at the fine grids):
///
///  - *dense* columns (a quarter of the ids or more) stay bin-major int32
///    (`dense[slot * n + id]`), which FastLowerBoundSweep streams through
///    one min-cap loop vectorized at each kernel level;
///  - *blocked-sparse* columns keep (local id, value) postings grouped by
///    sweep block, entered O(1) via a per-column block index;
///  - *empty* columns store nothing.
///
/// The stores hold the trajectories as *rows* in ascending (length, id)
/// order, so each 1024-row sweep block spans a narrow range of lengths;
/// every bound is still reported by original id. The fast bound is never
/// below the length gap ||Q| - |S||, so a sorted scan that halts at its
/// threshold can only reach the blocks whose lengths lie near the query's
/// (BoundOrder).
class HistogramTable {
 public:
  enum class Kind {
    k2D,  ///< trajectory histograms ("2HE", "2H2E", ... per delta)
    k1D,  ///< per-dimension histograms ("1HE")
  };

  /// Builds histograms for every trajectory with bin size delta * epsilon.
  /// For Kind::k1D both the x and y histograms are kept and the lower
  /// bound is the max of the two per-dimension bounds (each lower-bounds
  /// EDR by Corollary 1, so their max does too).
  HistogramTable(const TrajectoryDataset& db, double epsilon, Kind kind,
                 int delta = 1);

  /// Rows per sweep block: the int32 accumulators of a block stay
  /// L1/L2-resident while every query column streams over it. Must fit
  /// uint16 local posting rows.
  static constexpr size_t kSweepBlock = 1024;

  /// Precomputes the query side of the fast bound once; returns an opaque
  /// handle. A function of the query and the grid only (never of the
  /// table's data), so a cached handle serves any table on the same grid.
  struct QueryHistogram {
    /// One histogram dimension: the 2-D grid, or the x / y subranges.
    struct Dim {
      /// Occupied (bin, HQ[b]) pairs, ascending by bin: side A's caps.
      std::vector<std::pair<int, int>> bins;
      /// (bin, HQ[N(b)]) over the dilated support HQ[N(b)] > 0, ascending
      /// by bin: side B's caps.
      std::vector<std::pair<int, int>> dilated;
    };
    std::vector<Dim> dims;  ///< the 2-D grid, or x then y
    int total = 0;
  };
  QueryHistogram MakeQueryHistogram(const Trajectory& query) const;

  /// HistogramDistance2DFast (HistogramDistance1DFast per dimension for
  /// Kind::k1D, max of the two) between the query and db[id], read off the
  /// column stores: a valid EDR lower bound, used as a first-stage filter
  /// by the searchers.
  int FastLowerBound(const QueryHistogram& query, uint32_t id) const;

  /// FastLowerBound for every member of a group of queries and the
  /// *entire database*, in one cache-blocked pass: `(*outs[f])[id] ==
  /// FastLowerBound(*queries[f], id)` for every id, bit for bit, whatever
  /// the group size. A single query is a group of one. Each block clamps
  /// the query columns into int32 accumulators, dispatching per column on
  /// its storage layout: dense columns stream through the min-cap loop
  /// built for ActiveKernelLevel() (read once per call), blocked-sparse
  /// columns add their postings into the same accumulators. Each
  /// *distinct* bin of the group resolves its column once and clamps it
  /// into every member that uses it (int32 addition commutes, so the
  /// per-member sums are exact). Groups larger than kMaxFusionGroup are
  /// chunked. `options.intra_query_workers` shards the blocks over the
  /// intra-query pool; every block writes its own output range by index,
  /// so the result is the same for any worker count. Groups of two or more
  /// share their sweep plans through `options.plan_cache` when one is
  /// attached.
  void FastLowerBoundSweep(const std::vector<const QueryHistogram*>& queries,
                           const std::vector<std::vector<int>*>& outs,
                           const KnnOptions& options = {}) const;

  class BoundOrder;

  Kind kind() const { return kind_; }
  int delta() const { return delta_; }
  const HistogramGrid& grid() const { return grid_; }
  size_t size() const { return totals_.size(); }

  /// Layout census + byte counts of the column stores, summed over every
  /// dimension this table keeps (the 2-D grid, or the x and y subranges).
  HistogramStorageStats storage_stats() const;

  /// FeatureCache config key for this table's query histograms. Encodes
  /// everything MakeQueryHistogram depends on: the kind and the exact grid
  /// geometry.
  const std::string& feature_key() const { return feature_key_; }

  /// One store of bin columns (see the class comment), indexed by row.
  /// Public only so the sweep's file-local dispatch helpers can take it;
  /// not part of the stable API.
  struct ColumnStore {
    std::vector<uint8_t> layout;  ///< per bin: the ColLayout code
    std::vector<uint32_t> slot;   ///< per bin: index in its layout's store
    std::vector<int32_t> dense;   ///< dense cols: dense[slot * n + row]
    /// Blocked-sparse cols: postings (local row within block, value) in
    /// ascending row order, entered per block via the block index
    /// sp_block_offsets[slot * (num_blocks + 1) + block].
    std::vector<uint32_t> sp_block_offsets;
    std::vector<uint16_t> sp_local_ids;
    std::vector<int32_t> sp_counts;
  };

  /// Both column stores of one histogram dimension. `nx * ny` spans the
  /// bin space; 1-D dimensions use ny == 1, which makes the shared
  /// 3x3-clamped neighbourhood degenerate to the path neighbourhood.
  struct FlatHistograms {
    int mode = 0;  ///< 0 = the 2-D grid, 1 = x subranges, 2 = y subranges
    int nx = 0;
    int ny = 1;
    size_t n = 0;
    size_t num_blocks = 0;  ///< ceil(n / kSweepBlock) sweep blocks
    ColumnStore raw;        ///< raw_b[row] = H_row[b]
    ColumnStore ns;         ///< ns_b[row] = H_row[N(b)]
  };

  /// The sweep plan of a group of at most kMaxFusionGroup queries, one per
  /// histogram dimension (defined in histogram.cc). Public only so the
  /// sweep's file-local helpers can take it; not part of the stable API.
  struct SweepPlan;

 private:
  /// Builds one dimension's two stores: a count pass and a fill pass in row
  /// order, each rebuilding the trajectories' occupied and dilated lists
  /// chunk by chunk in parallel — deterministic for any worker count.
  void BuildTable(const TrajectoryDataset& db, FlatHistograms* flat) const;

  /// Sweeps one chunk of at most kMaxFusionGroup queries at `level`.
  void SweepGroup(std::span<const QueryHistogram* const> queries,
                  std::span<std::vector<int>* const> outs, KernelLevel level,
                  const KnnOptions& options) const;

  /// Every member's bound on the rows of sweep block `block`:
  /// bounds[f][j] for row block * kSweepBlock + j. The one block kernel of
  /// every sweep, whole-table or windowed.
  void BoundBlock(const SweepPlan& plan, KernelLevel level, size_t block,
                  int32_t (*bounds)[kSweepBlock]) const;

  Kind kind_;
  int delta_;
  HistogramGrid grid_;
  std::string feature_key_;
  std::vector<FlatHistograms> dims_;  ///< the 2-D grid, or x then y
  std::vector<int32_t> totals_;       ///< per row: its length, ascending
  std::vector<uint32_t> id_of_row_;   ///< rows in (length, id) order
  std::vector<uint32_t> row_of_id_;
};

/// The ascending (FastLowerBound, id) order of one query over a table, the
/// visit order of a sorted histogram scan, built as the scan reaches it.
///
/// The window argument (docs/ALGORITHMS.md §4): the bound is never below
/// the length gap ||Q| - |S||, and the table stores its rows in (length,
/// id) order, so every row of bound beta lies in a sweep block whose
/// length gap to the query is at most beta. Extend sweeps blocks outward
/// from the query's length, and before it hands out any id of key beta it
/// has swept every block of gap <= beta. So it hands out exactly the
/// canonical (bound, id) sequence, and once the next key exceeds the
/// threshold it stops without sweeping further: a scan that halts at its
/// k-th distance T reads only the blocks within T of the query's length.
///
/// Swept rows wait in per-key lists threaded through one per-row array;
/// every buffer is allocated once, at construction. Not thread-safe: the
/// scan extends it under its own lock (InLazyOrder).
class HistogramTable::BoundOrder {
 public:
  /// With `swept` null, sweeps the query's blocks as the order reaches
  /// them, at ActiveKernelLevel() (read once). Otherwise `swept` holds the
  /// query's bound on every id, swept beforehand (a fusion group's pass),
  /// and the order hands out the same ids from it without sweeping.
  BoundOrder(const HistogramTable& table, const QueryHistogram& query,
             const std::vector<int>* swept);
  ~BoundOrder();

  BoundOrder(const BoundOrder&) = delete;
  BoundOrder& operator=(const BoundOrder&) = delete;

  /// The bound of every id handed out so far, by id.
  const int* bounds() const { return bounds_; }
  int key(uint32_t id) const { return bounds_[id]; }

  /// The id of rank `rank`, below the length Extend last returned.
  uint32_t id_at(size_t rank) const { return ids_[rank]; }

  /// Appends the ids of the next keys, each key's in ascending id order,
  /// and returns the order's new length; returns the length unchanged,
  /// sweeping nothing, once every id not yet handed out has a bound above
  /// `threshold`, or none is left.
  size_t Extend(double threshold);

  /// The blocks swept so far and their time, as a "bound_sweep" aggregate.
  OrderWork work() const;

 private:
  /// Length gap between the query and the nearest row of `block`.
  size_t Gap(size_t block) const;
  /// Sweeps (or, over bounds swept beforehand, just reads) one block and
  /// files its rows under their keys.
  void Take(size_t block);

  const HistogramTable& table_;
  size_t query_total_;
  std::unique_ptr<SweepPlan> plan_;  ///< null over bounds swept beforehand
  KernelLevel level_;
  std::unique_ptr<int[]> own_bounds_;  ///< by id, when this order sweeps
  const int* bounds_ = nullptr;
  std::unique_ptr<uint32_t[]> ids_;   ///< the order handed out so far
  std::unique_ptr<uint32_t[]> next_;  ///< per row: next row of its key
  std::vector<uint32_t> head_;        ///< per key: first row waiting
  size_t count_ = 0;                  ///< ids handed out
  size_t key_ = 0;    ///< every key below it handed out
  size_t left_ = 0;   ///< blocks [left_, right_) taken
  size_t right_ = 0;
  size_t blocks_swept_ = 0;
  double sweep_seconds_ = 0.0;
};

}  // namespace edr

#endif  // EDR_PRUNING_HISTOGRAM_H_
