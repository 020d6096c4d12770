#ifndef EDR_PRUNING_HISTOGRAM_H_
#define EDR_PRUNING_HISTOGRAM_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/cpu.h"
#include "core/dataset.h"
#include "core/trajectory.h"
#include "query/knn.h"

namespace edr {

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

/// Storage policy for the per-bin filter columns of a HistogramTable.
///
/// The PR-2 layout kept one dense bin-major int32 block — O(bins * n)
/// memory, which blows up at fine grids (delta = 1 on large coordinate
/// ranges caps out at a ~512x512 grid, i.e. ~n MB per thousand bins).
/// kAdaptive classifies every bin column at build time from its measured
/// density and stores it in the cheapest layout that keeps the
/// cache-blocked column-sweep shape; kDense forces all-dense blocks
/// (baseline for benchmarks and equivalence tests). Both layouts produce
/// bit-identical bounds — the policy is a pure memory/speed knob.
enum class HistogramLayout {
  kAdaptive,
  kDense,
};

/// "adaptive" or "dense".
const char* HistogramLayoutName(HistogramLayout layout);

/// Layout census and byte count of one column store of a HistogramTable.
struct ColumnStoreStats {
  size_t dense_columns = 0;   ///< stored as dense int32 columns
  size_t bitmap_columns = 0;  ///< all-ones columns stored as bitmaps
  size_t sparse_columns = 0;  ///< blocked-sparse posting columns
  size_t empty_columns = 0;   ///< nothing stored at all
  /// Dense block + bitmaps + postings + block index + per-column
  /// layout/slot tables.
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
/// kept in one of four layouts chosen per column at build time
/// (HistogramLayout::kAdaptive):
///
///  - *dense* columns stay bin-major int32 (`dense[slot * n + id]`), the
///    layout FastLowerBoundSweep streams over with SIMD;
///  - *bitmap* columns (every stored value is 1) keep one bit per id;
///  - *blocked-sparse* columns keep (local id, value) postings grouped by
///    sweep block, entered O(1) via a per-column block index;
///  - *empty* columns store nothing.
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
                 int delta = 1,
                 HistogramLayout layout = HistogramLayout::kAdaptive);

  /// Precomputes the query side of the fast bound once; returns an opaque
  /// handle. A function of the query and the grid only (never of the
  /// table's data or layout), so a cached handle serves any table on the
  /// same grid.
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

  /// 64-bit occupancy signature of the query's histogram bins: each point
  /// maps to its grid bin (both the x and y subrange bins for Kind::k1D,
  /// in disjoint hash namespaces) and sets one mixed bit of the mask.
  /// Queries whose trajectories occupy overlapping bins get overlapping
  /// signatures, so popcount arithmetic on signatures estimates the
  /// shared-bin fraction `s` of a prospective fusion group — the quantity
  /// the similarity-aware grouper maximizes. Purely advisory: signatures
  /// influence which queries share a sweep, never any bound or answer.
  uint64_t QueryBinSignature(const Trajectory& query) const;

  /// HistogramDistance2DFast (HistogramDistance1DFast per dimension for
  /// Kind::k1D, max of the two) between the query and db[id], read off the
  /// column stores: a valid EDR lower bound, used as a first-stage filter
  /// by the searchers.
  int FastLowerBound(const QueryHistogram& query, uint32_t id) const;

  /// FastLowerBound for the *entire database* in one cache-blocked pass:
  /// `(*out)[id] == FastLowerBound(query, id)` for every id, bit for bit.
  /// Each block clamps the query's columns into int32 accumulators,
  /// dispatching per column on its storage layout — dense columns stream
  /// through the widest SIMD lanes the host offers (AVX-512/AVX2/SSE2/NEON
  /// behind ActiveKernelLevel()), bitmap and blocked-sparse columns
  /// scatter into the same accumulator. This is what HSE/HSR and the
  /// combined searcher consume instead of n per-row calls.
  void FastLowerBoundSweep(const QueryHistogram& query,
                           std::vector<int>* out) const;

  /// FastLowerBoundSweep with its cache blocks sharded over the intra-query
  /// thread pool (options.intra_query_workers participants; 1 = the plain
  /// sequential sweep, no pool touched). Every block writes its own output
  /// range by index, so the result is bit-identical to FastLowerBoundSweep
  /// for any worker count.
  void FastLowerBoundSweepParallel(const QueryHistogram& query,
                                   std::vector<int>* out,
                                   const KnnOptions& options) const;

  /// Portable scalar reference for FastLowerBoundSweep: identical results
  /// on every platform (and the only path when SIMD is unavailable or
  /// EDR_DISABLE_SIMD is defined). Exposed so tests can certify the SIMD
  /// sweep bit-identical.
  void FastLowerBoundSweepScalar(const QueryHistogram& query,
                                 std::vector<int>* out) const;

  /// FastLowerBoundSweep for a *fusion group* of queries in one
  /// cache-blocked database pass: `(*outs[f])[id]` is bit-identical to what
  /// FastLowerBoundSweep(*queries[f], ...) writes, for every group size.
  /// The group shares each sweep block while it is cache-hot: each
  /// *distinct* bin of the group resolves its column once and clamps it
  /// into every member that uses it (int32 addition commutes, so the
  /// per-query sums are exact). Groups larger than kMaxFusionGroup are
  /// chunked.
  void FastLowerBoundSweepFused(
      const std::vector<const QueryHistogram*>& queries,
      const std::vector<std::vector<int>*>& outs) const;

  /// FastLowerBoundSweepFused with its cache blocks sharded over the
  /// intra-query pool, exactly like FastLowerBoundSweepParallel; every
  /// worker serves the whole fusion group over its own block range, so the
  /// result stays bit-identical for any worker count.
  void FastLowerBoundSweepFusedParallel(
      const std::vector<const QueryHistogram*>& queries,
      const std::vector<std::vector<int>*>& outs,
      const KnnOptions& options) const;

  Kind kind() const { return kind_; }
  int delta() const { return delta_; }
  HistogramLayout layout() const { return layout_; }
  const HistogramGrid& grid() const { return grid_; }
  size_t size() const { return totals_.size(); }

  /// Layout census + byte counts of the column stores, summed over every
  /// dimension this table keeps (the 2-D grid, or the x and y subranges).
  HistogramStorageStats storage_stats() const;

  /// FeatureCache config key for this table's query histograms. Encodes
  /// everything MakeQueryHistogram depends on — the kind and the exact
  /// grid geometry — plus the storage-layout policy, so a layout change
  /// can never serve a feature cached under another configuration.
  const std::string& feature_key() const { return feature_key_; }

  /// One store of bin columns (see the class comment). Public only so the
  /// sweep's file-local dispatch helpers can take it; not part of the
  /// stable API.
  struct ColumnStore {
    std::vector<uint8_t> layout;  ///< per bin: the ColLayout code
    std::vector<uint32_t> slot;   ///< per bin: index in its layout's store
    std::vector<int32_t> dense;   ///< dense cols: dense[slot * n + id]
    std::vector<uint64_t> bits;   ///< bitmap cols: one bit per id
    /// Blocked-sparse cols: postings (local id within block, value) in
    /// ascending id order, entered per block via the block index
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
    ColumnStore raw;        ///< raw_b[id] = H_id[b]
    ColumnStore ns;         ///< ns_b[id] = H_id[N(b)]
  };

 private:
  /// Builds one dimension's two stores: a count pass and a fill pass in id
  /// order, each rebuilding the trajectories' occupied and dilated lists
  /// chunk by chunk in parallel — deterministic for any worker count.
  void BuildTable(const TrajectoryDataset& db, FlatHistograms* flat) const;

  /// Sweeps one group of at most kMaxFusionGroup queries at `level`,
  /// sharded over options->intra_query_workers (sequential when `options`
  /// is null). Every public sweep funnels through here.
  void SweepGroup(const std::vector<const QueryHistogram*>& queries,
                  const std::vector<std::vector<int>*>& outs,
                  KernelLevel level, const KnnOptions* options) const;

  Kind kind_;
  int delta_;
  HistogramLayout layout_;
  HistogramGrid grid_;
  std::string feature_key_;
  std::vector<FlatHistograms> dims_;  ///< the 2-D grid, or x then y
  std::vector<int32_t> totals_;
};

}  // namespace edr

#endif  // EDR_PRUNING_HISTOGRAM_H_
