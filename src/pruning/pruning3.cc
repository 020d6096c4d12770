#include "pruning/pruning3.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include "distance/distance3.h"
#include "distance/edr_kernel.h"
#include "obs/trace.h"
#include "query/intra_query.h"

namespace edr {

namespace {

// 21 bits per quantized coordinate, biased to stay positive; leaves
// headroom for the +/-1 neighbor offsets without component underflow.
constexpr int64_t kBias = 1 << 20;
constexpr int64_t kCoordMax = (1 << 21) - 2;
constexpr int kShiftY = 21;
constexpr int kShiftX = 42;

int64_t PackCell(int64_t ix, int64_t iy, int64_t iz) {
  return (ix << kShiftX) | (iy << kShiftY) | iz;
}

}  // namespace

KnnResult SequentialScanKnn3(const std::vector<Trajectory3>& db,
                             const Trajectory3& query, size_t k,
                             double epsilon) {
  const auto start = std::chrono::steady_clock::now();
  const EdrKernel kernel = DefaultEdrKernel();
  EdrScratch& scratch = ThreadLocalEdrScratch();
  KnnResultList result(k);
  StageCounters stages;
  for (uint32_t i = 0; i < db.size(); ++i) {
    result.Offer(i, static_cast<double>(EdrDistanceWith(
                        kernel, scratch, query, db[i], epsilon)));
    stages.Bump(&StageCounters::considered);
    stages.CountDp(query.size(), db[i].size());
  }
  const auto stop = std::chrono::steady_clock::now();
  KnnResult out;
  out.neighbors = std::move(result).TakeNeighbors();
  out.stats.db_size = db.size();
  out.stats.edr_computed = db.size();
  out.stats.elapsed_seconds =
      std::chrono::duration<double>(stop - start).count();
  out.stats.refine_seconds = out.stats.elapsed_seconds;
  stages.FinalizeNotVisited(db.size());
  out.stats.stages = stages;
  RecordQueryMetrics(out.stats);
  return out;
}

Knn3Searcher::Knn3Searcher(const std::vector<Trajectory3>& db,
                           double epsilon)
    : db_(db), epsilon_(std::max(epsilon, 1e-12)) {
  // Grid origin: one cell of slack below the minimum finite coordinate in
  // every dimension (elements within epsilon of the range stay in-grid),
  // or 0 for a dimension with no finite coordinate. A NaN or infinity
  // would drag every cell of its axis into one clamped cell; such an
  // element matches nothing, so any cell is sound for it.
  const double inf = std::numeric_limits<double>::infinity();
  Point3 lo{inf, inf, inf};
  const auto lower = [](double& bound, double v) {
    if (std::isfinite(v)) bound = std::min(bound, v);
  };
  for (const Trajectory3& t : db_) {
    for (const Point3& p : t) {
      lower(lo.x, p.x);
      lower(lo.y, p.y);
      lower(lo.z, p.z);
    }
  }
  const auto origin = [this](double v) {
    return std::isfinite(v) ? v - epsilon_ : 0.0;
  };
  grid_min_ = {origin(lo.x), origin(lo.y), origin(lo.z)};

  histograms_.reserve(db_.size());
  sorted_elements_.reserve(db_.size());
  for (const Trajectory3& t : db_) {
    histograms_.push_back(BuildHistogram(t));
    // An element with a NaN coordinate matches nothing, and would break
    // the sort's ordering, so MatchCount never sees it.
    std::vector<Point3> elements = t.points();
    std::erase_if(elements, [](const Point3& p) {
      return std::isnan(p.x) || std::isnan(p.y) || std::isnan(p.z);
    });
    std::sort(elements.begin(), elements.end(),
              [](const Point3& a, const Point3& b) {
                if (a.x != b.x) return a.x < b.x;
                if (a.y != b.y) return a.y < b.y;
                return a.z < b.z;
              });
    sorted_elements_.push_back(std::move(elements));
  }
}

int64_t Knn3Searcher::CellKey(const Point3& p) const {
  // Clamped in double before the cast, so that a NaN, infinite or far-off
  // coordinate cannot overflow int64_t; NaN goes to cell 1. The bound stays
  // lossless: the clamp is monotone, so elements within epsilon of each
  // other stay in adjacent cells, and a NaN coordinate matches nothing.
  const auto quantize = [this](double v, double origin) {
    const double q =
        std::floor((v - origin) / epsilon_) + static_cast<double>(kBias);
    if (std::isnan(q)) return int64_t{1};
    return static_cast<int64_t>(
        std::clamp(q, 1.0, static_cast<double>(kCoordMax)));
  };
  return PackCell(quantize(p.x, grid_min_.x), quantize(p.y, grid_min_.y),
                  quantize(p.z, grid_min_.z));
}

Knn3Searcher::SparseHistogram Knn3Searcher::BuildHistogram(
    const Trajectory3& t) const {
  SparseHistogram h;
  h.total = static_cast<int>(t.size());
  h.bins.reserve(t.size() * 2);
  for (const Point3& p : t) ++h.bins[CellKey(p)];
  return h;
}

int Knn3Searcher::TransportBound(const SparseHistogram& a,
                                 const SparseHistogram& b) const {
  // One side of the linear transport upper bound: every cell of `from`
  // ships at most min(its mass, `to` mass within the 3x3x3 neighborhood).
  const auto side = [](const SparseHistogram& from,
                       const SparseHistogram& to) {
    int bound = 0;
    for (const auto& [key, count] : from.bins) {
      int reachable = 0;
      for (int64_t dx = -1; dx <= 1; ++dx) {
        for (int64_t dy = -1; dy <= 1; ++dy) {
          for (int64_t dz = -1; dz <= 1; ++dz) {
            const auto it = to.bins.find(
                key + (dx << kShiftX) + (dy << kShiftY) + dz);
            if (it != to.bins.end()) reachable += it->second;
          }
        }
      }
      bound += std::min(count, reachable);
    }
    return bound;
  };
  const int transport = std::min(side(a, b), side(b, a));
  return std::max(a.total, b.total) - transport;
}

int Knn3Searcher::HistogramLowerBound(const Trajectory3& query,
                                      uint32_t id) const {
  return TransportBound(BuildHistogram(query), histograms_[id]);
}

size_t Knn3Searcher::MatchCount(const Trajectory3& query,
                                uint32_t id) const {
  const std::vector<Point3>& data = sorted_elements_[id];
  size_t count = 0;
  for (const Point3& q : query) {
    // Binary search the x-window, then scan for a full 3-D match.
    const auto begin = std::lower_bound(
        data.begin(), data.end(), q.x - epsilon_,
        [](const Point3& p, double x) { return p.x < x; });
    for (auto it = begin; it != data.end() && it->x <= q.x + epsilon_;
         ++it) {
      if (std::fabs(it->y - q.y) <= epsilon_ &&
          std::fabs(it->z - q.z) <= epsilon_) {
        ++count;
        break;
      }
    }
  }
  return count;
}

KnnResult Knn3Searcher::Knn(const Trajectory3& query, size_t k) const {
  const auto start = std::chrono::steady_clock::now();
  std::shared_ptr<QueryTrace> trace = MakeQueryTrace();
  TraceSpan sweep_span(trace.get(), "bound_sweep");
  const SparseHistogram qh = BuildHistogram(query);
  std::vector<int> bounds(db_.size());
  for (uint32_t i = 0; i < db_.size(); ++i) {
    bounds[i] = TransportBound(qh, histograms_[i]);
  }
  sweep_span.End();

  // Element-match count bound (Theorem 1 with q = 1, three dimensions):
  // EDR <= threshold requires at least max(m, n) - threshold matches.
  const auto prune = [&](StageCounters& st, uint32_t id, double threshold) {
    if (std::isinf(threshold)) return false;
    const long need =
        static_cast<long>(std::max(query.size(), db_[id].size())) -
        static_cast<long>(threshold);
    if (need <= 0 || static_cast<long>(MatchCount(query, id)) >= need) {
      return false;
    }
    st.Bump(&StageCounters::qgram_pruned);
    return true;
  };
  // HSR strategy: ascending bound order, stopping outright at the first
  // bound above the k-th distance.
  return FilterAndRefine(
      RefineRequest{db_, query, KnnOptions{}, std::move(trace),
                    internal::SecondsSince(start)},
      k, InBoundOrder([&bounds](uint32_t id) { return bounds[id]; }), prune,
      BoundedEdr(db_, query, epsilon_));
}

}  // namespace edr
