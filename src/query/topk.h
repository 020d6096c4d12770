#ifndef EDR_QUERY_TOPK_H_
#define EDR_QUERY_TOPK_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <numeric>
#include <type_traits>
#include <utility>
#include <vector>

#include "query/knn.h"

namespace edr {

/// The ids 0..n-1 in ascending canonical (key(id), id) order: the visit
/// order of every sorted scan. The id breaks key ties, so the order is
/// total and deterministic across platforms and worker counts, which is
/// what makes the intra-query parallel refinement bit-identical to the
/// sequential scan.
///
/// Integer keys take one stable counting sort: count the keys, take prefix
/// sums, then scatter the ids in id order, so equal keys keep ascending ids.
/// It costs O(n + r) time and r counters for keys spanning r values; every
/// sorted scan's keys span no more than the data they bound (a histogram
/// bound lies in [0, max length], a Q-gram key is minus a count of the
/// query's grams). Other keys (the LCSS searcher's double bounds) take
/// std::sort on (key, id).
template <typename KeyFn>
std::vector<uint32_t> CanonicalOrder(size_t n, const KeyFn& key) {
  using Key = std::decay_t<std::invoke_result_t<const KeyFn&, uint32_t>>;
  std::vector<uint32_t> ids(n);
  if (n == 0) return ids;
  if constexpr (std::is_integral_v<Key>) {
    Key lo = key(0);
    Key hi = lo;
    for (uint32_t id = 1; id < n; ++id) {
      lo = std::min(lo, key(id));
      hi = std::max(hi, key(id));
    }
    // Offset of a key from the smallest one, in unsigned arithmetic so that
    // negative keys and wide spans cannot overflow.
    const auto offset = [lo](Key v) {
      return static_cast<size_t>(static_cast<uint64_t>(v) -
                                 static_cast<uint64_t>(lo));
    };
    // next[o] = where the next id with key offset o goes.
    std::vector<uint32_t> next(offset(hi) + 2, 0);
    for (uint32_t id = 0; id < n; ++id) ++next[offset(key(id)) + 1];
    std::partial_sum(next.begin(), next.end(), next.begin());
    for (uint32_t id = 0; id < n; ++id) ids[next[offset(key(id))]++] = id;
  } else {
    std::vector<std::pair<Key, uint32_t>> entries(n);
    for (uint32_t id = 0; id < n; ++id) entries[id] = {key(id), id};
    std::sort(entries.begin(), entries.end());
    for (size_t i = 0; i < n; ++i) ids[i] = entries[i].second;
  }
  return ids;
}

/// A bounded selection structure keeping the k lexicographically smallest
/// (distance, order) pairs offered, as a max-heap — the streaming
/// replacement for "collect everything, sort, truncate".
///
/// `order` is the candidate's rank in the canonical visit order; using it
/// as the tie-break reproduces exactly the contents a sequential
/// KnnResultList would hold after offering the same exact distances in
/// visit order (earlier offers win ties), which is what makes the
/// parallel refinement deterministic.
class BoundedTopK {
 public:
  explicit BoundedTopK(size_t k) : k_(k) {}

  /// Offers a candidate with its exact distance and canonical visit rank.
  void Offer(uint32_t id, double distance, size_t order);

  bool full() const { return heap_.size() >= k_ && k_ > 0; }
  size_t size() const { return heap_.size(); }

  /// Distance of the current k-th best, +infinity while not yet full
  /// (-infinity for k == 0, which can never accept anything).
  double Threshold() const {
    if (k_ == 0) return -std::numeric_limits<double>::infinity();
    if (heap_.size() < k_) return std::numeric_limits<double>::infinity();
    return heap_.front().distance;
  }

  /// Drains this structure into ascending (distance, order) neighbors.
  std::vector<Neighbor> TakeSortedNeighbors() &&;

 private:
  struct Item {
    double distance;
    size_t order;
    uint32_t id;
  };

  static bool HeapLess(const Item& a, const Item& b) {
    // Max-heap on (distance, order): the root is the lex-largest kept.
    if (a.distance != b.distance) return a.distance < b.distance;
    return a.order < b.order;
  }

  size_t k_;
  std::vector<Item> heap_;
};

/// Sorts neighbors ascending by (distance, id) — the order every range
/// query reports. When `max_results` is nonzero and smaller than the list,
/// only the `max_results` best survive, selected with nth_element +
/// partial sort (O(n + k log k)) instead of a full O(n log n) sort.
void SortNeighborsAscending(std::vector<Neighbor>* neighbors,
                            size_t max_results = 0);

}  // namespace edr

#endif  // EDR_QUERY_TOPK_H_
