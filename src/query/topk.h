#ifndef EDR_QUERY_TOPK_H_
#define EDR_QUERY_TOPK_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "query/knn.h"

namespace edr {

/// Lazily drains candidate entries in ascending (key, id) order without
/// ever sorting the whole array — the streaming replacement for the
/// full `std::sort` of the n-element bound/count/order arrays on the
/// searchers' filter paths.
///
/// Implementation: incremental quickselect. A stack of segment boundaries
/// partitions the tail of the array into runs known to be pairwise ordered
/// (everything in a run <= everything in later runs). Serving the next
/// element splits the front run with `std::nth_element` until it shrinks
/// to a leaf, sorts the leaf once, and streams it out. Draining the first
/// m elements costs O(n + m log n); a full drain degrades gracefully to
/// O(n log n), the cost of the sort it replaces.
///
/// The id participates in the comparison, so the drain order is a total
/// order — deterministic across platforms and worker counts even when
/// keys tie. This canonical (key, id) tie-break is what makes the
/// intra-query parallel refinement bit-identical to the sequential scan.
template <typename Key>
class StreamingOrder {
 public:
  struct Entry {
    Key key;
    uint32_t id;
  };

  explicit StreamingOrder(std::vector<Entry> entries)
      : entries_(std::move(entries)) {
    stack_.push_back(entries_.size());
  }

  /// Builds the identity entries (key = value at index id) from a dense
  /// per-id key array.
  static StreamingOrder FromKeys(const std::vector<Key>& keys) {
    std::vector<Entry> entries(keys.size());
    for (size_t i = 0; i < keys.size(); ++i) {
      entries[i] = {keys[i], static_cast<uint32_t>(i)};
    }
    return StreamingOrder(std::move(entries));
  }

  size_t size() const { return entries_.size(); }

  /// Yields the next entry in ascending (key, id) order; false when the
  /// array is drained.
  bool Next(Entry* out) {
    if (pos_ >= entries_.size()) return false;
    if (pos_ == sorted_end_) Advance();
    *out = entries_[pos_++];
    return true;
  }

 private:
  static bool Less(const Entry& a, const Entry& b) {
    if (a.key != b.key) return a.key < b.key;
    return a.id < b.id;
  }

  /// Establishes the next sorted run starting at pos_: splits the front
  /// segment down to a leaf, then sorts the leaf.
  void Advance() {
    // Leaf size: one cache line's worth of entries is plenty — small
    // enough that early-stopping scans never over-sort, large enough to
    // amortize the nth_element passes.
    constexpr size_t kLeaf = 64;
    while (stack_.back() == pos_) stack_.pop_back();
    size_t end = stack_.back();
    while (end - pos_ > kLeaf) {
      const size_t mid = pos_ + (end - pos_) / 2;
      std::nth_element(entries_.begin() + static_cast<ptrdiff_t>(pos_),
                       entries_.begin() + static_cast<ptrdiff_t>(mid),
                       entries_.begin() + static_cast<ptrdiff_t>(end), Less);
      // [pos_, mid) <= entries_[mid] <= (mid, end): the right part becomes
      // a deferred segment, the left part is refined further.
      stack_.push_back(mid);
      end = mid;
    }
    std::sort(entries_.begin() + static_cast<ptrdiff_t>(pos_),
              entries_.begin() + static_cast<ptrdiff_t>(end), Less);
    sorted_end_ = end;
  }

  std::vector<Entry> entries_;
  std::vector<size_t> stack_;  ///< deferred segment ends, ascending bottom-up
  size_t pos_ = 0;             ///< next entry to serve
  size_t sorted_end_ = 0;      ///< entries in [pos_, sorted_end_) are sorted
};

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
