#include "query/topk.h"

#include <algorithm>

namespace edr {

void BoundedTopK::Offer(uint32_t id, double distance, size_t order) {
  if (k_ == 0) return;
  const Item item{distance, order, id};
  if (heap_.size() < k_) {
    heap_.push_back(item);
    std::push_heap(heap_.begin(), heap_.end(), HeapLess);
    return;
  }
  if (!HeapLess(item, heap_.front())) return;  // Not better than the worst.
  std::pop_heap(heap_.begin(), heap_.end(), HeapLess);
  heap_.back() = item;
  std::push_heap(heap_.begin(), heap_.end(), HeapLess);
}

std::vector<Neighbor> BoundedTopK::TakeSortedNeighbors() && {
  // Ascending (distance, order): HeapLess is exactly that order.
  std::sort(heap_.begin(), heap_.end(), HeapLess);
  std::vector<Neighbor> out;
  out.reserve(heap_.size());
  for (const Item& item : heap_) out.push_back({item.id, item.distance});
  return out;
}

void SortNeighborsAscending(std::vector<Neighbor>* neighbors,
                            size_t max_results) {
  const auto less = [](const Neighbor& a, const Neighbor& b) {
    if (a.distance != b.distance) return a.distance < b.distance;
    return a.id < b.id;
  };
  if (max_results > 0 && max_results < neighbors->size()) {
    std::nth_element(
        neighbors->begin(),
        neighbors->begin() + static_cast<ptrdiff_t>(max_results),
        neighbors->end(), less);
    neighbors->resize(max_results);
  }
  std::sort(neighbors->begin(), neighbors->end(), less);
}

}  // namespace edr
