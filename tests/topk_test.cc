#include "query/topk.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "core/rng.h"
#include "query/knn.h"

namespace edr {
namespace {

/// The ids 0..n-1 ascending by (keys[id], id), by a comparison sort: the
/// order CanonicalOrder must reproduce.
template <typename Key>
std::vector<uint32_t> SortedByKeyThenId(const std::vector<Key>& keys) {
  std::vector<std::pair<Key, uint32_t>> entries;
  for (size_t i = 0; i < keys.size(); ++i) {
    entries.push_back({keys[i], static_cast<uint32_t>(i)});
  }
  std::sort(entries.begin(), entries.end(),
            [](const std::pair<Key, uint32_t>& a,
               const std::pair<Key, uint32_t>& b) {
              if (a.first != b.first) return a.first < b.first;
              return a.second < b.second;
            });
  std::vector<uint32_t> ids;
  for (const auto& entry : entries) ids.push_back(entry.second);
  return ids;
}

template <typename Key>
std::vector<uint32_t> OrderOf(const std::vector<Key>& keys) {
  return CanonicalOrder(keys.size(),
                        [&keys](uint32_t id) { return keys[id]; });
}

constexpr size_t kSizes[] = {0, 1, 5, 63, 64, 65, 700, 2048};

TEST(CanonicalOrderTest, IntegerKeysWithHeavyTiesMatchSort) {
  // A key range of 9 forces many ties, exercising the (key, id) tie-break
  // that the parallel refinement's determinism relies on.
  for (const size_t n : kSizes) {
    Rng rng(n + 7);
    std::vector<int> keys(n);
    for (int& key : keys) key = static_cast<int>(rng.UniformInt(0, 9));
    EXPECT_EQ(OrderOf(keys), SortedByKeyThenId(keys)) << "n=" << n;
  }
}

TEST(CanonicalOrderTest, NegativeKeysMatchSort) {
  // The Q-gram scans key a candidate by minus its match count.
  for (const size_t n : kSizes) {
    Rng rng(n + 11);
    std::vector<long> keys(n);
    for (long& key : keys) key = -static_cast<long>(rng.UniformInt(0, 40));
    EXPECT_EQ(OrderOf(keys), SortedByKeyThenId(keys)) << "n=" << n;
  }
  // Keys spanning zero, with the extremes of a small range.
  const std::vector<long> mixed = {3, -2, 0, -2, 3, 1, -5, 0};
  EXPECT_EQ(OrderOf(mixed), SortedByKeyThenId(mixed));
  EXPECT_EQ(OrderOf(mixed),
            (std::vector<uint32_t>{6, 1, 3, 2, 7, 5, 0, 4}));
}

TEST(CanonicalOrderTest, DoubleKeysWithTiesMatchSort) {
  // The LCSS searcher's keys are double bounds.
  for (const size_t n : kSizes) {
    Rng rng(n + 13);
    std::vector<double> keys(n);
    for (double& key : keys) {
      key = 0.25 * static_cast<double>(rng.UniformInt(0, 9));
    }
    EXPECT_EQ(OrderOf(keys), SortedByKeyThenId(keys)) << "n=" << n;
  }
  EXPECT_EQ(OrderOf(std::vector<double>{3.0, 1.0, 2.0, 1.0}),
            (std::vector<uint32_t>{1, 3, 2, 0}));
}

TEST(BoundedTopKTest, MatchesKnnResultListWithTies) {
  // Quantized distances force many ties; with order = offer index the
  // selection must keep exactly what KnnResultList keeps (earlier offers
  // win ties) in exactly its order.
  Rng rng(99);
  for (const size_t k : {1u, 4u, 10u}) {
    KnnResultList reference(k);
    BoundedTopK streaming(k);
    for (size_t i = 0; i < 500; ++i) {
      const uint32_t id = static_cast<uint32_t>(i);
      const double dist = static_cast<double>(rng.UniformInt(0, 20));
      reference.Offer(id, dist);
      streaming.Offer(id, dist, /*order=*/i);
    }
    const auto expected = std::move(reference).TakeNeighbors();
    const auto actual = std::move(streaming).TakeSortedNeighbors();
    ASSERT_EQ(expected.size(), actual.size()) << "k=" << k;
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(expected[i].id, actual[i].id) << "k=" << k << " i=" << i;
      EXPECT_EQ(expected[i].distance, actual[i].distance);
    }
  }
}

TEST(BoundedTopKTest, ThresholdLifecycle) {
  BoundedTopK empty(0);
  EXPECT_EQ(empty.Threshold(), -std::numeric_limits<double>::infinity());

  BoundedTopK topk(2);
  EXPECT_EQ(topk.Threshold(), std::numeric_limits<double>::infinity());
  topk.Offer(0, 5.0, 0);
  EXPECT_EQ(topk.Threshold(), std::numeric_limits<double>::infinity());
  topk.Offer(1, 3.0, 1);
  EXPECT_TRUE(topk.full());
  EXPECT_EQ(topk.Threshold(), 5.0);
  topk.Offer(2, 4.0, 2);
  EXPECT_EQ(topk.Threshold(), 4.0);
  // An exact tie with the current k-th must be rejected (later order).
  topk.Offer(3, 4.0, 3);
  EXPECT_EQ(topk.Threshold(), 4.0);
  const auto neighbors = std::move(topk).TakeSortedNeighbors();
  ASSERT_EQ(neighbors.size(), 2u);
  EXPECT_EQ(neighbors[0].id, 1u);
  EXPECT_EQ(neighbors[1].id, 2u);
}

TEST(SortNeighborsAscendingTest, PartialSelectionMatchesFullSort) {
  Rng rng(7);
  std::vector<Neighbor> base(300);
  for (size_t i = 0; i < base.size(); ++i) {
    base[i] = {static_cast<uint32_t>(i),
               static_cast<double>(rng.UniformInt(0, 12))};
  }
  std::vector<Neighbor> full = base;
  SortNeighborsAscending(&full);
  ASSERT_EQ(full.size(), base.size());
  EXPECT_TRUE(std::is_sorted(full.begin(), full.end(),
                             [](const Neighbor& a, const Neighbor& b) {
                               if (a.distance != b.distance) {
                                 return a.distance < b.distance;
                               }
                               return a.id < b.id;
                             }));

  for (const size_t m : {1u, 9u, 299u, 300u, 500u}) {
    std::vector<Neighbor> partial = base;
    SortNeighborsAscending(&partial, m);
    const size_t want = std::min<size_t>(m, base.size());
    ASSERT_EQ(partial.size(), want) << "m=" << m;
    for (size_t i = 0; i < want; ++i) {
      EXPECT_EQ(partial[i].id, full[i].id) << "m=" << m << " i=" << i;
      EXPECT_EQ(partial[i].distance, full[i].distance);
    }
  }
}

}  // namespace
}  // namespace edr
