#include "query/topk.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "core/rng.h"
#include "query/knn.h"

namespace edr {
namespace {

std::vector<StreamingOrder<int>::Entry> RandomEntries(uint64_t seed,
                                                      size_t n,
                                                      int key_range) {
  // A small key range forces many ties, exercising the (key, id)
  // tie-break that the parallel refinement's determinism relies on.
  Rng rng(seed);
  std::vector<StreamingOrder<int>::Entry> entries(n);
  for (size_t i = 0; i < n; ++i) {
    entries[i] = {static_cast<int>(rng.UniformInt(0, key_range)),
                  static_cast<uint32_t>(i)};
  }
  return entries;
}

std::vector<StreamingOrder<int>::Entry> FullySorted(
    std::vector<StreamingOrder<int>::Entry> entries) {
  std::sort(entries.begin(), entries.end(),
            [](const StreamingOrder<int>::Entry& a,
               const StreamingOrder<int>::Entry& b) {
              if (a.key != b.key) return a.key < b.key;
              return a.id < b.id;
            });
  return entries;
}

TEST(StreamingOrderTest, FullDrainMatchesFullSortIncludingTies) {
  for (const size_t n : {0u, 1u, 5u, 63u, 64u, 65u, 700u, 2048u}) {
    auto entries = RandomEntries(/*seed=*/n + 7, n, /*key_range=*/9);
    const auto expected = FullySorted(entries);
    StreamingOrder<int> order(std::move(entries));
    StreamingOrder<int>::Entry e;
    size_t i = 0;
    while (order.Next(&e)) {
      ASSERT_LT(i, expected.size());
      EXPECT_EQ(e.key, expected[i].key) << "n=" << n << " i=" << i;
      EXPECT_EQ(e.id, expected[i].id) << "n=" << n << " i=" << i;
      ++i;
    }
    EXPECT_EQ(i, expected.size());
  }
}

TEST(StreamingOrderTest, PartialDrainMatchesSortedPrefix) {
  const size_t n = 5000;
  auto entries = RandomEntries(/*seed=*/11, n, /*key_range=*/100);
  const auto expected = FullySorted(entries);
  StreamingOrder<int> order(std::move(entries));
  StreamingOrder<int>::Entry e;
  for (size_t i = 0; i < 137; ++i) {
    ASSERT_TRUE(order.Next(&e));
    EXPECT_EQ(e.key, expected[i].key);
    EXPECT_EQ(e.id, expected[i].id);
  }
}

TEST(StreamingOrderTest, FromKeysUsesIndexAsId) {
  const std::vector<double> keys = {3.0, 1.0, 2.0, 1.0};
  StreamingOrder<double> order = StreamingOrder<double>::FromKeys(keys);
  StreamingOrder<double>::Entry e;
  std::vector<uint32_t> ids;
  while (order.Next(&e)) ids.push_back(e.id);
  EXPECT_EQ(ids, (std::vector<uint32_t>{1, 3, 2, 0}));
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
