#include "index/rstar_tree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/rng.h"

namespace edr {
namespace {

TEST(RectTest, UnionCoversBoth) {
  const Rect a{0, 0, 1, 1};
  const Rect b{2, -1, 3, 0.5};
  const Rect u = Rect::Union(a, b);
  EXPECT_DOUBLE_EQ(u.min_x, 0.0);
  EXPECT_DOUBLE_EQ(u.min_y, -1.0);
  EXPECT_DOUBLE_EQ(u.max_x, 3.0);
  EXPECT_DOUBLE_EQ(u.max_y, 1.0);
}

TEST(RectTest, OverlapArea) {
  const Rect a{0, 0, 2, 2};
  const Rect b{1, 1, 3, 3};
  EXPECT_DOUBLE_EQ(Rect::OverlapArea(a, b), 1.0);
  const Rect c{5, 5, 6, 6};
  EXPECT_DOUBLE_EQ(Rect::OverlapArea(a, c), 0.0);
}

TEST(RectTest, EnlargementZeroWhenContained) {
  const Rect a{0, 0, 4, 4};
  const Rect b{1, 1, 2, 2};
  EXPECT_DOUBLE_EQ(Rect::Enlargement(a, b), 0.0);
  EXPECT_GT(Rect::Enlargement(b, a), 0.0);
}

TEST(RectTest, IntersectsIsInclusiveOnBoundary) {
  const Rect a{0, 0, 1, 1};
  const Rect b{1, 1, 2, 2};
  EXPECT_TRUE(a.Intersects(b));
}

TEST(RectTest, AroundBuildsEpsilonSquare) {
  const Rect r = Rect::Around({1.0, 2.0}, 0.25);
  EXPECT_DOUBLE_EQ(r.min_x, 0.75);
  EXPECT_DOUBLE_EQ(r.max_x, 1.25);
  EXPECT_DOUBLE_EQ(r.min_y, 1.75);
  EXPECT_DOUBLE_EQ(r.max_y, 2.25);
  EXPECT_TRUE(r.Contains(Point2{1.25, 1.75}));
  EXPECT_FALSE(r.Contains(Point2{1.26, 2.0}));
}

TEST(RStarTreeTest, EmptyTree) {
  const RStarTree tree;
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_EQ(tree.height(), 1);
  EXPECT_TRUE(tree.SearchRange({-1, -1, 1, 1}).empty());
}

TEST(RStarTreeTest, SingleInsertAndHit) {
  RStarTree tree;
  tree.Insert({0.5, 0.5}, 7);
  const auto hits = tree.SearchRange({0, 0, 1, 1});
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], 7u);
  EXPECT_TRUE(tree.SearchRange({2, 2, 3, 3}).empty());
}

TEST(RStarTreeTest, DuplicatePointsAllReported) {
  RStarTree tree;
  for (uint32_t i = 0; i < 10; ++i) tree.Insert({1.0, 1.0}, i);
  auto hits = tree.SearchRange({0.9, 0.9, 1.1, 1.1});
  EXPECT_EQ(hits.size(), 10u);
}

TEST(RStarTreeTest, GrowsAndStaysValid) {
  RStarTree tree(8);
  Rng rng(71);
  for (uint32_t i = 0; i < 2000; ++i) {
    tree.Insert({rng.Uniform(-10, 10), rng.Uniform(-10, 10)}, i);
  }
  EXPECT_EQ(tree.size(), 2000u);
  EXPECT_GT(tree.height(), 1);
  EXPECT_TRUE(tree.Validate());
}

class RStarTreeRandomizedTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RStarTreeRandomizedTest, RangeQueriesMatchBruteForce) {
  Rng rng(GetParam());
  const int n = static_cast<int>(rng.UniformInt(50, 800));
  RStarTree tree(static_cast<int>(rng.UniformInt(4, 24)));
  std::vector<Point2> points;
  for (int i = 0; i < n; ++i) {
    const Point2 p{rng.Uniform(-5, 5), rng.Uniform(-5, 5)};
    points.push_back(p);
    tree.Insert(p, static_cast<uint32_t>(i));
  }
  ASSERT_TRUE(tree.Validate());

  for (int trial = 0; trial < 25; ++trial) {
    const Point2 c{rng.Uniform(-5, 5), rng.Uniform(-5, 5)};
    const Rect query = Rect::Around(c, rng.Uniform(0.05, 2.0));
    std::vector<uint32_t> actual = tree.SearchRange(query);
    std::sort(actual.begin(), actual.end());
    std::vector<uint32_t> expected;
    for (int i = 0; i < n; ++i) {
      if (query.Contains(points[static_cast<size_t>(i)])) {
        expected.push_back(static_cast<uint32_t>(i));
      }
    }
    EXPECT_EQ(actual, expected);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RStarTreeRandomizedTest,
                         ::testing::Range<uint64_t>(100, 112));

TEST(RStarTreeTest, ClusteredInsertionStaysValid) {
  // Clustered data exercises forced reinsertion and splits differently
  // from uniform data.
  RStarTree tree(6);
  Rng rng(72);
  for (int cluster = 0; cluster < 20; ++cluster) {
    const Point2 center{rng.Uniform(-100, 100), rng.Uniform(-100, 100)};
    for (int i = 0; i < 60; ++i) {
      tree.Insert({center.x + rng.Gaussian(0.0, 0.1),
                   center.y + rng.Gaussian(0.0, 0.1)},
                  static_cast<uint32_t>(cluster));
    }
  }
  EXPECT_TRUE(tree.Validate());
  EXPECT_EQ(tree.size(), 1200u);
}

TEST(RStarTreeTest, SortedInsertionOrderStaysValid) {
  RStarTree tree(10);
  for (int i = 0; i < 1000; ++i) {
    tree.Insert({static_cast<double>(i), static_cast<double>(i)},
                static_cast<uint32_t>(i));
  }
  EXPECT_TRUE(tree.Validate());
  const auto hits = tree.SearchRange({100.0, 100.0, 110.0, 110.0});
  EXPECT_EQ(hits.size(), 11u);
}

TEST(RStarTreeTest, VisitorFormAgreesWithVectorForm) {
  RStarTree tree;
  Rng rng(73);
  for (uint32_t i = 0; i < 300; ++i) {
    tree.Insert({rng.Uniform(0, 1), rng.Uniform(0, 1)}, i);
  }
  const Rect query{0.2, 0.2, 0.7, 0.7};
  std::vector<uint32_t> collected;
  tree.SearchRange(query, [&](uint32_t v) { collected.push_back(v); });
  std::vector<uint32_t> direct = tree.SearchRange(query);
  std::sort(collected.begin(), collected.end());
  std::sort(direct.begin(), direct.end());
  EXPECT_EQ(collected, direct);
}

TEST(RStarTreeTest, MoveTransfersContents) {
  RStarTree tree;
  tree.Insert({1, 1}, 1);
  tree.Insert({2, 2}, 2);
  RStarTree moved = std::move(tree);
  EXPECT_EQ(moved.size(), 2u);
  EXPECT_EQ(moved.SearchRange({0, 0, 3, 3}).size(), 2u);
}

TEST(RStarTreeBulkLoadTest, EmptyAndSingle) {
  const RStarTree empty = RStarTree::BulkLoad({});
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_TRUE(empty.Validate());

  const RStarTree one = RStarTree::BulkLoad({{{1.0, 2.0}, 7}});
  EXPECT_EQ(one.size(), 1u);
  EXPECT_TRUE(one.Validate());
  EXPECT_EQ(one.SearchRange({0, 0, 2, 3}).size(), 1u);
}

class RStarTreeBulkLoadTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RStarTreeBulkLoadTest, ValidAndQueryEquivalentToInsertion) {
  Rng rng(GetParam());
  const int n = static_cast<int>(rng.UniformInt(2, 4000));
  const int capacity = static_cast<int>(rng.UniformInt(4, 24));
  std::vector<std::pair<Point2, uint32_t>> items;
  RStarTree inserted(capacity);
  for (int i = 0; i < n; ++i) {
    const Point2 p{rng.Uniform(-6, 6), rng.Uniform(-6, 6)};
    items.push_back({p, static_cast<uint32_t>(i)});
    inserted.Insert(p, static_cast<uint32_t>(i));
  }
  const RStarTree bulk = RStarTree::BulkLoad(std::move(items), capacity);
  ASSERT_EQ(bulk.size(), static_cast<size_t>(n));
  ASSERT_TRUE(bulk.Validate());
  // Bulk loading packs nodes full, so the tree is never taller.
  EXPECT_LE(bulk.height(), inserted.height());

  for (int trial = 0; trial < 20; ++trial) {
    const Rect query = Rect::Around(
        {rng.Uniform(-6, 6), rng.Uniform(-6, 6)}, rng.Uniform(0.1, 3.0));
    std::vector<uint32_t> a = bulk.SearchRange(query);
    std::vector<uint32_t> b = inserted.SearchRange(query);
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    ASSERT_EQ(a, b);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RStarTreeBulkLoadTest,
                         ::testing::Range<uint64_t>(920, 930));

}  // namespace
}  // namespace edr
