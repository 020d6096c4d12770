#include <gtest/gtest.h>

#include "pruning/near_triangle.h"
#include "test_util.h"

namespace edr {
namespace {

constexpr double kEps = 0.25;

TEST(ParallelMatrixBuildTest, IdenticalToSequentialBuild) {
  const TrajectoryDataset db = testutil::SmallDataset(706, 40, 5, 40);
  // 15 references leave a rectangular tail; 40 (== db size) make the whole
  // matrix the mirrored square.
  for (const size_t num_refs : {size_t{15}, db.size()}) {
    const PairwiseEdrMatrix sequential =
        PairwiseEdrMatrix::Build(db, kEps, num_refs);
    const PairwiseEdrMatrix parallel =
        PairwiseEdrMatrix::BuildParallel(db, kEps, num_refs, 4);
    ASSERT_EQ(parallel.num_refs(), sequential.num_refs());
    ASSERT_EQ(parallel.db_size(), sequential.db_size());
    EXPECT_EQ(parallel.data(), sequential.data()) << num_refs << " refs";
  }
}

TEST(ParallelMatrixBuildTest, HandlesDegenerateSizes) {
  const TrajectoryDataset db = testutil::SmallDataset(707, 3);
  const PairwiseEdrMatrix m = PairwiseEdrMatrix::BuildParallel(db, kEps, 0);
  EXPECT_EQ(m.num_refs(), 0u);
  const PairwiseEdrMatrix m2 =
      PairwiseEdrMatrix::BuildParallel(db, kEps, 100, 16);
  EXPECT_EQ(m2.num_refs(), 3u);
}

}  // namespace
}  // namespace edr
