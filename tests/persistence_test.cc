#include "pruning/persistence.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>

#include "query/knn.h"
#include "test_util.h"

namespace edr {
namespace {

constexpr double kEps = 0.25;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(PersistenceTest, MatrixRoundTrip) {
  const TrajectoryDataset db = testutil::SmallDataset(801, 30, 5, 40);
  const PairwiseEdrMatrix original = PairwiseEdrMatrix::Build(db, kEps, 12);

  const std::string path = TempPath("matrix.edrm");
  ASSERT_TRUE(SavePairwiseMatrix(original, path).ok());

  const Result<PairwiseEdrMatrix> loaded = LoadPairwiseMatrix(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_refs(), original.num_refs());
  EXPECT_EQ(loaded->db_size(), original.db_size());
  EXPECT_EQ(loaded->data(), original.data());
  std::remove(path.c_str());
}

TEST(PersistenceTest, LoadedMatrixDrivesLosslessSearch) {
  const TrajectoryDataset db = testutil::SmallDataset(802, 60, 5, 60);
  const std::string path = TempPath("matrix2.edrm");
  ASSERT_TRUE(
      SavePairwiseMatrix(PairwiseEdrMatrix::Build(db, kEps, 20), path).ok());
  Result<PairwiseEdrMatrix> loaded = LoadPairwiseMatrix(path);
  ASSERT_TRUE(loaded.ok());

  const NearTriangleSearcher searcher(db, kEps, std::move(loaded).value());
  for (const Trajectory& query : testutil::MakeQueries(db, 803, 3)) {
    EXPECT_TRUE(SameKnnDistances(SequentialScanKnn(db, query, 8, kEps),
                                 searcher.Knn(query, 8)));
  }
  std::remove(path.c_str());
}

TEST(PersistenceTest, MissingFileIsIoError) {
  const Result<PairwiseEdrMatrix> r =
      LoadPairwiseMatrix("/nonexistent/matrix.edrm");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

TEST(PersistenceTest, BadMagicRejected) {
  const std::string path = TempPath("bad_magic.edrm");
  {
    std::ofstream out(path, std::ios::binary);
    out << "NOPE and then some bytes";
  }
  const Result<PairwiseEdrMatrix> r = LoadPairwiseMatrix(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(PersistenceTest, TruncatedPayloadRejected) {
  const TrajectoryDataset db = testutil::SmallDataset(804, 10);
  const std::string path = TempPath("truncated.edrm");
  ASSERT_TRUE(
      SavePairwiseMatrix(PairwiseEdrMatrix::Build(db, kEps, 5), path).ok());
  // Chop off the last bytes.
  std::ifstream in(path, std::ios::binary);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  in.close();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(contents.data(),
              static_cast<std::streamsize>(contents.size() - 10));
  }
  const Result<PairwiseEdrMatrix> r = LoadPairwiseMatrix(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
  std::remove(path.c_str());
}

// Writes a header-only matrix file with the given dimensions.
void WriteMatrixHeader(const std::string& path, uint64_t num_refs,
                       uint64_t db_size) {
  std::ofstream out(path, std::ios::binary);
  const uint32_t version = 1;
  out.write("EDRM", 4);
  out.write(reinterpret_cast<const char*>(&version), sizeof(version));
  out.write(reinterpret_cast<const char*>(&num_refs), sizeof(num_refs));
  out.write(reinterpret_cast<const char*>(&db_size), sizeof(db_size));
}

// 2^32 x 2^32 entries wrap the 64-bit product to 0, which a multiplied cap
// check would accept with an empty payload; more reference rows than
// trajectories cannot come from Build. Both headers are rejected.
TEST(PersistenceTest, OverflowingDimensionsRejected) {
  const std::string path = TempPath("overflow.edrm");
  const uint64_t kTwo32 = uint64_t{1} << 32;
  for (const auto& [num_refs, db_size] :
       {std::pair<uint64_t, uint64_t>{kTwo32, kTwo32}, {9, 4}}) {
    WriteMatrixHeader(path, num_refs, db_size);
    const Result<PairwiseEdrMatrix> r = LoadPairwiseMatrix(path);
    ASSERT_FALSE(r.ok()) << num_refs << " x " << db_size;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }
  std::remove(path.c_str());
}

TEST(PersistenceTest, EmptyMatrixRoundTrips) {
  const PairwiseEdrMatrix empty = PairwiseEdrMatrix::FromParts(0, 0, {});
  const std::string path = TempPath("empty.edrm");
  ASSERT_TRUE(SavePairwiseMatrix(empty, path).ok());
  const Result<PairwiseEdrMatrix> r = LoadPairwiseMatrix(path);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_refs(), 0u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace edr
