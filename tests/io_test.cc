#include "data/io.h"

#include <gtest/gtest.h>

#include <sys/resource.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>

#include "data/generators.h"

namespace edr {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

/// Writes `contents` to a temporary CSV file and loads it.
Result<TrajectoryDataset> LoadCsvText(const std::string& name,
                                      const std::string& contents) {
  const std::string path = TempPath(name);
  { std::ofstream(path) << contents; }
  Result<TrajectoryDataset> r = LoadCsv(path);
  std::remove(path.c_str());
  return r;
}

/// Expects an InvalidArgument whose message names line `line_no`.
void ExpectRejectedAtLine(const Result<TrajectoryDataset>& r, int line_no) {
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  const std::string at_line = std::string(":") + std::to_string(line_no);
  EXPECT_NE(r.status().message().find(at_line + ":"), std::string::npos)
      << r.status().message();
}

TEST(IoTest, RoundTripPreservesEverything) {
  RandomWalkOptions options;
  options.count = 12;
  options.min_length = 3;
  options.max_length = 20;
  TrajectoryDataset db = GenRandomWalk(options);
  db[0].set_label(5);
  db[3].set_label(0);

  const std::string path = TempPath("roundtrip.csv");
  ASSERT_TRUE(SaveCsv(db, path).ok());
  const Result<TrajectoryDataset> loaded = LoadCsv(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), db.size());
  for (size_t i = 0; i < db.size(); ++i) {
    EXPECT_TRUE((*loaded)[i] == db[i]) << i;
    EXPECT_EQ((*loaded)[i].label(), db[i].label());
    EXPECT_EQ((*loaded)[i].id(), db[i].id());
  }
  std::remove(path.c_str());
}

TEST(IoTest, MissingFileIsIoError) {
  const Result<TrajectoryDataset> r = LoadCsv("/nonexistent/file.csv");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

TEST(IoTest, MalformedLineIsInvalidArgument) {
  const std::string path = TempPath("malformed.csv");
  {
    std::ofstream out(path);
    out << "0,1,0.5,0.5\n";
    out << "not,a,valid line\n";
  }
  const Result<TrajectoryDataset> r = LoadCsv(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  // The error message pinpoints the line.
  EXPECT_NE(r.status().message().find(":2"), std::string::npos);
  std::remove(path.c_str());
}

TEST(IoTest, CommentsAndBlankLinesSkipped) {
  const std::string path = TempPath("comments.csv");
  {
    std::ofstream out(path);
    out << "# header comment\n\n";
    out << "0,-1,1.0,2.0\n";
    out << "0,-1,3.0,4.0\n";
    out << "\n# trailing\n";
    out << "7,2,5.0,6.0\n";
  }
  const Result<TrajectoryDataset> r = LoadCsv(path);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->size(), 2u);
  EXPECT_EQ((*r)[0].size(), 2u);
  EXPECT_EQ((*r)[0].label(), -1);
  EXPECT_EQ((*r)[1].size(), 1u);
  EXPECT_EQ((*r)[1].label(), 2);
  std::remove(path.c_str());
}

TEST(IoTest, EmptyFileGivesEmptyDataset) {
  const std::string path = TempPath("empty.csv");
  { std::ofstream out(path); }
  const Result<TrajectoryDataset> r = LoadCsv(path);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->empty());
  std::remove(path.c_str());
}

TEST(BinaryIoTest, RoundTripPreservesEverything) {
  RandomWalkOptions options;
  options.count = 20;
  options.min_length = 1;
  options.max_length = 40;
  TrajectoryDataset db = GenRandomWalk(options);
  db[2].set_label(9);

  const std::string path = TempPath("roundtrip.edrt");
  ASSERT_TRUE(SaveBinary(db, path).ok());
  const Result<TrajectoryDataset> loaded = LoadBinary(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), db.size());
  for (size_t i = 0; i < db.size(); ++i) {
    EXPECT_TRUE((*loaded)[i] == db[i]) << i;  // Bit-exact doubles.
    EXPECT_EQ((*loaded)[i].label(), db[i].label());
  }
  std::remove(path.c_str());
}

TEST(BinaryIoTest, EmptyDatasetRoundTrips) {
  const std::string path = TempPath("empty.edrt");
  ASSERT_TRUE(SaveBinary(TrajectoryDataset(), path).ok());
  const Result<TrajectoryDataset> r = LoadBinary(path);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->empty());
  std::remove(path.c_str());
}

TEST(BinaryIoTest, BadMagicRejected) {
  const std::string path = TempPath("bad.edrt");
  {
    std::ofstream out(path, std::ios::binary);
    out << "JUNKJUNKJUNKJUNKJUNK";
  }
  const Result<TrajectoryDataset> r = LoadBinary(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(BinaryIoTest, TruncationRejected) {
  RandomWalkOptions options;
  options.count = 5;
  TrajectoryDataset db = GenRandomWalk(options);
  const std::string path = TempPath("trunc.edrt");
  ASSERT_TRUE(SaveBinary(db, path).ok());
  std::ifstream in(path, std::ios::binary);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  in.close();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(contents.data(),
              static_cast<std::streamsize>(contents.size() / 2));
  }
  const Result<TrajectoryDataset> r = LoadBinary(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
  std::remove(path.c_str());
}

TEST(BinaryIoTest, CsvAndBinaryAgree) {
  RandomWalkOptions options;
  options.count = 10;
  options.seed = 77;
  const TrajectoryDataset db = GenRandomWalk(options);
  const std::string csv = TempPath("agree.csv");
  const std::string bin = TempPath("agree.edrt");
  ASSERT_TRUE(SaveCsv(db, csv).ok());
  ASSERT_TRUE(SaveBinary(db, bin).ok());
  const Result<TrajectoryDataset> a = LoadCsv(csv);
  const Result<TrajectoryDataset> b = LoadBinary(bin);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->size(), b->size());
  for (size_t i = 0; i < a->size(); ++i) {
    EXPECT_TRUE((*a)[i] == (*b)[i]);
  }
  std::remove(csv.c_str());
  std::remove(bin.c_str());
}

// sscanf stops at the first character no field can take, so a line with
// garbage after its last number used to load as if the garbage were not
// there.
TEST(IoTest, TrailingCharactersRejected) {
  ExpectRejectedAtLine(LoadCsvText("trailing.csv", "0,1,2.5garbage,0.5\n"),
                       1);
  ExpectRejectedAtLine(
      LoadCsvText("trailing2.csv", "# header\n0,1,0.5,0.5\n0,1,0.5,0.5x\n"),
      3);
  // Trailing whitespace, a CRLF line end's '\r' included, is not garbage;
  // nor is whitespace after a comma, a leading '+' or a hex float.
  const Result<TrajectoryDataset> r = LoadCsvText(
      "crlf.csv",
      "0,1,0.5,0.5\r\n0,1,0.25,0.75  \n"
      " +1, +2, +0x1p-1,\t-0.25\n");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->size(), 2u);
  EXPECT_EQ((*r)[0].size(), 2u);
  EXPECT_EQ((*r)[1].label(), 2);
  ASSERT_EQ((*r)[1].size(), 1u);
  EXPECT_EQ((*r)[1][0].x, 0.5);
  EXPECT_EQ((*r)[1][0].y, -0.25);
}

// The trajectory index and the label are range-checked: an out-of-range
// integer used to load wrapped or clamped (strtol/scanf semantics).
TEST(IoTest, OutOfRangeIntegersRejected) {
  ExpectRejectedAtLine(LoadCsvText("label.csv", "0,4294967297,0.5,0.5\n"), 1);
  ExpectRejectedAtLine(
      LoadCsvText("label_neg.csv", "0,1,0.5,0.5\n0,-2147483649,0.5,0.5\n"),
      2);
  ExpectRejectedAtLine(
      LoadCsvText("index.csv", "99999999999999999999,1,0.5,0.5\n"), 1);
  ExpectRejectedAtLine(
      LoadCsvText("index_neg.csv", "-99999999999999999999,1,0.5,0.5\n"), 1);
  // The extremes of each type still load.
  const Result<TrajectoryDataset> r =
      LoadCsvText("extremes.csv",
                  "9223372036854775807,2147483647,0.5,0.5\n"
                  "-9223372036854775808,-2147483648,0.5,0.5\n");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->size(), 2u);
  EXPECT_EQ((*r)[0].label(), std::numeric_limits<int>::max());
  EXPECT_EQ((*r)[1].label(), std::numeric_limits<int>::min());
}

TEST(IoTest, NonFiniteCoordinatesRejected) {
  ExpectRejectedAtLine(LoadCsvText("nan.csv", "0,1,0.5,0.5\n0,1,nan,0.5\n"),
                       2);
  ExpectRejectedAtLine(LoadCsvText("inf.csv", "0,1,0.5,inf\n"), 1);
  ExpectRejectedAtLine(LoadCsvText("ninf.csv", "0,1,-INFINITY,0.5\n"), 1);
}

// Samples of one trajectory must be on consecutive lines; an index that
// comes back after another trajectory's lines used to start a second
// trajectory with the same index.
TEST(IoTest, ReappearingIndexRejected) {
  ExpectRejectedAtLine(LoadCsvText("reappear.csv",
                                   "0,-1,0.0,0.0\n"
                                   "1,-1,1.0,1.0\n"
                                   "1,-1,1.5,1.5\n"
                                   "0,-1,2.0,2.0\n"),
                       4);
}

TEST(BinaryIoTest, NonFiniteCoordinatesRejected) {
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    TrajectoryDataset db;
    db.Add(Trajectory({{0.0, 0.0}, {1.0, 1.0}}));
    db.Add(Trajectory({{2.0, 2.0}, {3.0, bad}}));
    const std::string path = TempPath("nonfinite.edrt");
    ASSERT_TRUE(SaveBinary(db, path).ok());
    const Result<TrajectoryDataset> r = LoadBinary(path);
    ASSERT_FALSE(r.ok()) << bad;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
    std::remove(path.c_str());
  }
}

// A 28-byte file whose one trajectory header claims 2^26 points: the
// loader must see that the file cannot hold them before it allocates the
// 1 GiB the header asks for (peak RSS stays where it was).
TEST(BinaryIoTest, LengthBeyondFileRejectedBeforeAllocating) {
  const std::string path = TempPath("huge_header.edrt");
  {
    std::ofstream out(path, std::ios::binary);
    const uint32_t version = 1;
    const uint64_t count = 1;
    const int32_t label = -1;
    const uint64_t length = uint64_t{1} << 26;
    out.write("EDRT", 4);
    out.write(reinterpret_cast<const char*>(&version), sizeof(version));
    out.write(reinterpret_cast<const char*>(&count), sizeof(count));
    out.write(reinterpret_cast<const char*>(&label), sizeof(label));
    out.write(reinterpret_cast<const char*>(&length), sizeof(length));
  }
  const auto peak_rss_kb = [] {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<long>(usage.ru_maxrss);
  };
  const long before_kb = peak_rss_kb();
  const Result<TrajectoryDataset> r = LoadBinary(path);
  const long grown_kb = peak_rss_kb() - before_kb;
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
  EXPECT_LT(grown_kb, 64 * 1024) << "peak RSS grew by " << grown_kb << " kB";
  std::remove(path.c_str());
}

TEST(IoTest, SaveToBadPathFails) {
  TrajectoryDataset db;
  db.Add(Trajectory({{0.0, 0.0}}));
  EXPECT_FALSE(SaveCsv(db, "/nonexistent/dir/file.csv").ok());
}

}  // namespace
}  // namespace edr
