#include "data/io.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <unordered_set>
#include <vector>

static_assert(sizeof(edr::Point2) == 2 * sizeof(double),
              "Point2 must be two packed doubles for binary I/O");

namespace edr {

Status SaveCsv(const TrajectoryDataset& db, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open for writing: " + path);
  out << "# traj_index,label,x,y\n";
  char line[128];
  for (size_t i = 0; i < db.size(); ++i) {
    const Trajectory& t = db[i];
    for (const Point2& p : t) {
      std::snprintf(line, sizeof(line), "%zu,%d,%.17g,%.17g\n", i, t.label(),
                    p.x, p.y);
      out << line;
    }
  }
  if (!out) return Status::IoError("write failed: " + path);
  return Status::Ok();
}

Result<TrajectoryDataset> LoadCsv(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open for reading: " + path);

  TrajectoryDataset db(path);
  bool have_current = false;
  long current_index = -1;
  Trajectory current;
  std::unordered_set<long> finished;  ///< indexes of completed trajectories

  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    const auto invalid = [&](const char* what) {
      return Status::InvalidArgument(std::string(what) + " at " + path + ":" +
                                     std::to_string(line_no) + ": " + line);
    };
    // Each field reads as strtol (base 10) or strtod reads it: leading
    // whitespace and a sign allowed, hex floats too. The first three end at
    // a comma; after the last, only whitespace (a CRLF line's '\r'
    // included) may follow. Integers out of range are rejected, not
    // clamped or wrapped.
    const char* p = line.c_str();
    const char* const line_end = p + line.size();
    char* end = nullptr;
    const auto ends_at_comma = [&] {
      if (end == p || *end != ',') return false;
      p = end + 1;
      return true;
    };
    errno = 0;
    const long index = std::strtol(p, &end, 10);
    const bool index_in_range = errno != ERANGE;
    if (!ends_at_comma()) return invalid("malformed CSV");
    errno = 0;
    const long label = std::strtol(p, &end, 10);
    const bool label_in_range = errno != ERANGE &&
                                label >= std::numeric_limits<int>::min() &&
                                label <= std::numeric_limits<int>::max();
    if (!ends_at_comma()) return invalid("malformed CSV");
    const double x = std::strtod(p, &end);
    if (!ends_at_comma()) return invalid("malformed CSV");
    const double y = std::strtod(p, &end);
    if (end == p) return invalid("malformed CSV");
    while (end != line_end && std::isspace(static_cast<unsigned char>(*end))) {
      ++end;
    }
    if (end != line_end) return invalid("malformed CSV");
    if (!index_in_range || !label_in_range) {
      return invalid("integer out of range");
    }
    if (!std::isfinite(x) || !std::isfinite(y)) {
      return invalid("non-finite coordinate");
    }
    if (!have_current || index != current_index) {
      if (finished.count(index) != 0) {
        return invalid("trajectory index reappears after another one");
      }
      if (have_current) {
        finished.insert(current_index);
        db.Add(std::move(current));
      }
      current = Trajectory();
      current.set_label(static_cast<int>(label));
      current_index = index;
      have_current = true;
    }
    current.Append(x, y);
  }
  if (have_current) db.Add(std::move(current));
  return db;
}

namespace {
constexpr char kBinaryMagic[4] = {'E', 'D', 'R', 'T'};
constexpr uint32_t kBinaryVersion = 1;
}  // namespace

Status SaveBinary(const TrajectoryDataset& db, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IoError("cannot open for writing: " + path);

  out.write(kBinaryMagic, sizeof(kBinaryMagic));
  out.write(reinterpret_cast<const char*>(&kBinaryVersion),
            sizeof(kBinaryVersion));
  const uint64_t count = db.size();
  out.write(reinterpret_cast<const char*>(&count), sizeof(count));
  for (const Trajectory& t : db) {
    const int32_t label = t.label();
    const uint64_t length = t.size();
    out.write(reinterpret_cast<const char*>(&label), sizeof(label));
    out.write(reinterpret_cast<const char*>(&length), sizeof(length));
    for (const Point2& p : t) {
      out.write(reinterpret_cast<const char*>(&p.x), sizeof(p.x));
      out.write(reinterpret_cast<const char*>(&p.y), sizeof(p.y));
    }
  }
  if (!out) return Status::IoError("write failed: " + path);
  return Status::Ok();
}

Result<TrajectoryDataset> LoadBinary(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open for reading: " + path);

  char magic[4];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kBinaryMagic, sizeof(kBinaryMagic)) != 0) {
    return Status::InvalidArgument("not a trajectory file: " + path);
  }
  uint32_t version = 0;
  in.read(reinterpret_cast<char*>(&version), sizeof(version));
  if (!in || version != kBinaryVersion) {
    return Status::InvalidArgument("unsupported version in " + path);
  }
  uint64_t count = 0;
  in.read(reinterpret_cast<char*>(&count), sizeof(count));
  if (!in) return Status::IoError("truncated header: " + path);
  // Bytes after the header, counted down as the trajectories are read.
  const std::streamoff header_end = in.tellg();
  in.seekg(0, std::ios::end);
  const std::streamoff file_end = in.tellg();
  in.seekg(header_end);
  if (!in || header_end < 0 || file_end < header_end) {
    return Status::IoError("cannot size " + path);
  }
  uint64_t left = static_cast<uint64_t>(file_end - header_end);

  TrajectoryDataset db(path);
  for (uint64_t i = 0; i < count; ++i) {
    int32_t label = -1;
    uint64_t length = 0;
    in.read(reinterpret_cast<char*>(&label), sizeof(label));
    in.read(reinterpret_cast<char*>(&length), sizeof(length));
    if (!in) return Status::IoError("truncated trajectory header: " + path);
    left -= sizeof(label) + sizeof(length);
    // Trust the header's length only as far as the file backs it, so a
    // corrupt header cannot make the allocation below outgrow the file.
    if (length > left / sizeof(Point2)) {
      return Status::IoError("truncated payload: " + path);
    }
    left -= length * sizeof(Point2);
    std::vector<Point2> points(length);
    in.read(reinterpret_cast<char*>(points.data()),
            static_cast<std::streamsize>(length * sizeof(Point2)));
    if (!in) return Status::IoError("truncated payload: " + path);
    for (const Point2& p : points) {
      if (!std::isfinite(p.x) || !std::isfinite(p.y)) {
        return Status::InvalidArgument("non-finite coordinate in trajectory " +
                                       std::to_string(i) + " of " + path);
      }
    }
    db.Add(Trajectory(std::move(points), label));
  }
  return db;
}

}  // namespace edr
