#include "pruning/persistence.h"

#include <cstdint>
#include <cstring>
#include <fstream>
#include <vector>

namespace edr {

namespace {
constexpr char kMagic[4] = {'E', 'D', 'R', 'M'};
constexpr uint32_t kVersion = 1;
}  // namespace

Status SavePairwiseMatrix(const PairwiseEdrMatrix& matrix,
                          const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IoError("cannot open for writing: " + path);

  out.write(kMagic, sizeof(kMagic));
  const uint32_t version = kVersion;
  out.write(reinterpret_cast<const char*>(&version), sizeof(version));
  const uint64_t num_refs = matrix.num_refs();
  const uint64_t db_size = matrix.db_size();
  out.write(reinterpret_cast<const char*>(&num_refs), sizeof(num_refs));
  out.write(reinterpret_cast<const char*>(&db_size), sizeof(db_size));

  const std::vector<int>& data = matrix.data();
  // int32 on every platform this library targets; keep the on-disk type
  // explicit regardless.
  std::vector<int32_t> row(data.begin(), data.end());
  out.write(reinterpret_cast<const char*>(row.data()),
            static_cast<std::streamsize>(row.size() * sizeof(int32_t)));
  if (!out) return Status::IoError("write failed: " + path);
  return Status::Ok();
}

Result<PairwiseEdrMatrix> LoadPairwiseMatrix(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open for reading: " + path);

  char magic[4];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("not a pairwise-matrix file: " + path);
  }
  uint32_t version = 0;
  in.read(reinterpret_cast<char*>(&version), sizeof(version));
  if (!in || version != kVersion) {
    return Status::InvalidArgument("unsupported matrix version in " + path);
  }
  uint64_t num_refs = 0;
  uint64_t db_size = 0;
  in.read(reinterpret_cast<char*>(&num_refs), sizeof(num_refs));
  in.read(reinterpret_cast<char*>(&db_size), sizeof(db_size));
  if (!in) return Status::IoError("truncated header: " + path);

  // Sanity-cap the allocation before trusting the header (a corrupt file
  // must not trigger a giant allocation). The cap is checked by division:
  // the product of two header fields can wrap to a small value. A matrix
  // never has more reference rows than trajectories.
  constexpr uint64_t kMaxEntries = 1ULL << 33;
  if (num_refs > db_size ||
      (db_size != 0 && num_refs > kMaxEntries / db_size)) {
    return Status::InvalidArgument("implausible matrix dimensions in " +
                                   path);
  }

  std::vector<int32_t> raw(num_refs * db_size);
  in.read(reinterpret_cast<char*>(raw.data()),
          static_cast<std::streamsize>(raw.size() * sizeof(int32_t)));
  if (!in) return Status::IoError("truncated payload: " + path);

  return PairwiseEdrMatrix::FromParts(
      static_cast<size_t>(num_refs), static_cast<size_t>(db_size),
      std::vector<int>(raw.begin(), raw.end()));
}

}  // namespace edr
