#ifndef EDR_CORE_DATASET_H_
#define EDR_CORE_DATASET_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/trajectory.h"

namespace edr {

/// Summary statistics of a dataset used to derive experiment parameters.
struct DatasetStats {
  size_t count = 0;
  size_t min_length = 0;
  size_t max_length = 0;
  double mean_length = 0.0;
  /// Maximum over trajectories of the per-trajectory max(sigma_x, sigma_y).
  /// The paper sets the matching threshold epsilon to a quarter of this
  /// value (Section 3.2), which for normalized data is 0.25.
  double max_std_dev = 0.0;
  Point2 min_xy{0.0, 0.0};
  Point2 max_xy{0.0, 0.0};
};

/// An in-memory collection of trajectories, the unit over which k-NN queries
/// and the efficacy experiments run.
///
/// Adding a trajectory assigns it a dense id equal to its position, which the
/// pruning structures (Q-gram indexes, histogram tables, pairwise-distance
/// matrices) use as the join key.
class TrajectoryDataset {
 public:
  TrajectoryDataset() = default;
  explicit TrajectoryDataset(std::string name) : name_(std::move(name)) {}

  /// Appends a trajectory, assigning its id. Returns the assigned id.
  /// Accepts any points, non-finite ones included (NaN, +-inf, +-1e300):
  /// every searcher stays lossless on them, which StressTest and
  /// WindowedScanTest certify by planting such members through Add. Input
  /// that must be finite is checked where it enters, by its reader.
  uint32_t Add(Trajectory t);

  size_t size() const { return trajectories_.size(); }
  bool empty() const { return trajectories_.empty(); }

  const Trajectory& operator[](size_t i) const { return trajectories_[i]; }
  Trajectory& operator[](size_t i) { return trajectories_[i]; }

  std::vector<Trajectory>::const_iterator begin() const {
    return trajectories_.begin();
  }
  std::vector<Trajectory>::const_iterator end() const {
    return trajectories_.end();
  }

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  /// Number of distinct non-negative labels present.
  size_t NumClasses() const;

  /// Ids of all trajectories with the given label.
  std::vector<uint32_t> IdsWithLabel(int label) const;

  /// Applies z-score normalization (Section 2) to every trajectory.
  void NormalizeAll();

  /// Computes summary statistics over the current contents.
  DatasetStats Stats() const;

  /// The paper's rule of thumb for the matching threshold: a quarter of the
  /// maximum standard deviation of the trajectories (Section 3.2).
  double SuggestedEpsilon() const { return 0.25 * Stats().max_std_dev; }

 private:
  std::string name_;
  std::vector<Trajectory> trajectories_;
};

}  // namespace edr

#endif  // EDR_CORE_DATASET_H_
