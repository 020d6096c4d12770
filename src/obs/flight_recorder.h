#ifndef EDR_OBS_FLIGHT_RECORDER_H_
#define EDR_OBS_FLIGHT_RECORDER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/obs.h"
#include "obs/stage_counters.h"

namespace edr {

class QueryTrace;

/// Everything the flight recorder keeps about one completed query: the
/// timing split, the stage-by-stage pruning decomposition, the schedule
/// context (the budget granted), and the per-query phase trace. Records
/// are built after the query's own clock has stopped, so nothing here sits
/// on the filter or refine path.
struct FlightRecord {
  /// Recorder-assigned id, 1-based in publish order. This is the id the
  /// OpenMetrics exemplars reference and the /flight dump lists.
  uint64_t id = 0;
  /// Completion time, seconds since the recorder was constructed.
  double t_seconds = 0.0;
  std::string searcher;  ///< NamedSearcher display name ("" = unknown).
  double latency_seconds = 0.0;
  double filter_seconds = 0.0;
  double refine_seconds = 0.0;
  size_t db_size = 0;
  size_t edr_computed = 0;
  StageCounters stages;
  /// Intra-query worker budget the scheduler granted (0 = the query did
  /// not go through the scheduler).
  unsigned sched_budget = 0;
  /// The per-query phase tree; shared with the KnnResult, so retaining a
  /// record costs a refcount, not a copy. Null in EDR_DISABLE_OBS builds.
  std::shared_ptr<const QueryTrace> trace;
};

/// A bounded in-memory recorder of completed queries with a tail-sampling
/// retention policy — the "which queries sat in the tail" complement to
/// the MetricsRegistry's aggregate histograms:
///
///  * a ring of the most recent `ring_capacity` records (what just
///    happened),
///  * the current `top_slowest` slowest records since the last Clear
///    (the tail, always retained no matter how old), and
///  * a uniform reservoir sample of `reservoir` records over the whole
///    run (the unbiased baseline the tail is compared against).
///
/// Publish is designed to stay off the query path's critical section:
/// one relaxed ticket fetch_add picks the ring slot, a try_lock guards
/// the slot write (a publisher colliding with a dump drops the record
/// and counts it — it never blocks), and the top/reservoir structures
/// are only locked when a cheap lock-free pre-check (latency above the
/// current top threshold; reservoir admission lottery won) says the
/// record will actually be retained. In EDR_DISABLE_OBS builds Publish
/// compiles to nothing and every accessor reports empty.
class FlightRecorder {
 public:
  struct Options {
    size_t ring_capacity = 256;
    size_t top_slowest = 16;
    size_t reservoir = 64;
  };

  FlightRecorder();
  explicit FlightRecorder(const Options& options);

  /// The process-wide recorder the scheduler and CLI publish into.
  static FlightRecorder& Global();

  /// Runtime switch (default on). Disabling stops publication but keeps
  /// retained records readable — the A/B knob bench_obs uses to price
  /// the recorder.
  void SetEnabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Records one completed query; returns the assigned id (0 when
  /// publication is disabled or compiled out). Thread-safe; called from
  /// pool workers emitting wave results concurrently.
  uint64_t Publish(FlightRecord record);

  uint64_t published() const {
    return published_.load(std::memory_order_relaxed);
  }
  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }

  /// The retained tail, slowest first. Always contains the top-N slowest
  /// queries published since the last Clear (N = options.top_slowest).
  std::vector<FlightRecord> TopSlowest() const;

  /// The uniform reservoir sample, in no particular order.
  std::vector<FlightRecord> Reservoir() const;

  /// The ring contents, oldest to newest. Slots mid-publish are skipped.
  std::vector<FlightRecord> Recent() const;

  /// The whole recorder as one JSON document:
  /// {"published", "dropped", "top": [...], "reservoir": [...],
  ///  "recent": [...]}. Top records embed their phase trace; reservoir
  /// and ring records stay flat. Valid per obs/json.h in every build.
  std::string ToJson() const;

  /// Drops every retained record and zeroes the counters (tests and
  /// bench repeats; not part of the serve path).
  void Clear();

  const Options& options() const { return options_; }

 private:
  struct Slot {
    std::mutex mu;
    bool occupied = false;
    FlightRecord record;
  };

  void OfferTop(const FlightRecord& record);
  void OfferReservoir(const FlightRecord& record, uint64_t seen);

  Options options_;
  std::chrono::steady_clock::time_point origin_;
  std::atomic<bool> enabled_{true};
  std::atomic<uint64_t> published_{0};
  std::atomic<uint64_t> dropped_{0};

  std::unique_ptr<Slot[]> ring_;

  mutable std::mutex top_mu_;
  std::vector<FlightRecord> top_;  ///< sorted by latency, slowest first
  /// Latency of the last (fastest) retained top entry once the list is
  /// full; a record at or below it cannot enter, checked lock-free.
  std::atomic<double> top_threshold_{-1.0};

  mutable std::mutex reservoir_mu_;
  std::vector<FlightRecord> reservoir_;
};

}  // namespace edr

#endif  // EDR_OBS_FLIGHT_RECORDER_H_
