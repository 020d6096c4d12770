#ifndef EDR_OBS_REGISTRY_H_
#define EDR_OBS_REGISTRY_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/obs.h"

namespace edr {

/// A process-wide monotonic counter, padded to its own cache line so
/// unrelated counters hammered from different threads never false-share.
/// Increments are relaxed atomics: counters are statistics, not
/// synchronization, and a snapshot only needs eventual per-counter
/// totals.
struct alignas(64) ObsCounter {
  std::atomic<uint64_t> value{0};

  void Inc(uint64_t n = 1) {
    if constexpr (kObsEnabled) {
      value.fetch_add(n, std::memory_order_relaxed);
    } else {
      (void)n;
    }
  }
  uint64_t Load() const { return value.load(std::memory_order_relaxed); }
  void Reset() { value.store(0, std::memory_order_relaxed); }
};

static_assert(sizeof(ObsCounter) == 64 && alignof(ObsCounter) == 64,
              "counters must own their cache line");

/// A log-bucketed latency histogram: bucket b counts samples in
/// [2^(b-1), 2^b) nanoseconds (bucket 0 is [0, 1ns)), covering ~1ns to
/// ~78 minutes in 52 buckets. Recording is one relaxed fetch_add — cheap
/// enough for one sample per query — and percentiles are reconstructed
/// from the bucket counts at snapshot time with ~2x worst-case value
/// error (the price of fixed memory and lock-free recording).
class LatencyHistogram {
 public:
  static constexpr size_t kBuckets = 52;

  void Record(double seconds);

  uint64_t TotalCount() const {
    return count_.load(std::memory_order_relaxed);
  }
  double TotalSeconds() const {
    return static_cast<double>(sum_ns_.load(std::memory_order_relaxed)) *
           1e-9;
  }

  /// Nearest-rank percentile estimate (q in [0, 1]): the upper edge of
  /// the bucket holding the q-th sample; 0 when empty.
  double PercentileSeconds(double q) const;

  std::array<uint64_t, kBuckets> BucketCounts() const;

  void Reset();

  /// Nearest-rank percentile over an explicit bucket array (the shared
  /// math behind PercentileSeconds and MetricsSnapshot::Since).
  static double PercentileFromBuckets(
      const std::array<uint64_t, kBuckets>& counts, double q);

  /// The bucket a sample of `seconds` lands in — public so the
  /// OpenMetrics exemplar pass can map a flight-recorder latency back to
  /// its histogram bucket.
  static size_t BucketIndex(double seconds) {
    return std::min(BucketOf(seconds), kBuckets - 1);
  }

 private:
  static size_t BucketOf(double seconds);

  std::atomic<uint64_t> buckets_[kBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_ns_{0};
};

/// One exported view of the registry, taken atomically enough for
/// reporting (counters keep ticking while the snapshot walks them).
struct MetricsSnapshot {
  struct CounterRow {
    std::string name;
    uint64_t value = 0;
  };
  struct HistogramRow {
    std::string name;
    uint64_t count = 0;
    double total_seconds = 0.0;
    double p50_seconds = 0.0;
    double p95_seconds = 0.0;
    double p99_seconds = 0.0;
    /// Raw per-bucket counts (non-cumulative; bucket b covers
    /// [2^(b-1), 2^b) ns). The OpenMetrics exposition derives its
    /// cumulative `le` series from these.
    std::array<uint64_t, LatencyHistogram::kBuckets> buckets = {};
  };

  std::vector<CounterRow> counters;
  std::vector<HistogramRow> histograms;

  /// {"counters": {...}, "histograms": [{...}]} —
  /// machine-readable export.
  std::string ToJson() const;

  /// The aligned-table format the workload reports use: one
  /// "name value" row per counter, then a latency table with
  /// count / total / p50 / p95 / p99 columns.
  std::string ToTable() const;

  /// The activity between `earlier` and this snapshot, both cumulative.
  /// Counters subtract; histogram buckets, counts and sums subtract, and
  /// the percentiles are recomputed from the bucket differences. An entry
  /// missing from `earlier` (registered in between) counts from zero, and
  /// so does an entry whose count went backwards (a test's Reset).
  MetricsSnapshot Since(const MetricsSnapshot& earlier) const;
};

/// Upper edge, in seconds, of log bucket `b` — the histogram's `le`
/// boundary for OpenMetrics exposition (bucket 0 is the sub-ns bucket).
inline double LatencyBucketUpperSeconds(size_t b) {
  return static_cast<double>(uint64_t{1} << (b == 0 ? 0 : b)) * 1e-9;
}

/// Name-addressed registry of process-wide counters and histograms.
/// Lookup takes a mutex and is meant for setup (resolve once, keep the
/// reference — entries are never deleted, so references stay valid for
/// the process lifetime); the hot path touches only the returned
/// ObsCounter / LatencyHistogram atomics. In EDR_DISABLE_OBS builds the
/// registry still exists but every entry stays zero, so exports render
/// as empty activity rather than breaking callers.
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  ObsCounter& Counter(const std::string& name);
  LatencyHistogram& Histogram(const std::string& name);

  /// The cumulative totals. Nothing ever resets the registry outside
  /// tests: a periodic reader takes the difference of two snapshots
  /// (MetricsSnapshot::Since), so every reader sees the same totals.
  MetricsSnapshot Snapshot() const;

  /// Zeroes every registered entry (tests only; entries stay registered).
  void ResetForTest();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<ObsCounter>> counters_;
  std::map<std::string, std::unique_ptr<LatencyHistogram>> histograms_;
};

/// Every metric the library records, each resolved once from the global
/// registry: the one place a library metric's name is spelled. Recording
/// sites go through LibraryMetrics::Get() and touch only the atomics.
struct LibraryMetrics {
  // query.*: one update per finished query (RecordQueryMetrics).
  ObsCounter& query_count;
  ObsCounter& query_dp_total;
  ObsCounter& query_dp_cells;
  ObsCounter& query_candidates_pruned;
  ObsCounter& query_candidates_total;
  LatencyHistogram& query_seconds;
  // batch.*: one update per RunScheduled batch.
  ObsCounter& batch_count;
  ObsCounter& batch_queries;
  LatencyHistogram& batch_seconds;
  // sched.*: each AdaptiveScheduler::Step's SchedulerStats delta.
  ObsCounter& sched_waves;
  ObsCounter& sched_wave_queries;
  ObsCounter& sched_widened_queries;
  ObsCounter& sched_budget_granted;
  // feature_cache.*: mirrors of every feature cache's own stats.
  ObsCounter& feature_cache_hits;
  ObsCounter& feature_cache_misses;
  ObsCounter& feature_cache_evictions;

  /// The process-wide table; the first call registers every entry.
  static const LibraryMetrics& Get();
};

/// Registers (without incrementing) every library metric, so snapshots,
/// the --metrics-json table export and the OpenMetrics exposition list
/// them all, zero-valued when idle, before the first event of each kind.
/// Idempotent; safe in every build.
void RegisterStandardMetrics();

}  // namespace edr

#endif  // EDR_OBS_REGISTRY_H_
