#ifndef EDR_OBS_TIMELINE_H_
#define EDR_OBS_TIMELINE_H_

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/obs.h"
#include "obs/registry.h"

namespace edr {

class ThreadPool;

/// One utilization snapshot: what the pool, the scheduler backlog, and
/// the feature cache looked like at a sampling tick.
struct UtilizationSample {
  double t_seconds = 0.0;      ///< since Start()
  unsigned busy_workers = 0;   ///< ThreadPool::BusyWorkers()
  unsigned capacity = 0;       ///< pool workers + caller
  size_t queue_depth = 0;      ///< ThreadPool::QueueDepth()
  size_t backlog = 0;          ///< scheduler/session pending queries
  size_t cache_entries = 0;    ///< feature-cache occupancy
};

/// Occupancy summary over a captured timeline: busy_workers / capacity
/// percentiles, so a serve report can say "the pool sat at 85% busy at
/// p95" without shipping every sample.
struct UtilizationSummary {
  size_t samples = 0;
  size_t dropped = 0;  ///< overwritten by the bounded ring
  double occupancy_p50 = 0.0;
  double occupancy_p95 = 0.0;
  double occupancy_max = 0.0;
  double mean_backlog = 0.0;
  size_t max_backlog = 0;
  size_t max_queue_depth = 0;
};

/// The one telemetry thread: at a fixed interval it snapshots live
/// utilization signals into a bounded ring — the continuous view of pool
/// occupancy, scheduler backlog, and cache occupancy that per-query
/// records cannot give — and, when a metrics sink is set, hands it one
/// JSON line per metrics interval ({"t_ms": ..., "metrics": {...}})
/// holding the registry activity since the previous line (the first line:
/// since Start()). The lines are differences of cumulative snapshots
/// (MetricsSnapshot::Since), so the registry is never reset and every other
/// export stays cumulative. The sampler only ever reads relaxed atomics and
/// registry counters, so it perturbs the query path by nothing but its own
/// core time; the ring overwrites oldest samples, so a long serve run holds
/// the latest window at fixed memory. In EDR_DISABLE_OBS builds Start() is
/// a no-op: no thread, no samples, no metrics lines.
class TimelineSampler {
 public:
  /// The longest interval ValidInterval accepts, far inside what
  /// steady_clock can wait on.
  static constexpr double kMaxIntervalSeconds = 1e6;

  struct Options {
    double interval_seconds = 0.02;
    size_t capacity = 4096;
    /// Pool whose occupancy is sampled; nullptr = ThreadPool::Global().
    ThreadPool* pool = nullptr;
    /// Live backlog probe (e.g. QuerySession::PendingRelaxed); optional.
    std::function<size_t()> backlog;
    /// Feature-cache occupancy probe (entries); optional.
    std::function<size_t()> cache_entries;
    /// Receives each metrics line, one JSON object without a trailing
    /// newline; unset = no metrics lines.
    std::function<void(const std::string& line)> metrics_sink;
    /// A metrics line goes out on the first tick at or after each multiple
    /// of this interval since Start(), and once more at Stop().
    double metrics_interval_seconds = 1.0;
  };

  /// True iff `seconds` is a usable interval: finite, positive and at most
  /// kMaxIntervalSeconds. Callers parsing user flags should reject invalid
  /// values with `*error` instead of silently not sampling.
  static bool ValidInterval(double seconds, std::string* error = nullptr);

  TimelineSampler();
  explicit TimelineSampler(const Options& options);
  ~TimelineSampler();

  TimelineSampler(const TimelineSampler&) = delete;
  TimelineSampler& operator=(const TimelineSampler&) = delete;

  /// Spawns the sampler thread; false (with no thread) when either
  /// interval fails ValidInterval or observability is compiled out.
  /// Idempotent while running.
  bool Start();

  /// Stops the thread, takes one final sample, hands the final metrics
  /// line to the sink, and keeps the timeline readable. Idempotent: later
  /// calls (and the destructor) emit nothing.
  void Stop();

  bool running() const;

  /// The captured window, oldest to newest.
  std::vector<UtilizationSample> Samples() const;

  UtilizationSummary Summarize() const;

  /// {"interval_ms": ..., "summary": {...}, "samples": [{...}]} — valid
  /// JSON in every build (empty samples when compiled out).
  std::string ToJson() const;

  const Options& options() const { return options_; }

 private:
  void Run();
  /// Records one sample; returns its time since Start().
  double TakeSample();
  /// Hands the sink the registry activity since the previous line.
  void EmitMetricsLine(double t_seconds);

  Options options_;
  std::chrono::steady_clock::time_point start_;
  /// Metrics-line state, touched only by the sampler thread and by
  /// Start()/Stop() while no sampler thread runs.
  MetricsSnapshot last_metrics_;
  double next_metrics_seconds_ = 0.0;  ///< since start_

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
  std::vector<UtilizationSample> ring_;
  size_t next_ = 0;        ///< ring write cursor
  size_t total_ = 0;       ///< samples ever taken
};

}  // namespace edr

#endif  // EDR_OBS_TIMELINE_H_
