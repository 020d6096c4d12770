#include "obs/timeline.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "query/thread_pool.h"

namespace edr {

namespace {

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size());
  size_t index = static_cast<size_t>(std::ceil(rank));
  index = index > 0 ? index - 1 : 0;
  index = std::min(index, values.size() - 1);
  return values[index];
}

}  // namespace

bool TimelineSampler::ValidInterval(double seconds, std::string* error) {
  // The upper cap keeps the condition-variable wait inside steady_clock's
  // range; NaN fails both comparisons.
  if (seconds > 0.0 && seconds <= kMaxIntervalSeconds) return true;
  if (error != nullptr) {
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "interval must be a positive number of seconds, at most "
                  "%g (got %g)",
                  kMaxIntervalSeconds, seconds);
    *error = buf;
  }
  return false;
}

TimelineSampler::TimelineSampler() : TimelineSampler(Options()) {}

TimelineSampler::TimelineSampler(const Options& options)
    : options_(options), start_(std::chrono::steady_clock::now()) {
  options_.capacity = std::max<size_t>(1, options_.capacity);
}

TimelineSampler::~TimelineSampler() { Stop(); }

bool TimelineSampler::Start() {
  if constexpr (kObsEnabled) {
    if (!ValidInterval(options_.interval_seconds) ||
        !ValidInterval(options_.metrics_interval_seconds)) {
      return false;
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (thread_.joinable()) return true;  // already running
    stop_ = false;
    start_ = std::chrono::steady_clock::now();
    if (options_.metrics_sink) {
      last_metrics_ = MetricsRegistry::Global().Snapshot();
      next_metrics_seconds_ = options_.metrics_interval_seconds;
    }
    thread_ = std::thread([this] { Run(); });
    return true;
  } else {
    return false;
  }
}

void TimelineSampler::Stop() {
  std::thread to_join;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!thread_.joinable()) return;
    stop_ = true;
    to_join = std::move(thread_);
  }
  cv_.notify_all();
  to_join.join();
  // One final sample and metrics line, so the timeline always covers the
  // stop edge and the lines add up to everything since Start().
  const double t_seconds = TakeSample();
  if (options_.metrics_sink) EmitMetricsLine(t_seconds);
}

bool TimelineSampler::running() const {
  std::lock_guard<std::mutex> lock(mu_);
  return thread_.joinable();
}

void TimelineSampler::Run() {
  const auto interval =
      std::chrono::duration<double>(options_.interval_seconds);
  std::unique_lock<std::mutex> lock(mu_);
  while (!cv_.wait_for(lock, interval, [this] { return stop_; })) {
    lock.unlock();
    const double t_seconds = TakeSample();
    if (options_.metrics_sink && t_seconds >= next_metrics_seconds_) {
      EmitMetricsLine(t_seconds);
    }
    lock.lock();
  }
}

double TimelineSampler::TakeSample() {
  ThreadPool& pool =
      options_.pool != nullptr ? *options_.pool : ThreadPool::Global();
  const LibraryMetrics& metrics = LibraryMetrics::Get();

  UtilizationSample sample;
  sample.t_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
          .count();
  sample.busy_workers = pool.BusyWorkers();
  sample.capacity = pool.num_workers() + 1;
  sample.queue_depth = pool.QueueDepth();
  sample.backlog = options_.backlog ? options_.backlog() : 0;
  sample.cache_entries =
      options_.cache_entries ? options_.cache_entries() : 0;
  sample.fused_groups = metrics.sched_fused_groups.Load();
  sample.fused_queries = metrics.sched_fused_queries.Load();

  std::lock_guard<std::mutex> lock(mu_);
  if (ring_.size() < options_.capacity) {
    ring_.push_back(sample);
  } else {
    ring_[next_ % options_.capacity] = sample;
  }
  next_ = (next_ + 1) % options_.capacity;
  ++total_;
  return sample.t_seconds;
}

void TimelineSampler::EmitMetricsLine(double t_seconds) {
  MetricsSnapshot snapshot = MetricsRegistry::Global().Snapshot();
  const std::string delta = snapshot.Since(last_metrics_).ToJson();
  last_metrics_ = std::move(snapshot);
  // The next multiple of the interval after this tick: no drift, and at
  // most one line per tick when the interval is shorter than a tick.
  const double every = options_.metrics_interval_seconds;
  next_metrics_seconds_ = t_seconds - std::fmod(t_seconds, every) + every;
  char head[64];
  std::snprintf(head, sizeof(head), "{\"t_ms\": %.1f, \"metrics\": ",
                t_seconds * 1e3);
  options_.metrics_sink(head + delta + "}");
}

std::vector<UtilizationSample> TimelineSampler::Samples() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<UtilizationSample> out;
  out.reserve(ring_.size());
  if (ring_.size() < options_.capacity) {
    out = ring_;
  } else {
    // Ring is full: oldest sample sits at the write cursor.
    for (size_t i = 0; i < ring_.size(); ++i) {
      out.push_back(ring_[(next_ + i) % options_.capacity]);
    }
  }
  return out;
}

UtilizationSummary TimelineSampler::Summarize() const {
  const std::vector<UtilizationSample> samples = Samples();
  UtilizationSummary summary;
  {
    std::lock_guard<std::mutex> lock(mu_);
    summary.dropped = total_ >= samples.size() ? total_ - samples.size() : 0;
  }
  summary.samples = samples.size();
  if (samples.empty()) return summary;
  std::vector<double> occupancy;
  occupancy.reserve(samples.size());
  double backlog_sum = 0.0;
  for (const UtilizationSample& s : samples) {
    const double cap = s.capacity > 0 ? static_cast<double>(s.capacity) : 1.0;
    occupancy.push_back(static_cast<double>(s.busy_workers) / cap);
    backlog_sum += static_cast<double>(s.backlog);
    summary.max_backlog = std::max(summary.max_backlog, s.backlog);
    summary.max_queue_depth = std::max(summary.max_queue_depth, s.queue_depth);
  }
  summary.occupancy_p50 = Percentile(occupancy, 0.50);
  summary.occupancy_p95 = Percentile(occupancy, 0.95);
  summary.occupancy_max = *std::max_element(occupancy.begin(), occupancy.end());
  summary.mean_backlog = backlog_sum / static_cast<double>(samples.size());
  return summary;
}

std::string TimelineSampler::ToJson() const {
  const std::vector<UtilizationSample> samples = Samples();
  const UtilizationSummary summary = Summarize();
  std::string out;
  char buf[320];
  std::snprintf(
      buf, sizeof(buf),
      "{\"interval_ms\": %.3f, \"summary\": {\"samples\": %zu, "
      "\"dropped\": %zu, \"occupancy_p50\": %.4f, \"occupancy_p95\": %.4f, "
      "\"occupancy_max\": %.4f, \"mean_backlog\": %.2f, "
      "\"max_backlog\": %zu, \"max_queue_depth\": %zu}, \"samples\": [",
      options_.interval_seconds * 1e3, summary.samples, summary.dropped,
      summary.occupancy_p50, summary.occupancy_p95, summary.occupancy_max,
      summary.mean_backlog, summary.max_backlog, summary.max_queue_depth);
  out += buf;
  for (size_t i = 0; i < samples.size(); ++i) {
    const UtilizationSample& s = samples[i];
    std::snprintf(
        buf, sizeof(buf),
        "%s{\"t_ms\": %.3f, \"busy\": %u, \"capacity\": %u, "
        "\"queue_depth\": %zu, \"backlog\": %zu, \"cache_entries\": %zu, "
        "\"fused_groups\": %llu, \"fused_queries\": %llu}",
        i > 0 ? ", " : "", s.t_seconds * 1e3, s.busy_workers, s.capacity,
        s.queue_depth, s.backlog, s.cache_entries,
        static_cast<unsigned long long>(s.fused_groups),
        static_cast<unsigned long long>(s.fused_queries));
    out += buf;
  }
  out += "]}";
  return out;
}

}  // namespace edr
