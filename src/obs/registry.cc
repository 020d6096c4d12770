#include "obs/registry.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

#include "obs/json.h"

namespace edr {

size_t LatencyHistogram::BucketOf(double seconds) {
  if (!(seconds > 0.0)) return 0;  // Also catches NaN.
  const double ns = seconds * 1e9;
  if (ns >= static_cast<double>(uint64_t{1} << (kBuckets - 1))) {
    return kBuckets - 1;
  }
  // bucket b holds [2^(b-1), 2^b) ns: one past the highest set bit.
  return static_cast<size_t>(
      std::bit_width(static_cast<uint64_t>(ns)));
}

void LatencyHistogram::Record(double seconds) {
  if constexpr (kObsEnabled) {
    const size_t bucket = std::min(BucketOf(seconds), kBuckets - 1);
    buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    const double ns = std::max(seconds, 0.0) * 1e9;
    sum_ns_.fetch_add(static_cast<uint64_t>(ns),
                      std::memory_order_relaxed);
  } else {
    (void)seconds;
  }
}

double LatencyHistogram::PercentileSeconds(double q) const {
  return PercentileFromBuckets(BucketCounts(), q);
}

double LatencyHistogram::PercentileFromBuckets(
    const std::array<uint64_t, kBuckets>& counts, double q) {
  uint64_t total = 0;
  for (const uint64_t c : counts) total += c;
  if (total == 0) return 0.0;
  // Nearest rank, matching LatencyPercentile in eval/metrics.
  const double rank_d = q * static_cast<double>(total);
  uint64_t rank = static_cast<uint64_t>(std::ceil(rank_d));
  rank = rank > 0 ? rank : 1;
  rank = std::min(rank, total);
  uint64_t seen = 0;
  for (size_t b = 0; b < kBuckets; ++b) {
    seen += counts[b];
    if (seen >= rank) {
      // Upper edge of bucket b: 2^b ns (bucket 0 is the sub-ns bucket).
      return b == 0 ? 1e-9
                    : static_cast<double>(uint64_t{1} << b) * 1e-9;
    }
  }
  return static_cast<double>(uint64_t{1} << (kBuckets - 1)) * 1e-9;
}

std::array<uint64_t, LatencyHistogram::kBuckets>
LatencyHistogram::BucketCounts() const {
  std::array<uint64_t, kBuckets> out;
  for (size_t b = 0; b < kBuckets; ++b) {
    out[b] = buckets_[b].load(std::memory_order_relaxed);
  }
  return out;
}

void LatencyHistogram::Reset() {
  for (size_t b = 0; b < kBuckets; ++b) {
    buckets_[b].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_ns_.store(0, std::memory_order_relaxed);
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();  // leaked
  return *registry;
}

ObsCounter& MetricsRegistry::Counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<ObsCounter>& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<ObsCounter>();
  return *slot;
}

LatencyHistogram& MetricsRegistry::Histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  std::unique_ptr<LatencyHistogram>& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<LatencyHistogram>();
  return *slot;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snapshot;
  std::lock_guard<std::mutex> lock(mu_);
  snapshot.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    snapshot.counters.push_back({name, counter->Load()});
  }
  snapshot.histograms.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    MetricsSnapshot::HistogramRow row;
    row.name = name;
    row.count = histogram->TotalCount();
    row.total_seconds = histogram->TotalSeconds();
    row.p50_seconds = histogram->PercentileSeconds(0.50);
    row.p95_seconds = histogram->PercentileSeconds(0.95);
    row.p99_seconds = histogram->PercentileSeconds(0.99);
    row.buckets = histogram->BucketCounts();
    snapshot.histograms.push_back(std::move(row));
  }
  return snapshot;
}

const LibraryMetrics& LibraryMetrics::Get() {
  static const LibraryMetrics metrics = [] {
    MetricsRegistry& r = MetricsRegistry::Global();
    return LibraryMetrics{
        .query_count = r.Counter("query.count"),
        .query_dp_total = r.Counter("query.dp_total"),
        .query_dp_cells = r.Counter("query.dp_cells"),
        .query_candidates_pruned = r.Counter("query.candidates_pruned"),
        .query_candidates_total = r.Counter("query.candidates_total"),
        .query_seconds = r.Histogram("query.seconds"),
        .batch_count = r.Counter("batch.count"),
        .batch_queries = r.Counter("batch.queries"),
        .batch_seconds = r.Histogram("batch.seconds"),
        .sched_waves = r.Counter("sched.waves"),
        .sched_wave_queries = r.Counter("sched.wave_queries"),
        .sched_widened_queries = r.Counter("sched.widened_queries"),
        .sched_budget_granted = r.Counter("sched.budget_granted"),
        .sched_fused_groups = r.Counter("sched.fused_groups"),
        .sched_fused_queries = r.Counter("sched.fused_queries"),
        .feature_cache_hits = r.Counter("feature_cache.hits"),
        .feature_cache_misses = r.Counter("feature_cache.misses"),
        .feature_cache_evictions = r.Counter("feature_cache.evictions"),
        .plan_cache_hits = r.Counter("plan_cache.hits"),
        .plan_cache_misses = r.Counter("plan_cache.misses"),
        .plan_cache_evictions = r.Counter("plan_cache.evictions"),
        .plan_cache_collisions = r.Counter("plan_cache.collisions"),
    };
  }();
  return metrics;
}

void RegisterStandardMetrics() { LibraryMetrics::Get(); }

void MetricsRegistry::ResetForTest() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, histogram] : histograms_) histogram->Reset();
}

namespace {

template <typename Row>
const Row* FindRow(const std::vector<Row>& rows, const std::string& name) {
  for (const Row& row : rows) {
    if (row.name == name) return &row;
  }
  return nullptr;
}

/// later - earlier, or `later` when the value went backwards (a reset).
uint64_t CountSince(uint64_t later, uint64_t earlier) {
  return later >= earlier ? later - earlier : later;
}

}  // namespace

MetricsSnapshot MetricsSnapshot::Since(const MetricsSnapshot& earlier) const {
  MetricsSnapshot delta = *this;
  for (CounterRow& row : delta.counters) {
    if (const CounterRow* e = FindRow(earlier.counters, row.name)) {
      row.value = CountSince(row.value, e->value);
    }
  }
  for (HistogramRow& row : delta.histograms) {
    const HistogramRow* e = FindRow(earlier.histograms, row.name);
    if (e != nullptr && e->count <= row.count) {
      for (size_t b = 0; b < LatencyHistogram::kBuckets; ++b) {
        row.buckets[b] = CountSince(row.buckets[b], e->buckets[b]);
      }
      row.count -= e->count;
      row.total_seconds = std::max(0.0, row.total_seconds - e->total_seconds);
    }
    row.p50_seconds = LatencyHistogram::PercentileFromBuckets(row.buckets, 0.50);
    row.p95_seconds = LatencyHistogram::PercentileFromBuckets(row.buckets, 0.95);
    row.p99_seconds = LatencyHistogram::PercentileFromBuckets(row.buckets, 0.99);
  }
  return delta;
}

std::string MetricsSnapshot::ToJson() const {
  std::string out = "{\"counters\": {";
  char buf[256];
  for (size_t i = 0; i < counters.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\": %llu",
                  i > 0 ? ", " : "", JsonEscape(counters[i].name).c_str(),
                  static_cast<unsigned long long>(counters[i].value));
    out += buf;
  }
  out += "}, \"histograms\": [";
  for (size_t i = 0; i < histograms.size(); ++i) {
    const HistogramRow& h = histograms[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\": \"%s\", \"count\": %llu, "
                  "\"total_ms\": %.6f, \"p50_ms\": %.6f, "
                  "\"p95_ms\": %.6f, \"p99_ms\": %.6f}",
                  i > 0 ? ", " : "", JsonEscape(h.name).c_str(),
                  static_cast<unsigned long long>(h.count),
                  h.total_seconds * 1e3, h.p50_seconds * 1e3,
                  h.p95_seconds * 1e3, h.p99_seconds * 1e3);
    out += buf;
  }
  out += "]}";
  return out;
}

std::string MetricsSnapshot::ToTable() const {
  std::string out;
  char buf[256];
  if (!counters.empty()) {
    std::snprintf(buf, sizeof(buf), "%-32s %14s\n", "counter", "value");
    out += buf;
    for (const CounterRow& c : counters) {
      std::snprintf(buf, sizeof(buf), "%-32s %14llu\n", c.name.c_str(),
                    static_cast<unsigned long long>(c.value));
      out += buf;
    }
  }
  if (!histograms.empty()) {
    std::snprintf(buf, sizeof(buf), "%-32s %10s %12s %10s %10s %10s\n",
                  "histogram", "count", "total_ms", "p50_ms", "p95_ms",
                  "p99_ms");
    out += buf;
    for (const HistogramRow& h : histograms) {
      std::snprintf(buf, sizeof(buf),
                    "%-32s %10llu %12.3f %10.3f %10.3f %10.3f\n",
                    h.name.c_str(),
                    static_cast<unsigned long long>(h.count),
                    h.total_seconds * 1e3, h.p50_seconds * 1e3,
                    h.p95_seconds * 1e3, h.p99_seconds * 1e3);
      out += buf;
    }
  }
  return out;
}

}  // namespace edr
