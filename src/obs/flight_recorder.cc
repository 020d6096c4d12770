#include "obs/flight_recorder.h"

#include <algorithm>
#include <cstdio>
#include <random>
#include <thread>
#include <utility>

#include "obs/json.h"
#include "obs/trace.h"

namespace edr {
namespace {

/// Per-thread RNG for the reservoir admission lottery. Sampling quality
/// only needs uniformity, not reproducibility — each publishing thread
/// seeds once from its own id so concurrent publishers never share RNG
/// state.
uint64_t ReservoirDraw(uint64_t bound) {
  thread_local std::mt19937_64 rng(
      std::hash<std::thread::id>{}(std::this_thread::get_id()) ^
      0x9e3779b97f4a7c15ull);
  return rng() % bound;
}

void AppendRecordJson(std::string* out, const FlightRecord& r,
                      bool include_trace) {
  // The searcher name is caller-controlled and unbounded, so it is
  // appended as a std::string between two fixed-size numeric chunks —
  // a single snprintf into a stack buffer could truncate mid-escape and
  // emit malformed JSON.
  char buf[512];
  std::snprintf(buf, sizeof(buf), "{\"id\": %llu, \"t_ms\": %.3f, "
                "\"searcher\": \"",
                static_cast<unsigned long long>(r.id), r.t_seconds * 1e3);
  *out += buf;
  *out += JsonEscape(r.searcher);
  std::snprintf(buf, sizeof(buf),
                "\", \"ms\": %.6f, \"filter_ms\": %.6f, \"refine_ms\": %.6f, "
                "\"db_size\": %zu, \"edr_computed\": %zu, "
                "\"sched_budget\": %u, \"stages\": ",
                r.latency_seconds * 1e3, r.filter_seconds * 1e3,
                r.refine_seconds * 1e3, r.db_size, r.edr_computed,
                r.sched_budget);
  *out += buf;
  *out += r.stages.ToJson();
  if (include_trace) {
    *out += ", \"trace\": ";
    *out += r.trace != nullptr ? r.trace->ToJson() : "null";
  }
  *out += "}";
}

void AppendRecordArray(std::string* out, const std::vector<FlightRecord>& rs,
                       bool include_traces) {
  *out += "[";
  for (size_t i = 0; i < rs.size(); ++i) {
    if (i > 0) *out += ", ";
    AppendRecordJson(out, rs[i], include_traces);
  }
  *out += "]";
}

}  // namespace

FlightRecorder::FlightRecorder() : FlightRecorder(Options()) {}

FlightRecorder::FlightRecorder(const Options& options)
    : options_(options), origin_(std::chrono::steady_clock::now()) {
  options_.ring_capacity = std::max<size_t>(1, options_.ring_capacity);
  options_.top_slowest = std::max<size_t>(1, options_.top_slowest);
  options_.reservoir = std::max<size_t>(1, options_.reservoir);
  ring_ = std::make_unique<Slot[]>(options_.ring_capacity);
  top_.reserve(options_.top_slowest);
  reservoir_.reserve(options_.reservoir);
}

FlightRecorder& FlightRecorder::Global() {
  static FlightRecorder* recorder = new FlightRecorder();  // leaked
  return *recorder;
}

uint64_t FlightRecorder::Publish(FlightRecord record) {
  if constexpr (kObsEnabled) {
    if (!enabled()) return 0;
    const uint64_t id =
        published_.fetch_add(1, std::memory_order_relaxed) + 1;
    record.id = id;
    record.t_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      origin_)
            .count();

    // Tail retention first: the pre-checks are lock-free, and a record
    // that qualifies is copied in before the ring (which may drop it
    // under contention) sees it.
    OfferTop(record);
    OfferReservoir(record, id);

    Slot& slot = ring_[(id - 1) % options_.ring_capacity];
    if (slot.mu.try_lock()) {
      slot.record = std::move(record);
      slot.occupied = true;
      slot.mu.unlock();
    } else {
      // A dump (or a lapped publisher) holds the slot: dropping beats
      // blocking a pool worker on telemetry.
      dropped_.fetch_add(1, std::memory_order_relaxed);
    }
    return id;
  } else {
    (void)record;
    return 0;
  }
}

void FlightRecorder::OfferTop(const FlightRecord& record) {
  // Lock-free rejection: once the top list is full, only a record slower
  // than the fastest retained entry can displace anything.
  const double threshold = top_threshold_.load(std::memory_order_relaxed);
  if (threshold >= 0.0 && record.latency_seconds <= threshold) return;
  std::lock_guard<std::mutex> lock(top_mu_);
  const auto pos = std::upper_bound(
      top_.begin(), top_.end(), record,
      [](const FlightRecord& a, const FlightRecord& b) {
        return a.latency_seconds > b.latency_seconds;
      });
  if (top_.size() >= options_.top_slowest && pos == top_.end()) return;
  top_.insert(pos, record);
  if (top_.size() > options_.top_slowest) top_.pop_back();
  if (top_.size() >= options_.top_slowest) {
    top_threshold_.store(top_.back().latency_seconds,
                         std::memory_order_relaxed);
  }
}

void FlightRecorder::OfferReservoir(const FlightRecord& record,
                                    uint64_t seen) {
  // Algorithm R: the i-th record is admitted with probability R/i, and
  // on admission evicts a uniformly chosen resident. The lottery draw
  // happens before any lock, so losers pay one RNG call and nothing else.
  const size_t capacity = options_.reservoir;
  if (seen > capacity) {
    const uint64_t draw = ReservoirDraw(seen);
    if (draw >= capacity) return;
    std::lock_guard<std::mutex> lock(reservoir_mu_);
    if (reservoir_.size() < capacity) {
      reservoir_.push_back(record);
    } else {
      reservoir_[static_cast<size_t>(draw)] = record;
    }
    return;
  }
  std::lock_guard<std::mutex> lock(reservoir_mu_);
  if (reservoir_.size() < capacity) reservoir_.push_back(record);
}

std::vector<FlightRecord> FlightRecorder::TopSlowest() const {
  std::lock_guard<std::mutex> lock(top_mu_);
  return top_;
}

std::vector<FlightRecord> FlightRecorder::Reservoir() const {
  std::lock_guard<std::mutex> lock(reservoir_mu_);
  return reservoir_;
}

std::vector<FlightRecord> FlightRecorder::Recent() const {
  std::vector<FlightRecord> out;
  const uint64_t published = published_.load(std::memory_order_relaxed);
  if (published == 0) return out;
  const size_t capacity = options_.ring_capacity;
  const uint64_t first =
      published > capacity ? published - capacity : 0;  // oldest live id - 1
  out.reserve(std::min<uint64_t>(published, capacity));
  for (uint64_t i = first; i < published; ++i) {
    Slot& slot = ring_[i % capacity];
    std::lock_guard<std::mutex> lock(slot.mu);
    // Skip slots a publisher dropped or that hold a lapped/newer record.
    if (slot.occupied && slot.record.id == i + 1) out.push_back(slot.record);
  }
  return out;
}

std::string FlightRecorder::ToJson() const {
  std::string out;
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "{\"published\": %llu, \"dropped\": %llu, \"top\": ",
                static_cast<unsigned long long>(published()),
                static_cast<unsigned long long>(dropped()));
  out += buf;
  AppendRecordArray(&out, TopSlowest(), /*include_traces=*/true);
  out += ", \"reservoir\": ";
  AppendRecordArray(&out, Reservoir(), /*include_traces=*/false);
  out += ", \"recent\": ";
  AppendRecordArray(&out, Recent(), /*include_traces=*/false);
  out += "}";
  return out;
}

void FlightRecorder::Clear() {
  {
    std::lock_guard<std::mutex> lock(top_mu_);
    top_.clear();
    top_threshold_.store(-1.0, std::memory_order_relaxed);
  }
  {
    std::lock_guard<std::mutex> lock(reservoir_mu_);
    reservoir_.clear();
  }
  for (size_t i = 0; i < options_.ring_capacity; ++i) {
    std::lock_guard<std::mutex> lock(ring_[i].mu);
    ring_[i].occupied = false;
    ring_[i].record = FlightRecord{};
  }
  published_.store(0, std::memory_order_relaxed);
  dropped_.store(0, std::memory_order_relaxed);
}

}  // namespace edr
