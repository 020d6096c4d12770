#include "query/feature_cache.h"

#include <cstring>

#include "obs/registry.h"

namespace edr {
namespace {

void HashBits(uint64_t* h, uint64_t bits) {
  for (int shift = 0; shift < 64; shift += 8) {
    *h ^= (bits >> shift) & 0xffu;
    *h *= 0x100000001b3ull;  // FNV-1a prime
  }
}

}  // namespace

uint64_t TrajectoryFingerprint(const Trajectory& t) {
  uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a offset basis
  HashBits(&h, static_cast<uint64_t>(t.size()));
  for (const Point2& p : t.points()) {
    uint64_t bits = 0;
    static_assert(sizeof(p.x) == sizeof(bits), "expects 64-bit doubles");
    std::memcpy(&bits, &p.x, sizeof(p.x));
    HashBits(&h, bits);
    std::memcpy(&bits, &p.y, sizeof(p.y));
    HashBits(&h, bits);
  }
  return h;
}

FeatureCache::FeatureCache(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

FeatureCache::Stats FeatureCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s;
  s.hits = hits_;
  s.misses = misses_;
  s.evictions = evictions_;
  s.entries = lru_.size();
  return s;
}

void FeatureCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  index_.clear();
  lru_.clear();
}

std::shared_ptr<const void> FeatureCache::Lookup(const std::string& config_key,
                                                 uint64_t fingerprint,
                                                 const Trajectory& query) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find({config_key, fingerprint});
  if (it != index_.end() && it->second->points == query.points()) {
    lru_.splice(lru_.begin(), lru_, it->second);  // promote to MRU
    ++hits_;
    LibraryMetrics::Get().feature_cache_hits.Inc();
    return it->second->value;
  }
  ++misses_;
  LibraryMetrics::Get().feature_cache_misses.Inc();
  return nullptr;
}

void FeatureCache::Insert(const std::string& config_key, uint64_t fingerprint,
                          const Trajectory& query,
                          std::shared_ptr<const void> value) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::pair<std::string, uint64_t> key{config_key, fingerprint};
  const auto it = index_.find(key);
  if (it != index_.end()) {
    // Either a concurrent builder beat us here (both built the same value)
    // or the fingerprint collided with a different trajectory; keep the
    // newest points so the verifying lookup works for the latest query.
    it->second->points = query.points();
    it->second->value = std::move(value);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  while (lru_.size() >= capacity_) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
    ++evictions_;
    LibraryMetrics::Get().feature_cache_evictions.Inc();
  }
  lru_.push_front(Entry{key, query.points(), std::move(value)});
  index_.emplace(std::move(key), lru_.begin());
}

}  // namespace edr
