#include "query/plan_cache.h"

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

uint64_t SparseHistogramFingerprint(
    const std::vector<std::pair<int, int>>& sparse) {
  uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a offset basis
  HashBits(&h, static_cast<uint64_t>(sparse.size()));
  for (const auto& [bin, count] : sparse) {
    HashBits(&h, static_cast<uint64_t>(static_cast<uint32_t>(bin)));
    HashBits(&h, static_cast<uint64_t>(static_cast<uint32_t>(count)));
  }
  return h;
}

FusedPlanCache::FusedPlanCache(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

FusedPlanCache::Stats FusedPlanCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s;
  s.hits = hits_;
  s.misses = misses_;
  s.evictions = evictions_;
  s.collisions = collisions_;
  s.entries = lru_.size();
  return s;
}

void FusedPlanCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  index_.clear();
  lru_.clear();
}

void FusedPlanCache::SetFingerprintFunctionForTest(
    std::function<uint64_t(const SparseList&)> fn) {
  std::lock_guard<std::mutex> lock(mu_);
  fingerprint_fn_ = std::move(fn);
}

std::vector<uint64_t> FusedPlanCache::Fingerprints(
    const std::vector<const SparseList*>& members) const {
  std::function<uint64_t(const SparseList&)> fn;
  {
    std::lock_guard<std::mutex> lock(mu_);
    fn = fingerprint_fn_;
  }
  std::vector<uint64_t> out;
  out.reserve(members.size());
  for (const SparseList* m : members) {
    out.push_back(fn ? fn(*m) : SparseHistogramFingerprint(*m));
  }
  return out;
}

std::shared_ptr<const void> FusedPlanCache::Lookup(
    const std::string& config_key, const std::vector<uint64_t>& fingerprints,
    const std::vector<const SparseList*>& members) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find({config_key, fingerprints});
  if (it != index_.end()) {
    // Verify every member's stored postings before serving: a fingerprint
    // collision must degrade to a (counted) miss, never to a wrong plan.
    const std::vector<SparseList>& stored = it->second->members;
    bool verified = stored.size() == members.size();
    for (size_t i = 0; verified && i < stored.size(); ++i) {
      verified = stored[i] == *members[i];
    }
    if (verified) {
      lru_.splice(lru_.begin(), lru_, it->second);  // promote to MRU
      ++hits_;
      LibraryMetrics::Get().plan_cache_hits.Inc();
      return it->second->value;
    }
    ++collisions_;
    LibraryMetrics::Get().plan_cache_collisions.Inc();
  }
  ++misses_;
  LibraryMetrics::Get().plan_cache_misses.Inc();
  return nullptr;
}

void FusedPlanCache::Insert(const std::string& config_key,
                            const std::vector<uint64_t>& fingerprints,
                            const std::vector<const SparseList*>& members,
                            std::shared_ptr<const void> value) {
  std::lock_guard<std::mutex> lock(mu_);
  Key key{config_key, fingerprints};
  const auto it = index_.find(key);
  std::vector<SparseList> copies;
  copies.reserve(members.size());
  for (const SparseList* m : members) copies.push_back(*m);
  if (it != index_.end()) {
    // Either a concurrent builder beat us here (both built the same plan)
    // or the fingerprint tuple collided with a different group; keep the
    // newest postings so the verifying lookup works for the latest group.
    it->second->members = std::move(copies);
    it->second->value = std::move(value);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  while (lru_.size() >= capacity_) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
    ++evictions_;
    LibraryMetrics::Get().plan_cache_evictions.Inc();
  }
  lru_.push_front(Entry{key, std::move(copies), std::move(value)});
  index_.emplace(std::move(key), lru_.begin());
}

}  // namespace edr
