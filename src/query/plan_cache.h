#ifndef EDR_QUERY_PLAN_CACHE_H_
#define EDR_QUERY_PLAN_CACHE_H_

#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace edr {

/// 64-bit FNV-1a over a sparse histogram's (bin, count) postings. Two
/// equal sparse lists always hash equal; the plan cache additionally
/// verifies the stored lists element-for-element on every hit, so a hash
/// collision degrades to a miss, never to a wrong plan.
uint64_t SparseHistogramFingerprint(
    const std::vector<std::pair<int, int>>& sparse);

/// A bounded LRU cache of fused sweep plans — the merged distinct-bin
/// lists `BuildFusedPlanData` derives from a fusion group's query
/// histograms, rebuilt O(group * query bins) on every sweep when
/// uncached. Entries are keyed by (config key, canonical member
/// fingerprint tuple): the config key is the table's `feature_key` plus a
/// plan-kind suffix, so any layout, grid, kind, or kernel-relevant change
/// lands on a different key and cold-misses; the member tuple is the
/// group's sparse-histogram fingerprints in the caller's canonical order,
/// so re-fusing the same hot queries in any arrival permutation pays plan
/// construction once.
///
/// Values are immutable once inserted (handed out as shared_ptr<const>),
/// so a cached plan can feed concurrent sweeps; all map/LRU state is
/// mutex-protected. Plan construction runs outside the lock — two threads
/// missing on the same key both build, and the second insert wins, which
/// is benign because both builds produce identical plans.
///
/// Hits / misses / evictions / collisions are counted per instance and
/// mirrored into the process-wide MetricsRegistry ("plan_cache.hits" /
/// ".misses" / ".evictions" / ".collisions") when observability is
/// compiled in. Attaching a plan cache never changes results — cached
/// plans are bit-identical to freshly built ones (certified by
/// plan_cache_test and fused_sweep_test).
class FusedPlanCache {
 public:
  using SparseList = std::vector<std::pair<int, int>>;

  /// `capacity` bounds the number of cached plans; the least recently
  /// used entry is evicted when a new insert would exceed it.
  explicit FusedPlanCache(size_t capacity = 64);

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    /// Fingerprint-tuple matches whose stored sparse lists differed —
    /// served as misses by the verification guard.
    uint64_t collisions = 0;
    size_t entries = 0;
  };
  Stats stats() const;

  size_t capacity() const { return capacity_; }

  /// Drops every entry (counters are kept).
  void Clear();

  /// Returns the cached plan for (config_key, members), building and
  /// inserting it with `build()` on a miss. `members` must be in the
  /// caller's canonical order and `build` must be a pure function of the
  /// member sparse lists and the configuration named by `config_key` —
  /// the determinism of the warm path rests on that.
  template <typename T, typename BuildFn>
  std::shared_ptr<const T> GetOrBuild(
      const std::string& config_key,
      const std::vector<const SparseList*>& members, BuildFn&& build) {
    const std::vector<uint64_t> fingerprints = Fingerprints(members);
    if (std::shared_ptr<const void> hit =
            Lookup(config_key, fingerprints, members)) {
      return std::static_pointer_cast<const T>(hit);
    }
    auto value = std::make_shared<const T>(build());
    Insert(config_key, fingerprints, members, value);
    return value;
  }

  /// Test hook: replaces the per-member fingerprint function so the
  /// collision re-verification path can be forced deterministically
  /// (genuine 64-bit FNV collisions are impractical to construct).
  void SetFingerprintFunctionForTest(
      std::function<uint64_t(const SparseList&)> fn);

 private:
  using Key = std::pair<std::string, std::vector<uint64_t>>;

  struct Entry {
    Key key;
    std::vector<SparseList> members;  ///< exact-match guard vs collisions
    std::shared_ptr<const void> value;
  };

  std::vector<uint64_t> Fingerprints(
      const std::vector<const SparseList*>& members) const;
  std::shared_ptr<const void> Lookup(
      const std::string& config_key,
      const std::vector<uint64_t>& fingerprints,
      const std::vector<const SparseList*>& members);
  void Insert(const std::string& config_key,
              const std::vector<uint64_t>& fingerprints,
              const std::vector<const SparseList*>& members,
              std::shared_ptr<const void> value);

  const size_t capacity_;
  mutable std::mutex mu_;
  std::list<Entry> lru_;  ///< most recently used at the front
  std::map<Key, std::list<Entry>::iterator> index_;
  std::function<uint64_t(const SparseList&)> fingerprint_fn_;  ///< test hook
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;
  uint64_t collisions_ = 0;
};

}  // namespace edr

#endif  // EDR_QUERY_PLAN_CACHE_H_
