#ifndef EDR_QUERY_PLAN_CACHE_H_
#define EDR_QUERY_PLAN_CACHE_H_

#include <cstdint>

namespace edr {

/// What is left of the deleted fused-sweep plan cache: nothing is fused, so
/// nothing is cached, and stats() always reads zero. It stays only because
/// the benchmark harness (ledger/ledger.cc) still constructs one, hands it
/// to QuerySession::Options::plan_cache and reports its hit rate; it goes
/// with the harness's next change.
class FusedPlanCache {
 public:
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
  };
  Stats stats() const { return {}; }
};

}  // namespace edr

#endif  // EDR_QUERY_PLAN_CACHE_H_
