#ifndef EDR_QUERY_INTRA_QUERY_H_
#define EDR_QUERY_INTRA_QUERY_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <mutex>
#include <utility>
#include <vector>

#include "obs/trace.h"
#include "query/knn.h"
#include "query/thread_pool.h"
#include "query/topk.h"

namespace edr {

/// The running k-th-nearest distance shared by every refinement worker of
/// one query. Workers publish their local k-th distance after each accepted
/// candidate; the stored value is the minimum published so far, which is
/// always an upper bound on the final k-th distance — so pruning and
/// early-abandoning against it never loses a true neighbor, it only prunes
/// somewhat less aggressively than the fully sequential scan.
///
/// Relaxed ordering is sufficient: the value is a monotone pruning hint,
/// and a stale read merely weakens a prune. Result identity is enforced by
/// the deterministic merge, not by synchronization here.
class SharedKthDistance {
 public:
  explicit SharedKthDistance(size_t k)
      : kth_(k == 0 ? -std::numeric_limits<double>::infinity()
                    : std::numeric_limits<double>::infinity()) {}

  double Load() const { return kth_.load(std::memory_order_relaxed); }

  /// Lowers the shared threshold to `kth` if it improves on it.
  void Publish(double kth) {
    double current = kth_.load(std::memory_order_relaxed);
    while (kth < current &&
           !kth_.compare_exchange_weak(current, kth,
                                       std::memory_order_relaxed)) {
    }
  }

 private:
  std::atomic<double> kth_;
};

/// Resolves the pool an intra-query job runs on (Global unless overridden).
inline ThreadPool& IntraQueryPool(const KnnOptions& options) {
  return options.pool != nullptr ? *options.pool : ThreadPool::Global();
}

/// Number of participants (worker slots) a Knn call will use; 0 expands to
/// the whole pool plus the calling thread.
inline unsigned ResolveIntraQueryWorkers(const KnnOptions& options) {
  if (options.intra_query_workers != 0) return options.intra_query_workers;
  return IntraQueryPool(options).num_workers() + 1;
}

/// Records the worker budget this query was granted as a `sched` node on
/// the query's trace (count = resolved participant count, zero duration —
/// the budget is a decision, not a phase). Every searcher calls this at
/// the top of Knn so traces show the schedule the batch scheduler chose.
inline void RecordSchedBudget(QueryTrace* trace, const KnnOptions& options) {
  if constexpr (kObsEnabled) {
    if (trace != nullptr) {
      trace->AddAggregate("sched", 0.0, ResolveIntraQueryWorkers(options));
    }
  } else {
    (void)trace;
    (void)options;
  }
}

/// Per-worker-slot DP wall time for the searchers whose filter checks
/// interleave with their DPs, so their phase split is derived: refine =
/// the summed DP time, filter = the rest of the query. One cache line per
/// slot, since a slot's sum is written after every DP. No clock is read
/// under EDR_DISABLE_OBS.
class SlotDpTimer {
 public:
  explicit SlotDpTimer(unsigned slots) : seconds_(slots) {}

  /// Runs dp() for worker slot `slot`, adds its wall time to the slot's
  /// sum and returns its result.
  template <typename DpFn>
  int Time(unsigned slot, DpFn&& dp) {
    if constexpr (kObsEnabled) {
      const auto start = std::chrono::steady_clock::now();
      const int d = dp();
      seconds_[slot].v += std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start)
                              .count();
      return d;
    } else {
      return dp();
    }
  }

  /// Sets stats->refine_seconds to the summed DP time, clamped to
  /// stats->elapsed_seconds, and filter_seconds to the rest, and records
  /// the sum as a "dp" aggregate on `trace`. Under EDR_DISABLE_OBS nothing
  /// was timed and `stats` keeps the split the caller set.
  void SplitPhases(SearchStats* stats, QueryTrace* trace) const {
    if constexpr (kObsEnabled) {
      double total = 0.0;
      for (const Slot& s : seconds_) total += s.v;
      if (trace != nullptr) {
        trace->AddAggregate("dp", total, stats->stages.dp_invoked);
      }
      stats->refine_seconds = std::min(total, stats->elapsed_seconds);
      stats->filter_seconds = stats->elapsed_seconds - stats->refine_seconds;
    } else {
      (void)stats;
      (void)trace;
    }
  }

 private:
  struct alignas(64) Slot {
    double v = 0.0;
  };
  std::vector<Slot> seconds_;
};

/// fn(i) for every i in [0, n), sharded per the intra-query options; the
/// sequential setting (1 worker) runs a plain loop without touching the
/// pool. Callers must write results by index for deterministic output.
template <typename Fn>
void IntraQueryParallelFor(size_t n, const KnnOptions& options, Fn&& fn) {
  const unsigned workers = ResolveIntraQueryWorkers(options);
  if (workers <= 1 || n <= 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  IntraQueryPool(options).ParallelFor(n, fn, workers);
}

namespace internal {

/// Hands out ids 0..n-1 in database order via an atomic cursor. The rank
/// of a candidate is its id — database order *is* the canonical order.
class DbOrderStream {
 public:
  explicit DbOrderStream(size_t n) : n_(n) {}

  bool Next(uint32_t* id, size_t* rank) {
    const size_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= n_) return false;
    *id = static_cast<uint32_t>(i);
    *rank = i;
    return true;
  }

 private:
  size_t n_;
  std::atomic<size_t> next_{0};
};

/// Hands out candidates in ascending canonical (key, id) order from a
/// StreamingOrder, serialized by a mutex (the selection work per candidate
/// is tiny next to one DP refinement, so contention is negligible). Once
/// stopped, no further candidates are issued — the streaming analogue of
/// the sequential sorted-scan `break`.
template <typename Key>
class KeyOrderStream {
 public:
  explicit KeyOrderStream(StreamingOrder<Key> order)
      : order_(std::move(order)) {}

  bool Next(typename StreamingOrder<Key>::Entry* entry, size_t* rank) {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_) return false;
    if (!order_.Next(entry)) return false;
    *rank = rank_++;
    return true;
  }

  void Stop() {
    std::lock_guard<std::mutex> lock(mu_);
    stopped_ = true;
  }

 private:
  std::mutex mu_;
  StreamingOrder<Key> order_;
  size_t rank_ = 0;
  bool stopped_ = false;
};

/// Runs `loop(slot)` on `slots` participants of the pool (or inline when
/// one slot suffices), then merges the per-slot top-k structures. Each
/// slot's run is recorded as a "refine_worker" span under `tc` so the
/// per-query trace shows the worker shard breakdown.
template <typename LoopFn>
std::vector<Neighbor> RunSlots(size_t k, unsigned slots, ThreadPool& pool,
                               std::vector<BoundedTopK>* locals,
                               LoopFn&& loop, const TraceContext& tc = {}) {
  auto traced = [&](size_t slot) {
    TraceSpan span(tc.trace, "refine_worker", tc.parent);
    loop(slot);
  };
  if (slots <= 1) {
    traced(size_t{0});
  } else {
    pool.ParallelFor(slots, traced, slots);
  }
  return BoundedTopK::Merge(std::move(*locals), k);
}

}  // namespace internal

/// Parallel filter-and-refine over candidates in database order (the HSE /
/// near-triangle / CSE scan shape: no candidate ordering, no early stop).
///
/// `process(slot, id, threshold, &dist)` evaluates the searcher's filter
/// chain against `threshold` and, if the candidate survives, computes its
/// distance with `threshold` as the early-abandon bound. It returns true
/// iff `dist` holds the candidate's *exact* distance (i.e. the computation
/// was not abandoned); only exact distances enter the result.
///
/// Result identity across worker counts: the shared threshold is always an
/// upper bound on the final k-th distance, so every true neighbor survives
/// filtering in every schedule, is refined exactly, and is kept by its
/// worker's BoundedTopK; the final merge selects the k lexicographically
/// smallest (distance, rank) pairs, a schedule-independent set.
template <typename ProcessFn>
std::vector<Neighbor> RefineInDbOrder(size_t n, size_t k,
                                      const KnnOptions& options,
                                      ProcessFn&& process,
                                      const TraceContext& tc = {}) {
  const unsigned slots = ResolveIntraQueryWorkers(options);
  ThreadPool& pool = IntraQueryPool(options);
  internal::DbOrderStream stream(n);
  SharedKthDistance shared(k);
  std::vector<BoundedTopK> locals(slots, BoundedTopK(k));

  auto loop = [&](size_t slot) {
    BoundedTopK& local = locals[slot];
    uint32_t id = 0;
    size_t rank = 0;
    while (stream.Next(&id, &rank)) {
      const double threshold = shared.Load();
      double dist = 0.0;
      if (!process(static_cast<unsigned>(slot), id, threshold, &dist)) {
        continue;
      }
      local.Offer(id, dist, rank);
      if (local.full()) shared.Publish(local.Threshold());
    }
  };
  return internal::RunSlots(k, slots, pool, &locals, loop, tc);
}

/// Parallel filter-and-refine over candidates in ascending canonical
/// (key, id) order (the HSR / Q-gram / combined scan shape), with an early
/// stop: when `stop(key, threshold)` fires for the canonically next
/// candidate, every remaining candidate is prunable too (keys only grow)
/// and the whole scan halts.
///
/// Same result-identity argument as RefineInDbOrder; `stop` must be
/// monotone in the threshold (a larger threshold never stops earlier), so
/// a stale — necessarily larger — threshold read is conservative.
template <typename Key, typename ProcessFn, typename StopFn>
std::vector<Neighbor> RefineInKeyOrder(
    std::vector<typename StreamingOrder<Key>::Entry> entries, size_t k,
    const KnnOptions& options, ProcessFn&& process, StopFn&& stop,
    const TraceContext& tc = {}) {
  const unsigned slots = ResolveIntraQueryWorkers(options);
  ThreadPool& pool = IntraQueryPool(options);
  internal::KeyOrderStream<Key> stream(
      StreamingOrder<Key>(std::move(entries)));
  SharedKthDistance shared(k);
  std::vector<BoundedTopK> locals(slots, BoundedTopK(k));

  auto loop = [&](size_t slot) {
    BoundedTopK& local = locals[slot];
    typename StreamingOrder<Key>::Entry entry;
    size_t rank = 0;
    while (stream.Next(&entry, &rank)) {
      const double threshold = shared.Load();
      if (stop(entry.key, threshold)) {
        stream.Stop();
        break;
      }
      double dist = 0.0;
      if (!process(static_cast<unsigned>(slot), entry.id, threshold,
                   &dist)) {
        continue;
      }
      local.Offer(entry.id, dist, rank);
      if (local.full()) shared.Publish(local.Threshold());
    }
  };
  return internal::RunSlots(k, slots, pool, &locals, loop, tc);
}

}  // namespace edr

#endif  // EDR_QUERY_INTRA_QUERY_H_
