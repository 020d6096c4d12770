#ifndef EDR_QUERY_SCHEDULER_H_
#define EDR_QUERY_SCHEDULER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "core/trajectory.h"
#include "query/engine.h"
#include "query/knn.h"

namespace edr {

class FeatureCache;
class FusedPlanCache;
class ThreadPool;

/// Tuning knobs for the adaptive batch scheduler.
///
/// The scheduler unifies the two parallelism modes the library already
/// proves bit-identical — inter-query sharding (KnnBatch) and intra-query
/// fan-out (KnnOptions::intra_query_workers) — by choosing per query from
/// the live pool state: pending queries, pool capacity, and foreign
/// occupancy (ThreadPool::BusyWorkers). A deep backlog runs queries
/// one-per-worker in *waves*; once the backlog drains to
/// AdaptiveScheduler::WidenPending(), the remaining queries run one at a
/// time with the whole effective capacity as intra-query budget, so the
/// tail of a batch never leaves workers idle.
struct SchedulerPolicy {
  /// Cap on any single query's intra-query budget (0 = pool capacity).
  unsigned max_intra_workers = 0;
  /// Cap on total parallelism, the KnnBatch `threads` knob (0 = pool
  /// capacity). 1 forces the fully sequential caller-thread path.
  unsigned max_threads = 0;
  /// Test hook: when set, every query runs solo (no waves) with budget
  /// `budget_override(pending, capacity)` clamped to [1, capacity] —
  /// this is how scheduler_test drives fixed, oscillating, and
  /// adversarial budget schedules through the exact production call path.
  std::function<unsigned(size_t pending, unsigned capacity)> budget_override;
};

/// Validates a policy; returns "" when it is consistent, else a
/// human-readable description of the contradiction. QuerySession rejects
/// invalid policies with std::invalid_argument instead of silently
/// clamping; batch callers may consult it directly.
std::string SchedulerPolicyError(const SchedulerPolicy& policy);

/// What the scheduler decided over one run — exposed on the session /
/// batch entry points and mirrored into the metrics registry under
/// "sched.*".
struct SchedulerStats {
  size_t queries = 0;          ///< queries completed
  size_t waves = 0;            ///< inter-query ParallelFor dispatches
  size_t wave_queries = 0;     ///< queries that ran inside a wave (budget 1)
  size_t widened_queries = 0;  ///< solo queries granted a budget > 1
  /// Never written: every query runs its own filter pass, so nothing is
  /// fused or grouped. These six fields stay zero only because the
  /// benchmark harness (ledger/ledger.cc) still reads them; they go with
  /// its next change.
  size_t fused_groups = 0;
  size_t fused_queries = 0;
  size_t group_similarity = 0;
  size_t group_fifo = 0;
  size_t group_forced = 0;
  double shared_fraction_sum = 0.0;
  uint64_t budget_granted = 0; ///< summed per-call budgets
  unsigned max_budget = 0;     ///< largest budget any call received
};

/// The decision engine shared by KnnBatch and QuerySession. One instance
/// drives one run; it is not thread-safe (Step is called from the
/// owning thread, which then fans out internally).
///
/// Determinism: every schedule — any partition of the queries into waves
/// and solo calls, under any budget assignment — produces bit-identical
/// KnnResults, because (a) each query's result is budget-invariant
/// (certified by intra_query_test), (b) queries never share mutable state,
/// and (c) results are written by query index. scheduler_test re-certifies
/// this end to end against adversarial schedules.
class AdaptiveScheduler {
 public:
  /// `searcher` and `policy` are borrowed for the scheduler's lifetime.
  /// `pool` = nullptr uses ThreadPool::Global(); `cache` = nullptr runs
  /// uncached. The per-call KnnOptions hand both to the searcher, so a
  /// bound-in pool on the NamedSearcher is overridden only when `pool` is
  /// explicit.
  AdaptiveScheduler(const NamedSearcher& searcher, size_t k,
                    const SchedulerPolicy& policy, ThreadPool* pool,
                    FeatureCache* cache);

  /// Total parallelism available to this run: pool workers + the caller,
  /// clamped by policy.max_threads. At least 1.
  unsigned Capacity() const;

  /// Capacity minus workers currently busy with *foreign* pool jobs (the
  /// live occupancy signal; between this scheduler's own dispatches the
  /// pool is quiescent, so busy slots belong to other clients). At
  /// least 1: the caller can always run a query itself.
  unsigned EffectiveCapacity() const;

  /// The intra-query budget a solo query would receive with `pending`
  /// queries outstanding: effective capacity split across the backlog,
  /// clamped to [1, min(capacity, policy.max_intra_workers)].
  unsigned GrantBudget(size_t pending) const;

  /// Backlog level at or below which queries widen instead of riding a
  /// wave: half the capacity, at least 1.
  size_t WidenPending() const;

  /// Executes one scheduling decision over the backlog of `pending`
  /// queries whose first is query `first` (ids first .. first + pending - 1
  /// in arrival order): one wave (budget-1 queries fanned inter-query
  /// across the pool), or one solo query, widened when its budget is above
  /// 1, on the calling thread. Every query runs its own filter pass. Every
  /// step takes from the front of the backlog, so queries complete in
  /// arrival order. Emits every completed result via
  /// `emit(id, result)` and returns how many queries completed (>= 1 unless
  /// the backlog was empty); they are ids first .. first + completed - 1.
  /// On return, the step's SchedulerStats delta goes to the registry's
  /// sched.* counters.
  size_t Step(size_t first, size_t pending,
              const std::function<const Trajectory&(size_t)>& query_at,
              const std::function<void(size_t, KnnResult&&)>& emit);

  const SchedulerStats& stats() const { return stats_; }

 private:
  /// Step's scheduling decision and execution, without the metrics.
  size_t Dispatch(size_t first, size_t pending,
                  const std::function<const Trajectory&(size_t)>& query_at,
                  const std::function<void(size_t, KnnResult&&)>& emit);
  KnnResult Call(const Trajectory& query, unsigned budget);
  void RecordGrant(unsigned budget);

  const NamedSearcher& searcher_;
  size_t k_;
  const SchedulerPolicy& policy_;
  ThreadPool* pool_;  ///< explicit pool or nullptr (= Global)
  FeatureCache* cache_;
  SchedulerStats stats_;
};

/// Schedules a whole batch adaptively and returns results in query order —
/// the engine's KnnBatch delegates here. Bit-identical to calling
/// `searcher` sequentially. `stats_out` (optional) receives the schedule
/// taken.
std::vector<KnnResult> RunScheduled(const NamedSearcher& searcher,
                                    const std::vector<Trajectory>& queries,
                                    size_t k, const SchedulerPolicy& policy,
                                    ThreadPool* pool = nullptr,
                                    FeatureCache* cache = nullptr,
                                    SchedulerStats* stats_out = nullptr);

/// A streaming query session: queries are admitted as they arrive
/// (Submit), not at a batch barrier, and the scheduler decides execution
/// from the backlog at each step — a deep backlog triggers eager waves, a
/// drained one widens the stragglers. Queries complete in ticket order;
/// results are retrieved by ticket in any order, and asking for a result
/// drives the schedule forward until that ticket completes.
///
/// Single-owner: Submit / Result / Drain must be called from one thread
/// (the session fans out internally). Completed results stay owned by the
/// session until it is destroyed.
class QuerySession {
 public:
  struct Options {
    size_t k = 10;
    SchedulerPolicy policy;
    /// Pool to run on; nullptr = ThreadPool::Global().
    ThreadPool* pool = nullptr;
    /// Feature cache shared by every query of the session (and, if the
    /// caller passes the same cache to several sessions, across them).
    FeatureCache* feature_cache = nullptr;
    /// Ignored: nothing is fused, so no plan is cached. The benchmark
    /// harness (ledger/ledger.cc) still sets it; it goes with the
    /// harness's next change, together with FusedPlanCache.
    FusedPlanCache* plan_cache = nullptr;
    /// Backlog size that triggers eager execution inside Submit, so a
    /// sustained stream makes progress without anyone asking for results
    /// (0 = auto: twice the capacity).
    size_t admit_watermark = 0;
  };

  using Ticket = size_t;

  /// `searcher` and the pool/caches in `options` must outlive the
  /// session. Throws std::invalid_argument when the policy is
  /// contradictory (see SchedulerPolicyError) — the session surfaces the
  /// mistake instead of silently clamping it away.
  QuerySession(const NamedSearcher& searcher, const Options& options);

  /// Admits a query; returns the ticket Result() takes. May execute
  /// pending queries eagerly when the backlog reaches the admit
  /// watermark.
  Ticket Submit(Trajectory query);

  /// The answer for `ticket`, running the schedule forward until it has
  /// completed. Throws std::out_of_range for a ticket Submit never issued
  /// (ticket >= submitted()), which no amount of scheduling completes.
  const KnnResult& Result(Ticket ticket);

  /// Runs every admitted query to completion.
  void Drain();

  /// Queries admitted but not yet executed.
  size_t pending() const { return queries_.size() - completed_; }

  /// Relaxed-atomic mirror of pending(), safe to read from any thread —
  /// the probe the utilization timeline sampler polls while the owning
  /// thread drives the session. Eventually consistent; never blocks.
  size_t PendingRelaxed() const {
    return pending_relaxed_.load(std::memory_order_relaxed);
  }

  size_t submitted() const { return queries_.size(); }
  const SchedulerStats& stats() const { return scheduler_.stats(); }

 private:
  void StepOnce();

  Options options_;
  AdaptiveScheduler scheduler_;
  size_t admit_watermark_;
  /// Deques for pointer stability: a wave's workers write distinct,
  /// already-constructed elements of results_ concurrently, which is safe
  /// exactly because push_back never relocates existing deque elements;
  /// the wave's join publishes the writes to the owning thread.
  std::deque<Trajectory> queries_;
  std::deque<KnnResult> results_;
  size_t completed_ = 0;  ///< tickets below completed_ are done (in order)
  std::atomic<size_t> pending_relaxed_{0};  ///< see PendingRelaxed()
};

}  // namespace edr

#endif  // EDR_QUERY_SCHEDULER_H_
