#ifndef EDR_QUERY_SCHEDULER_H_
#define EDR_QUERY_SCHEDULER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <unordered_map>
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
  /// Cap on the fusion-group size for searchers with a fused entry point
  /// (NamedSearcher::search_fused): up to this many backlog queries are
  /// answered by one fused database sweep, the group running on the
  /// calling thread with the whole free capacity as intra-query budget.
  /// The 0-vs-1 semantics are resolved in exactly one place,
  /// AdaptiveScheduler::MaxFusion(): 0 = auto (kMaxFusionGroup, the
  /// kernels' register-blocking width); 1 disables fusion; values above
  /// kMaxFusionGroup are honored (the sweeps chunk internally). Setting
  /// both a budget_override and max_fusion > 1 is contradictory —
  /// override schedules are strictly per-query — and is rejected by
  /// SchedulerPolicyError rather than silently clamped.
  size_t max_fusion = 0;
  /// Pick fusion-group members by query-feature similarity instead of
  /// arrival order: the scheduler fingerprints each backlog query through
  /// NamedSearcher::fingerprint (a 64-bit occupied-bin / gram-posting
  /// signature) and greedily packs the group that maximizes the estimated
  /// shared-bin fraction over a bounded window of the backlog. Falls back
  /// to FIFO when the searcher has no fingerprint hook or no two window
  /// queries overlap. Grouping only changes WHICH queries share a sweep —
  /// results stay bit-identical to FIFO grouping and to unfused calls.
  bool similarity_grouping = true;
  /// Starvation guard: a pending query passed over by this many
  /// similarity-formed groups is force-scheduled in the next group FIFO
  /// from the backlog front, however poorly it matches (0 = auto: 8).
  size_t group_age_watermark = 0;
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
  size_t fused_groups = 0;     ///< fused multi-query sweep dispatches
  size_t fused_queries = 0;    ///< queries answered inside a fused group
  size_t group_similarity = 0; ///< groups formed by the similarity grouper
  size_t group_fifo = 0;       ///< groups formed FIFO (fallback or opt-out)
  size_t group_forced = 0;     ///< groups forced FIFO by the age watermark
  /// Summed estimated shared-bin fraction over fused groups (0 per group
  /// when no fingerprints were available); divide by fused_groups for the
  /// run's average.
  double shared_fraction_sum = 0.0;
  uint64_t budget_granted = 0; ///< summed per-call budgets
  unsigned max_budget = 0;     ///< largest budget any call received
};

/// The decision engine shared by KnnBatch and QuerySession. One instance
/// drives one run; it is not thread-safe (Step is called from the
/// owning thread, which then fans out internally).
///
/// Determinism: every schedule — any partition of the queries into fused
/// groups, waves, and solo calls, under any budget assignment — produces
/// bit-identical KnnResults, because (a) each query's result is
/// budget-invariant (the PR 3 guarantee, certified by intra_query_test),
/// (b) queries never share mutable state, (c) results are written by query
/// index, and (d) a fused group's results are bit-identical to member-wise
/// calls (certified by fused_sweep_test). scheduler_test re-certifies this
/// end to end against adversarial schedules.
class AdaptiveScheduler {
 public:
  /// `searcher` and `policy` are borrowed for the scheduler's lifetime.
  /// `pool` = nullptr uses ThreadPool::Global(); `cache` = nullptr runs
  /// uncached; `plan_cache` = nullptr rebuilds fused plans per sweep. The
  /// per-call KnnOptions hand all three to the searcher, so a bound-in
  /// pool on the NamedSearcher is overridden only when `pool` is
  /// explicit.
  AdaptiveScheduler(const NamedSearcher& searcher, size_t k,
                    const SchedulerPolicy& policy, ThreadPool* pool,
                    FeatureCache* cache,
                    FusedPlanCache* plan_cache = nullptr);

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

  /// Largest fusion group one Step may form: policy.max_fusion resolved
  /// (0 = kMaxFusionGroup), or 1 when the searcher has no fused entry
  /// point or a budget override is active.
  size_t MaxFusion() const;

  /// Executes one scheduling decision over the backlog in `*pending` (a
  /// deque of query ids in arrival order): one fused group (a single
  /// multi-query sweep on the calling thread — members picked by the
  /// similarity grouper or FIFO, not necessarily from the front), one
  /// wave (budget-1 queries fanned inter-query across the pool), or one
  /// solo query with a wider budget on the calling thread. Completed ids
  /// are removed from `*pending`; waves and solo calls always take from
  /// the front, so arrival order is preserved outside fusion. Emits every
  /// completed result via `emit(id, result)` and returns how many queries
  /// completed (>= 1 unless the backlog was empty). On return, the step's
  /// SchedulerStats delta goes to the registry's sched.* counters.
  size_t Step(std::deque<size_t>* pending,
              const std::function<const Trajectory&(size_t)>& query_at,
              const std::function<void(size_t, KnnResult&&)>& emit);

  const SchedulerStats& stats() const { return stats_; }

 private:
  /// One fusion group picked from `*pending` (members removed), plus how
  /// it was formed and its estimated shared-bin fraction.
  struct GroupDecision {
    enum class Kind { kSimilarity, kFifo, kForced };
    std::vector<size_t> ids;
    Kind kind = Kind::kFifo;
    double shared_fraction = 0.0;
  };

  /// Step's scheduling decision and execution, without the metrics.
  size_t Dispatch(std::deque<size_t>* pending,
                  const std::function<const Trajectory&(size_t)>& query_at,
                  const std::function<void(size_t, KnnResult&&)>& emit);
  KnnResult Call(const Trajectory& query, unsigned budget);
  void RecordGrant(unsigned budget);
  /// Removes up to MaxFusion() members from `*pending` — similarity-
  /// packed over the group window when enabled and fingerprints exist,
  /// FIFO otherwise, FIFO-forced when the backlog head has been passed
  /// over group_age_watermark times.
  GroupDecision FormGroup(
      std::deque<size_t>* pending,
      const std::function<const Trajectory&(size_t)>& query_at);
  /// Memoized NamedSearcher::fingerprint for query id (the query must
  /// still be pending).
  uint64_t FingerprintOf(
      size_t id, const std::function<const Trajectory&(size_t)>& query_at);
  /// How many backlog queries the similarity grouper considers per group:
  /// max(16, 4 * MaxFusion()).
  size_t GroupWindow() const;
  size_t AgeWatermark() const;

  const NamedSearcher& searcher_;
  size_t k_;
  const SchedulerPolicy& policy_;
  ThreadPool* pool_;  ///< explicit pool or nullptr (= Global)
  FeatureCache* cache_;
  FusedPlanCache* plan_cache_;
  SchedulerStats stats_;
  /// Similarity-grouping bookkeeping, erased as ids complete.
  std::unordered_map<size_t, uint64_t> fingerprints_;
  std::unordered_map<size_t, size_t> skip_counts_;
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
                                    SchedulerStats* stats_out = nullptr,
                                    FusedPlanCache* plan_cache = nullptr);

/// A streaming query session: queries are admitted as they arrive
/// (Submit), not at a batch barrier, and the scheduler decides execution
/// from the backlog at each step — a deep backlog triggers eager waves, a
/// drained one widens the stragglers. Results are retrieved by ticket in
/// any order; asking for a result drives the schedule forward until that
/// ticket completes.
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
    /// Fused-plan cache shared by every fusion group of the session, so a
    /// recurring group composition reuses its built sweep plan instead of
    /// rebuilding it (nullptr = rebuild per sweep).
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

  /// The answer for `ticket`, running the schedule forward as needed.
  /// Completion is no longer strictly in ticket order — the similarity
  /// grouper may answer a well-matched later ticket before an earlier
  /// one — so readiness is tracked per ticket.
  const KnnResult& Result(Ticket ticket);

  /// Runs every admitted query to completion.
  void Drain();

  /// Queries admitted but not yet executed.
  size_t pending() const { return pending_ids_.size(); }

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
  /// already-constructed elements of results_ (and the matching done_
  /// bytes) concurrently, which is safe exactly because push_back never
  /// relocates existing deque elements; the wave's join publishes the
  /// writes to the owning thread.
  std::deque<Trajectory> queries_;
  std::deque<KnnResult> results_;
  std::deque<uint8_t> done_;  ///< per-ticket readiness (out-of-order safe)
  std::deque<size_t> pending_ids_;  ///< unexecuted tickets, arrival order
  size_t completed_count_ = 0;
  std::atomic<size_t> pending_relaxed_{0};  ///< see PendingRelaxed()
};

}  // namespace edr

#endif  // EDR_QUERY_SCHEDULER_H_
