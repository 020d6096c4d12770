#ifndef EDR_QUERY_INTRA_QUERY_H_
#define EDR_QUERY_INTRA_QUERY_H_

// The paper's filter-and-refine skeleton (Figure 6), written once for every
// k-NN searcher: visit the candidates in some order, run the searcher's
// filters against the running k-th distance, and refine the survivors with
// the true distance. A searcher supplies only
//   - its candidate order: InDbOrder; InKeyOrder / InBoundOrder (ascending
//     (key, id) order, built up front as an "order" span, with a monotone
//     stop test); or InLazyOrder (ascending (bound, id) order, extended as
//     the scan reaches it, halting at the first bound above the threshold);
//   - its filter chain, prune(StageCounters&, id, threshold) -> pruned,
//     which bumps the bucket of the filter that fired;
//   - its distance, distance(id, threshold) -> Refined: BoundedEdr (which
//     can also record the near-triangle reference distances, and also
//     serves the 3-D searcher), or exact LCSS for the LCSS searcher.
// FilterAndRefine answers a k-NN query (threshold = the running k-th
// distance, refinement sharded over the worker slots), ScanRange a range
// query (threshold = the radius, one slot), and RunFusionGroup runs a fusion
// group's one up-front filter pass before each member's FilterAndRefine.
// The driver owns everything else: the per-slot stage counters, DP counts
// and DP times, the "refine" span with one "refine_worker" per slot and the
// "dp" aggregate, the phase split, the k = 0 answer and the query metrics.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "core/dataset.h"
#include "core/trajectory.h"
#include "distance/edr_kernel.h"
#include "obs/stage_counters.h"
#include "obs/trace.h"
#include "query/knn.h"
#include "query/thread_pool.h"
#include "query/topk.h"

namespace edr {

/// The running k-th-nearest distance shared by every refinement worker of
/// one query: the k-th of every exact distance offered so far (see
/// SharedTopK), which is always an upper bound on the final k-th distance
/// — so pruning and early-abandoning against it never loses a true
/// neighbor.
///
/// Relaxed ordering is sufficient: the value is a monotone pruning hint,
/// and a stale read merely weakens a prune. Result identity is enforced by
/// the deterministic top-k, not by synchronization here.
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

/// The query-wide top-k of a refinement: every worker slot offers each
/// exact distance it computes, and the k-th of them all is published as
/// the shared threshold. With w slots the threshold is therefore as tight
/// as the sequential scan's, give or take the w - 1 distances still in
/// flight.
///
/// The top-k keeps the k lexicographically smallest (distance, rank)
/// pairs offered. Every true neighbour is refined exactly in every
/// schedule (the threshold never drops below the final k-th distance), so
/// that set is schedule-independent. One slot offers without a lock.
class SharedTopK {
 public:
  SharedTopK(size_t k, unsigned slots)
      : top_(k), kth_(k), locked_(slots > 1) {}

  double Threshold() const { return kth_.Load(); }

  void Offer(uint32_t id, double distance, size_t rank) {
    std::unique_lock<std::mutex> lock(mu_, std::defer_lock);
    if (locked_) lock.lock();
    top_.Offer(id, distance, rank);
    if (top_.full()) kth_.Publish(top_.Threshold());
  }

  /// The kept neighbours, ascending by (distance, rank).
  std::vector<Neighbor> Take() && {
    return std::move(top_).TakeSortedNeighbors();
  }

 private:
  std::mutex mu_;  ///< guards top_ when more than one slot offers
  BoundedTopK top_;
  SharedKthDistance kth_;
  bool locked_;
};

/// The reference distances one query has refined so far, shared by all
/// of its refinement slots, so the near-triangle prunes (NTR and CSE) read
/// every reference any slot computed, not only their own. The references
/// are the ids below the capacity (the columns of the PairwiseEdrMatrix).
/// A stored value may be a bounded-refinement lower bound of EDR(Q, ref);
/// substituting it only shrinks a prune bound, so reading any subset of
/// the entries keeps pruning lossless.
///
/// Append-only up to a fixed capacity: a writer fills the next entry under
/// the lock and publishes it by storing the count with release order, so
/// lock-free readers only ever see whole entries.
class SharedRefDistances {
 public:
  explicit SharedRefDistances(size_t capacity) : entries_(capacity) {}

  /// Records EDR(Q, id) if `id` is a reference; other ids are ignored.
  void Add(uint32_t id, double distance) {
    if (id >= entries_.size()) return;
    std::lock_guard<std::mutex> lock(mu_);
    const size_t count = count_.load(std::memory_order_relaxed);
    if (count == entries_.size()) return;
    entries_[count] = {id, distance};
    count_.store(count + 1, std::memory_order_release);
  }

  /// fn(ref, distance) for every published entry, in insertion order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    const size_t count = count_.load(std::memory_order_acquire);
    for (size_t i = 0; i < count; ++i) {
      fn(entries_[i].first, entries_[i].second);
    }
  }

 private:
  std::mutex mu_;  ///< serializes writers
  std::vector<std::pair<uint32_t, double>> entries_;
  std::atomic<size_t> count_{0};
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

/// A fresh trace for one k-NN call, with the worker budget the call was
/// granted recorded as a `sched` node (count = resolved participant count,
/// zero duration — the budget is a decision, not a phase), so traces show
/// the schedule the batch scheduler chose. Null under EDR_DISABLE_OBS.
inline std::shared_ptr<QueryTrace> KnnTrace(const KnnOptions& options) {
  std::shared_ptr<QueryTrace> trace = MakeQueryTrace();
  if (trace != nullptr) {
    trace->AddAggregate("sched", 0.0, ResolveIntraQueryWorkers(options));
  }
  return trace;
}

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

/// Runs `loop(slot)` on `slots` participants of the options' pool (or
/// inline when one slot suffices). Each slot's run is recorded as a
/// "refine_worker" span under `tc` so the per-query trace shows the worker
/// shard breakdown.
template <typename LoopFn>
void RunSlots(unsigned slots, const KnnOptions& options, LoopFn&& loop,
              const TraceContext& tc) {
  auto traced = [&](size_t slot) {
    TraceSpan span(tc.trace, "refine_worker", tc.parent);
    loop(slot);
  };
  if (slots <= 1) {
    traced(size_t{0});
  } else {
    IntraQueryPool(options).ParallelFor(slots, traced, slots);
  }
}

/// The extension of an order built in full before its scan starts: every
/// rank is ready, so the scan never calls it.
struct FixedOrder {
  size_t operator()(double /*threshold*/) const { return 0; }
};

/// A scan over n candidates: the candidate of rank r is id_at(r), and the
/// scan halts at the first candidate for which halt(id, threshold) holds,
/// without visiting it. Ranks [0, ready) are fixed before the scan starts;
/// an order built while the scan runs publishes the rest:
/// extend(threshold) appends at least one rank and returns the order's
/// new length, or returns it unchanged once every remaining candidate
/// would halt at `threshold`, which halts the scan.
template <typename IdFn, typename HaltFn, typename ExtendFn>
struct OrderedScan {
  size_t n;
  IdFn id_at;
  HaltFn halt;
  size_t ready;
  ExtendFn extend;

  /// Offers to `sink` every candidate that process(slot, id, threshold,
  /// &dist) refines exactly, with `slots` workers drawing ranks from one
  /// atomic counter; `threshold` is sink.Threshold() read per candidate.
  /// A worker that draws a rank past the published prefix extends the
  /// order under a lock and publishes the new length with release order,
  /// so lock-free readers of the prefix see whole ids; a fixed order is
  /// published whole and takes no lock. Once a worker halts the scan, the
  /// others stop when they next check the flag.
  ///
  /// With several slots, slot 0 refines alone until the sink's threshold
  /// is finite (a k-NN top-k holds k exact distances) or the scan halts;
  /// only then do the other slots join, each with a finite threshold. So
  /// no slot refines without a bound, and the prefix is the one-slot
  /// scan's.
  template <typename Sink, typename ProcessFn>
  void Visit(unsigned slots, const KnnOptions& options, Sink& sink,
             ProcessFn& process, const TraceContext& tc) const {
    std::atomic<size_t> next{0};
    std::atomic<size_t> published{ready};
    std::atomic<bool> halted{false};
    std::atomic<bool> seeded{slots <= 1};
    std::mutex mu;  // serializes the extensions
    // Publishes the order up to `rank`; false once it halts short of it.
    const auto reach = [&](size_t rank) {
      if (rank < published.load(std::memory_order_acquire)) return true;
      std::lock_guard<std::mutex> lock(mu);
      size_t count = published.load(std::memory_order_relaxed);
      while (count <= rank) {
        const size_t grown = extend(sink.Threshold());
        if (grown == count) return false;
        count = grown;
        published.store(count, std::memory_order_release);
      }
      return true;
    };
    // Visits the next rank; false once the scan is over.
    const auto step = [&](unsigned slot) {
      const size_t rank = next.fetch_add(1, std::memory_order_relaxed);
      if (rank >= n || !reach(rank)) return false;
      const uint32_t id = id_at(rank);
      const double threshold = sink.Threshold();
      if (halt(id, threshold)) return false;
      double dist = 0.0;
      if (process(slot, id, threshold, &dist)) sink.Offer(id, dist, rank);
      return true;
    };
    const auto run = [&](unsigned slot) {
      while (!halted.load(std::memory_order_relaxed)) {
        if (!step(slot)) halted.store(true, std::memory_order_relaxed);
      }
    };
    auto loop = [&](size_t s) {
      const unsigned slot = static_cast<unsigned>(s);
      if (slot == 0 && !seeded.load(std::memory_order_relaxed)) {
        while (!halted.load(std::memory_order_relaxed) &&
               std::isinf(sink.Threshold())) {
          if (!step(0)) halted.store(true, std::memory_order_relaxed);
        }
        seeded.store(true, std::memory_order_release);
        seeded.notify_all();
      } else if (slot != 0) {
        // Slot 0 is the calling thread's first item (ThreadPool::
        // ParallelFor), so it always runs while the others wait.
        seeded.wait(false, std::memory_order_acquire);
      }
      run(slot);
    };
    RunSlots(slots, options, loop, tc);
  }
};

}  // namespace internal

/// What building an order cost while its scan ran: `count` units of work
/// (the blocks a lazy bound order swept) in `seconds`. The driver records
/// a nonzero count as a `name` aggregate under "refine" and counts the
/// time as filter time.
struct OrderWork {
  const char* name = "";
  double seconds = 0.0;
  uint64_t count = 0;
};

/// Candidate order: database order, ids 0..n-1 (HSE, NTR, CSE, the
/// combined searcher without a sorted histogram scan, and their range
/// queries). No ordering work and no early stop; a candidate's rank is its
/// id.
struct InDbOrder {
  /// The scan of n candidates in this order.
  auto Build(size_t n, QueryTrace* /*trace*/) const {
    return internal::OrderedScan{
        n, [](size_t rank) { return static_cast<uint32_t>(rank); },
        [](uint32_t, double) { return false; }, n, internal::FixedOrder{}};
  }
  OrderWork work() const { return {}; }
};

/// Candidate order: ascending canonical (key(id), id), built up front by
/// CanonicalOrder (the Q-gram searchers, LCSS with its histogram filter
/// and Knn3Searcher). When
/// stop(key, threshold) holds for the canonically next candidate, every
/// remaining candidate is prunable too and the whole scan halts; that
/// candidate is never visited. `stop` must be monotone in the threshold (a
/// larger threshold never stops earlier), so a stale — necessarily larger —
/// threshold read is conservative.
template <typename KeyFn, typename StopFn>
struct InKeyOrder {
  KeyFn key;
  StopFn stop;

  /// The scan of n candidates in this order; building the order is
  /// recorded as an `order` span. The scan reads this order's `key` and
  /// `stop`, so it must not outlive it.
  auto Build(size_t n, QueryTrace* trace) const {
    TraceSpan span(trace, "order");
    std::vector<uint32_t> ids = CanonicalOrder(n, key);
    span.End();
    return internal::OrderedScan{
        n, [ids = std::move(ids)](size_t rank) { return ids[rank]; },
        [this](uint32_t id, double threshold) {
          return stop(key(id), threshold);
        },
        n, internal::FixedOrder{}};
  }
  OrderWork work() const { return {}; }
};

/// InKeyOrder over per-candidate lower bounds: in ascending bound order,
/// once the next bound exceeds the threshold, so does every later one.
template <typename KeyFn>
auto InBoundOrder(KeyFn bound) {
  return InKeyOrder{std::move(bound), [](auto key, double threshold) {
                      return static_cast<double>(key) > threshold;
                    }};
}

/// Candidate order: ascending (bound, id), as InBoundOrder, but built by
/// `order` while the scan runs (HistogramTable::BoundOrder). Nothing is
/// built up front: order.Extend(threshold) appends the next ids and
/// returns the order's length, or returns it unchanged once every
/// remaining candidate's bound exceeds the threshold; order.key(id) is the
/// bound of every id handed out, and order.work() what the extensions
/// cost.
template <typename Lazy>
struct InLazyOrder {
  Lazy& order;

  auto Build(size_t n, QueryTrace* /*trace*/) const {
    return internal::OrderedScan{
        n, [this](size_t rank) { return order.id_at(rank); },
        [this](uint32_t id, double threshold) {
          return static_cast<double>(order.key(id)) > threshold;
        },
        0, [this](double threshold) { return order.Extend(threshold); }};
  }
  OrderWork work() const { return order.work(); }
};

/// One refinement's outcome: the candidate's exact distance, or — when the
/// computation abandoned past the threshold — a lower bound above it.
struct Refined {
  double distance = 0.0;
  bool exact = true;
};

/// The EDR searchers' distance: EDR with the threshold as its early-abandon
/// bound, exact whenever the candidate could enter the answer and
/// otherwise some lower bound above the threshold, which the answer
/// rejects just the same. With `refs`, every reference's DP value is also
/// recorded there (the near-triangle procArray of Figure 4). Db is a
/// TrajectoryDataset with Trajectory queries, or a vector of Trajectory3
/// with Trajectory3 queries (Knn3Searcher).
template <typename Db, typename Query>
class BoundedEdr {
 public:
  BoundedEdr(const Db& db, const Query& query, double epsilon,
             SharedRefDistances* refs = nullptr)
      : db_(db),
        query_(query),
        epsilon_(epsilon),
        kernel_(DefaultEdrKernel()),
        refs_(refs) {}

  Refined operator()(uint32_t id, double threshold) const {
    const int bound = EdrBoundFromKthDistance(threshold);
    const int d = EdrDistanceBoundedWith(kernel_, ThreadLocalEdrScratch(),
                                         query_, db_[id], epsilon_, bound);
    if (refs_ != nullptr) refs_->Add(id, static_cast<double>(d));
    return {static_cast<double>(d), d <= bound};
  }

 private:
  const Db& db_;
  const Query& query_;
  double epsilon_;
  EdrKernel kernel_;
  SharedRefDistances* refs_;
};

/// What the driver needs to know about one query besides its order, filter
/// chain and distance: the data, the execution options (worker count and
/// pool), the query's trace (null under EDR_DISABLE_OBS), and the time its
/// up-front filter pass took (shared by a fusion group; 0 for searchers
/// without one). Db and Query are as for BoundedEdr.
template <typename Db = TrajectoryDataset, typename Query = Trajectory>
struct RefineRequest {
  const Db& db;
  const Query& query;
  KnnOptions options;
  std::shared_ptr<QueryTrace> trace;
  double filter_seconds = 0.0;
};

namespace internal {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The answer to a query that can return nothing (k = 0): no candidate is
/// visited, so every one counts as not visited.
inline KnnResult EmptyAnswer(size_t db_size) {
  KnnResult out;
  out.stats.db_size = db_size;
  out.stats.stages.FinalizeNotVisited(db_size);
  return out;
}

/// The range scan's sink: every exact distance within the radius. The
/// scan runs on one slot, so no lock.
class RangeHits {
 public:
  explicit RangeHits(int radius) : radius_(static_cast<double>(radius)) {}

  double Threshold() const { return radius_; }
  void Offer(uint32_t id, double distance, size_t /*rank*/) {
    hits_.push_back({id, distance});
  }
  std::vector<Neighbor> Take(size_t max_results) && {
    SortNeighborsAscending(&hits_, max_results);
    return std::move(hits_);
  }

 private:
  double radius_;
  std::vector<Neighbor> hits_;
};

/// One worker slot's share of a refinement's bookkeeping, on cache lines
/// of its own (it is written for every candidate).
struct alignas(64) RefineSlot {
  StageCounters stages;
  size_t computed = 0;
  double dp_seconds = 0.0;
};

/// The skeleton behind FilterAndRefine and ScanRange: visits `order` on
/// `slots` workers, offers every exact distance to `sink`, takes the
/// answer with take(), and fills in the stats.
///
/// Phase split, one rule for every searcher: with observability compiled
/// in, the distance calls are timed per slot, refine_seconds is their sum
/// (clamped to the elapsed time) and filter_seconds the rest; the trace
/// gets the sum as a "dp" aggregate under "refine", beside the order's
/// work (a lazy order's sweeps). Under EDR_DISABLE_OBS no clock is read
/// per candidate: filter is the up-front pass plus the order's build and
/// work, and refine the rest.
template <typename Db, typename Query, typename Order, typename Sink,
          typename PruneFn, typename DistanceFn, typename TakeFn>
KnnResult Drive(RefineRequest<Db, Query>& req, unsigned slots,
                const Order& order, Sink& sink, PruneFn&& prune,
                DistanceFn&& distance, TakeFn&& take) {
  const Clock::time_point start = Clock::now();
  const auto scan = order.Build(req.db.size(), req.trace.get());
  const Clock::time_point refine_start = Clock::now();
  const double filter_seconds =
      req.filter_seconds +
      std::chrono::duration<double>(refine_start - start).count();
  std::vector<RefineSlot> state(slots);
  const size_t query_len = req.query.size();
  auto process = [&](unsigned slot, uint32_t id, double threshold,
                     double* dist) {
    RefineSlot& s = state[slot];
    s.stages.Bump(&StageCounters::considered);
    if (prune(s.stages, id, threshold)) return false;
    Refined r;
    if constexpr (kObsEnabled) {
      const Clock::time_point dp_start = Clock::now();
      r = distance(id, threshold);
      s.dp_seconds += SecondsSince(dp_start);
    } else {
      r = distance(id, threshold);
    }
    ++s.computed;
    s.stages.CountDp(query_len, req.db[id].size());
    if (!r.exact) {
      s.stages.Bump(&StageCounters::dp_early_abandoned);
      return false;
    }
    *dist = r.distance;
    return true;
  };

  KnnResult out;
  TraceSpan span(req.trace.get(), "refine");
  scan.Visit(slots, req.options, sink, process, {req.trace.get(), span.id()});
  out.neighbors = take();
  span.End();
  const double refine_wall = SecondsSince(refine_start);

  SearchStats& stats = out.stats;
  stats.db_size = req.db.size();
  double dp_seconds = 0.0;
  for (const RefineSlot& s : state) {
    stats.edr_computed += s.computed;
    stats.stages.Add(s.stages);
    dp_seconds += s.dp_seconds;
  }
  stats.stages.FinalizeNotVisited(stats.db_size);
  stats.elapsed_seconds = filter_seconds + refine_wall;
  const OrderWork work = order.work();
  if constexpr (kObsEnabled) {
    if (req.trace != nullptr) {
      req.trace->AddAggregate("dp", dp_seconds, stats.stages.dp_invoked,
                              span.id());
      if (work.count > 0) {
        req.trace->AddAggregate(work.name, work.seconds, work.count,
                                span.id());
      }
    }
    stats.refine_seconds = std::min(dp_seconds, stats.elapsed_seconds);
    stats.filter_seconds = stats.elapsed_seconds - stats.refine_seconds;
  } else {
    stats.filter_seconds = filter_seconds + work.seconds;
    stats.refine_seconds = refine_wall - work.seconds;
  }
  out.trace = std::move(req.trace);
  RecordQueryMetrics(stats);
  return out;
}

}  // namespace internal

/// Answers one k-NN query: visits the candidates in `order` on the worker
/// slots `req.options` grants, prunes with prune(stages, id, threshold)
/// against the running k-th distance, refines the survivors with
/// distance(id, threshold) and returns the k nearest exact distances.
///
/// Result identity across worker counts: every exact distance goes to one
/// query-wide SharedTopK, whose k-th is the shared threshold. That
/// threshold is always an upper bound on the final k-th distance, so every
/// true neighbour survives filtering in every schedule, is refined exactly
/// and is offered; the top-k keeps the k lexicographically smallest
/// (distance, rank) pairs, a schedule-independent set.
template <typename Db, typename Query, typename Order, typename PruneFn,
          typename DistanceFn>
KnnResult FilterAndRefine(RefineRequest<Db, Query> req, size_t k,
                          const Order& order, PruneFn&& prune,
                          DistanceFn&& distance) {
  if (k == 0) return internal::EmptyAnswer(req.db.size());
  const unsigned slots = ResolveIntraQueryWorkers(req.options);
  SharedTopK top(k, slots);
  return internal::Drive(req, slots, order, top, prune, distance,
                         [&] { return std::move(top).Take(); });
}

/// Answers one range query on one slot: every candidate with distance at
/// most `radius`, ascending by (distance, id), through the same filter
/// chain and distance as FilterAndRefine with `radius` as the threshold.
/// `start` is when the query began; the time up to this call is its filter
/// pass. A nonzero `max_results` keeps only that many nearest matches,
/// selected without sorting the whole list.
template <typename Order, typename PruneFn, typename DistanceFn>
KnnResult ScanRange(const TrajectoryDataset& db, const Trajectory& query,
                    internal::Clock::time_point start, int radius,
                    size_t max_results, const Order& order, PruneFn&& prune,
                    DistanceFn&& distance) {
  RefineRequest req{db, query, KnnOptions{}, MakeQueryTrace(),
                    internal::SecondsSince(start)};
  internal::RangeHits hits(radius);
  return internal::Drive(req, 1, order, hits, prune, distance, [&] {
    return std::move(hits).Take(max_results);
  });
}

/// The query path of the fusion-capable searchers (histogram, Q-gram,
/// combined, LCSS): answers a group of queries with one up-front filter
/// pass, pass() (feature fetches included), recorded as a `pass_span` span
/// on every member's trace, then returns member(f, request) for each member
/// f, where the request carries the pass time as the member's filter phase.
/// A group with k = 0 answers without a pass.
template <typename PassFn, typename MemberFn>
std::vector<KnnResult> RunFusionGroup(
    const TrajectoryDataset& db, const std::vector<const Trajectory*>& queries,
    size_t k, const KnnOptions& options, const char* pass_span,
    PassFn&& pass, MemberFn&& member) {
  const internal::Clock::time_point start = internal::Clock::now();
  const size_t group = queries.size();
  if (group == 0 || k == 0) {
    return std::vector<KnnResult>(group, internal::EmptyAnswer(db.size()));
  }
  std::vector<std::shared_ptr<QueryTrace>> traces(group);
  std::vector<int32_t> spans(group, -1);
  for (size_t f = 0; f < group; ++f) {
    traces[f] = KnnTrace(options);
    if (traces[f] != nullptr) spans[f] = traces[f]->Begin(pass_span);
  }
  pass();
  for (size_t f = 0; f < group; ++f) {
    if (traces[f] != nullptr) traces[f]->End(spans[f]);
  }
  const double filter_seconds = internal::SecondsSince(start);
  std::vector<KnnResult> results;
  results.reserve(group);
  for (size_t f = 0; f < group; ++f) {
    results.push_back(member(f, RefineRequest{db, *queries[f], options,
                                              std::move(traces[f]),
                                              filter_seconds}));
  }
  return results;
}

}  // namespace edr

#endif  // EDR_QUERY_INTRA_QUERY_H_
