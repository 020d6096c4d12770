#include "query/scheduler.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>
#include <vector>

#include "obs/registry.h"
#include "query/thread_pool.h"

namespace edr {
namespace {

ThreadPool& ResolvePool(ThreadPool* pool) {
  return pool != nullptr ? *pool : ThreadPool::Global();
}

}  // namespace

std::string SchedulerPolicyError(const SchedulerPolicy& policy) {
  if (policy.max_intra_workers != 0 && policy.max_threads != 0 &&
      policy.max_intra_workers > policy.max_threads) {
    return "max_intra_workers exceeds max_threads, so the intra-query "
           "budget it promises can never be granted";
  }
  return "";
}

AdaptiveScheduler::AdaptiveScheduler(const NamedSearcher& searcher, size_t k,
                                     const SchedulerPolicy& policy,
                                     ThreadPool* pool, FeatureCache* cache)
    : searcher_(searcher), k_(k), policy_(policy), pool_(pool), cache_(cache) {}

unsigned AdaptiveScheduler::Capacity() const {
  unsigned cap = ResolvePool(pool_).num_workers() + 1;
  if (policy_.max_threads != 0) cap = std::min(cap, policy_.max_threads);
  return std::max(1u, cap);
}

unsigned AdaptiveScheduler::EffectiveCapacity() const {
  const unsigned cap = Capacity();
  const unsigned busy = ResolvePool(pool_).BusyWorkers();
  return busy >= cap ? 1u : std::max(1u, cap - busy);
}

unsigned AdaptiveScheduler::GrantBudget(size_t pending) const {
  const unsigned capacity = Capacity();
  unsigned budget;
  if (policy_.budget_override) {
    budget = policy_.budget_override(pending, capacity);
    budget = std::max(1u, std::min(budget, capacity));
  } else {
    const unsigned effective = EffectiveCapacity();
    // Split the free capacity across the backlog: a deep queue grants 1
    // (inter-query mode), a short one hands each straggler a wide share.
    budget = pending == 0
                 ? effective
                 : static_cast<unsigned>(std::max<size_t>(
                       1, static_cast<size_t>(effective) / pending));
  }
  if (policy_.max_intra_workers != 0) {
    budget = std::min(budget, policy_.max_intra_workers);
  }
  return std::max(1u, budget);
}

size_t AdaptiveScheduler::WidenPending() const {
  return std::max<size_t>(1, Capacity() / 2);
}

KnnResult AdaptiveScheduler::Call(const Trajectory& query, unsigned budget) {
  if (searcher_.search_with) {
    KnnOptions per_call;
    per_call.intra_query_workers = budget;
    per_call.pool = pool_;
    per_call.feature_cache = cache_;
    return searcher_.search_with(query, k_, per_call);
  }
  // Budget-unaware searchers (SeqScan) run as plain calls; the grant is
  // still accounted so stats describe the schedule, not the searcher.
  return searcher_.search(query, k_);
}

void AdaptiveScheduler::RecordGrant(unsigned budget) {
  ++stats_.queries;
  stats_.budget_granted += budget;
  stats_.max_budget = std::max(stats_.max_budget, budget);
  if (budget > 1) ++stats_.widened_queries;
}

size_t AdaptiveScheduler::Step(
    size_t first, size_t pending,
    const std::function<const Trajectory&(size_t)>& query_at,
    const std::function<void(size_t, KnnResult&&)>& emit) {
  const SchedulerStats before = stats_;
  const size_t completed = Dispatch(first, pending, query_at, emit);
  if constexpr (kObsEnabled) {
    // The step's own stats delta, so the streaming QuerySession path
    // feeds the sched.* counters too, not just RunScheduled batches.
    const LibraryMetrics& metrics = LibraryMetrics::Get();
    metrics.sched_waves.Inc(stats_.waves - before.waves);
    metrics.sched_wave_queries.Inc(stats_.wave_queries - before.wave_queries);
    metrics.sched_widened_queries.Inc(stats_.widened_queries -
                                      before.widened_queries);
    metrics.sched_budget_granted.Inc(stats_.budget_granted -
                                     before.budget_granted);
  }
  return completed;
}

size_t AdaptiveScheduler::Dispatch(
    size_t first, size_t pending,
    const std::function<const Trajectory&(size_t)>& query_at,
    const std::function<void(size_t, KnnResult&&)>& emit) {
  if (pending == 0) return 0;
  const unsigned budget = GrantBudget(pending);

  // Deep backlog and no test override: ride a wave. Everything except the
  // backlog that should widen later is fanned out one-query-per-worker;
  // the wave completing shrinks pending to the widen threshold, so the
  // stragglers get the whole pool each.
  if (budget <= 1 && pending > 1 && !policy_.budget_override) {
    const size_t tail = std::min(WidenPending(), pending - 1);
    const size_t wave = pending - tail;
    ResolvePool(pool_).ParallelFor(
        wave,
        [&](size_t j) {
          KnnResult result = Call(query_at(first + j), /*budget=*/1);
          PublishFlight(searcher_.name, result, /*sched_budget=*/1);
          emit(first + j, std::move(result));
        },
        Capacity());
    ++stats_.waves;
    stats_.wave_queries += wave;
    for (size_t j = 0; j < wave; ++j) RecordGrant(1);
    return wave;
  }

  // Solo query on the calling thread; a budget > 1 fans out *inside* the
  // query (the pool is free — waves and solo calls never overlap).
  KnnResult result = Call(query_at(first), budget);
  PublishFlight(searcher_.name, result, budget);
  emit(first, std::move(result));
  RecordGrant(budget);
  return 1;
}

std::vector<KnnResult> RunScheduled(const NamedSearcher& searcher,
                                    const std::vector<Trajectory>& queries,
                                    size_t k, const SchedulerPolicy& policy,
                                    ThreadPool* pool, FeatureCache* cache,
                                    SchedulerStats* stats_out) {
  const auto start = std::chrono::steady_clock::now();
  std::vector<KnnResult> results(queries.size());
  AdaptiveScheduler scheduler(searcher, k, policy, pool, cache);
  for (size_t next = 0; next < queries.size();) {
    next += scheduler.Step(
        next, queries.size() - next,
        [&](size_t i) -> const Trajectory& { return queries[i]; },
        [&](size_t i, KnnResult&& r) { results[i] = std::move(r); });
  }
  if (stats_out != nullptr) *stats_out = scheduler.stats();
  if (!queries.empty()) {
    // Batch accounting: the whole-batch wall time is the outer timer that
    // per-query elapsed_seconds cannot replace under concurrency.
    const LibraryMetrics& metrics = LibraryMetrics::Get();
    metrics.batch_count.Inc();
    metrics.batch_queries.Inc(scheduler.stats().queries);
    metrics.batch_seconds.Record(
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count());
  }
  return results;
}

QuerySession::QuerySession(const NamedSearcher& searcher,
                           const Options& options)
    : options_(options),
      scheduler_(searcher, options_.k, options_.policy, options_.pool,
                 options_.feature_cache),
      admit_watermark_(options_.admit_watermark != 0
                           ? options_.admit_watermark
                           : static_cast<size_t>(2) *
                                 scheduler_.Capacity()) {
  const std::string error = SchedulerPolicyError(options_.policy);
  if (!error.empty()) {
    throw std::invalid_argument("QuerySession: " + error);
  }
}

QuerySession::Ticket QuerySession::Submit(Trajectory query) {
  const Ticket ticket = queries_.size();
  queries_.push_back(std::move(query));
  results_.emplace_back();
  pending_relaxed_.store(pending(), std::memory_order_relaxed);
  // A sustained stream must not buffer unboundedly behind a caller that
  // never asks for results: past the watermark, execute eagerly. The
  // scheduler sees the full backlog, so eager admission runs in wave mode.
  if (pending() >= admit_watermark_) StepOnce();
  return ticket;
}

const KnnResult& QuerySession::Result(Ticket ticket) {
  if (ticket >= submitted()) {
    throw std::out_of_range("QuerySession: ticket " + std::to_string(ticket) +
                            " was never issued");
  }
  while (completed_ <= ticket) StepOnce();
  return results_[ticket];
}

void QuerySession::Drain() {
  while (pending() > 0) StepOnce();
}

void QuerySession::StepOnce() {
  completed_ += scheduler_.Step(
      completed_, pending(),
      [this](size_t i) -> const Trajectory& { return queries_[i]; },
      [this](size_t i, KnnResult&& r) { results_[i] = std::move(r); });
  pending_relaxed_.store(pending(), std::memory_order_relaxed);
}

}  // namespace edr
