#include "query/scheduler.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/cpu.h"
#include "obs/registry.h"
#include "query/thread_pool.h"

namespace edr {
namespace {

ThreadPool& ResolvePool(ThreadPool* pool) {
  return pool != nullptr ? *pool : ThreadPool::Global();
}

}  // namespace

std::string SchedulerPolicyError(const SchedulerPolicy& policy) {
  if (policy.budget_override && policy.max_fusion > 1) {
    return "budget_override schedules are strictly per-query, so "
           "max_fusion > 1 cannot take effect; drop one of the two";
  }
  if (policy.max_intra_workers != 0 && policy.max_threads != 0 &&
      policy.max_intra_workers > policy.max_threads) {
    return "max_intra_workers exceeds max_threads, so the intra-query "
           "budget it promises can never be granted";
  }
  return "";
}

AdaptiveScheduler::AdaptiveScheduler(const NamedSearcher& searcher, size_t k,
                                     const SchedulerPolicy& policy,
                                     ThreadPool* pool, FeatureCache* cache,
                                     FusedPlanCache* plan_cache)
    : searcher_(searcher),
      k_(k),
      policy_(policy),
      pool_(pool),
      cache_(cache),
      plan_cache_(plan_cache) {}

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

size_t AdaptiveScheduler::MaxFusion() const {
  // THE resolution point for SchedulerPolicy::max_fusion's 0-vs-1
  // semantics: 0 = auto (kMaxFusionGroup), 1 = fusion disabled, anything
  // larger is honored as-is (sweeps chunk internally past the kernel
  // width). budget_override schedules are strictly per-query (the
  // adversarial test harness); searchers without a fused entry point
  // cannot fuse.
  static_assert(kMaxFusionGroup > 1,
                "auto max_fusion must enable fusion: a kernel width of 1 "
                "would make 0 (auto) and 1 (disabled) coincide");
  if (policy_.budget_override) return 1;
  if (searcher_.fusion_key.empty() || !searcher_.search_fused) return 1;
  return policy_.max_fusion != 0 ? policy_.max_fusion : kMaxFusionGroup;
}

size_t AdaptiveScheduler::GroupWindow() const {
  return std::max<size_t>(16, 4 * MaxFusion());
}

size_t AdaptiveScheduler::AgeWatermark() const {
  return policy_.group_age_watermark != 0 ? policy_.group_age_watermark : 8;
}

uint64_t AdaptiveScheduler::FingerprintOf(
    size_t id, const std::function<const Trajectory&(size_t)>& query_at) {
  const auto it = fingerprints_.find(id);
  if (it != fingerprints_.end()) return it->second;
  const uint64_t fp = searcher_.fingerprint(query_at(id));
  fingerprints_.emplace(id, fp);
  return fp;
}

namespace {

/// Estimated shared-bin fraction of a group of signatures: the fraction
/// of the members' total occupied bits covered more than once,
/// 1 - popcount(union) / sum(popcounts). 0 for empty or all-zero
/// signatures; always in [0, 1].
double SharedFraction(const std::vector<uint64_t>& sigs) {
  uint64_t united = 0;
  uint64_t total = 0;
  for (const uint64_t s : sigs) {
    united |= s;
    total += static_cast<uint64_t>(std::popcount(s));
  }
  if (total == 0) return 0.0;
  const double f =
      1.0 - static_cast<double>(std::popcount(united)) /
                static_cast<double>(total);
  return std::min(1.0, std::max(0.0, f));
}

/// Jaccard similarity of two bit signatures (0 when either is empty).
double Jaccard(uint64_t a, uint64_t b) {
  const int inter = std::popcount(a & b);
  const int uni = std::popcount(a | b);
  return uni == 0 ? 0.0 : static_cast<double>(inter) / uni;
}

}  // namespace

AdaptiveScheduler::GroupDecision AdaptiveScheduler::FormGroup(
    std::deque<size_t>* pending,
    const std::function<const Trajectory&(size_t)>& query_at) {
  GroupDecision decision;
  const size_t target = std::min(pending->size(), MaxFusion());
  const bool can_similarity =
      policy_.similarity_grouping && static_cast<bool>(searcher_.fingerprint);

  // Starvation guard: once the backlog head has been passed over too many
  // times, it gets the next group unconditionally, FIFO from the front —
  // an old poorly-matched query never waits forever behind fresh
  // well-matched arrivals.
  const bool forced =
      can_similarity && skip_counts_.count(pending->front()) != 0 &&
      skip_counts_[pending->front()] >= AgeWatermark();

  std::vector<size_t> picked;  // positions into *pending, ascending
  if (can_similarity && !forced) {
    const size_t window = std::min(pending->size(), GroupWindow());
    std::vector<uint64_t> sigs(window);
    for (size_t i = 0; i < window; ++i) {
      sigs[i] = FingerprintOf((*pending)[i], query_at);
    }
    // Greedy agglomeration: the best-overlapping pair seeds the group,
    // then the candidate most similar to the running union joins until
    // the group is full. Ties break toward the lowest position, keeping
    // the outcome deterministic and mildly age-biased.
    size_t best_i = 0, best_j = 0;
    double best = 0.0;
    for (size_t i = 0; i + 1 < window; ++i) {
      for (size_t j = i + 1; j < window; ++j) {
        const double s = Jaccard(sigs[i], sigs[j]);
        if (s > best) {
          best = s;
          best_i = i;
          best_j = j;
        }
      }
    }
    if (best > 0.0) {
      std::vector<char> in_group(window, 0);
      in_group[best_i] = in_group[best_j] = 1;
      uint64_t united = sigs[best_i] | sigs[best_j];
      size_t members = 2;
      while (members < target) {
        size_t pick = window;
        double pick_score = -1.0;
        for (size_t i = 0; i < window; ++i) {
          if (in_group[i]) continue;
          const double s = Jaccard(sigs[i], united);
          if (s > pick_score) {
            pick_score = s;
            pick = i;
          }
        }
        if (pick == window) break;
        in_group[pick] = 1;
        united |= sigs[pick];
        ++members;
      }
      // Backfill from the window front when overlap ran out before the
      // group filled — a fused sweep amortizes streaming even for
      // mismatched members.
      for (size_t i = 0; i < window && members < target; ++i) {
        if (!in_group[i]) {
          in_group[i] = 1;
          ++members;
        }
      }
      for (size_t i = 0; i < window; ++i) {
        if (in_group[i]) picked.push_back(i);
      }
      decision.kind = GroupDecision::Kind::kSimilarity;
    }
  }
  if (picked.empty()) {
    // FIFO: the front of the backlog, either as the configured fallback
    // (no fingerprints, similarity off, zero pairwise overlap) or forced
    // by the age watermark.
    for (size_t i = 0; i < target; ++i) picked.push_back(i);
    decision.kind = forced ? GroupDecision::Kind::kForced
                           : GroupDecision::Kind::kFifo;
  }

  decision.ids.reserve(picked.size());
  for (const size_t pos : picked) decision.ids.push_back((*pending)[pos]);
  if (static_cast<bool>(searcher_.fingerprint)) {
    std::vector<uint64_t> member_sigs;
    member_sigs.reserve(decision.ids.size());
    for (const size_t id : decision.ids) {
      member_sigs.push_back(FingerprintOf(id, query_at));
    }
    decision.shared_fraction = SharedFraction(member_sigs);
  }

  // Remove the members back-to-front (positions stay valid), then age
  // every query the group jumped over.
  for (size_t i = picked.size(); i-- > 0;) {
    pending->erase(pending->begin() +
                   static_cast<std::ptrdiff_t>(picked[i]));
  }
  if (can_similarity && !picked.empty()) {
    // Everything that preceded the group's last member but was not picked
    // got jumped over; after the erase those queries occupy the deque
    // front.
    const size_t passed_over = std::min(
        pending->size(), picked.back() + 1 - picked.size());
    for (size_t i = 0; i < passed_over; ++i) {
      ++skip_counts_[(*pending)[i]];
    }
  }
  for (const size_t id : decision.ids) {
    fingerprints_.erase(id);
    skip_counts_.erase(id);
  }
  return decision;
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
    std::deque<size_t>* pending,
    const std::function<const Trajectory&(size_t)>& query_at,
    const std::function<void(size_t, KnnResult&&)>& emit) {
  const SchedulerStats before = stats_;
  const size_t completed = Dispatch(pending, query_at, emit);
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
    metrics.sched_fused_groups.Inc(stats_.fused_groups - before.fused_groups);
    metrics.sched_fused_queries.Inc(stats_.fused_queries -
                                    before.fused_queries);
    metrics.sched_group_similarity.Inc(stats_.group_similarity -
                                       before.group_similarity);
    metrics.sched_group_fifo.Inc(stats_.group_fifo - before.group_fifo);
    metrics.sched_group_forced.Inc(stats_.group_forced - before.group_forced);
  }
  return completed;
}

size_t AdaptiveScheduler::Dispatch(
    std::deque<size_t>* pending,
    const std::function<const Trajectory&(size_t)>& query_at,
    const std::function<void(size_t, KnnResult&&)>& emit) {
  if (pending->empty()) return 0;

  // Fusable searcher with a backlog: answer up to MaxFusion() queries with
  // one fused database sweep on the calling thread. Groups run one after
  // another, each granted the whole free capacity as intra-query budget,
  // so the pool is filled by the sweep's own sharding instead of by
  // inter-query waves — the table is streamed once per group instead of
  // once per query. FormGroup picks WHICH queries share the sweep
  // (similarity-packed or FIFO); membership never changes any member's
  // answer, only how much of the streamed table the group shares.
  const size_t max_fusion = MaxFusion();
  if (pending->size() > 1 && max_fusion > 1) {
    const GroupDecision decision = FormGroup(pending, query_at);
    const size_t group = decision.ids.size();
    const unsigned budget = GrantBudget(1);
    std::vector<const Trajectory*> members(group);
    for (size_t j = 0; j < group; ++j) {
      members[j] = &query_at(decision.ids[j]);
    }
    KnnOptions per_call;
    per_call.intra_query_workers = budget;
    per_call.pool = pool_;
    per_call.feature_cache = cache_;
    per_call.plan_cache = plan_cache_;
    std::vector<KnnResult> results =
        searcher_.search_fused(members, k_, per_call);
    for (size_t j = 0; j < group; ++j) {
      PublishFlight(searcher_.name, results[j], budget, group,
                    decision.shared_fraction);
      emit(decision.ids[j], std::move(results[j]));
    }
    // One grant covers the whole group: the members share a single call's
    // budget rather than receiving one each.
    stats_.queries += group;
    stats_.budget_granted += budget;
    stats_.max_budget = std::max(stats_.max_budget, budget);
    ++stats_.fused_groups;
    stats_.fused_queries += group;
    stats_.shared_fraction_sum += decision.shared_fraction;
    switch (decision.kind) {
      case GroupDecision::Kind::kSimilarity: ++stats_.group_similarity; break;
      case GroupDecision::Kind::kFifo: ++stats_.group_fifo; break;
      case GroupDecision::Kind::kForced: ++stats_.group_forced; break;
    }
    LibraryMetrics::Get().sched_group_shared_bin_fraction.Set(
        decision.shared_fraction);
    return group;
  }

  const size_t backlog = pending->size();
  const unsigned budget = GrantBudget(backlog);

  // Deep backlog and no test override: ride a wave. Everything except the
  // backlog that should widen later is fanned out one-query-per-worker;
  // the wave completing shrinks pending to the widen threshold, so the
  // stragglers get the whole pool each. Waves take from the deque front,
  // preserving arrival order.
  if (budget <= 1 && backlog > 1 && !policy_.budget_override) {
    const size_t tail = std::min(WidenPending(), backlog - 1);
    const size_t wave = backlog - tail;
    std::vector<size_t> ids(pending->begin(),
                            pending->begin() + static_cast<std::ptrdiff_t>(
                                                   wave));
    pending->erase(pending->begin(),
                   pending->begin() + static_cast<std::ptrdiff_t>(wave));
    for (const size_t id : ids) {
      fingerprints_.erase(id);
      skip_counts_.erase(id);
    }
    ResolvePool(pool_).ParallelFor(
        wave,
        [&](size_t j) {
          KnnResult result = Call(query_at(ids[j]), /*budget=*/1);
          PublishFlight(searcher_.name, result, /*sched_budget=*/1,
                        /*fusion_group=*/1, /*group_shared_fraction=*/0.0);
          emit(ids[j], std::move(result));
        },
        Capacity());
    ++stats_.waves;
    stats_.wave_queries += wave;
    for (size_t j = 0; j < wave; ++j) RecordGrant(1);
    return wave;
  }

  // Solo query on the calling thread; a budget > 1 fans out *inside* the
  // query (the pool is free — waves and solo calls never overlap). Always
  // the backlog front, so budget-override schedules see strict arrival
  // order.
  {
    const size_t id = pending->front();
    pending->pop_front();
    fingerprints_.erase(id);
    skip_counts_.erase(id);
    KnnResult result = Call(query_at(id), budget);
    PublishFlight(searcher_.name, result, budget, /*fusion_group=*/1,
                  /*group_shared_fraction=*/0.0);
    emit(id, std::move(result));
  }
  RecordGrant(budget);
  return 1;
}

std::vector<KnnResult> RunScheduled(const NamedSearcher& searcher,
                                    const std::vector<Trajectory>& queries,
                                    size_t k, const SchedulerPolicy& policy,
                                    ThreadPool* pool, FeatureCache* cache,
                                    SchedulerStats* stats_out,
                                    FusedPlanCache* plan_cache) {
  const auto start = std::chrono::steady_clock::now();
  std::vector<KnnResult> results(queries.size());
  AdaptiveScheduler scheduler(searcher, k, policy, pool, cache, plan_cache);
  std::deque<size_t> pending;
  for (size_t i = 0; i < queries.size(); ++i) pending.push_back(i);
  while (!pending.empty()) {
    scheduler.Step(
        &pending,
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
                 options_.feature_cache, options_.plan_cache),
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
  done_.push_back(0);
  pending_ids_.push_back(ticket);
  pending_relaxed_.store(pending(), std::memory_order_relaxed);
  // A sustained stream must not buffer unboundedly behind a caller that
  // never asks for results: past the watermark, execute eagerly. The
  // scheduler sees the full backlog, so eager admission runs in wave mode.
  if (pending() >= admit_watermark_) StepOnce();
  return ticket;
}

const KnnResult& QuerySession::Result(Ticket ticket) {
  while (!done_[ticket]) StepOnce();
  return results_[ticket];
}

void QuerySession::Drain() {
  while (!pending_ids_.empty()) StepOnce();
}

void QuerySession::StepOnce() {
  completed_count_ += scheduler_.Step(
      &pending_ids_,
      [this](size_t i) -> const Trajectory& { return queries_[i]; },
      [this](size_t i, KnnResult&& r) {
        results_[i] = std::move(r);
        done_[i] = 1;
      });
  pending_relaxed_.store(pending(), std::memory_order_relaxed);
}

}  // namespace edr
