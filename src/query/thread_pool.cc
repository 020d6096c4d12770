#include "query/thread_pool.h"

#include <algorithm>
#include <chrono>

namespace edr {

ThreadPoolStats ThreadPoolStats::Since(const ThreadPoolStats& baseline) const {
  ThreadPoolStats delta;
  delta.jobs = jobs - baseline.jobs;
  delta.items = items - baseline.items;
  delta.steals = steals - baseline.steals;
  delta.busy_seconds = busy_seconds - baseline.busy_seconds;
  const size_t slots =
      std::min(worker_items.size(), baseline.worker_items.size());
  delta.worker_items.resize(worker_items.size(), 0);
  delta.worker_steals.resize(worker_items.size(), 0);
  delta.worker_busy_seconds.resize(worker_items.size(), 0.0);
  for (size_t s = 0; s < worker_items.size(); ++s) {
    delta.worker_items[s] = worker_items[s];
    delta.worker_steals[s] = worker_steals[s];
    delta.worker_busy_seconds[s] = worker_busy_seconds[s];
    if (s < slots) {
      delta.worker_items[s] -= baseline.worker_items[s];
      delta.worker_steals[s] -= baseline.worker_steals[s];
      delta.worker_busy_seconds[s] -= baseline.worker_busy_seconds[s];
    }
  }
  return delta;
}

namespace {

/// Set while a thread is executing pool work; a nested ParallelFor from
/// such a thread must not block on job_mu_ (the outer job holds it), so it
/// runs inline instead.
thread_local bool t_inside_pool_job = false;

}  // namespace

ThreadPool::ThreadPool(unsigned threads) {
  slices_ = std::make_unique<Slice[]>(static_cast<size_t>(threads) + 1);
  obs_ = std::make_unique<WorkerObs[]>(static_cast<size_t>(threads) + 1);
  workers_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) {
    // Worker i owns slice i + 1; slice 0 belongs to the caller.
    workers_.emplace_back([this, i] { WorkerLoop(i + 1); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn,
                             unsigned max_parallelism) {
  if (n == 0) return;
  const unsigned capacity = num_workers() + 1;
  unsigned p = max_parallelism == 0 ? capacity
                                    : std::min(max_parallelism, capacity);
  p = static_cast<unsigned>(std::min<size_t>(p, n));
  if (p <= 1 || t_inside_pool_job) {
    // Single-item batches, a single-thread cap, and nested jobs run
    // straight on the calling thread: no cursors, no wakeups, no waiting.
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  std::lock_guard<std::mutex> job_lock(job_mu_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Even split; the first (n % p) slices carry one extra item. Stealing
    // erases any residual imbalance at run time.
    const size_t base = n / p;
    const size_t extra = n % p;
    size_t begin = 0;
    for (unsigned s = 0; s < p; ++s) {
      const size_t len = base + (s < extra ? 1 : 0);
      slices_[s].next.store(begin, std::memory_order_relaxed);
      slices_[s].end = begin + len;
      begin += len;
    }
    participants_ = p;
    job_ = &fn;
    remaining_.store(n, std::memory_order_release);
    ++epoch_;
    if constexpr (kObsEnabled) {
      jobs_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  work_cv_.notify_all();

  t_inside_pool_job = true;
  Participate(0, fn, p);
  t_inside_pool_job = false;

  // Wait until every item ran AND every worker that joined this job has
  // left its slices; only then may the next job reuse the cursors.
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [this] {
    return remaining_.load(std::memory_order_acquire) == 0 && active_ == 0;
  });
  job_ = nullptr;
}

void ThreadPool::WorkerLoop(unsigned self) {
  uint64_t seen_epoch = 0;
  for (;;) {
    const std::function<void(size_t)>* job = nullptr;
    unsigned participants = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] { return shutdown_ || epoch_ != seen_epoch; });
      if (shutdown_) return;
      seen_epoch = epoch_;
      // Workers beyond the job's parallelism cap sit this epoch out — they
      // must not even steal, or a `threads = t` request could run on more
      // than t threads. A worker waking after the job already drained sees
      // job_ == nullptr and skips the same way.
      if (job_ == nullptr || self >= participants_) continue;
      job = job_;
      participants = participants_;
      ++active_;  // committed: the caller now waits for us to finish
    }
    t_inside_pool_job = true;
    Participate(self, *job, participants);
    t_inside_pool_job = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      --active_;
    }
    done_cv_.notify_all();
  }
}

void ThreadPool::Participate(unsigned self,
                             const std::function<void(size_t)>& fn,
                             unsigned participants) {
  busy_slots_.fetch_add(1, std::memory_order_relaxed);
  std::chrono::steady_clock::time_point t0;
  if constexpr (kObsEnabled) t0 = std::chrono::steady_clock::now();
  size_t done = 0;
  size_t stolen = 0;
  // Own slice first (contiguous, cache-friendly), then sweep the others.
  // A cursor may overshoot its end by one per thief; the bound check
  // discards those, so every index still runs exactly once.
  for (unsigned v = 0; v < participants; ++v) {
    Slice& slice = slices_[(self + v) % participants];
    for (size_t i = slice.next.fetch_add(1, std::memory_order_relaxed);
         i < slice.end;
         i = slice.next.fetch_add(1, std::memory_order_relaxed)) {
      fn(i);
      ++done;
      if (v > 0) ++stolen;
    }
  }
  if (done > 0) remaining_.fetch_sub(done, std::memory_order_acq_rel);
  busy_slots_.fetch_sub(1, std::memory_order_relaxed);
  if constexpr (kObsEnabled) {
    // One write-back per Participate call, never per item.
    WorkerObs& o = obs_[self];
    o.items.fetch_add(done, std::memory_order_relaxed);
    o.steals.fetch_add(stolen, std::memory_order_relaxed);
    const auto busy = std::chrono::steady_clock::now() - t0;
    o.busy_ns.fetch_add(
        static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(busy)
                .count()),
        std::memory_order_relaxed);
  }
}

unsigned ThreadPool::DefaultWorkers() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 1 ? hw - 1 : 0;
}

ThreadPool& ThreadPool::Global() {
  // Intentionally leaked.
  static ThreadPool* pool = new ThreadPool(DefaultWorkers());
  return *pool;
}

ThreadPoolStats ThreadPool::Stats() const {
  ThreadPoolStats stats;
  const size_t slots = static_cast<size_t>(num_workers()) + 1;
  stats.worker_items.resize(slots, 0);
  stats.worker_steals.resize(slots, 0);
  stats.worker_busy_seconds.resize(slots, 0.0);
  if constexpr (kObsEnabled) {
    stats.jobs = jobs_.load(std::memory_order_relaxed);
    for (size_t s = 0; s < slots; ++s) {
      const WorkerObs& o = obs_[s];
      stats.worker_items[s] = o.items.load(std::memory_order_relaxed);
      stats.worker_steals[s] = o.steals.load(std::memory_order_relaxed);
      stats.worker_busy_seconds[s] =
          static_cast<double>(o.busy_ns.load(std::memory_order_relaxed)) *
          1e-9;
      stats.items += stats.worker_items[s];
      stats.steals += stats.worker_steals[s];
      stats.busy_seconds += stats.worker_busy_seconds[s];
    }
  }
  return stats;
}

}  // namespace edr
