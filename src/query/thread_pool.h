#ifndef EDR_QUERY_THREAD_POOL_H_
#define EDR_QUERY_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/obs.h"

namespace edr {

/// A snapshot of pool activity — cumulative since construction, or a
/// per-batch delta via Since(). Slot 0 aggregates every calling thread
/// that joined a job; slots 1..num_workers are the pool workers. All
/// fields stay zero in EDR_DISABLE_OBS builds.
struct ThreadPoolStats {
  /// Jobs actually dispatched to the pool (inline fast-path runs — n <= 1,
  /// a single-thread cap, nested calls — are not counted).
  uint64_t jobs = 0;
  /// Items executed across all participants.
  uint64_t items = 0;
  /// Items a participant claimed out of another participant's slice.
  uint64_t steals = 0;
  /// Summed wall time every participant spent inside jobs.
  double busy_seconds = 0.0;
  std::vector<uint64_t> worker_items;
  std::vector<uint64_t> worker_steals;
  std::vector<double> worker_busy_seconds;

  /// Element-wise difference against an earlier snapshot of the same pool
  /// (per-batch attribution for KnnBatch and the bench harnesses).
  ThreadPoolStats Since(const ThreadPoolStats& baseline) const;
};

/// A persistent work-stealing thread pool for batch query execution.
///
/// Workers are spawned once and parked on a condition variable between
/// jobs, so repeated ParallelFor calls (QueryEngine::KnnBatch, intra-query
/// sharding, PairwiseEdrMatrix builds) pay no thread create/join cost per
/// call.
/// Because the workers are persistent, each worker's ThreadLocalEdrScratch
/// stays warm across calls: after the first batch, no distance computation
/// on the pool touches the allocator.
///
/// Scheduling: a ParallelFor over n items splits [0, n) into one
/// contiguous range per participant (the calling thread plus up to
/// `max_parallelism - 1` workers). Each participant drains its own range
/// through an atomic cursor and then steals from the other ranges, so a
/// skewed batch (one slow query) keeps every thread busy. Which thread
/// runs an item is nondeterministic; *what* runs — fn(i) exactly once for
/// every i — is not, so callers that write results by index get
/// deterministic output.
class ThreadPool {
 public:
  /// Spawns exactly `threads` workers. 0 is a pool with no workers, whose
  /// jobs run entirely on the calling thread; DefaultWorkers() is the
  /// hardware-sized count.
  explicit ThreadPool(unsigned threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of pool workers (excluding callers that join jobs).
  unsigned num_workers() const {
    return static_cast<unsigned>(workers_.size());
  }

  /// Runs fn(i) exactly once for every i in [0, n), on the calling thread
  /// plus at most `max_parallelism - 1` pool workers (0 = all workers).
  /// Blocks until every item has completed.
  ///
  /// n <= 1 (or max_parallelism == 1) runs entirely on the calling thread
  /// with no synchronization at all. Jobs are serialized: a second caller
  /// blocks until the current job finishes. A nested ParallelFor from
  /// inside fn runs inline on the calling worker (no deadlock).
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn,
                   unsigned max_parallelism = 0);

  /// Hardware concurrency - 1 (0 on a single core or when unknown), so a
  /// pool of this size plus the calling thread saturate the machine.
  static unsigned DefaultWorkers();

  /// The process-wide pool shared by the batch query entry points. Created
  /// on first use with DefaultWorkers() workers.
  static ThreadPool& Global();

  /// Cumulative activity totals since construction (all zeros when
  /// observability is compiled out). Relaxed reads; exact once the pool is
  /// quiescent, a live lower bound while a job runs.
  ThreadPoolStats Stats() const;

  /// Items of the current job not yet completed (0 between jobs) — the
  /// instantaneous backlog a would-be caller queues behind.
  size_t QueueDepth() const {
    return remaining_.load(std::memory_order_relaxed);
  }

  /// Participants (workers + joined callers) currently executing pool work.
  /// Unlike the WorkerObs stats this is maintained in every build — the
  /// batch scheduler reads it as a live occupancy signal, so it cannot be
  /// allowed to flatline under EDR_DISABLE_OBS.
  unsigned BusyWorkers() const {
    return busy_slots_.load(std::memory_order_relaxed);
  }

 private:
  /// One participant's contiguous slice of a job, padded to its own cache
  /// line so cursor bumps don't false-share.
  struct alignas(64) Slice {
    std::atomic<size_t> next{0};
    size_t end = 0;
  };

  /// Per-slot activity counters, cache-line padded like Slice. Written
  /// once per Participate call (not per item), so the instrumentation cost
  /// is a handful of relaxed adds per job.
  struct alignas(64) WorkerObs {
    std::atomic<uint64_t> items{0};
    std::atomic<uint64_t> steals{0};
    std::atomic<uint64_t> busy_ns{0};
  };

  void WorkerLoop(unsigned self);
  /// Drains slice `self`, then steals from every other active slice.
  void Participate(unsigned self, const std::function<void(size_t)>& fn,
                   unsigned participants);

  std::vector<std::thread> workers_;
  std::unique_ptr<Slice[]> slices_;  // one per worker + one for the caller
  std::unique_ptr<WorkerObs[]> obs_;  // same indexing as slices_
  std::atomic<uint64_t> jobs_{0};     // pool-dispatched jobs

  std::mutex mu_;
  std::condition_variable work_cv_;  // workers park here between jobs
  std::condition_variable done_cv_;  // the caller waits here
  uint64_t epoch_ = 0;               // bumped once per job
  unsigned participants_ = 0;        // slices active in the current job
  unsigned active_ = 0;              // workers currently inside the job
  const std::function<void(size_t)>* job_ = nullptr;
  std::atomic<size_t> remaining_{0};  // items not yet completed
  std::atomic<unsigned> busy_slots_{0};  // participants inside Participate
  bool shutdown_ = false;

  std::mutex job_mu_;  // serializes whole jobs
};

}  // namespace edr

#endif  // EDR_QUERY_THREAD_POOL_H_
