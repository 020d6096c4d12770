#include "query/knn.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "distance/edr.h"
#include "distance/edr_kernel.h"
#include "obs/flight_recorder.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "query/topk.h"

namespace edr {

void KnnResultList::Offer(uint32_t id, double distance) {
  if (neighbors_.size() >= k_ && distance >= KthDistance()) return;
  const Neighbor candidate{id, distance};
  const auto pos = std::upper_bound(
      neighbors_.begin(), neighbors_.end(), candidate,
      [](const Neighbor& a, const Neighbor& b) {
        return a.distance < b.distance;
      });
  neighbors_.insert(pos, candidate);
  if (neighbors_.size() > k_) neighbors_.pop_back();
}

void RecordQueryMetrics(const SearchStats& stats) {
  if constexpr (kObsEnabled) {
    const LibraryMetrics& metrics = LibraryMetrics::Get();
    metrics.query_count.Inc();
    metrics.query_dp_total.Inc(stats.edr_computed);
    metrics.query_dp_cells.Inc(stats.stages.dp_cells);
    metrics.query_candidates_total.Inc(stats.db_size);
    metrics.query_candidates_pruned.Inc(
        stats.db_size >= stats.edr_computed
            ? stats.db_size - stats.edr_computed
            : 0);
    metrics.query_seconds.Record(stats.elapsed_seconds);
  } else {
    (void)stats;
  }
}

void PublishFlight(const std::string& searcher, const KnnResult& result,
                   unsigned sched_budget, size_t fusion_group,
                   double group_shared_fraction) {
  if constexpr (kObsEnabled) {
    FlightRecorder& recorder = FlightRecorder::Global();
    if (!recorder.enabled()) return;
    FlightRecord record;
    record.searcher = searcher;
    record.latency_seconds = result.stats.elapsed_seconds;
    record.filter_seconds = result.stats.filter_seconds;
    record.refine_seconds = result.stats.refine_seconds;
    record.db_size = result.stats.db_size;
    record.edr_computed = result.stats.edr_computed;
    record.stages = result.stats.stages;
    record.sched_budget = sched_budget;
    record.fusion_group = fusion_group;
    record.group_shared_fraction = group_shared_fraction;
    record.trace = result.trace;
    recorder.Publish(std::move(record));
  } else {
    (void)searcher;
    (void)result;
    (void)sched_budget;
    (void)fusion_group;
    (void)group_shared_fraction;
  }
}

KnnResult SequentialScanKnn(const TrajectoryDataset& db,
                            const Trajectory& query, size_t k, double epsilon,
                            const SeqScanOptions& options) {
  const auto start = std::chrono::steady_clock::now();
  const EdrKernel kernel = DefaultEdrKernel();
  EdrScratch& scratch = ThreadLocalEdrScratch();
  std::shared_ptr<QueryTrace> trace = MakeQueryTrace();
  TraceSpan scan_span(trace.get(), "scan");
  KnnResultList result(k);
  size_t computed = 0;
  StageCounters stages;
  for (const Trajectory& s : db) {
    double dist = 0.0;
    bool abandoned = false;
    if (options.early_abandon) {
      const int bound = EdrBoundFromKthDistance(result.KthDistance());
      const int d =
          EdrDistanceBoundedWith(kernel, scratch, query, s, epsilon, bound);
      abandoned = d > bound;
      dist = static_cast<double>(d);
    } else {
      dist = static_cast<double>(
          EdrDistanceWith(kernel, scratch, query, s, epsilon));
    }
    ++computed;
    if constexpr (kObsEnabled) {
      ++stages.considered;
      ++stages.dp_invoked;
      if (abandoned) ++stages.dp_early_abandoned;
      stages.dp_cells +=
          static_cast<uint64_t>(query.size()) * s.size();
    }
    result.Offer(s.id(), dist);
  }
  scan_span.End();
  const auto stop = std::chrono::steady_clock::now();

  KnnResult out;
  out.neighbors = std::move(result).TakeNeighbors();
  out.stats.db_size = db.size();
  out.stats.edr_computed = computed;
  out.stats.elapsed_seconds =
      std::chrono::duration<double>(stop - start).count();
  // The baseline has no filter phase: all time is refinement.
  out.stats.refine_seconds = out.stats.elapsed_seconds;
  stages.FinalizeNotVisited(db.size());
  out.stats.stages = stages;
  out.trace = std::move(trace);
  RecordQueryMetrics(out.stats);
  return out;
}

KnnResult SequentialScanRange(const TrajectoryDataset& db,
                              const Trajectory& query, int radius,
                              double epsilon) {
  const auto start = std::chrono::steady_clock::now();
  const EdrKernel kernel = DefaultEdrKernel();
  EdrScratch& scratch = ThreadLocalEdrScratch();
  KnnResult out;
  StageCounters stages;
  for (const Trajectory& s : db) {
    const int dist = EdrDistanceWith(kernel, scratch, query, s, epsilon);
    if constexpr (kObsEnabled) {
      ++stages.considered;
      ++stages.dp_invoked;
      stages.dp_cells +=
          static_cast<uint64_t>(query.size()) * s.size();
    }
    if (dist <= radius) {
      out.neighbors.push_back({s.id(), static_cast<double>(dist)});
    }
  }
  SortNeighborsAscending(&out.neighbors);
  const auto stop = std::chrono::steady_clock::now();
  out.stats.db_size = db.size();
  out.stats.edr_computed = db.size();
  out.stats.elapsed_seconds =
      std::chrono::duration<double>(stop - start).count();
  out.stats.refine_seconds = out.stats.elapsed_seconds;
  stages.FinalizeNotVisited(db.size());
  out.stats.stages = stages;
  RecordQueryMetrics(out.stats);
  return out;
}

bool SameKnnDistances(const KnnResult& expected, const KnnResult& actual) {
  if (expected.neighbors.size() != actual.neighbors.size()) return false;
  for (size_t i = 0; i < expected.neighbors.size(); ++i) {
    if (expected.neighbors[i].distance != actual.neighbors[i].distance) {
      return false;
    }
  }
  return true;
}

}  // namespace edr
