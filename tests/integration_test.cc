// End-to-end tests exercising the full pipeline the benchmarks use:
// generate -> corrupt -> normalize -> build engine -> query with every
// method -> certify against ground truth, plus a miniature version of the
// paper's efficacy experiments.

#include <gtest/gtest.h>

#include "data/generators.h"
#include "data/noise.h"
#include "distance/distance.h"
#include "eval/classification.h"
#include "eval/clustering_eval.h"
#include "eval/metrics.h"
#include "query/engine.h"

namespace edr {
namespace {

TEST(IntegrationTest, FullRetrievalPipelineAllMethodsLossless) {
  RandomWalkOptions options;
  options.count = 120;
  options.min_length = 20;
  options.max_length = 90;
  options.seed = 777;
  TrajectoryDataset db = GenRandomWalk(options);
  db.NormalizeAll();
  const double eps = db.SuggestedEpsilon();
  ASSERT_NEAR(eps, 0.25, 0.01);

  QueryEngine engine(db, eps);
  const std::vector<Trajectory> queries = SampleQueries(db, 4);
  const std::vector<KnnResult> gt = RunGroundTruth(engine, queries, 20);
  const double base = MeanSeconds(gt);

  std::vector<NamedSearcher> searchers;
  searchers.push_back(engine.MakeSeqScan(true));
  for (const QgramVariant v :
       {QgramVariant::kRtree2D, QgramVariant::kBtree1D,
        QgramVariant::kMerge2D, QgramVariant::kMerge1D}) {
    searchers.push_back(engine.MakeQgram(v, 1));
  }
  searchers.push_back(engine.MakeNearTriangle(40));
  for (const int delta : {1, 2}) {
    searchers.push_back(engine.MakeHistogram(HistogramTable::Kind::k2D,
                                             delta, HistogramScan::kSorted));
  }
  searchers.push_back(engine.MakeHistogram(HistogramTable::Kind::k1D, 1,
                                           HistogramScan::kSorted));
  for (const auto& order : AllPruneOrders()) {
    CombinedOptions combo;
    combo.order = order;
    searchers.push_back(engine.MakeCombined(combo));
  }

  for (const NamedSearcher& s : searchers) {
    const WorkloadResult r = RunWorkload(s, queries, 20, &gt, base);
    EXPECT_TRUE(r.lossless) << s.name;
  }
}

TEST(IntegrationTest, EfficacyPipelineEdrBeatsEuclideanUnderNoise) {
  // Miniature Table 2: corrupt a labeled dataset with noise + shifts and
  // compare leave-one-out error of EDR vs Euclidean.
  TrajectoryDataset base = GenAslLike(5, 4, 31);
  NoiseOptions noise;
  TimeShiftOptions shift;
  double edr_error_sum = 0.0;
  double eu_error_sum = 0.0;
  for (uint64_t seed = 0; seed < 3; ++seed) {
    TrajectoryDataset corrupted = CorruptDataset(base, noise, shift, seed);
    corrupted.NormalizeAll();
    DistanceOptions opts;
    opts.epsilon = corrupted.SuggestedEpsilon();
    edr_error_sum +=
        LeaveOneOutError(corrupted, MakeDistance(DistanceKind::kEdr, opts));
    eu_error_sum += LeaveOneOutError(
        corrupted, MakeDistance(DistanceKind::kEuclidean, opts));
  }
  EXPECT_LE(edr_error_sum, eu_error_sum);
}

TEST(IntegrationTest, EfficacyPipelineClusteringOnCleanData) {
  // Miniature Table 1: on clean class-structured data, EDR clusters class
  // pairs correctly for most pairs.
  TrajectoryDataset db = GenCameraMouseLike(3, 71);
  db.NormalizeAll();
  DistanceOptions opts;
  opts.epsilon = db.SuggestedEpsilon();
  const ClassPairClusteringResult r = EvaluateClusteringByClassPairs(
      db, MakeDistance(DistanceKind::kEdr, opts));
  EXPECT_EQ(r.total_pairs, 10u);
  EXPECT_GE(r.correct_pairs, 8u);
}

TEST(IntegrationTest, EnginesOnRealishDatasets) {
  // Smoke the full engine on each generator family at small scale.
  std::vector<TrajectoryDataset> datasets;
  datasets.push_back(GenAslLike(5, 6, 1));
  datasets.push_back(GenKungfuLike(25, 64, 2));
  datasets.push_back(GenSlipLike(25, 50, 3));
  datasets.push_back(GenNhlLike(30, 20, 60, 4));
  datasets.push_back(GenMixedLike(30, 20, 80, 5));
  for (TrajectoryDataset& db : datasets) {
    db.NormalizeAll();
    QueryEngine engine(db, 0.25);
    const std::vector<Trajectory> queries = SampleQueries(db, 2);
    const std::vector<KnnResult> gt = RunGroundTruth(engine, queries, 5);
    CombinedOptions combo;
    combo.histogram_kind = HistogramTable::Kind::k1D;
    const WorkloadResult r =
        RunWorkload(engine.MakeCombined(combo), queries, 5, &gt, 0.0);
    EXPECT_TRUE(r.lossless) << db.name();
  }
}

}  // namespace
}  // namespace edr
