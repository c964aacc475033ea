//===- tests/CoreTest.cpp - core methodology unit tests -------------------===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "core/Measurement.h"
#include "core/PatternDiagram.h"
#include "core/Pipeline.h"
#include "core/Profile.h"
#include "core/Ranking.h"
#include "core/RegionClustering.h"
#include "core/Report.h"
#include "core/TraceReduction.h"
#include "core/Views.h"
#include "stats/Dispersion.h"
#include "TestHelpers.h"
#include <cmath>
#include <gtest/gtest.h>

using namespace lima;
using namespace lima::core;

namespace {

/// A small hand-checkable cube: 2 regions x 2 activities x 2 procs.
///
///   r0/comp: {3, 1}  r0/comm: {1, 1}
///   r1/comp: {2, 2}  r1/comm: {0, 4}
MeasurementCube makeSmallCube() {
  MeasurementCube Cube({"r0", "r1"}, {"comp", "comm"}, 2);
  Cube.at(0, 0, 0) = 3.0;
  Cube.at(0, 0, 1) = 1.0;
  Cube.at(0, 1, 0) = 1.0;
  Cube.at(0, 1, 1) = 1.0;
  Cube.at(1, 0, 0) = 2.0;
  Cube.at(1, 0, 1) = 2.0;
  Cube.at(1, 1, 0) = 0.0;
  Cube.at(1, 1, 1) = 4.0;
  return Cube;
}

} // namespace

//===----------------------------------------------------------------------===//
// MeasurementCube
//===----------------------------------------------------------------------===//

TEST(MeasurementCubeTest, MeanBasedAggregates) {
  MeasurementCube Cube = makeSmallCube();
  // t_ij is the mean over processors.
  EXPECT_DOUBLE_EQ(Cube.regionActivityTime(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(Cube.regionActivityTime(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(Cube.regionActivityTime(1, 1), 2.0);
  EXPECT_DOUBLE_EQ(Cube.regionTime(0), 3.0);
  EXPECT_DOUBLE_EQ(Cube.regionTime(1), 4.0);
  EXPECT_DOUBLE_EQ(Cube.activityTime(0), 4.0);
  EXPECT_DOUBLE_EQ(Cube.activityTime(1), 3.0);
  EXPECT_DOUBLE_EQ(Cube.instrumentedTotal(), 7.0);
  EXPECT_DOUBLE_EQ(Cube.cellSum(), 14.0);
}

TEST(MeasurementCubeTest, ProgramTimeOverride) {
  MeasurementCube Cube = makeSmallCube();
  EXPECT_FALSE(Cube.hasExplicitProgramTime());
  EXPECT_DOUBLE_EQ(Cube.programTime(), 7.0);
  Cube.setProgramTime(10.0);
  EXPECT_DOUBLE_EQ(Cube.programTime(), 10.0);
  Error E = Cube.validate();
  EXPECT_FALSE(static_cast<bool>(E));
}

TEST(MeasurementCubeTest, ValidateRejectsTooSmallProgramTime) {
  MeasurementCube Cube = makeSmallCube();
  Cube.setProgramTime(1.0); // Smaller than the 7.0 instrumented total.
  EXPECT_TRUE(testutil::failed(Cube.validate()));
}

TEST(MeasurementCubeTest, SlicesAndProfiles) {
  MeasurementCube Cube = makeSmallCube();
  EXPECT_EQ(Cube.processorSlice(1, 1), (std::vector<double>{0.0, 4.0}));
  EXPECT_EQ(Cube.activityProfile(0), (std::vector<double>{2.0, 1.0}));
  EXPECT_EQ(Cube.activitySliceForProc(0, 0), (std::vector<double>{3.0, 1.0}));
  EXPECT_DOUBLE_EQ(Cube.procRegionTime(0, 0), 4.0);
  EXPECT_DOUBLE_EQ(Cube.procRegionTime(1, 1), 6.0);
}

TEST(MeasurementCubeTest, AccumulateAdds) {
  MeasurementCube Cube({"r"}, {"a"}, 2);
  Cube.accumulate(0, 0, 0, 1.5);
  Cube.accumulate(0, 0, 0, 0.5);
  EXPECT_DOUBLE_EQ(Cube.time(0, 0, 0), 2.0);
}

//===----------------------------------------------------------------------===//
// Coarse profile
//===----------------------------------------------------------------------===//

TEST(CoarseProfileTest, DominanceAndExtremes) {
  MeasurementCube Cube = makeSmallCube();
  CoarseProfile Profile = computeCoarseProfile(Cube);
  EXPECT_DOUBLE_EQ(Profile.ProgramTime, 7.0);
  EXPECT_EQ(Profile.DominantActivity, 0u);   // comp: 4 > comm: 3.
  EXPECT_EQ(Profile.HeaviestRegion, 1u);     // 4 > 3.
  EXPECT_EQ(Profile.RegionDominatingDominantActivity, 0u); // comp: r0 2>2? No:
  // r0 comp = 2.0, r1 comp = 2.0 — tie resolves to the first region.
  ASSERT_EQ(Profile.Regions.size(), 2u);
  EXPECT_DOUBLE_EQ(Profile.Regions[0].FractionOfProgram, 3.0 / 7.0);
  // comm extremes: worst r1 (2.0), best r0 (1.0), performed in 2 regions.
  const ActivityExtremes &Comm = Profile.Extremes[1];
  EXPECT_EQ(Comm.WorstRegion, 1u);
  EXPECT_DOUBLE_EQ(Comm.WorstTime, 2.0);
  EXPECT_EQ(Comm.BestRegion, 0u);
  EXPECT_DOUBLE_EQ(Comm.BestTime, 1.0);
  EXPECT_EQ(Comm.RegionsPerforming, 2u);
}

TEST(CoarseProfileTest, UnperformedActivity) {
  MeasurementCube Cube({"r"}, {"a", "never"}, 2);
  Cube.at(0, 0, 0) = 1.0;
  Cube.at(0, 0, 1) = 1.0;
  CoarseProfile Profile = computeCoarseProfile(Cube);
  EXPECT_EQ(Profile.Extremes[1].RegionsPerforming, 0u);
  EXPECT_EQ(Profile.Extremes[1].BestRegion, SIZE_MAX);
}

//===----------------------------------------------------------------------===//
// Views
//===----------------------------------------------------------------------===//

TEST(ViewsTest, DissimilarityMatrixHandComputed) {
  MeasurementCube Cube = makeSmallCube();
  auto Matrix = computeDissimilarityMatrix(Cube);
  // r0/comp shares {0.75, 0.25}: sqrt(2 * 0.25^2) = 0.25 * sqrt(2).
  EXPECT_NEAR(Matrix[0][0], 0.25 * std::sqrt(2.0), 1e-12);
  // r0/comm balanced -> 0.
  EXPECT_DOUBLE_EQ(Matrix[0][1], 0.0);
  // r1/comm one-hot -> sqrt(1 - 1/2).
  EXPECT_NEAR(Matrix[1][1], std::sqrt(0.5), 1e-12);
}

TEST(ViewsTest, ActivityViewWeighting) {
  MeasurementCube Cube = makeSmallCube();
  ActivityView View = computeActivityView(Cube);
  // ID_A[comp] = (t00 * ID00 + t10 * ID10) / T_comp
  //            = (2 * 0.25 sqrt 2 + 2 * 0) / 4.
  EXPECT_NEAR(View.Index[0], 0.25 * std::sqrt(2.0) / 2.0, 1e-12);
  // ID_A[comm] = (1 * 0 + 2 * sqrt(.5)) / 3.
  EXPECT_NEAR(View.Index[1], 2.0 * std::sqrt(0.5) / 3.0, 1e-12);
  // SID_A scales by T_j / T.
  EXPECT_NEAR(View.ScaledIndex[0], 4.0 / 7.0 * View.Index[0], 1e-12);
  EXPECT_NEAR(View.ScaledIndex[1], 3.0 / 7.0 * View.Index[1], 1e-12);
  EXPECT_EQ(View.MostImbalanced, 1u);
  EXPECT_EQ(View.MostImbalancedScaled, 1u);
}

TEST(ViewsTest, RegionViewWeighting) {
  MeasurementCube Cube = makeSmallCube();
  RegionView View = computeRegionView(Cube);
  // ID_C[r0] = (2 * 0.25 sqrt 2 + 1 * 0) / 3.
  EXPECT_NEAR(View.Index[0], 0.5 * std::sqrt(2.0) / 3.0, 1e-12);
  // ID_C[r1] = (2 * 0 + 2 * sqrt(.5)) / 4.
  EXPECT_NEAR(View.Index[1], std::sqrt(0.5) / 2.0, 1e-12);
  EXPECT_NEAR(View.ScaledIndex[0], 3.0 / 7.0 * View.Index[0], 1e-12);
  EXPECT_NEAR(View.ScaledIndex[1], 4.0 / 7.0 * View.Index[1], 1e-12);
  EXPECT_EQ(View.MostImbalanced, 1u);
}

TEST(ViewsTest, ProgramTimeOverrideShrinksScaledIndices) {
  MeasurementCube Cube = makeSmallCube();
  ActivityView Before = computeActivityView(Cube);
  Cube.setProgramTime(14.0); // Double the instrumented total.
  ActivityView After = computeActivityView(Cube);
  EXPECT_NEAR(After.ScaledIndex[0], Before.ScaledIndex[0] / 2.0, 1e-12);
  EXPECT_NEAR(After.Index[0], Before.Index[0], 1e-12); // ID unchanged.
}

TEST(ViewsTest, ProcessorViewIdentifiesDeviantMix) {
  // Three procs; proc 2's mix within r0 deviates (all comm, no comp).
  MeasurementCube Cube({"r0"}, {"comp", "comm"}, 3);
  Cube.at(0, 0, 0) = 4.0;
  Cube.at(0, 1, 0) = 1.0;
  Cube.at(0, 0, 1) = 4.0;
  Cube.at(0, 1, 1) = 1.0;
  Cube.at(0, 0, 2) = 0.0;
  Cube.at(0, 1, 2) = 5.0;
  ProcessorView View = computeProcessorView(Cube);
  EXPECT_EQ(View.MostImbalancedProc[0], 2u);
  EXPECT_GT(View.Index[0][2], View.Index[0][0]);
  // Procs 0 and 1 have identical mixes, so identical indices.
  EXPECT_NEAR(View.Index[0][0], View.Index[0][1], 1e-12);
  EXPECT_EQ(View.MostFrequentlyImbalanced, 2u);
  EXPECT_EQ(View.LongestImbalanced, 2u);
  EXPECT_DOUBLE_EQ(View.ImbalancedWallClock[2], 5.0);
}

TEST(ViewsTest, ProcessorViewBalancedMixesScoreZero) {
  // Mixes identical across procs even though absolute times differ:
  // the processor view sees per-processor *shares*, so indices are 0.
  MeasurementCube Cube({"r0"}, {"comp", "comm"}, 2);
  Cube.at(0, 0, 0) = 4.0;
  Cube.at(0, 1, 0) = 2.0;
  Cube.at(0, 0, 1) = 8.0;
  Cube.at(0, 1, 1) = 4.0;
  ProcessorView View = computeProcessorView(Cube);
  EXPECT_NEAR(View.Index[0][0], 0.0, 1e-12);
  EXPECT_NEAR(View.Index[0][1], 0.0, 1e-12);
}

TEST(ViewsTest, IdleProcessorExcludedFromMeanMix) {
  MeasurementCube Cube({"r0"}, {"comp", "comm"}, 3);
  Cube.at(0, 0, 0) = 2.0;
  Cube.at(0, 1, 0) = 2.0;
  Cube.at(0, 0, 1) = 2.0;
  Cube.at(0, 1, 1) = 2.0;
  // Proc 2 idle in this region.
  ProcessorView View = computeProcessorView(Cube);
  EXPECT_DOUBLE_EQ(View.Index[0][2], 0.0);
  EXPECT_NEAR(View.Index[0][0], 0.0, 1e-12);
}

TEST(ViewsTest, AllZeroCubeViewsAreZero) {
  // Nothing to be imbalanced about (e.g. lima_analyze --counting on a
  // trace without messages): every index is 0 rather than a failure.
  MeasurementCube Cube({"r0", "r1"}, {"comp", "comm"}, 3);
  ActivityView Activities = computeActivityView(Cube);
  RegionView Regions = computeRegionView(Cube);
  for (double Index : Activities.Index)
    EXPECT_EQ(Index, 0.0);
  for (double Index : Activities.ScaledIndex)
    EXPECT_EQ(Index, 0.0);
  for (double Index : Regions.Index)
    EXPECT_EQ(Index, 0.0);
  for (double Index : Regions.ScaledIndex)
    EXPECT_EQ(Index, 0.0);
}

TEST(ViewsTest, AlternativeDispersionKindChangesMatrixNotStructure) {
  MeasurementCube Cube = makeSmallCube();
  ViewOptions Options;
  Options.Kind = stats::DispersionKind::MeanAbsoluteDeviation;
  auto Matrix = computeDissimilarityMatrix(Cube, Options);
  // r0/comp shares {0.75, 0.25}: MAD = 0.25.
  EXPECT_NEAR(Matrix[0][0], 0.25, 1e-12);
  EXPECT_DOUBLE_EQ(Matrix[0][1], 0.0);
}

//===----------------------------------------------------------------------===//
// Ranking
//===----------------------------------------------------------------------===//

TEST(RankingTest, MaximumSelectsOnlyTheTop) {
  std::vector<double> Values = {0.1, 0.5, 0.3, 0.5};
  auto Ranked = rankIndices(Values, {RankCriterion::Maximum, 85.0, 0.1});
  ASSERT_EQ(Ranked.size(), 2u); // Both maxima selected.
  EXPECT_EQ(Ranked[0].Item, 1u);
  EXPECT_EQ(Ranked[1].Item, 3u);
}

TEST(RankingTest, ThresholdSelectsAllAbove) {
  std::vector<double> Values = {0.05, 0.2, 0.15, 0.01};
  RankingOptions Options;
  Options.Criterion = RankCriterion::Threshold;
  Options.Threshold = 0.1;
  auto Ranked = rankIndices(Values, Options);
  ASSERT_EQ(Ranked.size(), 2u);
  EXPECT_EQ(Ranked[0].Item, 1u); // Sorted by decreasing value.
  EXPECT_EQ(Ranked[1].Item, 2u);
}

TEST(RankingTest, PercentileCutoff) {
  std::vector<double> Values = {1.0, 2.0, 3.0, 4.0, 5.0};
  RankingOptions Options;
  Options.Criterion = RankCriterion::Percentile;
  Options.Percentile = 50.0;
  auto Ranked = rankIndices(Values, Options);
  ASSERT_EQ(Ranked.size(), 3u); // 3, 4, 5 are at or above the median.
  EXPECT_EQ(Ranked[0].Item, 4u);
}

TEST(RankingTest, CriterionNames) {
  EXPECT_EQ(rankCriterionName(RankCriterion::Maximum), "maximum");
  EXPECT_EQ(rankCriterionName(RankCriterion::Percentile), "percentile");
  EXPECT_EQ(rankCriterionName(RankCriterion::Threshold), "threshold");
}

//===----------------------------------------------------------------------===//
// Pattern diagrams
//===----------------------------------------------------------------------===//

TEST(PatternDiagramTest, ClassifiesBands) {
  MeasurementCube Cube({"r"}, {"a"}, 5);
  // Times 10, 9.5, 5, 1.5, 1: range 9, upper cut 8.65, lower cut 2.35.
  double Times[5] = {10.0, 9.5, 5.0, 1.5, 1.0};
  for (unsigned P = 0; P != 5; ++P)
    Cube.at(0, 0, P) = Times[P];
  PatternDiagram Diagram = computePatternDiagram(Cube, 0);
  ASSERT_EQ(Diagram.Regions.size(), 1u);
  EXPECT_EQ(Diagram.Cells[0][0], PatternCategory::Maximum);
  EXPECT_EQ(Diagram.Cells[0][1], PatternCategory::UpperBand);
  EXPECT_EQ(Diagram.Cells[0][2], PatternCategory::Middle);
  EXPECT_EQ(Diagram.Cells[0][3], PatternCategory::LowerBand);
  EXPECT_EQ(Diagram.Cells[0][4], PatternCategory::Minimum);
}

TEST(PatternDiagramTest, SkipsInactiveRegions) {
  MeasurementCube Cube({"r0", "r1"}, {"a"}, 2);
  Cube.at(1, 0, 0) = 1.0;
  Cube.at(1, 0, 1) = 2.0;
  PatternDiagram Diagram = computePatternDiagram(Cube, 0);
  ASSERT_EQ(Diagram.Regions.size(), 1u);
  EXPECT_EQ(Diagram.Regions[0], 1u);
}

TEST(PatternDiagramTest, AllEqualRowIsAllMiddle) {
  MeasurementCube Cube({"r"}, {"a"}, 4);
  for (unsigned P = 0; P != 4; ++P)
    Cube.at(0, 0, P) = 2.5;
  PatternDiagram Diagram = computePatternDiagram(Cube, 0);
  EXPECT_EQ(Diagram.countInRow(0, PatternCategory::Middle), 4u);
}

TEST(PatternDiagramTest, AsciiRenderingContainsRowsAndLegend) {
  MeasurementCube Cube = makeSmallCube();
  PatternDiagram Diagram = computePatternDiagram(Cube, 0);
  std::string Art = renderPatternASCII(Diagram, Cube);
  EXPECT_NE(Art.find("comp"), std::string::npos);
  EXPECT_NE(Art.find("r0"), std::string::npos);
  EXPECT_NE(Art.find("legend"), std::string::npos);
  EXPECT_NE(Art.find("[Mm]"), std::string::npos); // {3,1}: max then min.
}

TEST(PatternDiagramTest, PpmRenderingWellFormed) {
  MeasurementCube Cube = makeSmallCube();
  PatternDiagram Diagram = computePatternDiagram(Cube, 0, 0.15);
  std::string Ppm = renderPatternPPM(Diagram, 2);
  EXPECT_EQ(Ppm.rfind("P3\n", 0), 0u);
  EXPECT_NE(Ppm.find("4 4"), std::string::npos); // 2 rows x 2 procs x 2px.
}

//===----------------------------------------------------------------------===//
// Trace reduction
//===----------------------------------------------------------------------===//

namespace {

trace::Trace makeReductionTrace() {
  trace::Trace T(2);
  uint32_t R0 = T.addRegion("r0");
  uint32_t Comp = T.addActivity("comp");
  uint32_t Comm = T.addActivity("comm");
  // Proc 0: region [0, 10], comp [0, 4], gap (4, 6), comm [6, 10].
  T.append({0.0, 0, trace::EventKind::RegionEnter, R0, 0});
  T.append({0.0, 0, trace::EventKind::ActivityBegin, Comp, 0});
  T.append({4.0, 0, trace::EventKind::ActivityEnd, Comp, 0});
  T.append({6.0, 0, trace::EventKind::ActivityBegin, Comm, 0});
  T.append({10.0, 0, trace::EventKind::ActivityEnd, Comm, 0});
  T.append({10.0, 0, trace::EventKind::RegionExit, R0, 0});
  // Proc 1: region [0, 8], comp only [0, 8].
  T.append({0.0, 1, trace::EventKind::RegionEnter, R0, 0});
  T.append({0.0, 1, trace::EventKind::ActivityBegin, Comp, 0});
  T.append({8.0, 1, trace::EventKind::ActivityEnd, Comp, 0});
  T.append({8.0, 1, trace::EventKind::RegionExit, R0, 0});
  return T;
}

} // namespace

TEST(TraceReductionTest, AttributesActivityIntervals) {
  auto Cube = cantFail(reduceTrace(makeReductionTrace()));
  EXPECT_DOUBLE_EQ(Cube.time(0, 0, 0), 4.0);
  EXPECT_DOUBLE_EQ(Cube.time(0, 1, 0), 4.0);
  EXPECT_DOUBLE_EQ(Cube.time(0, 0, 1), 8.0);
  EXPECT_DOUBLE_EQ(Cube.time(0, 1, 1), 0.0);
  // Program time = trace span.
  EXPECT_DOUBLE_EQ(Cube.programTime(), 10.0);
}

TEST(TraceReductionTest, GapAttributionOptIn) {
  ReductionOptions Options;
  Options.AttributeGaps = true;
  Options.GapActivity = 0;
  auto Cube = cantFail(reduceTrace(makeReductionTrace(), Options));
  // Proc 0's gap (4, 6) lands in activity 0.
  EXPECT_DOUBLE_EQ(Cube.time(0, 0, 0), 6.0);
}

TEST(TraceReductionTest, NestedRegionsGetExclusiveTime) {
  // routine [0, 10] contains loop [2, 6]; activity runs [0,10] split
  // into three intervals so it never straddles a region boundary.
  trace::Trace T(1);
  uint32_t Routine = T.addRegion("routine");
  uint32_t Loop = T.addRegion("loop");
  uint32_t A = T.addActivity("comp");
  T.append({0.0, 0, trace::EventKind::RegionEnter, Routine, 0});
  T.append({0.0, 0, trace::EventKind::ActivityBegin, A, 0});
  T.append({2.0, 0, trace::EventKind::ActivityEnd, A, 0});
  T.append({2.0, 0, trace::EventKind::RegionEnter, Loop, 0});
  T.append({2.0, 0, trace::EventKind::ActivityBegin, A, 0});
  T.append({6.0, 0, trace::EventKind::ActivityEnd, A, 0});
  T.append({6.0, 0, trace::EventKind::RegionExit, Loop, 0});
  T.append({6.0, 0, trace::EventKind::ActivityBegin, A, 0});
  T.append({10.0, 0, trace::EventKind::ActivityEnd, A, 0});
  T.append({10.0, 0, trace::EventKind::RegionExit, Routine, 0});

  auto Cube = cantFail(reduceTrace(T));
  // Exclusive semantics: the loop gets its 4s; the routine keeps only
  // the 6s outside the loop.
  EXPECT_DOUBLE_EQ(Cube.time(0, 0, 0), 6.0);
  EXPECT_DOUBLE_EQ(Cube.time(1, 0, 0), 4.0);
}

TEST(TraceReductionTest, NestedGapAttribution) {
  // routine [0, 10]; loop [2, 6] fully covered by an activity; the
  // routine's own time is uncovered -> gaps of 2s before and 4s after.
  trace::Trace T(1);
  uint32_t Routine = T.addRegion("routine");
  uint32_t Loop = T.addRegion("loop");
  uint32_t A = T.addActivity("comp");
  T.append({0.0, 0, trace::EventKind::RegionEnter, Routine, 0});
  T.append({2.0, 0, trace::EventKind::RegionEnter, Loop, 0});
  T.append({2.0, 0, trace::EventKind::ActivityBegin, A, 0});
  T.append({6.0, 0, trace::EventKind::ActivityEnd, A, 0});
  T.append({6.0, 0, trace::EventKind::RegionExit, Loop, 0});
  T.append({10.0, 0, trace::EventKind::RegionExit, Routine, 0});

  ReductionOptions Options;
  Options.AttributeGaps = true;
  Options.GapActivity = 0;
  auto Cube = cantFail(reduceTrace(T, Options));
  EXPECT_DOUBLE_EQ(Cube.time(1, 0, 0), 4.0); // Loop's activity.
  EXPECT_DOUBLE_EQ(Cube.time(0, 0, 0), 6.0); // Routine gaps (2 + 4).
}

TEST(TraceReductionTest, RejectsInvalidTrace) {
  trace::Trace T(1);
  uint32_t R = T.addRegion("r");
  T.addActivity("a");
  T.append({0.0, 0, trace::EventKind::RegionEnter, R, 0});
  auto Result = reduceTrace(T); // Region never exits.
  EXPECT_FALSE(static_cast<bool>(Result));
  Result.takeError().consume();
}

//===----------------------------------------------------------------------===//
// Region clustering and pipeline
//===----------------------------------------------------------------------===//

TEST(RegionClusteringTest, GroupsSimilarRegions) {
  MeasurementCube Cube({"big1", "big2", "small1", "small2"}, {"a", "b"}, 2);
  auto Fill = [&](size_t I, double A, double B) {
    Cube.at(I, 0, 0) = A;
    Cube.at(I, 0, 1) = A;
    Cube.at(I, 1, 0) = B;
    Cube.at(I, 1, 1) = B;
  };
  Fill(0, 10.0, 5.0);
  Fill(1, 11.0, 5.5);
  Fill(2, 0.5, 0.2);
  Fill(3, 0.4, 0.3);
  auto Clusters = cantFail(clusterRegions(Cube));
  EXPECT_EQ(Clusters.Assignments[0], Clusters.Assignments[1]);
  EXPECT_EQ(Clusters.Assignments[2], Clusters.Assignments[3]);
  EXPECT_NE(Clusters.Assignments[0], Clusters.Assignments[2]);
  EXPECT_GT(Clusters.Silhouette, 0.8);
}

TEST(PipelineTest, AnalyzeProducesCoherentResult) {
  MeasurementCube Cube = makeSmallCube();
  auto Result = cantFail(analyze(Cube));
  EXPECT_EQ(Result.Profile.HeaviestRegion, 1u);
  EXPECT_EQ(Result.Activities.MostImbalanced, 1u);
  EXPECT_EQ(Result.Regions.MostImbalanced, 1u);
  EXPECT_EQ(Result.Patterns.size(), 2u);
  EXPECT_TRUE(Result.HasClusters);
  ASSERT_FALSE(Result.RegionCandidates.empty());
  EXPECT_EQ(Result.RegionCandidates[0].Item,
            Result.Regions.MostImbalancedScaled);
}

TEST(PipelineTest, RejectsEmptyCube) {
  MeasurementCube Cube({"r"}, {"a"}, 2);
  auto Result = analyze(Cube);
  EXPECT_FALSE(static_cast<bool>(Result));
  Result.takeError().consume();
}

TEST(PipelineTest, ClusteringSkippedWhenDegenerate) {
  // Two identical regions: fewer distinct points than K=2.
  MeasurementCube Cube({"r0", "r1"}, {"a"}, 1);
  Cube.at(0, 0, 0) = 1.0;
  Cube.at(1, 0, 0) = 1.0;
  auto Result = cantFail(analyze(Cube));
  EXPECT_FALSE(Result.HasClusters);
}

//===----------------------------------------------------------------------===//
// Reports
//===----------------------------------------------------------------------===//

TEST(ReportTest, Table1ShowsDashesForUnperformed) {
  MeasurementCube Cube = makeSmallCube();
  CoarseProfile Profile = computeCoarseProfile(Cube);
  TextTable Table = makeRegionBreakdownTable(Cube, Profile);
  std::string Out = Table.toString();
  EXPECT_NE(Out.find("r1"), std::string::npos);
  EXPECT_NE(Out.find("-"), std::string::npos); // r1/comm proc 0 is... t_ij>0.
  EXPECT_NE(Out.find("overall"), std::string::npos);
}

TEST(ReportTest, SummaryNamesTheFindings) {
  MeasurementCube Cube = makeSmallCube();
  auto Result = cantFail(analyze(Cube));
  std::string Summary =
      summarizeFindings(Cube, Result.Profile, Result.Activities,
                        Result.Regions, Result.Processors);
  EXPECT_NE(Summary.find("r1"), std::string::npos);
  EXPECT_NE(Summary.find("comp"), std::string::npos);
}

TEST(ReportTest, ProcessorMatrixTableShowsEveryProcessor) {
  MeasurementCube Cube = makeSmallCube();
  ProcessorView View = computeProcessorView(Cube);
  std::string Out = makeProcessorMatrixTable(Cube, View).toString();
  EXPECT_NE(Out.find("p1"), std::string::npos);
  EXPECT_NE(Out.find("p2"), std::string::npos);
  EXPECT_NE(Out.find("ID_P matrix"), std::string::npos);
}

TEST(ReportTest, ClusterDescriptionListsRegions) {
  MeasurementCube Cube = makeSmallCube();
  auto Result = cantFail(analyze(Cube));
  ASSERT_TRUE(Result.HasClusters);
  std::string Description = describeClusters(Cube, Result.Clusters);
  EXPECT_NE(Description.find("group 0:"), std::string::npos);
  EXPECT_NE(Description.find("silhouette"), std::string::npos);
}
