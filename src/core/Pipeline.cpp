//===- core/Pipeline.cpp - End-to-end analysis facade ---------------------===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "core/Pipeline.h"
#include "support/Telemetry.h"

using namespace lima;
using namespace lima::core;

Expected<AnalysisResult> core::analyze(const MeasurementCube &Cube,
                                       const AnalysisOptions &Options) {
  if (auto Err = Cube.validate())
    return Err;
  if (Cube.instrumentedTotal() <= 0.0)
    return makeStringError("measurement cube carries no time");

  LIMA_STAGE("analyze");
  AnalysisResult Result;

  // Serial on purpose: on a paper-sized cube this whole step takes tens
  // of microseconds, less than dispatching it to a thread pool costs.
  {
    LIMA_SPAN("analyze.views");
    CubeViews Views = computeViews(Cube, Options.Views);
    Result.Activities = std::move(Views.Activities);
    Result.Regions = std::move(Views.Regions);
    Result.Processors = std::move(Views.Processors);
    Result.Profile = computeCoarseProfile(Cube);
    for (size_t J = 0; J != Cube.numActivities(); ++J)
      if (Cube.activityTime(J) > 0.0)
        Result.Patterns.push_back(
            computePatternDiagram(Cube, J, Options.PatternBand));
  }

  if (Options.Clusters >= 2 && Cube.numRegions() >= 2) {
    LIMA_SPAN("analyze.cluster");
    RegionClusteringOptions ClusterOpts = Options.Clustering;
    ClusterOpts.K = Options.Clusters;
    ClusterOpts.KMeans.Threads = Options.Threads;
    auto ClustersOrErr = clusterRegions(Cube, ClusterOpts);
    if (ClustersOrErr) {
      Result.Clusters = std::move(*ClustersOrErr);
      Result.HasClusters = true;
    } else {
      // Too few distinct regions for the requested K: clustering is an
      // optional refinement, so degrade gracefully.
      ClustersOrErr.takeError().consume();
    }
  }

  Result.RegionCandidates =
      rankIndices(Result.Regions.ScaledIndex, Options.Ranking);
  Result.ActivityCandidates =
      rankIndices(Result.Activities.ScaledIndex, Options.Ranking);
  return Result;
}
