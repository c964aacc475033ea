//===- core/Pipeline.h - End-to-end analysis facade -------------*- C++ -*-===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The top-down methodology as a single call: coarse-grain profile,
/// region clustering, the three dissimilarity views, pattern diagrams
/// and ranked tuning candidates.  This is the "what expert programmers
/// do when tuning their programs" pipeline the paper's conclusions ask
/// performance tools to automate.
///
//===----------------------------------------------------------------------===//

#ifndef LIMA_CORE_PIPELINE_H
#define LIMA_CORE_PIPELINE_H

#include "core/Measurement.h"
#include "core/PatternDiagram.h"
#include "core/Profile.h"
#include "core/Ranking.h"
#include "core/RegionClustering.h"
#include "core/Views.h"
#include "support/Error.h"

namespace lima {
namespace core {

/// Pipeline configuration.
struct AnalysisOptions {
  /// Dispersion-index family used by the views.
  ViewOptions Views;
  /// Region clustering (set Clusters to 0 to skip clustering).
  size_t Clusters = 2;
  RegionClusteringOptions Clustering;
  /// Ranking criterion for candidate selection.
  RankingOptions Ranking;
  /// Band fraction of the pattern diagrams.
  double PatternBand = 0.15;
  /// Worker threads (0 = all hardware threads, 1 = serial) for the
  /// k-means assignment step of region clustering; the analysis is
  /// bit-identical at any thread count.  The views, the coarse profile
  /// and the pattern diagrams always run serially.
  unsigned Threads = 0;
};

/// Everything the methodology derives from one measurement cube.
struct AnalysisResult {
  CoarseProfile Profile;
  ActivityView Activities;
  RegionView Regions;
  ProcessorView Processors;
  /// One diagram per activity actually performed somewhere.
  std::vector<PatternDiagram> Patterns;
  /// Region groups (empty when clustering was skipped or failed —
  /// e.g. fewer distinct regions than clusters).
  RegionClusters Clusters;
  bool HasClusters = false;
  /// Tuning candidates among regions ranked by SID_C.
  std::vector<RankedItem> RegionCandidates;
  /// Tuning candidates among activities ranked by SID_A.
  std::vector<RankedItem> ActivityCandidates;
};

/// Runs the full pipeline over \p Cube.  Fails when the cube is invalid
/// or carries no time at all.
Expected<AnalysisResult> analyze(const MeasurementCube &Cube,
                                 const AnalysisOptions &Options = {});

} // namespace core
} // namespace lima

#endif // LIMA_CORE_PIPELINE_H
