//===- core/PhaseAnalysis.h - Per-instance (temporal) analysis --*- C++ -*-===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Temporal refinement of the methodology: instead of aggregating a
/// whole run into one cube, each dynamic *instance* of a code region
/// (e.g. each iteration of a main loop) gets its own dissimilarity
/// index.  This localizes imbalance in time — a region can look mildly
/// imbalanced on aggregate while actually drifting from balanced to
/// severely skewed as the computation evolves (adaptive meshes, moving
/// fronts).  The per-instance series plus a least-squares trend make
/// that visible.
///
//===----------------------------------------------------------------------===//

#ifndef LIMA_CORE_PHASEANALYSIS_H
#define LIMA_CORE_PHASEANALYSIS_H

#include "core/Views.h"
#include "support/Error.h"
#include "support/ParseLimits.h"
#include "trace/Trace.h"
#include <string>
#include <vector>

namespace lima {
namespace core {

/// Per-instance series of one region.
struct PhaseSeries {
  size_t Region = 0;
  /// ID_C-style dissimilarity of each instance (activity-weighted
  /// dispersion across processors within that instance).
  std::vector<double> InstanceIndex;
  /// Mean (over processors) wall clock of each instance.
  std::vector<double> InstanceTime;
};

/// Least-squares trend of a series.
struct Trend {
  /// Slope per instance.
  double Slope = 0.0;
  /// Slope normalized by the series mean (relative drift per instance).
  double RelativeSlope = 0.0;
};

/// Result of the temporal analysis.
struct PhaseResult {
  /// One series per region, in region order (regions never executed get
  /// empty series).
  std::vector<PhaseSeries> Series;
};

/// Splits \p T into region instances (the k-th execution of region i on
/// every processor is instance k), through the attribution fold
/// (trace/Fold.h), and computes per-instance indices.
///
/// Fails when the trace is invalid (strict mode) or processors executed
/// a region a different number of times (non-SPMD shape this analysis
/// cannot align).
Expected<PhaseResult> analyzePhases(const trace::Trace &T,
                                    const ViewOptions &Options = {},
                                    ParseMode Mode = ParseMode::Strict);

/// Least-squares trend of \p Values (slope 0 for fewer than 2 points).
Trend linearTrend(const std::vector<double> &Values);

/// Renders \p Values as a one-line ASCII sparkline using ".:-=+*#%@"
/// from smallest to largest.
std::string renderSparkline(const std::vector<double> &Values);

} // namespace core
} // namespace lima

#endif // LIMA_CORE_PHASEANALYSIS_H
