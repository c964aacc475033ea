//===- core/Views.h - Processor, activity and region views ------*- C++ -*-===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three complementary dissimilarity views of Section 3 of the paper.
/// All are built from standardized wall-clock times and a configurable
/// index of dispersion (Euclidean distance by default, as the paper
/// argues is best suited):
///
///  * Processor view — ID_P[i][p]: the distance between processor p's
///    standardized activity mix inside region i and the mean mix;
///    identifies the most frequently imbalanced processor and the one
///    imbalanced for the longest time.
///  * Activity view — ID[i][j] (spread across processors of t[i][j][.]),
///    summarized per activity as ID_A[j] = sum_i (t_ij / T_j) ID_ij and
///    scaled as SID_A[j] = (T_j / T) ID_A[j].
///  * Code-region view — ID_C[i] = sum_j (t_ij / t_i) ID_ij, scaled as
///    SID_C[i] = (t_i / T) ID_C[i].
///
/// computeViews is the one implementation of all three and of the ID_ij
/// matrix they share.  It runs once per cube (lima_monitor calls it on
/// every window), so it computes each marginal and each ID_ij cell once,
/// reads slices in place, and skips all-zero slices and regions, whose
/// indices are 0 by definition.  Every compensated sum it computes adds
/// the same values in the same order as the cube's accessors, zeros
/// included, and the ones it skips are sums of zeros only (+0.0), so
/// results are bit-identical to evaluating each view's formula on its
/// own.
///
//===----------------------------------------------------------------------===//

#ifndef LIMA_CORE_VIEWS_H
#define LIMA_CORE_VIEWS_H

#include "core/Measurement.h"
#include "stats/Dispersion.h"
#include <vector>

namespace lima {
namespace core {

/// Options shared by the view computations.
struct ViewOptions {
  /// Index-of-dispersion family (the paper uses Euclidean).
  stats::DispersionKind Kind = stats::DispersionKind::Euclidean;
};

/// The ID_ij matrix: dissimilarity across processors of the times spent
/// in activity j within region i.  Zero when no processor performed the
/// activity in that region.
///
/// Entry [I][J] corresponds to the paper's Table 2.  Equivalent to
/// computeViews(Cube, Options).Activities.Dissimilarity.
std::vector<std::vector<double>>
computeDissimilarityMatrix(const MeasurementCube &Cube,
                           const ViewOptions &Options = {});

//===----------------------------------------------------------------------===//
// Processor view
//===----------------------------------------------------------------------===//

/// Result of the processor view.
struct ProcessorView {
  /// ID_P[i][p]: processor p's deviation from the mean activity mix in
  /// region i.  Regions where a processor did no work contribute 0.
  std::vector<std::vector<double>> Index;
  /// For each region, the processor with the largest ID_P (the "most
  /// imbalanced" processor of that region).
  std::vector<unsigned> MostImbalancedProc;
  /// How many regions each processor is the most imbalanced of.
  std::vector<unsigned> TimesMostImbalanced;
  /// The processor that is most imbalanced on the largest number of
  /// regions (paper: processor 1, on loops 3 and 7).
  unsigned MostFrequentlyImbalanced = 0;
  /// For each processor, its total wall clock over the regions where it
  /// is the most imbalanced one.
  std::vector<double> ImbalancedWallClock;
  /// The processor imbalanced for the longest time — largest
  /// ImbalancedWallClock (paper: processor 2 via loop 1, 15.93 s).
  unsigned LongestImbalanced = 0;
};

/// Computes the processor view.  Standardization is per (region,
/// processor): t[i][.][p] is divided by processor p's total time in
/// region i, then compared against the across-processor mean mix.
ProcessorView computeProcessorView(const MeasurementCube &Cube,
                                   const ViewOptions &Options = {});

//===----------------------------------------------------------------------===//
// Activity view
//===----------------------------------------------------------------------===//

/// Result of the activity view (the paper's Tables 2 and 3).
struct ActivityView {
  /// ID_ij (Table 2).
  std::vector<std::vector<double>> Dissimilarity;
  /// ID_A[j]: weighted average of ID_ij with weights t_ij / T_j.
  std::vector<double> Index;
  /// SID_A[j] = (T_j / T) * ID_A[j].
  std::vector<double> ScaledIndex;
  /// Activity with the largest ID_A (paper: synchronization).
  size_t MostImbalanced = 0;
  /// Activity with the largest SID_A (paper: computation).
  size_t MostImbalancedScaled = 0;
};

/// Computes the activity view; computeViews(Cube, Options).Activities.
ActivityView computeActivityView(const MeasurementCube &Cube,
                                 const ViewOptions &Options = {});

//===----------------------------------------------------------------------===//
// Code-region view
//===----------------------------------------------------------------------===//

/// Result of the code-region view (the paper's Table 4).
struct RegionView {
  /// ID_C[i]: weighted average of ID_ij with weights t_ij / t_i.
  std::vector<double> Index;
  /// SID_C[i] = (t_i / T) * ID_C[i].
  std::vector<double> ScaledIndex;
  /// Region with the largest ID_C (paper: loop 6).
  size_t MostImbalanced = 0;
  /// Region with the largest SID_C (paper: loop 1).
  size_t MostImbalancedScaled = 0;
};

/// Computes the code-region view; computeViews(Cube, Options).Regions.
RegionView computeRegionView(const MeasurementCube &Cube,
                             const ViewOptions &Options = {});

//===----------------------------------------------------------------------===//
// All three views
//===----------------------------------------------------------------------===//

/// The activity, region and processor views of one cube.
struct CubeViews {
  ActivityView Activities;
  RegionView Regions;
  ProcessorView Processors;
};

/// Computes all three views of \p Cube in one pass (see the file
/// comment).  An all-zero cube yields all-zero indices.
CubeViews computeViews(const MeasurementCube &Cube,
                       const ViewOptions &Options = {});

} // namespace core
} // namespace lima

#endif // LIMA_CORE_VIEWS_H
