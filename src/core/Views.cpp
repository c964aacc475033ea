//===- core/Views.cpp - Processor, activity and region views --------------===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "core/Views.h"
#include "stats/Descriptive.h"
#include "stats/Standardize.h"
#include "support/MathUtils.h"
#include <algorithm>
#include <cassert>
#include <cmath>

using namespace lima;
using namespace lima::core;

CubeViews core::computeViews(const MeasurementCube &Cube,
                             const ViewOptions &Options) {
  const size_t N = Cube.numRegions();
  const size_t K = Cube.numActivities();
  const unsigned P = Cube.numProcs();
  const double Procs = static_cast<double>(P);
  const std::span<const double> Cells = Cube.cells();
  const double T = Cube.programTime();

  CubeViews Views;
  ActivityView &AV = Views.Activities;
  RegionView &RV = Views.Regions;
  ProcessorView &PV = Views.Processors;
  AV.Dissimilarity.assign(N, std::vector<double>(K, 0.0));
  AV.Index.assign(K, 0.0);
  AV.ScaledIndex.assign(K, 0.0);
  RV.Index.assign(N, 0.0);
  RV.ScaledIndex.assign(N, 0.0);
  PV.Index.assign(N, std::vector<double>(P, 0.0));
  PV.MostImbalancedProc.assign(N, 0);
  PV.TimesMostImbalanced.assign(P, 0);
  PV.ImbalancedWallClock.assign(P, 0.0);

  // Scratch for the whole cube: no per-slice or per-processor vectors.
  std::vector<double> RegionActivityTime(N * K, 0.0); // t_ij, row-major.
  std::vector<double> Shares(P);
  std::vector<double> Mix(size_t(P) * K); // Processor Q's shares at Q * K.
  std::vector<double> ProcTime(P);
  std::vector<double> ProcCells(K);
  std::vector<double> MeanMix(K);

  // T_j: one compensated sum per activity over (region, processor), in
  // MeasurementCube::activityTime's order.  Zero cells are added too:
  // once a sum carries a compensation term, adding 0.0 can still change
  // its total.  Visiting the K sums in turn per processor keeps all of
  // them in flight without reordering any one of them.
  std::vector<KahanSum> ActivitySums(K);
  for (size_t I = 0; I != N; ++I)
    for (unsigned Q = 0; Q != P; ++Q)
      for (size_t J = 0; J != K; ++J)
        ActivitySums[J].add(Cells[(I * K + J) * P + Q]);

  for (size_t I = 0; I != N; ++I) {
    const std::span<const double> Region = Cells.subspan(I * K * P, K * P);
    std::vector<double> &Dissimilarity = AV.Dissimilarity[I];

    // ID_ij and t_ij.  An all-zero slice keeps both at 0: its sum is a
    // fresh compensated sum of zeros (+0.0), and dispersionIndex maps
    // the all-zero share vector to 0.
    bool Active = false;
    for (size_t J = 0; J != K; ++J) {
      std::span<const double> Slice = Region.subspan(J * P, P);
      if (stats::isAllZero(Slice))
        continue;
      Active = true;
      RegionActivityTime[I * K + J] = stats::toShares(Slice, Shares) / Procs;
      Dissimilarity[J] = stats::dispersionIndex(Options.Kind, Shares);
    }
    if (!Active) {
      // Nobody executed this region: its indices stay 0 and processor 0
      // counts as its most imbalanced, adding 0 s to its wall clock.
      ++PV.TimesMostImbalanced[0];
      continue;
    }

    // Code-region view: ID_C[i] = sum_j (t_ij / t_i) ID_ij.
    double Ti = sumKahan(Region) / Procs; // regionTime's (J, p) order.
    if (Ti > 0.0) {
      assert(T > 0.0 && "views of a cube with time but no program time");
      KahanSum Weighted;
      for (size_t J = 0; J != K; ++J)
        Weighted.add(RegionActivityTime[I * K + J] * Dissimilarity[J]);
      RV.Index[I] = Weighted.total() / Ti;
      RV.ScaledIndex[I] = Ti / T * RV.Index[I];
    }

    // Processor view.  Standardize each processor's times over its own
    // total within the region ("...standardizing the t_ijp's over the
    // sum of the times spent by each processor in the various
    // activities performed within a given code region"); idle
    // processors are left out of the mean mix.
    unsigned ActiveCount = 0;
    std::fill(MeanMix.begin(), MeanMix.end(), 0.0);
    for (unsigned Q = 0; Q != P; ++Q) {
      for (size_t J = 0; J != K; ++J)
        ProcCells[J] = Region[J * P + Q];
      std::span<double> QMix(Mix.data() + size_t(Q) * K, K);
      ProcTime[Q] = stats::toShares(ProcCells, QMix);
      if (ProcTime[Q] <= 0.0)
        continue;
      ++ActiveCount;
      for (size_t J = 0; J != K; ++J)
        MeanMix[J] += QMix[J];
    }
    assert(ActiveCount > 0 && "a region with time has an active processor");
    for (size_t J = 0; J != K; ++J)
      MeanMix[J] /= static_cast<double>(ActiveCount);

    std::vector<double> &Index = PV.Index[I];
    for (unsigned Q = 0; Q != P; ++Q) {
      if (ProcTime[Q] <= 0.0)
        continue;
      const double *QMix = Mix.data() + size_t(Q) * K;
      KahanSum Acc;
      for (size_t J = 0; J != K; ++J)
        Acc.add((QMix[J] - MeanMix[J]) * (QMix[J] - MeanMix[J]));
      Index[Q] = std::sqrt(Acc.total());
    }
    unsigned Worst = static_cast<unsigned>(stats::argMax(Index));
    PV.MostImbalancedProc[I] = Worst;
    ++PV.TimesMostImbalanced[Worst];
    PV.ImbalancedWallClock[Worst] += ProcTime[Worst]; // procRegionTime.
  }

  // Activity view: ID_A[j] = sum_i (t_ij / T_j) ID_ij.
  for (size_t J = 0; J != K; ++J) {
    double Tj = ActivitySums[J].total() / Procs;
    if (Tj <= 0.0)
      continue;
    assert(T > 0.0 && "views of a cube with time but no program time");
    KahanSum Weighted;
    for (size_t I = 0; I != N; ++I)
      Weighted.add(RegionActivityTime[I * K + J] * AV.Dissimilarity[I][J]);
    AV.Index[J] = Weighted.total() / Tj;
    AV.ScaledIndex[J] = Tj / T * AV.Index[J];
  }

  AV.MostImbalanced = stats::argMax(AV.Index);
  AV.MostImbalancedScaled = stats::argMax(AV.ScaledIndex);
  RV.MostImbalanced = stats::argMax(RV.Index);
  RV.MostImbalancedScaled = stats::argMax(RV.ScaledIndex);
  PV.MostFrequentlyImbalanced = static_cast<unsigned>(
      std::max_element(PV.TimesMostImbalanced.begin(),
                       PV.TimesMostImbalanced.end()) -
      PV.TimesMostImbalanced.begin());
  PV.LongestImbalanced =
      static_cast<unsigned>(stats::argMax(PV.ImbalancedWallClock));
  return Views;
}

std::vector<std::vector<double>>
core::computeDissimilarityMatrix(const MeasurementCube &Cube,
                                 const ViewOptions &Options) {
  return computeViews(Cube, Options).Activities.Dissimilarity;
}

ProcessorView core::computeProcessorView(const MeasurementCube &Cube,
                                         const ViewOptions &Options) {
  return computeViews(Cube, Options).Processors;
}

ActivityView core::computeActivityView(const MeasurementCube &Cube,
                                       const ViewOptions &Options) {
  return computeViews(Cube, Options).Activities;
}

RegionView core::computeRegionView(const MeasurementCube &Cube,
                                   const ViewOptions &Options) {
  return computeViews(Cube, Options).Regions;
}
