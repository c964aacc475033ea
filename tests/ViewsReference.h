//===- tests/ViewsReference.h - Per-view reference oracle -------*- C++ -*-===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three views of Section 3 evaluated one formula at a time, the
/// direct way: every ID_ij from a copied processor slice through
/// stats::imbalanceIndexAs, every marginal through the cube's own
/// accessors, and one share vector per (region, processor).  It is the
/// oracle core::computeViews must reproduce bit for bit, and
/// expectViewsBitIdentical compares the two with memcmp so that even the
/// sign of a zero counts.
///
//===----------------------------------------------------------------------===//

#ifndef LIMA_TESTS_VIEWSREFERENCE_H
#define LIMA_TESTS_VIEWSREFERENCE_H

#include "core/Views.h"
#include "stats/Descriptive.h"
#include "stats/Standardize.h"
#include "support/MathUtils.h"
#include <cmath>
#include <cstring>
#include <gtest/gtest.h>
#include <ios>
#include <string>
#include <vector>

namespace lima {
namespace testref {

inline std::vector<std::vector<double>>
dissimilarityMatrix(const core::MeasurementCube &Cube,
                    const core::ViewOptions &Options) {
  std::vector<std::vector<double>> Matrix(
      Cube.numRegions(), std::vector<double>(Cube.numActivities(), 0.0));
  for (size_t I = 0; I != Cube.numRegions(); ++I)
    for (size_t J = 0; J != Cube.numActivities(); ++J)
      Matrix[I][J] =
          stats::imbalanceIndexAs(Options.Kind, Cube.processorSlice(I, J));
  return Matrix;
}

inline core::ProcessorView processorView(const core::MeasurementCube &Cube) {
  size_t N = Cube.numRegions();
  size_t K = Cube.numActivities();
  unsigned P = Cube.numProcs();

  core::ProcessorView View;
  View.Index.assign(N, std::vector<double>(P, 0.0));
  View.MostImbalancedProc.assign(N, 0);
  View.TimesMostImbalanced.assign(P, 0);
  View.ImbalancedWallClock.assign(P, 0.0);

  for (size_t I = 0; I != N; ++I) {
    std::vector<std::vector<double>> Mix(P);
    std::vector<bool> Active(P, false);
    for (unsigned Q = 0; Q != P; ++Q) {
      std::vector<double> Slice = Cube.activitySliceForProc(I, Q);
      if (stats::sum(Slice) > 0.0) {
        Active[Q] = true;
        Mix[Q] = stats::toShares(Slice);
      } else {
        Mix[Q].assign(K, 0.0);
      }
    }
    unsigned ActiveCount = 0;
    std::vector<double> MeanMix(K, 0.0);
    for (unsigned Q = 0; Q != P; ++Q) {
      if (!Active[Q])
        continue;
      ++ActiveCount;
      for (size_t J = 0; J != K; ++J)
        MeanMix[J] += Mix[Q][J];
    }
    if (ActiveCount == 0)
      continue;
    for (size_t J = 0; J != K; ++J)
      MeanMix[J] /= static_cast<double>(ActiveCount);
    for (unsigned Q = 0; Q != P; ++Q) {
      if (!Active[Q])
        continue;
      KahanSum Acc;
      for (size_t J = 0; J != K; ++J)
        Acc.add((Mix[Q][J] - MeanMix[J]) * (Mix[Q][J] - MeanMix[J]));
      View.Index[I][Q] = std::sqrt(Acc.total());
    }
    View.MostImbalancedProc[I] =
        static_cast<unsigned>(stats::argMax(View.Index[I]));
  }

  for (size_t I = 0; I != N; ++I) {
    unsigned Worst = View.MostImbalancedProc[I];
    ++View.TimesMostImbalanced[Worst];
    View.ImbalancedWallClock[Worst] += Cube.procRegionTime(I, Worst);
  }
  std::vector<double> Freq(View.TimesMostImbalanced.begin(),
                           View.TimesMostImbalanced.end());
  View.MostFrequentlyImbalanced = static_cast<unsigned>(stats::argMax(Freq));
  View.LongestImbalanced =
      static_cast<unsigned>(stats::argMax(View.ImbalancedWallClock));
  return View;
}

inline core::ActivityView activityView(const core::MeasurementCube &Cube,
                                       const core::ViewOptions &Options) {
  core::ActivityView View;
  View.Dissimilarity = dissimilarityMatrix(Cube, Options);
  size_t N = Cube.numRegions();
  size_t K = Cube.numActivities();
  double T = Cube.programTime();
  View.Index.assign(K, 0.0);
  View.ScaledIndex.assign(K, 0.0);
  for (size_t J = 0; J != K; ++J) {
    double Tj = Cube.activityTime(J);
    if (Tj <= 0.0)
      continue;
    KahanSum Weighted;
    for (size_t I = 0; I != N; ++I)
      Weighted.add(Cube.regionActivityTime(I, J) * View.Dissimilarity[I][J]);
    View.Index[J] = Weighted.total() / Tj;
    View.ScaledIndex[J] = Tj / T * View.Index[J];
  }
  View.MostImbalanced = stats::argMax(View.Index);
  View.MostImbalancedScaled = stats::argMax(View.ScaledIndex);
  return View;
}

inline core::RegionView regionView(const core::MeasurementCube &Cube,
                                   const core::ViewOptions &Options) {
  std::vector<std::vector<double>> Dissimilarity =
      dissimilarityMatrix(Cube, Options);
  size_t N = Cube.numRegions();
  size_t K = Cube.numActivities();
  double T = Cube.programTime();
  core::RegionView View;
  View.Index.assign(N, 0.0);
  View.ScaledIndex.assign(N, 0.0);
  for (size_t I = 0; I != N; ++I) {
    double Ti = Cube.regionTime(I);
    if (Ti <= 0.0)
      continue;
    KahanSum Weighted;
    for (size_t J = 0; J != K; ++J)
      Weighted.add(Cube.regionActivityTime(I, J) * Dissimilarity[I][J]);
    View.Index[I] = Weighted.total() / Ti;
    View.ScaledIndex[I] = Ti / T * View.Index[I];
  }
  View.MostImbalanced = stats::argMax(View.Index);
  View.MostImbalancedScaled = stats::argMax(View.ScaledIndex);
  return View;
}

inline core::CubeViews views(const core::MeasurementCube &Cube,
                             const core::ViewOptions &Options) {
  return {activityView(Cube, Options), regionView(Cube, Options),
          processorView(Cube)};
}

/// Bitwise equality of two vectors: same length, and every element the
/// same bytes.
template <typename T>
::testing::AssertionResult sameBits(const std::vector<T> &A,
                                    const std::vector<T> &B) {
  if (A.size() != B.size())
    return ::testing::AssertionFailure()
           << "sizes " << A.size() << " vs " << B.size();
  for (size_t I = 0; I != A.size(); ++I)
    if (std::memcmp(&A[I], &B[I], sizeof(T)) != 0)
      return ::testing::AssertionFailure() << "element " << I << ": "
                                           << std::hexfloat << A[I] << " vs "
                                           << B[I];
  return ::testing::AssertionSuccess();
}

/// Expects every field of \p Got to have the same bits as \p Want.
inline void expectViewsBitIdentical(const core::CubeViews &Got,
                                    const core::CubeViews &Want,
                                    const std::string &Where) {
  SCOPED_TRACE(Where);
  const core::ActivityView &GA = Got.Activities, &WA = Want.Activities;
  ASSERT_EQ(GA.Dissimilarity.size(), WA.Dissimilarity.size());
  for (size_t I = 0; I != WA.Dissimilarity.size(); ++I)
    EXPECT_TRUE(sameBits(GA.Dissimilarity[I], WA.Dissimilarity[I]))
        << "ID_ij row " << I;
  EXPECT_TRUE(sameBits(GA.Index, WA.Index)) << "ID_A";
  EXPECT_TRUE(sameBits(GA.ScaledIndex, WA.ScaledIndex)) << "SID_A";
  EXPECT_EQ(GA.MostImbalanced, WA.MostImbalanced);
  EXPECT_EQ(GA.MostImbalancedScaled, WA.MostImbalancedScaled);

  const core::RegionView &GR = Got.Regions, &WR = Want.Regions;
  EXPECT_TRUE(sameBits(GR.Index, WR.Index)) << "ID_C";
  EXPECT_TRUE(sameBits(GR.ScaledIndex, WR.ScaledIndex)) << "SID_C";
  EXPECT_EQ(GR.MostImbalanced, WR.MostImbalanced);
  EXPECT_EQ(GR.MostImbalancedScaled, WR.MostImbalancedScaled);

  const core::ProcessorView &GP = Got.Processors, &WP = Want.Processors;
  ASSERT_EQ(GP.Index.size(), WP.Index.size());
  for (size_t I = 0; I != WP.Index.size(); ++I)
    EXPECT_TRUE(sameBits(GP.Index[I], WP.Index[I])) << "ID_P row " << I;
  EXPECT_TRUE(sameBits(GP.MostImbalancedProc, WP.MostImbalancedProc));
  EXPECT_TRUE(sameBits(GP.TimesMostImbalanced, WP.TimesMostImbalanced));
  EXPECT_EQ(GP.MostFrequentlyImbalanced, WP.MostFrequentlyImbalanced);
  EXPECT_TRUE(sameBits(GP.ImbalancedWallClock, WP.ImbalancedWallClock));
  EXPECT_EQ(GP.LongestImbalanced, WP.LongestImbalanced);
}

} // namespace testref
} // namespace lima

#endif // LIMA_TESTS_VIEWSREFERENCE_H
