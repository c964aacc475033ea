//===- tests/AnalysisPropertiesTest.cpp - methodology invariants ----------===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Property-based tests of invariants the methodology must satisfy on
// *any* measurement cube:
//
//  * processor-relabeling equivariance: permuting the processor columns
//    permutes ID_P and leaves ID_ij / ID_A / ID_C unchanged;
//  * unit invariance: scaling every cell (and the program total) by a
//    constant leaves every index unchanged;
//  * per-processor-constant cubes are perfectly balanced;
//  * injecting a Robin Hood transfer into a slice never increases its
//    dispersion index;
//  * SID never exceeds ID, and shrinks when the program total grows.
//
//===----------------------------------------------------------------------===//

#include "core/Measurement.h"
#include "core/Views.h"
#include "stats/Dispersion.h"
#include "stats/Majorization.h"
#include "support/RNG.h"
#include <algorithm>
#include <gtest/gtest.h>
#include <string>

using namespace lima;
using namespace lima::core;

namespace {

/// Random cube: extents in [2, 6] x [2, 5] x [3, 9], cells in [0, 10)
/// with ~20% zeros (regions that skip activities).
MeasurementCube randomCube(RNG &Rng) {
  size_t N = 2 + Rng.uniformInt(5);
  size_t K = 2 + Rng.uniformInt(4);
  unsigned P = 3 + static_cast<unsigned>(Rng.uniformInt(7));
  std::vector<std::string> Regions, Activities;
  for (size_t I = 0; I != N; ++I)
    Regions.push_back(std::string("r").append(std::to_string(I)));
  for (size_t J = 0; J != K; ++J)
    Activities.push_back(std::string("a").append(std::to_string(J)));
  MeasurementCube Cube(std::move(Regions), std::move(Activities), P);
  for (size_t I = 0; I != N; ++I)
    for (size_t J = 0; J != K; ++J) {
      bool Skip = Rng.uniform() < 0.2;
      for (unsigned Q = 0; Q != P; ++Q)
        Cube.at(I, J, Q) = Skip ? 0.0 : Rng.uniformIn(0.0, 10.0);
    }
  // Ensure at least one nonzero cell.
  Cube.at(0, 0, 0) += 1.0;
  return Cube;
}

/// Applies a processor permutation to a cube.
MeasurementCube permuteProcs(const MeasurementCube &Cube,
                             const std::vector<unsigned> &Perm) {
  MeasurementCube Out(Cube.regionNames(), Cube.activityNames(),
                      Cube.numProcs());
  for (size_t I = 0; I != Cube.numRegions(); ++I)
    for (size_t J = 0; J != Cube.numActivities(); ++J)
      for (unsigned P = 0; P != Cube.numProcs(); ++P)
        Out.at(I, J, Perm[P]) = Cube.time(I, J, P);
  if (Cube.hasExplicitProgramTime())
    Out.setProgramTime(Cube.programTime());
  return Out;
}

} // namespace

class CubePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CubePropertyTest, ProcessorRelabelingEquivariance) {
  RNG Rng(GetParam());
  for (int Trial = 0; Trial != 20; ++Trial) {
    MeasurementCube Cube = randomCube(Rng);
    std::vector<unsigned> Perm(Cube.numProcs());
    for (unsigned P = 0; P != Cube.numProcs(); ++P)
      Perm[P] = P;
    Rng.shuffle(Perm);
    MeasurementCube Permuted = permuteProcs(Cube, Perm);

    // ID_ij and the view summaries are permutation invariant.
    auto MatrixA = computeDissimilarityMatrix(Cube);
    auto MatrixB = computeDissimilarityMatrix(Permuted);
    for (size_t I = 0; I != Cube.numRegions(); ++I)
      for (size_t J = 0; J != Cube.numActivities(); ++J)
        EXPECT_NEAR(MatrixA[I][J], MatrixB[I][J], 1e-9);

    ActivityView AA = computeActivityView(Cube);
    ActivityView AB = computeActivityView(Permuted);
    for (size_t J = 0; J != Cube.numActivities(); ++J) {
      EXPECT_NEAR(AA.Index[J], AB.Index[J], 1e-9);
      EXPECT_NEAR(AA.ScaledIndex[J], AB.ScaledIndex[J], 1e-9);
    }

    // ID_P permutes along with the processors.
    ProcessorView PA = computeProcessorView(Cube);
    ProcessorView PB = computeProcessorView(Permuted);
    for (size_t I = 0; I != Cube.numRegions(); ++I)
      for (unsigned P = 0; P != Cube.numProcs(); ++P)
        EXPECT_NEAR(PA.Index[I][P], PB.Index[I][Perm[P]], 1e-9);
  }
}

TEST_P(CubePropertyTest, UnitInvariance) {
  RNG Rng(GetParam() + 1000);
  for (int Trial = 0; Trial != 20; ++Trial) {
    MeasurementCube Cube = randomCube(Rng);
    double Factor = Rng.uniformIn(0.1, 50.0);
    MeasurementCube Scaled(Cube.regionNames(), Cube.activityNames(),
                           Cube.numProcs());
    for (size_t I = 0; I != Cube.numRegions(); ++I)
      for (size_t J = 0; J != Cube.numActivities(); ++J)
        for (unsigned P = 0; P != Cube.numProcs(); ++P)
          Scaled.at(I, J, P) = Factor * Cube.time(I, J, P);

    RegionView A = computeRegionView(Cube);
    RegionView B = computeRegionView(Scaled);
    for (size_t I = 0; I != Cube.numRegions(); ++I) {
      EXPECT_NEAR(A.Index[I], B.Index[I], 1e-9);
      EXPECT_NEAR(A.ScaledIndex[I], B.ScaledIndex[I], 1e-9);
    }
  }
}

TEST_P(CubePropertyTest, UniformCubesArePerfectlyBalanced) {
  RNG Rng(GetParam() + 2000);
  for (int Trial = 0; Trial != 10; ++Trial) {
    MeasurementCube Cube = randomCube(Rng);
    // Overwrite: every processor identical within each (region, activity).
    for (size_t I = 0; I != Cube.numRegions(); ++I)
      for (size_t J = 0; J != Cube.numActivities(); ++J) {
        double Value = Rng.uniformIn(0.0, 5.0);
        for (unsigned P = 0; P != Cube.numProcs(); ++P)
          Cube.at(I, J, P) = Value;
      }
    Cube.at(0, 0, 0) = Cube.time(0, 0, 1); // Keep uniformity.
    auto Matrix = computeDissimilarityMatrix(Cube);
    for (const auto &Row : Matrix)
      for (double Index : Row)
        EXPECT_NEAR(Index, 0.0, 1e-9);
    ProcessorView View = computeProcessorView(Cube);
    for (const auto &Row : View.Index)
      for (double Index : Row)
        EXPECT_NEAR(Index, 0.0, 1e-9);
  }
}

TEST_P(CubePropertyTest, RobinHoodTransferNeverIncreasesSliceIndex) {
  RNG Rng(GetParam() + 3000);
  for (int Trial = 0; Trial != 30; ++Trial) {
    MeasurementCube Cube = randomCube(Rng);
    size_t I = Rng.uniformInt(Cube.numRegions());
    size_t J = Rng.uniformInt(Cube.numActivities());
    std::vector<double> Slice = Cube.processorSlice(I, J);
    double Gap = *std::max_element(Slice.begin(), Slice.end()) -
                 *std::min_element(Slice.begin(), Slice.end());
    if (Gap <= 0.0)
      continue;
    double Before = stats::imbalanceIndex(Slice);
    std::vector<double> After =
        stats::robinHoodTransfer(Slice, Rng.uniformIn(0.0, Gap / 2.0));
    EXPECT_LE(stats::imbalanceIndex(After), Before + 1e-9);
  }
}

TEST_P(CubePropertyTest, ScaledIndexBoundedByIndex) {
  RNG Rng(GetParam() + 4000);
  for (int Trial = 0; Trial != 20; ++Trial) {
    MeasurementCube Cube = randomCube(Rng);
    ActivityView AView = computeActivityView(Cube);
    RegionView RView = computeRegionView(Cube);
    // t_i <= T and T_j <= T, so SID <= ID always.
    for (size_t J = 0; J != Cube.numActivities(); ++J)
      EXPECT_LE(AView.ScaledIndex[J], AView.Index[J] + 1e-12);
    for (size_t I = 0; I != Cube.numRegions(); ++I)
      EXPECT_LE(RView.ScaledIndex[I], RView.Index[I] + 1e-12);

    // Growing the program total shrinks SID proportionally.
    double T = Cube.programTime();
    Cube.setProgramTime(T * 3.0);
    RegionView Shrunk = computeRegionView(Cube);
    for (size_t I = 0; I != Cube.numRegions(); ++I)
      EXPECT_NEAR(Shrunk.ScaledIndex[I], RView.ScaledIndex[I] / 3.0, 1e-9);
  }
}

TEST_P(CubePropertyTest, DissimilarityBoundedByTheoreticalMax) {
  RNG Rng(GetParam() + 5000);
  for (int Trial = 0; Trial != 20; ++Trial) {
    MeasurementCube Cube = randomCube(Rng);
    double Bound = stats::maxImbalanceIndex(Cube.numProcs());
    auto Matrix = computeDissimilarityMatrix(Cube);
    for (const auto &Row : Matrix)
      for (double Index : Row) {
        EXPECT_GE(Index, 0.0);
        EXPECT_LE(Index, Bound + 1e-12);
      }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CubePropertyTest,
                         ::testing::Values(101u, 202u, 303u, 404u, 505u));

//===----------------------------------------------------------------------===//
// Structural identities of the views, for every index family: the
// weighted-average definitions of ID_A and ID_C must hold exactly, and
// every family agrees that a balanced cube scores zero.
//===----------------------------------------------------------------------===//

class ViewStructureTest
    : public ::testing::TestWithParam<stats::DispersionKind> {};

TEST_P(ViewStructureTest, WeightedAverageIdentityHolds) {
  RNG Rng(static_cast<uint64_t>(GetParam()) * 7919 + 17);
  for (int Trial = 0; Trial != 10; ++Trial) {
    MeasurementCube Cube = randomCube(Rng);
    ViewOptions Options;
    Options.Kind = GetParam();
    auto Matrix = computeDissimilarityMatrix(Cube, Options);
    ActivityView AView = computeActivityView(Cube, Options);
    RegionView RView = computeRegionView(Cube, Options);

    for (size_t J = 0; J != Cube.numActivities(); ++J) {
      double Tj = Cube.activityTime(J);
      if (Tj <= 0.0) {
        EXPECT_DOUBLE_EQ(AView.Index[J], 0.0);
        continue;
      }
      double Expected = 0.0;
      for (size_t I = 0; I != Cube.numRegions(); ++I)
        Expected += Cube.regionActivityTime(I, J) * Matrix[I][J];
      Expected /= Tj;
      EXPECT_NEAR(AView.Index[J], Expected, 1e-9)
          << stats::dispersionKindName(GetParam());
      EXPECT_NEAR(AView.ScaledIndex[J],
                  Tj / Cube.programTime() * Expected, 1e-9);
    }
    for (size_t I = 0; I != Cube.numRegions(); ++I) {
      double Ti = Cube.regionTime(I);
      if (Ti <= 0.0)
        continue;
      double Expected = 0.0;
      for (size_t J = 0; J != Cube.numActivities(); ++J)
        Expected += Cube.regionActivityTime(I, J) * Matrix[I][J];
      Expected /= Ti;
      EXPECT_NEAR(RView.Index[I], Expected, 1e-9);
    }
  }
}

TEST_P(ViewStructureTest, BalancedCubeScoresZero) {
  MeasurementCube Cube({"r0", "r1"}, {"a", "b"}, 6);
  for (size_t I = 0; I != 2; ++I)
    for (size_t J = 0; J != 2; ++J)
      for (unsigned P = 0; P != 6; ++P)
        Cube.at(I, J, P) = 1.0 + static_cast<double>(I + J);
  ViewOptions Options;
  Options.Kind = GetParam();
  if (GetParam() == stats::DispersionKind::Maximum)
    return; // Maximum of a balanced share vector is 1/P by definition.
  RegionView View = computeRegionView(Cube, Options);
  for (double Index : View.Index)
    EXPECT_NEAR(Index, 0.0, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, ViewStructureTest,
    ::testing::ValuesIn(stats::AllDispersionKinds), [](const auto &Info) {
      std::string Name(stats::dispersionKindName(Info.param));
      for (char &C : Name)
        if (C == '-')
          C = '_';
      return Name;
    });
