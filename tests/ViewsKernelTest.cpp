//===- tests/ViewsKernelTest.cpp - computeViews bit-identity --------------===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// core::computeViews against the per-formula reference of
/// ViewsReference.h, bit for bit, for every dispersion kind, on seeded
/// cubes shaped like the ones the kernel's shortcuts apply to: mostly
/// all-zero slices, all-zero regions, idle processors, a single active
/// processor, subnormal cells and explicit program times.  Cell values
/// span several orders of magnitude so that the compensated sums carry
/// compensation terms, which is where a skipped zero would show.
///
//===----------------------------------------------------------------------===//

#include "ViewsReference.h"
#include "support/RNG.h"
#include <cmath>
#include <gtest/gtest.h>
#include <limits>
#include <string>

using namespace lima;
using namespace lima::core;

namespace {

/// A random cell value with a random decimal exponent in [-4, 3].
double randomTime(RNG &R) {
  return R.uniformIn(0.5, 10.0) *
         std::pow(10.0, static_cast<double>(R.uniformInt(8)) - 4.0);
}

MeasurementCube emptyCube(RNG &R, unsigned MaxProcs = 70) {
  size_t N = 1 + R.uniformInt(8);
  size_t K = 1 + R.uniformInt(5);
  unsigned P = 1 + static_cast<unsigned>(R.uniformInt(MaxProcs));
  std::vector<std::string> Regions, Activities;
  for (size_t I = 0; I != N; ++I)
    Regions.push_back(std::string("r").append(std::to_string(I)));
  for (size_t J = 0; J != K; ++J)
    Activities.push_back(std::string("a").append(std::to_string(J)));
  return MeasurementCube(std::move(Regions), std::move(Activities), P);
}

/// Fills every cell of slice (I, J), leaving each at 0 with probability
/// \p ZeroCell.
void fillSlice(MeasurementCube &Cube, RNG &R, size_t I, size_t J,
               double ZeroCell) {
  for (unsigned P = 0; P != Cube.numProcs(); ++P)
    if (R.uniform() >= ZeroCell)
      Cube.at(I, J, P) = randomTime(R);
}

class ViewsKernelTest
    : public ::testing::TestWithParam<stats::DispersionKind> {
protected:
  /// Checks computeViews against the reference on \p Cube.
  void check(const MeasurementCube &Cube, const std::string &Where) {
    ViewOptions Options;
    Options.Kind = GetParam();
    testref::expectViewsBitIdentical(computeViews(Cube, Options),
                                     testref::views(Cube, Options), Where);
  }

  static constexpr int Cubes = 60;
};

} // namespace

TEST_P(ViewsKernelTest, DenseCubes) {
  RNG R(101);
  for (int C = 0; C != Cubes; ++C) {
    MeasurementCube Cube = emptyCube(R);
    for (size_t I = 0; I != Cube.numRegions(); ++I)
      for (size_t J = 0; J != Cube.numActivities(); ++J)
        fillSlice(Cube, R, I, J, 0.0);
    check(Cube, "dense cube " + std::to_string(C));
  }
}

TEST_P(ViewsKernelTest, MostlyZeroSlices) {
  // Between 50% and 95% of the (region, activity) slices all zero, as in
  // a short monitor window; the others have some idle processors too.
  // Most cubes have few processors: then a slice's last cell often
  // exceeds the running total before it, which leaves an inexact
  // compensation term that adding the next, all-zero slice still
  // changes.  A kernel that dropped zero slices from the region or
  // activity totals fails here.
  RNG R(202);
  for (int C = 0; C != 25 * Cubes; ++C) {
    MeasurementCube Cube = emptyCube(R, C % 5 == 0 ? 70 : 4);
    double ZeroSlice = R.uniformIn(0.5, 0.95);
    for (size_t I = 0; I != Cube.numRegions(); ++I)
      for (size_t J = 0; J != Cube.numActivities(); ++J)
        if (R.uniform() >= ZeroSlice)
          fillSlice(Cube, R, I, J, 0.3);
    check(Cube, "sparse cube " + std::to_string(C));
  }
}

TEST_P(ViewsKernelTest, AllZeroRegions) {
  RNG R(303);
  for (int C = 0; C != Cubes; ++C) {
    MeasurementCube Cube = emptyCube(R);
    for (size_t I = 0; I != Cube.numRegions(); ++I)
      if (R.uniform() < 0.5)
        for (size_t J = 0; J != Cube.numActivities(); ++J)
          fillSlice(Cube, R, I, J, 0.1);
    check(Cube, "cube " + std::to_string(C));
  }
  RNG Shape(304);
  check(emptyCube(Shape), "all-zero cube");
}

TEST_P(ViewsKernelTest, IdleProcessors) {
  // Whole processors idle in a region: excluded from the mean mix.
  RNG R(404);
  for (int C = 0; C != Cubes; ++C) {
    MeasurementCube Cube = emptyCube(R);
    for (size_t I = 0; I != Cube.numRegions(); ++I)
      for (unsigned P = 0; P != Cube.numProcs(); ++P) {
        if (R.uniform() < 0.4)
          continue;
        for (size_t J = 0; J != Cube.numActivities(); ++J)
          if (R.uniform() < 0.7)
            Cube.at(I, J, P) = randomTime(R);
      }
    check(Cube, "cube " + std::to_string(C));
  }
}

TEST_P(ViewsKernelTest, SingleActiveProcessor) {
  RNG R(505);
  for (int C = 0; C != Cubes; ++C) {
    MeasurementCube Cube = emptyCube(R);
    unsigned Busy = static_cast<unsigned>(R.uniformInt(Cube.numProcs()));
    for (size_t I = 0; I != Cube.numRegions(); ++I)
      for (size_t J = 0; J != Cube.numActivities(); ++J)
        if (R.uniform() < 0.6)
          Cube.at(I, J, Busy) = randomTime(R);
    check(Cube, "cube " + std::to_string(C));
  }
}

TEST_P(ViewsKernelTest, SubnormalCells) {
  // Subnormal cells beside ordinary ones: their shares underflow to 0
  // although the slice is not all zero.  Some slices hold subnormals
  // only.
  RNG R(606);
  double Tiny = std::numeric_limits<double>::denorm_min();
  for (int C = 0; C != Cubes; ++C) {
    MeasurementCube Cube = emptyCube(R);
    for (size_t I = 0; I != Cube.numRegions(); ++I)
      for (size_t J = 0; J != Cube.numActivities(); ++J) {
        double Kind = R.uniform();
        for (unsigned P = 0; P != Cube.numProcs(); ++P) {
          double Cell = R.uniform();
          if (Kind < 0.3 && Cell < 0.5)
            Cube.at(I, J, P) = Tiny * static_cast<double>(1 + R.uniformInt(9));
          else if (Kind >= 0.3 && Kind < 0.8 && Cell < 0.5)
            Cube.at(I, J, P) = Cell < 0.25 ? Tiny : randomTime(R);
        }
      }
    check(Cube, "cube " + std::to_string(C));
  }
}

TEST_P(ViewsKernelTest, ExplicitProgramTime) {
  RNG R(707);
  for (int C = 0; C != Cubes; ++C) {
    MeasurementCube Cube = emptyCube(R);
    for (size_t I = 0; I != Cube.numRegions(); ++I)
      for (size_t J = 0; J != Cube.numActivities(); ++J)
        if (R.uniform() < 0.4)
          fillSlice(Cube, R, I, J, 0.2);
    Cube.setProgramTime(Cube.instrumentedTotal() * R.uniformIn(1.0, 3.0) +
                        1e-3);
    check(Cube, "cube " + std::to_string(C));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, ViewsKernelTest, ::testing::ValuesIn(stats::AllDispersionKinds),
    [](const auto &Info) {
      return std::string(stats::dispersionKindName(Info.param));
    });
