//===- tests/StatsTest.cpp - stats library unit & property tests ----------===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "stats/Descriptive.h"
#include "stats/Dispersion.h"
#include "stats/Majorization.h"
#include "stats/Standardize.h"
#include "support/RNG.h"
#include <cmath>
#include <gtest/gtest.h>
#include <set>
#include <string>
#include <tuple>

using namespace lima;
using namespace lima::stats;

//===----------------------------------------------------------------------===//
// Descriptive statistics
//===----------------------------------------------------------------------===//

TEST(DescriptiveTest, BasicMoments) {
  std::vector<double> V = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(sum(V), 40.0);
  EXPECT_DOUBLE_EQ(mean(V), 5.0);
  EXPECT_DOUBLE_EQ(variance(V), 4.0);
  EXPECT_DOUBLE_EQ(stdDev(V), 2.0);
  EXPECT_NEAR(sampleVariance(V), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(coefficientOfVariation(V), 0.4);
}

TEST(DescriptiveTest, MadAndExtremes) {
  std::vector<double> V = {1.0, 2.0, 6.0};
  EXPECT_DOUBLE_EQ(meanAbsoluteDeviation(V), (2.0 + 1.0 + 3.0) / 3.0);
  EXPECT_DOUBLE_EQ(minimum(V), 1.0);
  EXPECT_DOUBLE_EQ(maximum(V), 6.0);
  EXPECT_EQ(argMin(V), 0u);
  EXPECT_EQ(argMax(V), 2u);
}

TEST(DescriptiveTest, ArgMaxPrefersFirstOnTies) {
  std::vector<double> V = {3.0, 5.0, 5.0, 1.0};
  EXPECT_EQ(argMax(V), 1u);
}

TEST(DescriptiveTest, PercentileInterpolates) {
  std::vector<double> V = {4.0, 1.0, 3.0, 2.0}; // Sorted: 1 2 3 4
  EXPECT_DOUBLE_EQ(percentile(V, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(V, 100.0), 4.0);
  EXPECT_DOUBLE_EQ(percentile(V, 50.0), 2.5);
  EXPECT_DOUBLE_EQ(median(V), 2.5);
  EXPECT_DOUBLE_EQ(percentile(V, 25.0), 1.75);
}

TEST(DescriptiveTest, PercentileSingleton) {
  std::vector<double> V = {7.5};
  EXPECT_DOUBLE_EQ(percentile(V, 30.0), 7.5);
}

//===----------------------------------------------------------------------===//
// Standardization
//===----------------------------------------------------------------------===//

TEST(StandardizeTest, SharesSumToOne) {
  std::vector<double> Shares = toShares(std::vector<double>{2.0, 3.0, 5.0});
  EXPECT_DOUBLE_EQ(Shares[0], 0.2);
  EXPECT_DOUBLE_EQ(Shares[1], 0.3);
  EXPECT_DOUBLE_EQ(Shares[2], 0.5);
  EXPECT_TRUE(isShareVector(Shares));
}

TEST(StandardizeTest, ZeroVectorStandardizesToZeros) {
  std::vector<double> Shares = toShares(std::vector<double>{0.0, 0.0, 0.0});
  EXPECT_EQ(Shares, (std::vector<double>{0.0, 0.0, 0.0}));
  EXPECT_TRUE(isShareVector(Shares));
}

TEST(StandardizeTest, IsShareVectorRejectsBadSums) {
  EXPECT_FALSE(isShareVector(std::vector<double>{0.5, 0.4}));
  EXPECT_FALSE(isShareVector(std::vector<double>{1.2, -0.2}));
}

//===----------------------------------------------------------------------===//
// Dispersion indices
//===----------------------------------------------------------------------===//

TEST(DispersionTest, BalancedVectorScoresZero) {
  std::vector<double> Times = {3.0, 3.0, 3.0, 3.0};
  for (DispersionKind Kind : AllDispersionKinds) {
    if (Kind == DispersionKind::Maximum)
      continue; // Maximum of a balanced share vector is 1/P, not 0.
    EXPECT_NEAR(imbalanceIndexAs(Kind, Times), 0.0, 1e-12)
        << dispersionKindName(Kind);
  }
  EXPECT_DOUBLE_EQ(imbalanceIndexAs(DispersionKind::Maximum, Times), 0.25);
}

TEST(DispersionTest, OneHotReachesTheoreticalMaximum) {
  std::vector<double> Times = {0.0, 0.0, 5.0, 0.0};
  EXPECT_NEAR(imbalanceIndex(Times), maxImbalanceIndex(4), 1e-12);
}

TEST(DispersionTest, EuclideanHandComputed) {
  // Shares (0.5, 0.3, 0.2), mean 1/3:
  // sqrt((1/6)^2 + (1/30)^2 + (2/15)^2).
  std::vector<double> Times = {5.0, 3.0, 2.0};
  double Expected = std::sqrt(1.0 / 36 + 1.0 / 900 + 4.0 / 225);
  EXPECT_NEAR(imbalanceIndex(Times), Expected, 1e-12);
}

TEST(DispersionTest, ScaleInvariance) {
  std::vector<double> A = {1.0, 2.0, 3.0, 10.0};
  std::vector<double> B = {7.0, 14.0, 21.0, 70.0};
  for (DispersionKind Kind : AllDispersionKinds)
    EXPECT_NEAR(imbalanceIndexAs(Kind, A), imbalanceIndexAs(Kind, B), 1e-12)
        << dispersionKindName(Kind);
}

TEST(DispersionTest, AllZeroIsZeroForEveryKind) {
  std::vector<double> Times = {0.0, 0.0, 0.0};
  for (DispersionKind Kind : AllDispersionKinds)
    EXPECT_DOUBLE_EQ(imbalanceIndexAs(Kind, Times), 0.0)
        << dispersionKindName(Kind);
}

TEST(DispersionTest, GiniHandComputed) {
  // Shares (0, 1): Gini = mean abs pairwise diff / (2 * mean) = 0.5.
  EXPECT_NEAR(imbalanceIndexAs(DispersionKind::Gini,
                               std::vector<double>{0.0, 4.0}), 0.5,
              1e-12);
}

TEST(DispersionTest, KindNamesAreUnique) {
  std::set<std::string_view> Names;
  for (DispersionKind Kind : AllDispersionKinds)
    Names.insert(dispersionKindName(Kind));
  EXPECT_EQ(Names.size(), 7u);
}

//===----------------------------------------------------------------------===//
// Majorization
//===----------------------------------------------------------------------===//

TEST(MajorizationTest, OneHotMajorizesEverything) {
  std::vector<double> OneHot = {1.0, 0.0, 0.0, 0.0};
  std::vector<double> Mixed = {0.4, 0.3, 0.2, 0.1};
  std::vector<double> Balanced = {0.25, 0.25, 0.25, 0.25};
  EXPECT_TRUE(majorizes(OneHot, Mixed));
  EXPECT_TRUE(majorizes(OneHot, Balanced));
  EXPECT_TRUE(majorizes(Mixed, Balanced));
  EXPECT_FALSE(majorizes(Balanced, Mixed));
  EXPECT_FALSE(majorizes(Mixed, OneHot));
}

TEST(MajorizationTest, ReflexiveAndOrderInsensitive) {
  std::vector<double> X = {0.5, 0.2, 0.3};
  std::vector<double> Shuffled = {0.2, 0.3, 0.5};
  EXPECT_TRUE(majorizes(X, X));
  EXPECT_TRUE(majorizes(X, Shuffled));
  EXPECT_TRUE(majorizes(Shuffled, X));
}

TEST(MajorizationTest, DifferentSumsAreIncomparable) {
  EXPECT_FALSE(majorizes({1.0, 0.0}, {0.4, 0.4}));
  EXPECT_FALSE(majorizationComparable({1.0, 0.0}, {0.4, 0.4}));
}

TEST(MajorizationTest, IncomparablePairExists) {
  // Classic incomparable pair with equal sums.
  std::vector<double> X = {0.6, 0.2, 0.2};
  std::vector<double> Y = {0.5, 0.4, 0.1};
  EXPECT_FALSE(majorizes(X, Y));
  EXPECT_FALSE(majorizes(Y, X));
  EXPECT_FALSE(majorizationComparable(X, Y));
}

TEST(MajorizationTest, RobinHoodTransferIsMajorizedByOriginal) {
  std::vector<double> X = {10.0, 2.0, 4.0, 4.0};
  std::vector<double> Y = robinHoodTransfer(X, 2.0);
  EXPECT_TRUE(majorizes(X, Y));
  EXPECT_FALSE(majorizes(Y, X));
  EXPECT_DOUBLE_EQ(sum(Y), sum(X));
}

TEST(LorenzTest, CurveEndpointsAndMonotonicity) {
  std::vector<double> V = {4.0, 1.0, 2.0, 3.0};
  std::vector<double> Curve = lorenzCurve(V);
  ASSERT_EQ(Curve.size(), 5u);
  EXPECT_DOUBLE_EQ(Curve.front(), 0.0);
  EXPECT_DOUBLE_EQ(Curve.back(), 1.0);
  for (size_t I = 1; I != Curve.size(); ++I)
    EXPECT_GE(Curve[I], Curve[I - 1]);
  // Below the diagonal everywhere.
  for (size_t I = 0; I != Curve.size(); ++I)
    EXPECT_LE(Curve[I], static_cast<double>(I) / 4.0 + 1e-12);
}

TEST(LorenzTest, BalancedCurveIsDiagonal) {
  std::vector<double> Curve = lorenzCurve({2.0, 2.0, 2.0, 2.0});
  for (size_t I = 0; I != Curve.size(); ++I)
    EXPECT_NEAR(Curve[I], static_cast<double>(I) / 4.0, 1e-12);
  EXPECT_NEAR(lorenzArea({2.0, 2.0, 2.0, 2.0}), 0.0, 1e-12);
}

TEST(LorenzTest, AreaIsHalfGini) {
  std::vector<double> V = {1.0, 2.0, 3.0, 10.0};
  double Gini = imbalanceIndexAs(DispersionKind::Gini, V);
  EXPECT_NEAR(lorenzArea(V), Gini / 2.0, 1e-12);
}

//===----------------------------------------------------------------------===//
// Property: every index is Schur-convex (consistent with majorization).
// A Robin Hood transfer makes the vector strictly more balanced, so no
// index may increase.  This is the theoretical requirement the paper's
// majorization framework places on an "index of dispersion".
//===----------------------------------------------------------------------===//

class SchurConvexityTest
    : public ::testing::TestWithParam<std::tuple<DispersionKind, uint64_t>> {
};

TEST_P(SchurConvexityTest, RobinHoodTransferNeverIncreasesIndex) {
  auto [Kind, Seed] = GetParam();
  RNG Rng(Seed);
  for (int Trial = 0; Trial != 50; ++Trial) {
    size_t N = 2 + Rng.uniformInt(14);
    std::vector<double> V(N);
    for (double &X : V)
      X = Rng.uniformIn(0.0, 10.0);
    double Gap = stats::maximum(V) - stats::minimum(V);
    if (Gap <= 0.0)
      continue;
    double Amount = Rng.uniformIn(0.0, Gap / 2.0);
    std::vector<double> Balanced = robinHoodTransfer(V, Amount);
    double Before = imbalanceIndexAs(Kind, V);
    double After = imbalanceIndexAs(Kind, Balanced);
    EXPECT_LE(After, Before + 1e-9)
        << dispersionKindName(Kind) << " increased on a transfer";
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKindsAndSeeds, SchurConvexityTest,
    ::testing::Combine(::testing::ValuesIn(AllDispersionKinds),
                       ::testing::Values(1u, 2u, 3u)),
    [](const auto &Info) {
      return std::string(dispersionKindName(std::get<0>(Info.param))) + "_" +
             std::to_string(std::get<1>(Info.param));
    });

//===----------------------------------------------------------------------===//
// Property: the Euclidean index respects the majorization partial order
// on share vectors whenever two vectors are comparable.
//===----------------------------------------------------------------------===//

class MajorizationConsistencyTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(MajorizationConsistencyTest, ComparableVectorsOrderTheirIndices) {
  RNG Rng(GetParam());
  int Checked = 0;
  for (int Trial = 0; Trial != 300; ++Trial) {
    size_t N = 2 + Rng.uniformInt(8);
    std::vector<double> X(N), Y(N);
    for (double &V : X)
      V = Rng.uniformIn(0.0, 1.0);
    // Y: a chain of transfers applied to X, guaranteeing X majorizes Y.
    Y = X;
    for (int T = 0; T != 3; ++T) {
      double Gap = stats::maximum(Y) - stats::minimum(Y);
      if (Gap <= 0.0)
        break;
      Y = robinHoodTransfer(Y, Rng.uniformIn(0.0, Gap / 2.0));
    }
    if (!majorizes(X, Y))
      continue;
    ++Checked;
    EXPECT_LE(imbalanceIndex(Y), imbalanceIndex(X) + 1e-9);
  }
  EXPECT_GT(Checked, 200); // The generator must actually produce pairs.
}

INSTANTIATE_TEST_SUITE_P(Seeds, MajorizationConsistencyTest,
                         ::testing::Values(11u, 22u, 33u, 44u));
