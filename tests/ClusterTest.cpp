//===- tests/ClusterTest.cpp - clustering library tests -------------------===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "cluster/ClusterSelection.h"
#include "cluster/Distance.h"
#include "cluster/Hierarchical.h"
#include "cluster/KMeans.h"
#include "cluster/Silhouette.h"
#include "support/RNG.h"
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <gtest/gtest.h>
#include <limits>
#include <set>
#include <string>

using namespace lima;
using namespace lima::cluster;

namespace {

/// Three well-separated 2-D blobs of \p PerBlob points each.
std::vector<std::vector<double>> makeBlobs(size_t PerBlob, uint64_t Seed) {
  const double Centers[3][2] = {{0.0, 0.0}, {10.0, 0.0}, {0.0, 10.0}};
  RNG Rng(Seed);
  std::vector<std::vector<double>> Points;
  for (const auto &Center : Centers)
    for (size_t I = 0; I != PerBlob; ++I)
      Points.push_back(
          {Center[0] + Rng.normal() * 0.3, Center[1] + Rng.normal() * 0.3});
  return Points;
}

/// True when \p Assignments puts exactly the points of each blob
/// together (labels may be permuted).
bool recoversBlobs(const std::vector<size_t> &Assignments, size_t PerBlob) {
  for (size_t Blob = 0; Blob != 3; ++Blob) {
    size_t First = Assignments[Blob * PerBlob];
    for (size_t I = 0; I != PerBlob; ++I)
      if (Assignments[Blob * PerBlob + I] != First)
        return false;
    for (size_t Other = 0; Other != 3 * PerBlob; ++Other)
      if (Other / PerBlob != Blob && Assignments[Other] == First)
        return false;
  }
  return true;
}

} // namespace

//===----------------------------------------------------------------------===//
// Distances
//===----------------------------------------------------------------------===//

TEST(DistanceTest, KnownValues) {
  std::vector<double> A = {0.0, 0.0}, B = {3.0, 4.0};
  EXPECT_DOUBLE_EQ(distance(Metric::Euclidean, A, B), 5.0);
  EXPECT_DOUBLE_EQ(distance(Metric::SquaredEuclidean, A, B), 25.0);
  EXPECT_DOUBLE_EQ(distance(Metric::Manhattan, A, B), 7.0);
  EXPECT_DOUBLE_EQ(distance(Metric::Chebyshev, A, B), 4.0);
}

TEST(DistanceTest, IdentityAndSymmetry) {
  std::vector<double> A = {1.5, -2.0, 3.0}, B = {0.5, 1.0, -1.0};
  for (Metric M : {Metric::Euclidean, Metric::SquaredEuclidean,
                   Metric::Manhattan, Metric::Chebyshev}) {
    EXPECT_DOUBLE_EQ(distance(M, A, A), 0.0) << metricName(M);
    EXPECT_DOUBLE_EQ(distance(M, A, B), distance(M, B, A)) << metricName(M);
  }
}

//===----------------------------------------------------------------------===//
// k-means
//===----------------------------------------------------------------------===//

class KMeansInitTest : public ::testing::TestWithParam<KMeansInit> {};

TEST_P(KMeansInitTest, RecoversSeparatedBlobs) {
  auto Points = makeBlobs(20, 5);
  KMeansOptions Options;
  Options.K = 3;
  Options.Init = GetParam();
  Options.Seed = 9;
  auto Result = cantFail(kMeans(Points, Options));
  EXPECT_TRUE(recoversBlobs(Result.Assignments, 20))
      << kmeansInitName(GetParam());
  EXPECT_LT(Result.Inertia, 60.0 * 2.0); // ~N * dim * 0.3^2 with slack.
}

INSTANTIATE_TEST_SUITE_P(AllInits, KMeansInitTest,
                         ::testing::Values(KMeansInit::RandomPoints,
                                           KMeansInit::PlusPlus,
                                           KMeansInit::FarthestFirst),
                         [](const auto &Info) {
                           std::string Name(kmeansInitName(Info.param));
                           std::replace(Name.begin(), Name.end(), '+', 'p');
                           std::replace(Name.begin(), Name.end(), '-', '_');
                           return Name;
                         });

TEST(KMeansTest, DeterministicForFixedSeed) {
  auto Points = makeBlobs(10, 3);
  KMeansOptions Options;
  Options.K = 3;
  Options.Seed = 42;
  auto A = cantFail(kMeans(Points, Options));
  auto B = cantFail(kMeans(Points, Options));
  EXPECT_EQ(A.Assignments, B.Assignments);
  EXPECT_DOUBLE_EQ(A.Inertia, B.Inertia);
}

TEST(KMeansTest, RejectsZeroK) {
  KMeansOptions Options;
  Options.K = 0;
  auto Result = kMeans({{1.0}, {2.0}}, Options);
  EXPECT_FALSE(static_cast<bool>(Result));
  Result.takeError().consume();
}

TEST(KMeansTest, RejectsTooFewDistinctPoints) {
  KMeansOptions Options;
  Options.K = 3;
  auto Result = kMeans({{1.0}, {1.0}, {2.0}}, Options);
  EXPECT_FALSE(static_cast<bool>(Result));
  Result.takeError().consume();
}

TEST(KMeansTest, RejectsMixedDimensions) {
  KMeansOptions Options;
  Options.K = 1;
  auto Result = kMeans({{1.0, 2.0}, {1.0}}, Options);
  EXPECT_FALSE(static_cast<bool>(Result));
  Result.takeError().consume();
}

TEST(KMeansTest, KEqualsNumberOfDistinctPoints) {
  KMeansOptions Options;
  Options.K = 3;
  auto Result =
      cantFail(kMeans({{0.0, 0.0}, {5.0, 0.0}, {0.0, 5.0}}, Options));
  EXPECT_NEAR(Result.Inertia, 0.0, 1e-12);
  std::set<size_t> Labels(Result.Assignments.begin(),
                          Result.Assignments.end());
  EXPECT_EQ(Labels.size(), 3u);
}

TEST(KMeansTest, MembersPartitionInput) {
  auto Points = makeBlobs(5, 8);
  KMeansOptions Options;
  Options.K = 3;
  auto Result = cantFail(kMeans(Points, Options));
  auto Members = Result.members();
  size_t Total = 0;
  for (const auto &Group : Members)
    Total += Group.size();
  EXPECT_EQ(Total, Points.size());
}

TEST(KMeansTest, HartiganRefinementNeverWorsensInertia) {
  auto Points = makeBlobs(15, 21);
  KMeansOptions Plain;
  Plain.K = 3;
  Plain.Seed = 5;
  Plain.Restarts = 1;
  Plain.HartiganRefinement = false;
  KMeansOptions Refined = Plain;
  Refined.HartiganRefinement = true;
  auto A = cantFail(kMeans(Points, Plain));
  auto B = cantFail(kMeans(Points, Refined));
  EXPECT_LE(B.Inertia, A.Inertia + 1e-9);
}

//===----------------------------------------------------------------------===//
// Hierarchical clustering
//===----------------------------------------------------------------------===//

class LinkageTest : public ::testing::TestWithParam<Linkage> {};

TEST_P(LinkageTest, RecoversSeparatedBlobsAtCutThree) {
  auto Points = makeBlobs(8, 12);
  auto Tree = cantFail(
      hierarchicalCluster(Points, Metric::Euclidean, GetParam()));
  EXPECT_EQ(Tree.NumPoints, Points.size());
  EXPECT_EQ(Tree.Merges.size(), Points.size() - 1);
  auto Assignments = Tree.cut(3);
  EXPECT_TRUE(recoversBlobs(Assignments, 8)) << linkageName(GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllLinkages, LinkageTest,
                         ::testing::Values(Linkage::Single, Linkage::Complete,
                                           Linkage::Average),
                         [](const auto &Info) {
                           return std::string(linkageName(Info.param));
                         });

TEST(HierarchicalTest, CutExtremes) {
  auto Points = makeBlobs(3, 4);
  auto Tree =
      cantFail(hierarchicalCluster(Points, Metric::Euclidean,
                                   Linkage::Average));
  auto AllOne = Tree.cut(1);
  EXPECT_EQ(std::set<size_t>(AllOne.begin(), AllOne.end()).size(), 1u);
  auto AllSingletons = Tree.cut(Points.size());
  EXPECT_EQ(std::set<size_t>(AllSingletons.begin(), AllSingletons.end())
                .size(),
            Points.size());
}

TEST(HierarchicalTest, SingleLinkageMergesNearestFirst) {
  std::vector<std::vector<double>> Points = {{0.0}, {1.0}, {10.0}};
  auto Tree = cantFail(
      hierarchicalCluster(Points, Metric::Euclidean, Linkage::Single));
  EXPECT_DOUBLE_EQ(Tree.Merges[0].Distance, 1.0);
  EXPECT_DOUBLE_EQ(Tree.Merges[1].Distance, 9.0);
}

TEST(HierarchicalTest, CompleteLinkageUsesFarthestPair) {
  std::vector<std::vector<double>> Points = {{0.0}, {1.0}, {10.0}};
  auto Tree = cantFail(
      hierarchicalCluster(Points, Metric::Euclidean, Linkage::Complete));
  // Second merge joins {0,1} with {10}: complete distance = 10.
  EXPECT_DOUBLE_EQ(Tree.Merges[1].Distance, 10.0);
}

TEST(HierarchicalTest, RejectsEmptyInput) {
  auto Result =
      hierarchicalCluster({}, Metric::Euclidean, Linkage::Average);
  EXPECT_FALSE(static_cast<bool>(Result));
  Result.takeError().consume();
}

//===----------------------------------------------------------------------===//
// Silhouette
//===----------------------------------------------------------------------===//

TEST(SilhouetteTest, SeparatedBlobsScoreHigh) {
  auto Points = makeBlobs(10, 6);
  std::vector<size_t> Truth(Points.size());
  for (size_t I = 0; I != Points.size(); ++I)
    Truth[I] = I / 10;
  EXPECT_GT(silhouetteScore(Points, Truth), 0.85);
}

TEST(SilhouetteTest, BadPartitionScoresLower) {
  auto Points = makeBlobs(10, 6);
  std::vector<size_t> Truth(Points.size()), Scrambled(Points.size());
  for (size_t I = 0; I != Points.size(); ++I) {
    Truth[I] = I / 10;
    Scrambled[I] = I % 3; // Mixes the blobs.
  }
  EXPECT_GT(silhouetteScore(Points, Truth),
            silhouetteScore(Points, Scrambled) + 0.5);
}

TEST(SilhouetteTest, SingletonClusterScoresZero) {
  std::vector<std::vector<double>> Points = {{0.0}, {0.1}, {5.0}};
  std::vector<size_t> Assignments = {0, 0, 1};
  auto Values = silhouetteValues(Points, Assignments);
  EXPECT_DOUBLE_EQ(Values[2], 0.0);
  EXPECT_GT(Values[0], 0.9);
}

TEST(SilhouetteTest, SingleClusterIsZeroOverall) {
  std::vector<std::vector<double>> Points = {{0.0}, {1.0}, {2.0}};
  std::vector<size_t> Assignments = {0, 0, 0};
  EXPECT_DOUBLE_EQ(silhouetteScore(Points, Assignments), 0.0);
}

TEST(SilhouetteTest, DuplicatePointsScoreAsEveryPairWould) {
  // Equal points are scored once per cluster; every value must still
  // equal, bit for bit, what comparing every pair gives.
  RNG Rng(17);
  std::vector<std::vector<double>> Points;
  std::vector<size_t> Assignments;
  for (size_t I = 0; I != 120; ++I) {
    Points.push_back({static_cast<double>(Rng.uniformInt(4)),
                      0.5 * static_cast<double>(Rng.uniformInt(3))});
    Assignments.push_back(Rng.uniformInt(3));
  }
  Points.push_back({std::numeric_limits<double>::infinity(), 0.0});
  Assignments.push_back(0);
  Points.push_back({std::numeric_limits<double>::infinity(), 0.0});
  Assignments.push_back(0);
  for (Metric M : {Metric::Euclidean, Metric::Manhattan}) {
    std::vector<double> Values = silhouetteValues(Points, Assignments, M);
    size_t N = Points.size();
    for (size_t P = 0; P != N; ++P) {
      std::vector<double> Sum(3, 0.0);
      std::vector<size_t> Size(3, 0);
      for (size_t Q = 0; Q != N; ++Q) {
        ++Size[Assignments[Q]];
        if (Q != P)
          Sum[Assignments[Q]] += distance(M, Points[P], Points[Q]);
      }
      size_t Own = Assignments[P];
      double A = Sum[Own] / static_cast<double>(Size[Own] - 1);
      double B = std::numeric_limits<double>::infinity();
      for (size_t C = 0; C != 3; ++C)
        if (C != Own)
          B = std::min(B, Sum[C] / static_cast<double>(Size[C]));
      double Expected = 0.0;
      if (std::isfinite(B) && std::max(A, B) > 0.0)
        Expected = (B - A) / std::max(A, B);
      EXPECT_EQ(std::memcmp(&Values[P], &Expected, sizeof(double)), 0)
          << "point " << P << ": " << Values[P] << " vs " << Expected;
    }
  }
}

TEST(SilhouetteTest, WideDuplicateInputScoresInLinearTime) {
  // Region clustering of a trace that declares 65,536 regions, one of
  // them with time: 65,535 equal points and one apart.  Scored once per
  // distinct point this takes milliseconds, also in the sanitizer
  // builds; comparing every pair took about half a minute.
  constexpr size_t N = 65536;
  std::vector<std::vector<double>> Points(N, {0.0, 0.0, 0.0, 0.0});
  Points[7] = {1.0, 0.5, 0.0, 0.0};
  std::vector<size_t> Assignments(N, 0);
  Assignments[7] = 1;
  constexpr double BoundSeconds = 4.0;
  auto Start = std::chrono::steady_clock::now();
  std::vector<double> Values = silhouetteValues(Points, Assignments);
  double Seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - Start)
                       .count();
  EXPECT_LT(Seconds, BoundSeconds);
  ASSERT_EQ(Values.size(), N);
  EXPECT_EQ(Values[7], 0.0); // A singleton.
  EXPECT_EQ(std::count(Values.begin(), Values.end(), 1.0),
            static_cast<std::ptrdiff_t>(N - 1));
}

//===----------------------------------------------------------------------===//
// Cluster-count selection
//===----------------------------------------------------------------------===//

TEST(ClusterSelectionTest, FindsThreeBlobs) {
  auto Points = makeBlobs(12, 9);
  auto Choice = cantFail(chooseClusterCount(Points, 6));
  EXPECT_EQ(Choice.K, 3u);
  EXPECT_GT(Choice.Silhouette, 0.8);
  EXPECT_EQ(Choice.Sweep.size(), 5u); // K = 2..6.
  EXPECT_TRUE(recoversBlobs(Choice.Result.Assignments, 12));
}

TEST(ClusterSelectionTest, ClampsToDistinctPointCount) {
  std::vector<std::vector<double>> Points = {{0.0}, {0.0}, {5.0}, {5.1}};
  auto Choice = cantFail(chooseClusterCount(Points, 10));
  EXPECT_LE(Choice.K, 3u); // Only 3 distinct points.
}

TEST(ClusterSelectionTest, RejectsDegenerateInput) {
  std::vector<std::vector<double>> Points = {{1.0}, {1.0}};
  auto Choice = chooseClusterCount(Points, 4);
  EXPECT_FALSE(static_cast<bool>(Choice));
  Choice.takeError().consume();
}
