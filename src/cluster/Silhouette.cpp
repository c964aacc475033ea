//===- cluster/Silhouette.cpp - Clustering quality scores -----------------===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "cluster/Silhouette.h"
#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <map>
#include <tuple>

using namespace lima;
using namespace lima::cluster;

std::vector<double>
cluster::silhouetteValues(const std::vector<std::vector<double>> &Points,
                          const std::vector<size_t> &Assignments,
                          Metric DistanceMetric) {
  assert(Points.size() == Assignments.size() && "assignment size mismatch");
  size_t N = Points.size();
  size_t K = 0;
  for (size_t A : Assignments)
    K = std::max(K, A + 1);

  std::vector<size_t> Sizes(K, 0);
  for (size_t A : Assignments)
    ++Sizes[A];

  // Equal points of one cluster score alike: they add the same distances
  // in the same order and differ only in where their zero distance to
  // each other is skipped.  So each distinct (cluster, point) is scored
  // once and copied to its duplicates; a point with a non-finite
  // coordinate, which is no distance 0 from itself, is scored alone.
  auto lessPoint = [&](size_t A, size_t B) {
    return std::tie(Assignments[A], Points[A]) <
           std::tie(Assignments[B], Points[B]);
  };
  std::map<size_t, double, decltype(lessPoint)> Scored(lessPoint);
  std::vector<double> Values(N, 0.0);
  std::vector<double> MeanDist(K);
  for (size_t P = 0; P != N; ++P) {
    size_t Own = Assignments[P];
    if (Sizes[Own] <= 1)
      continue; // Singleton scores 0 by convention.
    bool Finite = std::all_of(Points[P].begin(), Points[P].end(),
                              [](double X) { return std::isfinite(X); });
    if (Finite) {
      auto It = Scored.find(P);
      if (It != Scored.end()) {
        Values[P] = It->second;
        continue;
      }
    }
    // Mean distance to each cluster.
    std::fill(MeanDist.begin(), MeanDist.end(), 0.0);
    for (size_t Q = 0; Q != N; ++Q) {
      if (Q == P)
        continue;
      MeanDist[Assignments[Q]] +=
          distance(DistanceMetric, Points[P], Points[Q]);
    }
    for (size_t C = 0; C != K; ++C) {
      size_t Denominator = C == Own ? Sizes[C] - 1 : Sizes[C];
      if (Denominator > 0)
        MeanDist[C] /= static_cast<double>(Denominator);
    }
    double A = MeanDist[Own];
    double B = std::numeric_limits<double>::infinity();
    for (size_t C = 0; C != K; ++C)
      if (C != Own && Sizes[C] > 0)
        B = std::min(B, MeanDist[C]);
    // Only one non-empty cluster: undefined, score 0.
    if (std::isfinite(B)) {
      double Denominator = std::max(A, B);
      Values[P] = Denominator > 0.0 ? (B - A) / Denominator : 0.0;
    }
    if (Finite)
      Scored.emplace(P, Values[P]);
  }
  return Values;
}

double cluster::silhouetteScore(const std::vector<std::vector<double>> &Points,
                                const std::vector<size_t> &Assignments,
                                Metric DistanceMetric) {
  std::vector<double> Values =
      silhouetteValues(Points, Assignments, DistanceMetric);
  if (Values.empty())
    return 0.0;
  double Sum = 0.0;
  for (double V : Values)
    Sum += V;
  return Sum / static_cast<double>(Values.size());
}
