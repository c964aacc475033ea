//===- stats/Dispersion.cpp - Indices of dispersion -----------------------===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "stats/Dispersion.h"
#include "stats/Descriptive.h"
#include "stats/Standardize.h"
#include "support/Compiler.h"
#include "support/MathUtils.h"
#include <algorithm>
#include <cassert>
#include <cmath>
#include <vector>

using namespace lima;
using namespace lima::stats;

const DispersionKind stats::AllDispersionKinds[7] = {
    DispersionKind::Euclidean,
    DispersionKind::Variance,
    DispersionKind::CoefficientOfVariation,
    DispersionKind::MeanAbsoluteDeviation,
    DispersionKind::Maximum,
    DispersionKind::Range,
    DispersionKind::Gini,
};

std::string_view stats::dispersionKindName(DispersionKind Kind) {
  switch (Kind) {
  case DispersionKind::Euclidean:
    return "euclidean";
  case DispersionKind::Variance:
    return "variance";
  case DispersionKind::CoefficientOfVariation:
    return "cv";
  case DispersionKind::MeanAbsoluteDeviation:
    return "mad";
  case DispersionKind::Maximum:
    return "max";
  case DispersionKind::Range:
    return "range";
  case DispersionKind::Gini:
    return "gini";
  }
  lima_unreachable("unknown DispersionKind");
}

static double euclideanFromMean(std::span<const double> Shares) {
  double Mean = mean(Shares);
  KahanSum Acc;
  for (double S : Shares)
    Acc.add((S - Mean) * (S - Mean));
  return std::sqrt(Acc.total());
}

static double giniCoefficient(std::span<const double> Shares) {
  // Mean absolute pairwise difference over twice the mean, computed in
  // O(n log n) via the sorted form.
  size_t N = Shares.size();
  assert(N > 0 && "gini of empty vector");
  std::vector<double> Sorted(Shares.begin(), Shares.end());
  std::sort(Sorted.begin(), Sorted.end());
  double Total = sum(Sorted);
  if (Total <= 0.0)
    return 0.0;
  KahanSum Weighted;
  for (size_t I = 0; I != N; ++I)
    Weighted.add((2.0 * static_cast<double>(I + 1) - static_cast<double>(N) -
                  1.0) *
                 Sorted[I]);
  return Weighted.total() / (static_cast<double>(N) * Total);
}

double stats::dispersionIndex(DispersionKind Kind,
                              std::span<const double> Shares) {
  assert(!Shares.empty() && "dispersion of empty vector");
  assert(isShareVector(Shares) && "dispersionIndex expects standardized data");
  if (isAllZero(Shares))
    return 0.0;
  switch (Kind) {
  case DispersionKind::Euclidean:
    return euclideanFromMean(Shares);
  case DispersionKind::Variance:
    return variance(Shares);
  case DispersionKind::CoefficientOfVariation:
    return coefficientOfVariation(Shares);
  case DispersionKind::MeanAbsoluteDeviation:
    return meanAbsoluteDeviation(Shares);
  case DispersionKind::Maximum:
    return maximum(Shares);
  case DispersionKind::Range:
    return maximum(Shares) - minimum(Shares);
  case DispersionKind::Gini:
    return giniCoefficient(Shares);
  }
  lima_unreachable("unknown DispersionKind");
}

double stats::imbalanceIndex(std::span<const double> Times) {
  return imbalanceIndexAs(DispersionKind::Euclidean, Times);
}

double stats::imbalanceIndexAs(DispersionKind Kind,
                               std::span<const double> Times) {
  return dispersionIndex(Kind, toShares(Times));
}

double stats::maxImbalanceIndex(size_t Count) {
  assert(Count > 0 && "need at least one element");
  return std::sqrt(1.0 - 1.0 / static_cast<double>(Count));
}
