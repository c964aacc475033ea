//===- stats/Standardize.cpp - Wall-clock time standardization ------------===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "stats/Standardize.h"
#include "stats/Descriptive.h"
#include "support/MathUtils.h"
#include <algorithm>
#include <cassert>
#include <cmath>

using namespace lima;

std::vector<double> stats::toShares(std::span<const double> Values) {
  std::vector<double> Shares(Values.size());
  toShares(Values, Shares);
  return Shares;
}

double stats::toShares(std::span<const double> Values,
                       std::span<double> Shares) {
  assert(Shares.size() == Values.size() && "share buffer size mismatch");
  for ([[maybe_unused]] double V : Values)
    assert(V >= 0.0 && "shares require non-negative values");
  double Total = sum(Values);
  if (Total <= 0.0) {
    std::fill(Shares.begin(), Shares.end(), 0.0);
    return Total;
  }
  for (size_t I = 0; I != Values.size(); ++I)
    Shares[I] = Values[I] / Total;
  return Total;
}

bool stats::isShareVector(std::span<const double> Shares, double Tol) {
  bool AllZero = true;
  for (double S : Shares) {
    if (S < -Tol)
      return false;
    if (S != 0.0)
      AllZero = false;
  }
  if (AllZero)
    return true;
  return std::fabs(sum(Shares) - 1.0) <= Tol;
}
