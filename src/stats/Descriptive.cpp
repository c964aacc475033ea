//===- stats/Descriptive.cpp - Descriptive statistics ---------------------===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "stats/Descriptive.h"
#include "support/MathUtils.h"
#include <algorithm>
#include <cassert>
#include <cmath>
#include <vector>

using namespace lima;

double stats::sum(std::span<const double> Values) {
  return sumKahan(Values);
}

double stats::mean(std::span<const double> Values) {
  assert(!Values.empty() && "mean of empty vector");
  return sum(Values) / static_cast<double>(Values.size());
}

double stats::variance(std::span<const double> Values) {
  assert(!Values.empty() && "variance of empty vector");
  double Mu = mean(Values);
  KahanSum Acc;
  for (double V : Values)
    Acc.add((V - Mu) * (V - Mu));
  return Acc.total() / static_cast<double>(Values.size());
}

double stats::sampleVariance(std::span<const double> Values) {
  assert(Values.size() >= 2 && "sample variance needs at least two values");
  double Mu = mean(Values);
  KahanSum Acc;
  for (double V : Values)
    Acc.add((V - Mu) * (V - Mu));
  return Acc.total() / static_cast<double>(Values.size() - 1);
}

double stats::stdDev(std::span<const double> Values) {
  return std::sqrt(variance(Values));
}

double stats::coefficientOfVariation(std::span<const double> Values) {
  double Mu = mean(Values);
  assert(Mu != 0.0 && "coefficient of variation undefined for zero mean");
  return stdDev(Values) / Mu;
}

double stats::meanAbsoluteDeviation(std::span<const double> Values) {
  assert(!Values.empty() && "MAD of empty vector");
  double Mu = mean(Values);
  KahanSum Acc;
  for (double V : Values)
    Acc.add(std::fabs(V - Mu));
  return Acc.total() / static_cast<double>(Values.size());
}

double stats::minimum(std::span<const double> Values) {
  assert(!Values.empty() && "minimum of empty vector");
  return *std::min_element(Values.begin(), Values.end());
}

double stats::maximum(std::span<const double> Values) {
  assert(!Values.empty() && "maximum of empty vector");
  return *std::max_element(Values.begin(), Values.end());
}

double stats::median(std::span<const double> Values) {
  return percentile(Values, 50.0);
}

double stats::percentile(std::span<const double> Values, double Q) {
  assert(!Values.empty() && "percentile of empty vector");
  assert(Q >= 0.0 && Q <= 100.0 && "percentile must be in [0, 100]");
  std::vector<double> Sorted(Values.begin(), Values.end());
  std::sort(Sorted.begin(), Sorted.end());
  if (Sorted.size() == 1)
    return Sorted.front();
  double Rank = Q / 100.0 * static_cast<double>(Sorted.size() - 1);
  size_t Lo = static_cast<size_t>(Rank);
  size_t Hi = std::min(Lo + 1, Sorted.size() - 1);
  double Frac = Rank - static_cast<double>(Lo);
  return Sorted[Lo] + Frac * (Sorted[Hi] - Sorted[Lo]);
}

bool stats::isAllZero(std::span<const double> Values) {
  return std::all_of(Values.begin(), Values.end(),
                     [](double V) { return V == 0.0; });
}

size_t stats::argMax(std::span<const double> Values) {
  assert(!Values.empty() && "argMax of empty vector");
  return static_cast<size_t>(
      std::max_element(Values.begin(), Values.end()) - Values.begin());
}

size_t stats::argMin(std::span<const double> Values) {
  assert(!Values.empty() && "argMin of empty vector");
  return static_cast<size_t>(
      std::min_element(Values.begin(), Values.end()) - Values.begin());
}
