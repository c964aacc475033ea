//===- stats/Descriptive.h - Descriptive statistics -------------*- C++ -*-===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Descriptive statistics over double vectors: moments, order statistics
/// and percentiles.  These are the primitives the dispersion indices of
/// Section 3 of the paper are assembled from.
///
//===----------------------------------------------------------------------===//

#ifndef LIMA_STATS_DESCRIPTIVE_H
#define LIMA_STATS_DESCRIPTIVE_H

#include <cstddef>
#include <span>

namespace lima {
namespace stats {

/// Sum using compensated summation.
double sum(std::span<const double> Values);

/// Arithmetic mean; asserts on empty input.
double mean(std::span<const double> Values);

/// Population variance (divides by N); asserts on empty input.
double variance(std::span<const double> Values);

/// Sample variance (divides by N-1); asserts on fewer than two values.
double sampleVariance(std::span<const double> Values);

/// Population standard deviation.
double stdDev(std::span<const double> Values);

/// Coefficient of variation stdDev/mean; asserts when the mean is zero.
double coefficientOfVariation(std::span<const double> Values);

/// Mean absolute deviation around the mean.
double meanAbsoluteDeviation(std::span<const double> Values);

/// Smallest element; asserts on empty input.
double minimum(std::span<const double> Values);

/// Largest element; asserts on empty input.
double maximum(std::span<const double> Values);

/// Median (linear-interpolated 50th percentile).
double median(std::span<const double> Values);

/// Percentile \p Q in [0, 100] with linear interpolation between order
/// statistics (the "linear" / R type-7 rule); asserts on empty input.
double percentile(std::span<const double> Values, double Q);

/// True when every element is zero (vacuously for an empty range).
bool isAllZero(std::span<const double> Values);

/// Index of the largest element; ties resolve to the first occurrence.
size_t argMax(std::span<const double> Values);

/// Index of the smallest element; ties resolve to the first occurrence.
size_t argMin(std::span<const double> Values);

} // namespace stats
} // namespace lima

#endif // LIMA_STATS_DESCRIPTIVE_H
