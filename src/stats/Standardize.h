//===- stats/Standardize.h - Wall-clock time standardization ----*- C++ -*-===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Standardization of wall-clock times as used in Section 3 of the paper:
/// "the standardized times are such that they sum to one, that is, they
/// are obtained by dividing the wall clock times by the corresponding
/// sum."  The resulting share vectors make dispersion indices a *relative*
/// measure, comparable across regions and activities of very different
/// absolute duration.
///
//===----------------------------------------------------------------------===//

#ifndef LIMA_STATS_STANDARDIZE_H
#define LIMA_STATS_STANDARDIZE_H

#include <span>
#include <vector>

namespace lima {
namespace stats {

/// Divides each element by the vector sum so the result sums to one.
///
/// All elements must be non-negative.  A zero-sum vector (an activity no
/// processor performed) standardizes to all-zeros, which downstream code
/// treats as "perfectly balanced, index 0".
std::vector<double> toShares(std::span<const double> Values);

/// Allocation-free form of toShares: writes the shares of \p Values into
/// \p Shares (same length) and returns the compensated sum of \p Values
/// they were divided by.
double toShares(std::span<const double> Values, std::span<double> Shares);

/// True when \p Shares is a valid share vector: non-negative entries that
/// sum to 1 within tolerance, or all-zero.
bool isShareVector(std::span<const double> Shares, double Tol = 1e-9);

} // namespace stats
} // namespace lima

#endif // LIMA_STATS_STANDARDIZE_H
