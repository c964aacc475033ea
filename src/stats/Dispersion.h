//===- stats/Dispersion.h - Indices of dispersion ---------------*- C++ -*-===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Indices of dispersion from majorization theory (Marshall & Olkin 1979)
/// as used by Section 3 of the paper.  The paper's chosen index is the
/// Euclidean distance between the standardized times and the perfectly
/// balanced point (all shares equal to 1/P); the alternatives it lists
/// (variance, coefficient of variation, mean absolute deviation, maximum,
/// sum) are implemented too so that the choice can be ablated.
///
//===----------------------------------------------------------------------===//

#ifndef LIMA_STATS_DISPERSION_H
#define LIMA_STATS_DISPERSION_H

#include <span>
#include <string_view>

namespace lima {
namespace stats {

/// The index-of-dispersion family.  All except Sum are Schur-convex on
/// share vectors, i.e. consistent with the majorization partial order.
enum class DispersionKind {
  /// sqrt(sum_p (x_p - mean)^2) — the paper's choice.
  Euclidean,
  /// Population variance of the shares.
  Variance,
  /// Standard deviation / mean.
  CoefficientOfVariation,
  /// Mean absolute deviation around the mean.
  MeanAbsoluteDeviation,
  /// Largest share.
  Maximum,
  /// Largest minus smallest share.
  Range,
  /// Gini coefficient (mean absolute pairwise difference / (2 * mean)).
  Gini,
};

/// All DispersionKind values, for parameterized sweeps.
extern const DispersionKind AllDispersionKinds[7];

/// Human-readable name of \p Kind ("euclidean", "variance", ...).
std::string_view dispersionKindName(DispersionKind Kind);

/// Computes the dispersion index of \p Kind over an already-standardized
/// share vector \p Shares.  An all-zero vector yields 0 for every kind.
double dispersionIndex(DispersionKind Kind, std::span<const double> Shares);

/// The paper's index of dispersion over *raw* wall-clock times: the times
/// are standardized to shares and the Euclidean distance from the
/// perfectly balanced point (all shares 1/P) is returned.
///
/// Equals 0 when all processors spent identical time (or none did), and
/// approaches sqrt(1 - 1/P) when one processor accounts for all the time.
double imbalanceIndex(std::span<const double> Times);

/// Like imbalanceIndex but with a selectable index family; raw times are
/// standardized first.
double imbalanceIndexAs(DispersionKind Kind, std::span<const double> Times);

/// The largest value imbalanceIndex can take for \p Count elements,
/// sqrt(1 - 1/Count); useful for normalizing indices to [0, 1].
double maxImbalanceIndex(size_t Count);

} // namespace stats
} // namespace lima

#endif // LIMA_STATS_DISPERSION_H
