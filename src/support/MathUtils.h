//===- support/MathUtils.h - Numerical helpers ------------------*- C++ -*-===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Numerically careful summation and floating-point comparison helpers.
///
//===----------------------------------------------------------------------===//

#ifndef LIMA_SUPPORT_MATHUTILS_H
#define LIMA_SUPPORT_MATHUTILS_H

#include <cmath>
#include <cstddef>
#include <span>

namespace lima {

/// Kahan compensated summation; exact enough for the long accumulations
/// in the dispersion-index computations.
class KahanSum {
public:
  /// Adds \p Value to the running sum.
  void add(double Value) {
    double Y = Value - Compensation;
    double T = Sum + Y;
    Compensation = (T - Sum) - Y;
    Sum = T;
  }

  /// Returns the compensated total.
  double total() const { return Sum; }

private:
  double Sum = 0.0;
  double Compensation = 0.0;
};

/// Compensated sum of a whole range.
double sumKahan(std::span<const double> Values);

/// True when |A - B| <= AbsTol + RelTol * max(|A|, |B|).
inline bool almostEqual(double A, double B, double AbsTol = 1e-12,
                        double RelTol = 1e-9) {
  double Diff = std::fabs(A - B);
  if (Diff <= AbsTol)
    return true;
  return Diff <= RelTol * std::fmax(std::fabs(A), std::fabs(B));
}

} // namespace lima

#endif // LIMA_SUPPORT_MATHUTILS_H
