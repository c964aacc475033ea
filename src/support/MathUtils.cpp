//===- support/MathUtils.cpp - Numerical helpers --------------------------===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "support/MathUtils.h"

using namespace lima;

double lima::sumKahan(std::span<const double> Values) {
  KahanSum Sum;
  for (double Value : Values)
    Sum.add(Value);
  return Sum.total();
}
