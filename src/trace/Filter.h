//===- trace/Filter.h - Trace slicing ---------------------------*- C++ -*-===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Slicing of traces before analysis: keep only a subset of the code
/// regions and/or a time window.  A region *instance* survives the time
/// filter only if its whole [enter, exit] bracket lies inside the
/// window, so bracket integrity is preserved by construction.  Message
/// events are dropped by default — a slice generally separates matching
/// send/recv pairs, and the measurement-cube reduction does not need
/// them; pass KeepMessages to retain them (the sliced trace may then
/// fail the full validation).
///
//===----------------------------------------------------------------------===//

#ifndef LIMA_TRACE_FILTER_H
#define LIMA_TRACE_FILTER_H

#include "support/Error.h"
#include "support/ParseLimits.h"
#include "trace/Trace.h"
#include <limits>
#include <string>
#include <vector>

namespace lima {
namespace trace {

/// Filtering options.
struct FilterOptions {
  /// Region names to keep; empty keeps every region.
  std::vector<std::string> Regions;
  /// Time window; instances must lie entirely within [Begin, End].
  double TimeBegin = 0.0;
  double TimeEnd = std::numeric_limits<double>::infinity();
  /// Retain message events of surviving instances (see file comment).
  bool KeepMessages = false;
};

/// Produces the sliced trace.  The region/activity name tables are kept
/// complete (so region ids remain comparable across slices); only the
/// events are filtered.  Fails when a requested region name does not
/// exist or the window is empty.
///
/// In strict \p Mode the input must validate.  In lenient mode it is
/// not validated: before slicing, each processor's events go through
/// the lenient attribution fold (trace/Fold.h), and the events it drops
/// are left out of the slice and counted in \p Report when one is
/// given.  A lenient reduction of the slice then drops nothing again,
/// so each drop is reported once.
Expected<Trace> filterTrace(const Trace &T, const FilterOptions &Options,
                            ParseMode Mode = ParseMode::Strict,
                            ParseReport *Report = nullptr);

} // namespace trace
} // namespace lima

#endif // LIMA_TRACE_FILTER_H
