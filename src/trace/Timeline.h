//===- trace/Timeline.h - ASCII execution timelines -------------*- C++ -*-===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Renders a trace as a per-processor ASCII timeline: time is split into
/// fixed-width buckets and each bucket shows the activity the processor
/// spent most of that bucket in.  The textual cousin of the space-time
/// diagrams of ParaGraph/Jumpshot cited by the paper; handy for a quick
/// visual sanity check before the quantitative analysis.
///
//===----------------------------------------------------------------------===//

#ifndef LIMA_TRACE_TIMELINE_H
#define LIMA_TRACE_TIMELINE_H

#include "support/Error.h"
#include "support/ParseLimits.h"
#include "trace/Trace.h"
#include <string>

namespace lima {
namespace trace {

/// Timeline rendering options.
struct TimelineOptions {
  /// Number of character buckets the span is divided into.
  unsigned Width = 72;
  /// Character for time outside any activity bracket.
  char IdleChar = ' ';
  /// Characters cycled through for activity ids 0, 1, 2, ...
  /// (default: the paper's four activities get c, p, C, s).
  std::string ActivityChars = "cpCs";
};

/// Renders one character row per processor plus a legend and a time
/// axis.  Each bucket shows the activity covering the largest share of
/// that time slice, IdleChar when none overlaps it.  The intervals are
/// those trace::foldTrace (trace/Fold.h) reports: strict mode fails with
/// trace::Trace::validate's error, and lenient mode paints no interval
/// the fold drops.
Expected<std::string> renderTimeline(const Trace &T,
                                     const TimelineOptions &Options = {},
                                     ParseMode Mode = ParseMode::Strict);

} // namespace trace
} // namespace lima

#endif // LIMA_TRACE_TIMELINE_H
