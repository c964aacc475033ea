//===- core/TraceReduction.h - Trace to measurement cube --------*- C++ -*-===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Post-mortem reduction of an event trace to the measurement cube: for
/// every processor, activity intervals are attributed to the enclosing
/// code region.  This is the "analyzing the performance measures post
/// mortem" step of the paper's experimental approach.
///
//===----------------------------------------------------------------------===//

#ifndef LIMA_CORE_TRACEREDUCTION_H
#define LIMA_CORE_TRACEREDUCTION_H

#include "core/Measurement.h"
#include "support/Error.h"
#include "support/ParseLimits.h"
#include "trace/Trace.h"

namespace lima {
namespace core {

/// Options for reduceTrace.
struct ReductionOptions {
  /// When true, time inside a region not covered by any activity bracket
  /// is attributed to GapActivity (by id); when false, gaps are dropped.
  bool AttributeGaps = false;
  /// Activity receiving gap time when AttributeGaps is set.
  uint32_t GapActivity = 0;
  /// Set the cube's explicit program time to the trace span (max event
  /// time): the program's wall-clock duration, including uninstrumented
  /// stretches between regions.
  bool ProgramTimeFromSpan = true;
  /// Worker threads for the one walk over the trace, one processor per
  /// shard (0 = all hardware threads, 1 = serial); in strict mode that
  /// walk is also the validation.  Results are bit-identical at any
  /// setting: each processor's stream is checked into its own slot and
  /// folds into disjoint cube cells.
  unsigned Threads = 0;
  /// Strict: the walk applies every rule of trace::Trace::validate and
  /// fails with its error.  Lenient: the fold drops what validation
  /// would reject, counted into Report, and keeps the surrounding
  /// structure intact — one bad event no longer kills a million-event
  /// analysis.
  ParseMode Mode = ParseMode::Strict;
  /// Receives dropped-event counts in lenient mode.  Per-processor
  /// shard reports are merged in processor order, so counts are
  /// deterministic at any thread count.
  ParseReport *Report = nullptr;
};

/// Reduces \p T to a cube with one region per trace region, one activity
/// per trace activity and one column per processor, in one
/// trace::foldTrace walk (trace/Fold.h).  In strict mode that walk fails
/// with trace::Trace::validate's error, which comes before the errors of
/// a trace no cube can hold (no regions, no activities, a gap activity
/// out of range).
Expected<MeasurementCube> reduceTrace(const trace::Trace &T,
                                      const ReductionOptions &Options = {});

} // namespace core
} // namespace lima

#endif // LIMA_CORE_TRACEREDUCTION_H
