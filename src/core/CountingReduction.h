//===- core/CountingReduction.h - Counting-parameter cubes ------*- C++ -*-===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The "counting parameters" of Section 2 of the paper: besides timings,
/// the performance of a parallel program is characterized by counts —
/// number of messages, bytes sent/received, and so on.  The paper
/// focuses on timings "not to clutter the presentation"; this module
/// supplies the counting side.  A counting metric reduces a trace to a
/// MeasurementCube whose cells are per-(region, processor) counts, so
/// the entire dissimilarity machinery (standardization, indices of
/// dispersion, views, pattern diagrams) applies unchanged to counts.
///
//===----------------------------------------------------------------------===//

#ifndef LIMA_CORE_COUNTINGREDUCTION_H
#define LIMA_CORE_COUNTINGREDUCTION_H

#include "core/Measurement.h"
#include "support/Error.h"
#include "support/ParseLimits.h"
#include "trace/Trace.h"
#include <string_view>

namespace lima {
namespace core {

/// Counting metrics derivable from a message-passing trace.
enum class CountingMetric {
  /// Point-to-point messages sent.
  MessagesSent,
  /// Point-to-point payload bytes sent.
  BytesSent,
  /// Point-to-point messages received.
  MessagesReceived,
  /// Point-to-point payload bytes received.
  BytesReceived,
};

/// Human-readable metric name ("messages-sent", ...).
std::string_view countingMetricName(CountingMetric Metric);

/// Reduces \p T to a cube of \p Metric counts: one region per trace
/// region, a single pseudo-activity named after the metric, one column
/// per processor.  Message events are attributed, through the attribution
/// fold (trace/Fold.h), to the innermost region open on the sending
/// (receiving) processor; events outside any region are dropped.  In
/// strict mode the fold's walk fails with trace::Trace::validate's error,
/// which comes before a trace without regions fails with MissingSection.
///
/// The resulting cube's "times" are counts; the region/activity views
/// and pattern diagrams operate on it unchanged because the methodology
/// only relies on non-negativity and standardization.
Expected<MeasurementCube>
reduceTraceCounts(const trace::Trace &T, CountingMetric Metric,
                  ParseMode Mode = ParseMode::Strict);

} // namespace core
} // namespace lima

#endif // LIMA_CORE_COUNTINGREDUCTION_H
