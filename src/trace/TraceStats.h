//===- trace/TraceStats.h - Descriptive trace statistics --------*- C++ -*-===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Descriptive statistics computed directly on an event trace: the
/// point-to-point communication matrix (messages and bytes between every
/// pair of processors) and the span.  These are the raw facts a
/// performance analyst inspects before the imbalance methodology runs.
///
//===----------------------------------------------------------------------===//

#ifndef LIMA_TRACE_TRACESTATS_H
#define LIMA_TRACE_TRACESTATS_H

#include "support/Error.h"
#include "support/ParseLimits.h"
#include "trace/Trace.h"
#include <cstdint>
#include <string>
#include <vector>

namespace lima {
namespace trace {

/// Point-to-point traffic between an ordered pair of processors.
struct PairTraffic {
  uint64_t Messages = 0;
  uint64_t Bytes = 0;
};

/// Aggregated statistics of one trace.
struct TraceStats {
  /// Latest event time (the program span).
  double Span = 0.0;
  /// [From][To] traffic of MessageSend events.
  std::vector<std::vector<PairTraffic>> Traffic;
  /// Total messages and bytes sent.
  uint64_t TotalMessages = 0;
  uint64_t TotalBytes = 0;

  /// Messages sent by \p From to \p To.
  const PairTraffic &traffic(unsigned From, unsigned To) const {
    return Traffic[From][To];
  }
};

/// Computes the statistics of \p T as a sink of trace::foldTrace
/// (trace/Fold.h), so they count what the fold keeps: strict mode fails
/// with trace::Trace::validate's error, and lenient mode leaves out the
/// sends the fold drops.  Processor streams are sharded over \p Threads
/// workers (0 = all hardware threads, 1 = serial); each writes only its
/// own traffic row and span, and the totals are integer sums, so the
/// result is bit-identical at any thread count.
Expected<TraceStats> computeTraceStats(const Trace &T, unsigned Threads = 0,
                                       ParseMode Mode = ParseMode::Strict);

/// Renders the communication matrix as an aligned text table
/// ("messages/bytes" cells; "-" for idle pairs).
std::string renderCommunicationMatrix(const TraceStats &Stats);

} // namespace trace
} // namespace lima

#endif // LIMA_TRACE_TRACESTATS_H
