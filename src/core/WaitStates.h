//===- core/WaitStates.h - Late-sender wait-state analysis ------*- C++ -*-===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Root-cause refinement of point-to-point time: a receiver's blocking
/// time splits into *late-sender wait* (the receiver blocked before the
/// matching send was even issued — pure load imbalance) and transfer
/// time (the wire).  The late-sender part is computable exactly from a
/// matched trace: for every receive, pair it with its send and measure
/// max(0, sendTime - receiveBeginTime).  This is the classic wait-state
/// pattern later systematized by tools like Scalasca, and it connects
/// the paper's dissimilarity indices to their *cause*: regions whose
/// point-to-point time is dominated by late senders are load-imbalance
/// problems, not bandwidth problems.
///
/// Send/receive pairing follows the trace format's matching guarantee:
/// FIFO order within each (sender, receiver, byte-count) channel.
///
//===----------------------------------------------------------------------===//

#ifndef LIMA_CORE_WAITSTATES_H
#define LIMA_CORE_WAITSTATES_H

#include "core/Measurement.h"
#include "support/Error.h"
#include "support/ParseLimits.h"
#include "trace/Trace.h"
#include <vector>

namespace lima {
namespace core {

/// One sender->receiver channel's aggregate late-sender wait.
struct ChannelWait {
  unsigned From = 0;
  unsigned To = 0;
  double Seconds = 0.0;
  uint64_t Messages = 0;
};

/// Result of the wait-state analysis.
struct WaitStateReport {
  /// Late-sender seconds per (region, processor): a cube with the
  /// single pseudo-activity "late-sender", so the dissimilarity
  /// machinery applies to the waits themselves.
  MeasurementCube LateSender;
  /// Total late-sender seconds over the whole run.
  double TotalLateSender = 0.0;
  /// Total receives examined / receives that waited on a late sender.
  uint64_t TotalReceives = 0;
  uint64_t LateReceives = 0;
  /// Channels sorted by decreasing wait.
  std::vector<ChannelWait> Channels;

  WaitStateReport() : LateSender({"<none>"}, {"late-sender"}, 1) {}
};

/// Runs the late-sender analysis on \p T through the attribution fold
/// (trace/Fold.h).  Strict mode validates \p T first; lenient mode skips
/// a receive with no send left to pair with.
Expected<WaitStateReport>
analyzeWaitStates(const trace::Trace &T, ParseMode Mode = ParseMode::Strict);

} // namespace core
} // namespace lima

#endif // LIMA_CORE_WAITSTATES_H
