//===- trace/Event.h - Trace event model ------------------------*- C++ -*-===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The post-mortem trace event model.  A trace is a time-ordered stream of
/// events per processor; code regions (the paper's loops) and activities
/// (computation, point-to-point, collective, synchronization) are bracketed
/// by enter/exit and begin/end events.  Message events record communication
/// endpoints for validation and statistics.
///
//===----------------------------------------------------------------------===//

#ifndef LIMA_TRACE_EVENT_H
#define LIMA_TRACE_EVENT_H

#include <cstdint>
#include <string_view>

namespace lima {
namespace trace {

/// Discriminator for Event.
enum class EventKind : uint8_t {
  RegionEnter,
  RegionExit,
  ActivityBegin,
  ActivityEnd,
  MessageSend,
  MessageRecv,
};

/// Short mnemonic used in the text trace format ("re", "rx", "ab", "ae",
/// "ms", "mr").
std::string_view eventKindMnemonic(EventKind Kind);

/// Whether \p Kind is a message send or receive, the only kinds that
/// carry a byte count.
constexpr bool isMessage(EventKind Kind) {
  return Kind == EventKind::MessageSend || Kind == EventKind::MessageRecv;
}

/// One trace record.  Field meaning depends on Kind:
///  - RegionEnter/RegionExit: Id is the region id.
///  - ActivityBegin/ActivityEnd: Id is the activity id.
///  - MessageSend/MessageRecv: Id is the peer rank, Bytes the payload.
/// A Trace keeps Bytes for messages only: any other event reads back
/// with Bytes 0.
struct Event {
  double Time = 0.0;
  uint32_t Proc = 0;
  EventKind Kind = EventKind::RegionEnter;
  uint32_t Id = 0;
  uint64_t Bytes = 0;
};

} // namespace trace
} // namespace lima

#endif // LIMA_TRACE_EVENT_H
