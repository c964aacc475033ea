//===- trace/TraceStats.cpp - Descriptive trace statistics ----------------===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "trace/TraceStats.h"
#include "support/Format.h"
#include "support/Parallel.h"
#include "support/TableFormatter.h"
#include <algorithm>

using namespace lima;
using namespace lima::trace;

namespace {

/// The cross-processor scalar aggregates, accumulated per processor and
/// merged in processor order.  Sums are integers and Span is a max, so
/// the merged totals do not depend on how processors were sharded.
struct ScalarTotals {
  std::vector<uint64_t> EventCounts = std::vector<uint64_t>(6, 0);
  uint64_t TotalEvents = 0;
  uint64_t TotalMessages = 0;
  uint64_t TotalBytes = 0;
  double Span = 0.0;
};

} // namespace

TraceStats trace::computeTraceStats(const Trace &T, unsigned Threads) {
  TraceStats Stats;
  Stats.EventCounts.assign(6, 0);
  Stats.Traffic.assign(T.numProcs(),
                       std::vector<PairTraffic>(T.numProcs()));
  Stats.RegionInstances.assign(T.numProcs(), 0);
  Stats.BusyTime.assign(T.numProcs(), 0.0);

  // Shard per processor.  Each worker writes only its processor's
  // Traffic row, RegionInstances and BusyTime cell, plus a private
  // ScalarTotals slot; the slots are merged serially below.
  std::vector<ScalarTotals> Totals(T.numProcs());
  parallelFor(T.numProcs(), Threads, [&](size_t Proc) {
    ScalarTotals &Local = Totals[Proc];
    double ActivityBeginTime = 0.0;
    bool ActivityOpen = false;
    // Column reads: Id and Bytes are only needed on MessageSend, so the
    // SoA layout streams mostly times and kinds.
    const Trace::EventsRef Stream =
        T.events(static_cast<unsigned>(Proc));
    const double *Times = Stream.times();
    const EventKind *Kinds = Stream.kinds();
    const uint32_t *Ids = Stream.ids();
    const uint64_t *Bytes = Stream.bytes();
    for (size_t I = 0; I != Stream.size(); ++I) {
      const double Time = Times[I];
      const EventKind Kind = Kinds[I];
      ++Local.EventCounts[static_cast<size_t>(Kind)];
      ++Local.TotalEvents;
      Local.Span = std::max(Local.Span, Time);
      switch (Kind) {
      case EventKind::RegionEnter:
        ++Stats.RegionInstances[Proc];
        break;
      case EventKind::ActivityBegin:
        ActivityBeginTime = Time;
        ActivityOpen = true;
        break;
      case EventKind::ActivityEnd:
        if (ActivityOpen)
          Stats.BusyTime[Proc] += Time - ActivityBeginTime;
        ActivityOpen = false;
        break;
      case EventKind::MessageSend: {
        PairTraffic &Pair = Stats.Traffic[Proc][Ids[I]];
        ++Pair.Messages;
        Pair.Bytes += Bytes[I];
        ++Local.TotalMessages;
        Local.TotalBytes += Bytes[I];
        break;
      }
      case EventKind::RegionExit:
      case EventKind::MessageRecv:
        break;
      }
    }
  });

  for (const ScalarTotals &Local : Totals) {
    for (size_t Kind = 0; Kind != Local.EventCounts.size(); ++Kind)
      Stats.EventCounts[Kind] += Local.EventCounts[Kind];
    Stats.TotalEvents += Local.TotalEvents;
    Stats.TotalMessages += Local.TotalMessages;
    Stats.TotalBytes += Local.TotalBytes;
    Stats.Span = std::max(Stats.Span, Local.Span);
  }
  return Stats;
}

std::string trace::renderCommunicationMatrix(const TraceStats &Stats) {
  size_t P = Stats.Traffic.size();
  std::vector<std::string> Header = {"from\\to"};
  for (size_t To = 0; To != P; ++To)
    Header.push_back(std::string("p").append(std::to_string(To + 1)));
  TextTable Table(std::move(Header));
  Table.setTitle("Point-to-point communication matrix (messages / bytes)");
  Table.setAlign(0, Align::Left);
  for (size_t From = 0; From != P; ++From) {
    std::vector<std::string> Row;
    Row.push_back(std::string("p").append(std::to_string(From + 1)));
    for (size_t To = 0; To != P; ++To) {
      const PairTraffic &Pair = Stats.Traffic[From][To];
      if (Pair.Messages == 0) {
        Row.push_back("-");
        continue;
      }
      Row.push_back(std::to_string(Pair.Messages) + "/" +
                    std::to_string(Pair.Bytes));
    }
    Table.addRow(std::move(Row));
  }
  return Table.toString();
}
