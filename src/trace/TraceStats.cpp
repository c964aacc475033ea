//===- trace/TraceStats.cpp - Descriptive trace statistics ----------------===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "trace/TraceStats.h"
#include "support/Format.h"
#include "support/TableFormatter.h"
#include "trace/Fold.h"
#include <algorithm>

using namespace lima;
using namespace lima::trace;

namespace {

/// The fold's sink: each kept send into its processor's traffic row, and
/// each processor's final clock into its span slot.
struct StatsSink : FoldSink {
  std::vector<std::vector<PairTraffic>> &Traffic;
  std::vector<double> &Spans;

  void message(const FoldState &State, EventKind Kind, uint32_t Peer,
               uint64_t Bytes, double) {
    if (Kind != EventKind::MessageSend)
      return;
    PairTraffic &Pair = Traffic[State.proc()][Peer];
    ++Pair.Messages;
    Pair.Bytes += Bytes;
  }
  void end(const FoldState &State) { Spans[State.proc()] = State.clock(); }
};

} // namespace

Expected<TraceStats> trace::computeTraceStats(const Trace &T, unsigned Threads,
                                              ParseMode Mode) {
  TraceStats Stats;
  Stats.Traffic.assign(T.numProcs(),
                       std::vector<PairTraffic>(T.numProcs()));
  std::vector<double> Spans(T.numProcs(), 0.0);
  StatsSink Sink{{}, Stats.Traffic, Spans};
  if (Error Err = foldTrace(T, Mode, Sink, Threads))
    return Err;
  for (unsigned Proc = 0; Proc != T.numProcs(); ++Proc) {
    Stats.Span = std::max(Stats.Span, Spans[Proc]);
    for (const PairTraffic &Pair : Stats.Traffic[Proc]) {
      Stats.TotalMessages += Pair.Messages;
      Stats.TotalBytes += Pair.Bytes;
    }
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
