//===- core/WaitStates.cpp - Late-sender wait-state analysis --------------===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "core/WaitStates.h"
#include "support/Telemetry.h"
#include "trace/Fold.h"
#include <algorithm>
#include <deque>
#include <map>
#include <tuple>

using namespace lima;
using namespace lima::core;
using trace::EventKind;

namespace {

using Channel = std::tuple<unsigned, unsigned, uint64_t>;

/// The first fold's sink: sends, FIFO per (from, to, bytes) channel.
struct SendSink : trace::FoldSink {
  std::map<Channel, std::deque<double>> Sends;

  void message(const trace::FoldState &State, EventKind Kind, uint32_t Peer,
               uint64_t Bytes, double Time) {
    if (Kind == EventKind::MessageSend)
      Sends[{State.proc(), Peer, Bytes}].push_back(Time);
  }
};

/// The second fold's sink: receives, each paired with its channel's
/// oldest unpaired send.
struct ReceiveSink : trace::FoldSink {
  std::map<Channel, std::deque<double>> &Sends;
  WaitStateReport &Report;
  std::map<std::pair<unsigned, unsigned>, ChannelWait> Channels;

  void message(const trace::FoldState &State, EventKind Kind, uint32_t Peer,
               uint64_t Bytes, double) {
    if (Kind != EventKind::MessageRecv)
      return;
    unsigned Proc = State.proc();
    auto &Queue = Sends[{Peer, Proc, Bytes}];
    // Only a lenient fold leaves a receive without a send.
    if (Queue.empty())
      return;
    ++Report.TotalReceives;
    double SendTime = Queue.front();
    Queue.pop_front();
    // The receive call time is the enclosing p2p activity's begin
    // (receives outside an activity bracket have no measurable
    // blocking interval and are skipped).
    if (!State.activityOpen() || State.depth() == 0)
      return;
    double Wait = SendTime - State.activityBegin();
    if (Wait <= 0.0)
      return;
    ++Report.LateReceives;
    Report.TotalLateSender += Wait;
    Report.LateSender.accumulate(State.innermost().Region, 0, Proc, Wait);
    ChannelWait &Channel = Channels[{Peer, Proc}];
    Channel.From = Peer;
    Channel.To = Proc;
    Channel.Seconds += Wait;
    ++Channel.Messages;
  }
};

} // namespace

Expected<WaitStateReport> core::analyzeWaitStates(const trace::Trace &T,
                                                  ParseMode Mode) {
  LIMA_STAGE("waitstates");
  LIMA_SPAN("waitstates.fold");
  SendSink Sent;
  if (auto Err = trace::foldTrace(T, Mode, Sent))
    return Err;
  if (T.numRegions() == 0)
    return makeCodedError(ErrorCode::MissingSection,
                          "trace declares no regions");

  WaitStateReport Report;
  Report.LateSender = MeasurementCube(
      T.regionNames(), {"late-sender"}, T.numProcs());
  // The send fold judged the trace.  One it accepted strictly loses no
  // event to the lenient fold either, so the receive fold checks and
  // tallies nothing again.
  ReceiveSink Received{{}, Sent.Sends, Report, {}};
  cantFail(trace::foldTrace(T, ParseMode::Lenient, Received));

  for (const auto &[Key, Channel] : Received.Channels)
    Report.Channels.push_back(Channel);
  std::stable_sort(Report.Channels.begin(), Report.Channels.end(),
                   [](const ChannelWait &A, const ChannelWait &B) {
                     return A.Seconds > B.Seconds;
                   });
  return Report;
}
