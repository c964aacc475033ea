//===- core/CountingReduction.cpp - Counting-parameter cubes --------------===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "core/CountingReduction.h"
#include "support/Compiler.h"
#include "support/Telemetry.h"
#include "trace/Fold.h"

using namespace lima;
using namespace lima::core;
using trace::EventKind;

std::string_view core::countingMetricName(CountingMetric Metric) {
  switch (Metric) {
  case CountingMetric::MessagesSent:
    return "messages-sent";
  case CountingMetric::BytesSent:
    return "bytes-sent";
  case CountingMetric::MessagesReceived:
    return "messages-received";
  case CountingMetric::BytesReceived:
    return "bytes-received";
  }
  lima_unreachable("unknown CountingMetric");
}

namespace {

/// The fold's sink: the wanted messages, counted or weighed by bytes.
struct CountSink : trace::FoldSink {
  MeasurementCube &Cube;
  EventKind Wanted;
  bool WeighBytes;

  void message(const trace::FoldState &State, EventKind Kind, uint32_t,
               uint64_t Bytes, double) {
    if (Kind == Wanted && State.depth() != 0)
      Cube.accumulate(State.innermost().Region, 0, State.proc(),
                      WeighBytes ? static_cast<double>(Bytes) : 1.0);
  }
};

} // namespace

Expected<MeasurementCube> core::reduceTraceCounts(const trace::Trace &T,
                                                  CountingMetric Metric,
                                                  ParseMode Mode) {
  LIMA_STAGE("counting");
  LIMA_SPAN("counting.fold");
  if (T.numRegions() == 0)
    return trace::verdictBefore(T, Mode,
                                makeCodedError(ErrorCode::MissingSection,
                                               "trace declares no regions"));

  MeasurementCube Cube(T.regionNames(),
                       {std::string(countingMetricName(Metric))},
                       T.numProcs());
  bool Sends = Metric == CountingMetric::MessagesSent ||
               Metric == CountingMetric::BytesSent;
  CountSink Sink{{}, Cube, Sends ? EventKind::MessageSend
                                 : EventKind::MessageRecv,
                 Metric == CountingMetric::BytesSent ||
                     Metric == CountingMetric::BytesReceived};
  if (auto Err = trace::foldTrace(T, Mode, Sink))
    return Err;
  return Cube;
}
