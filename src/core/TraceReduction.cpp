//===- core/TraceReduction.cpp - Trace to measurement cube ----------------===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "core/TraceReduction.h"
#include "support/Metrics.h"
#include "support/Parallel.h"
#include "support/Telemetry.h"
#include "trace/Fold.h"
#include <algorithm>

using namespace lima;
using namespace lima::core;

namespace {

/// The fold's sink: intervals, and gaps when asked for, into the cube.
struct CubeSink : trace::FoldSink {
  MeasurementCube &Cube;
  bool WantsGaps;
  uint32_t GapActivity;

  bool interval(const trace::FoldState &State, uint32_t Activity,
                double Begin, double End) {
    // An end may step back behind its begin by up to validate's
    // tolerance; that interval is empty, not negative.
    Cube.accumulate(State.innermost().Region, Activity, State.proc(),
                    std::max(0.0, End - Begin));
    return true;
  }
  void gap(const trace::FoldState &State, double Begin, double End) {
    Cube.accumulate(State.innermost().Region, GapActivity, State.proc(),
                    End - Begin);
  }
};

} // namespace

Expected<MeasurementCube> core::reduceTrace(const trace::Trace &T,
                                            const ReductionOptions &Options) {
  LIMA_STAGE("reduce");
  // Lenient mode exists to digest traces that validation would reject;
  // the fold drops or tolerates what it rejects, event by event.
  if (Options.Mode == ParseMode::Strict) {
    LIMA_SPAN("reduce.validate");
    if (auto Err = T.validate(Options.Threads))
      return Err;
  }
  if (T.numRegions() == 0)
    return makeCodedError(ErrorCode::MissingSection,
                          "trace declares no regions");
  if (T.numActivities() == 0)
    return makeCodedError(ErrorCode::MissingSection,
                          "trace declares no activities");
  if (Options.AttributeGaps && Options.GapActivity >= T.numActivities())
    return makeCodedError(ErrorCode::ValueOutOfRange,
                          "gap activity id %u out of range",
                          Options.GapActivity);

  MeasurementCube Cube(T.regionNames(), T.activityNames(), T.numProcs());

  // Shard per processor: every worker folds its own event stream into
  // the cube's disjoint processor column and its own span/report slot,
  // then the slots are merged in processor order.  No cell is written by
  // two workers, no floating-point sum crosses a processor boundary and
  // reports merge in a fixed order, so the result — cube AND
  // dropped-record counts — is bit-identical at any thread count.  The
  // strict fold follows validate and checks nothing again.
  std::vector<double> Spans(T.numProcs(), 0.0);
  std::vector<ParseReport> Reports(T.numProcs());
  parallelFor(T.numProcs(), Options.Threads, [&](size_t Proc) {
    LIMA_SPAN("reduce.shard");
    const trace::Trace::EventsRef Stream = T.events(Proc);
    LIMA_COUNTER_ADD("reduce.events", Stream.size());
    LIMA_METRIC_COUNT("lima.reduce.events_total", Stream.size());
    Reports[Proc].TotalRecords = Stream.size();
    trace::FoldState State(static_cast<unsigned>(Proc), Options.Mode,
                           trace::Trace::BackwardTimeTolerance,
                           &Reports[Proc]);
    CubeSink Sink{{}, Cube, Options.AttributeGaps, Options.GapActivity};
    if (Options.Mode == ParseMode::Lenient)
      trace::foldStream(State, Sink, Stream);
    else
      trace::foldStream<false>(State, Sink, Stream);
    Spans[Proc] = State.clock();
  });

  if (Options.Report)
    for (const ParseReport &Shard : Reports)
      Options.Report->merge(Shard);
  double Span = 0.0;
  for (double ProcSpan : Spans)
    Span = std::max(Span, ProcSpan);

  // The cube reports per-processor-mean aggregates, so the matching
  // program total is the plain trace span (the program's duration).
  if (Options.ProgramTimeFromSpan)
    Cube.setProgramTime(Span);
  return Cube;
}
