//===- core/TraceReduction.cpp - Trace to measurement cube ----------------===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "core/TraceReduction.h"
#include "support/Metrics.h"
#include "support/Telemetry.h"
#include "trace/Fold.h"
#include <algorithm>

using namespace lima;
using namespace lima::core;

namespace {

/// The fold's sink: intervals, and gaps when asked for, into the cube, and
/// each processor's final clock into its span slot.
struct CubeSink : trace::FoldSink {
  static constexpr const char *ShardSpan = "reduce.shard";
  MeasurementCube &Cube;
  std::vector<double> &Spans;
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
  void end(const trace::FoldState &State) {
    Spans[State.proc()] = State.clock();
  }
};

/// Why no cube can hold \p T under \p Options, if none can.
Error shapeError(const trace::Trace &T, const ReductionOptions &Options) {
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
  return Error::success();
}

} // namespace

Expected<MeasurementCube> core::reduceTrace(const trace::Trace &T,
                                            const ReductionOptions &Options) {
  LIMA_STAGE("reduce");
  if (Error Shape = shapeError(T, Options))
    return trace::verdictBefore(T, Options.Mode, std::move(Shape),
                                Options.Threads);

  // One walk, sharded per processor: in strict mode it is validation,
  // and every worker folds its own event stream into the cube's disjoint
  // processor column and its own span and report slot.  The slots merge
  // in processor order and no floating-point sum crosses a processor
  // boundary, so the result (cube AND dropped-record counts) is
  // bit-identical at any thread count.
  MeasurementCube Cube(T.regionNames(), T.activityNames(), T.numProcs());
  std::vector<double> Spans(T.numProcs(), 0.0);
  CubeSink Sink{{}, Cube, Spans, Options.AttributeGaps, Options.GapActivity};
  if (Error Err = trace::foldTrace(T, Options.Mode, Sink, Options.Threads,
                                   Options.Report))
    return Err;
  LIMA_COUNTER_ADD("reduce.events", T.numEvents());
  LIMA_METRIC_COUNT("lima.reduce.events_total", T.numEvents());
  double Span = 0.0;
  for (double ProcSpan : Spans)
    Span = std::max(Span, ProcSpan);

  // The cube reports per-processor-mean aggregates, so the matching
  // program total is the plain trace span (the program's duration).
  if (Options.ProgramTimeFromSpan)
    Cube.setProgramTime(Span);
  return Cube;
}
