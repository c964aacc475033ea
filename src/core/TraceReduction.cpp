//===- core/TraceReduction.cpp - Trace to measurement cube ----------------===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "core/TraceReduction.h"
#include "support/Metrics.h"
#include "support/Parallel.h"
#include "support/Telemetry.h"
#include <algorithm>

using namespace lima;
using namespace lima::core;
using trace::Event;
using trace::EventKind;

namespace {

/// Folds one processor's event stream into \p Cube.  Writes only cells
/// of processor \p Proc (which no other worker touches), so concurrent
/// folds over distinct processors are race-free and bit-identical to
/// the serial processor-order loop.  In strict mode a malformed stream
/// stops the fold and fills \p ErrOut; in lenient mode the offending
/// event is skipped and counted into \p Report instead.  Returns true
/// on success.
bool foldProcessor(const trace::Trace &T, unsigned Proc,
                   const ReductionOptions &Options, MeasurementCube &Cube,
                   double &Span, ParseReport &Report, ParseError &ErrOut) {
  bool Lenient = Options.Mode == ParseMode::Lenient;
  // Regions may nest; activity time is attributed to the *innermost*
  // open region, yielding exclusive-time semantics per region.  Each
  // frame keeps a gap cursor (end of its last attributed interval).
  struct Frame {
    uint32_t Region;
    double Cursor;
  };
  std::vector<Frame> Stack;
  uint32_t OpenActivity = trace::Trace::InvalidId;
  double ActivityBeginTime = 0.0;

  // In lenient mode records the skipped event and keeps folding; in
  // strict mode fills ErrOut and stops.
  auto reject = [&](ParseError PE) {
    if (Lenient) {
      Report.addDrop(std::move(PE));
      return true;
    }
    ErrOut = std::move(PE);
    return false;
  };
  auto malformed = [&](size_t Index, const char *What) {
    return reject({ErrorCode::StructuralError, 0, NoByteOffset,
                   "proc " + std::to_string(Proc) + " event " +
                       std::to_string(Index) + ": " + What});
  };
  // Latest time of a kept event, lenient mode only.  Strict mode ran
  // Trace::validate first; lenient mode did not, so the fold drops a
  // step back in time itself, by validate's rule and with its message.
  double LastTime = 0.0;

  // Read the stream through its columns: the fold touches time, kind
  // and id but never the message byte counts, so the SoA layout keeps
  // one whole column out of the cache entirely.
  const trace::Trace::EventsRef Stream = T.events(Proc);
  const double *Times = Stream.times();
  const EventKind *Kinds = Stream.kinds();
  const uint32_t *Ids = Stream.ids();
  Report.TotalRecords += Stream.size();
  for (size_t Index = 0; Index != Stream.size(); ++Index) {
    const Event E{Times[Index], Proc, Kinds[Index], Ids[Index], 0};
    Span = std::max(Span, E.Time);
    if (Lenient && E.Time + trace::Trace::BackwardTimeTolerance < LastTime) {
      if (reject(makeCodedError(ErrorCode::StructuralError,
                                "proc %u event %zu: time goes backwards "
                                "(%.9f after %.9f)",
                                Proc, Index, E.Time, LastTime)
                     .toParseError()))
        continue;
      return false;
    }
    switch (E.Kind) {
    case EventKind::RegionEnter:
      if (Options.AttributeGaps && !Stack.empty() &&
          E.Time > Stack.back().Cursor)
        Cube.accumulate(Stack.back().Region, Options.GapActivity, Proc,
                        E.Time - Stack.back().Cursor);
      Stack.push_back({E.Id, E.Time});
      break;
    case EventKind::RegionExit:
      if (Stack.empty()) {
        if (malformed(Index, "region exit without matching enter"))
          continue;
        return false;
      }
      if (Options.AttributeGaps && E.Time > Stack.back().Cursor)
        Cube.accumulate(Stack.back().Region, Options.GapActivity, Proc,
                        E.Time - Stack.back().Cursor);
      Stack.pop_back();
      // Time spent in the child is covered from the parent's view.
      if (!Stack.empty())
        Stack.back().Cursor = E.Time;
      break;
    case EventKind::ActivityBegin:
      if (Stack.empty()) {
        if (malformed(Index, "activity begins outside any region"))
          continue;
        return false;
      }
      if (Options.AttributeGaps && E.Time > Stack.back().Cursor)
        Cube.accumulate(Stack.back().Region, Options.GapActivity, Proc,
                        E.Time - Stack.back().Cursor);
      OpenActivity = E.Id;
      ActivityBeginTime = E.Time;
      break;
    case EventKind::ActivityEnd:
      if (Stack.empty()) {
        if (malformed(Index, "activity ends outside any region"))
          continue;
        return false;
      }
      if (OpenActivity == trace::Trace::InvalidId) {
        if (malformed(Index, "activity end without matching begin"))
          continue;
        return false;
      }
      // An end may step back behind its begin by up to validate's
      // tolerance; that interval is empty, not negative.
      Cube.accumulate(Stack.back().Region, OpenActivity, Proc,
                      std::max(0.0, E.Time - ActivityBeginTime));
      Stack.back().Cursor = E.Time;
      OpenActivity = trace::Trace::InvalidId;
      break;
    case EventKind::MessageSend:
    case EventKind::MessageRecv:
      break; // Message endpoints carry no attributable duration.
    }
    if (Lenient)
      LastTime = std::max(LastTime, E.Time);
  }
  return true;
}

} // namespace

Expected<MeasurementCube> core::reduceTrace(const trace::Trace &T,
                                            const ReductionOptions &Options) {
  LIMA_STAGE("reduce");
  // Lenient mode exists to digest traces that validation would reject;
  // the fold's own structural handling covers them event by event.
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
  // the cube's disjoint processor column and its own span/report/error
  // slot, then the slots are merged in processor order.  No cell is
  // written by two workers, no floating-point sum crosses a processor
  // boundary and reports merge in a fixed order, so the result — cube
  // AND dropped-record counts — is bit-identical at any thread count.
  std::vector<double> Spans(T.numProcs(), 0.0);
  std::vector<ParseError> Errors(T.numProcs());
  std::vector<char> Failed(T.numProcs(), 0);
  std::vector<ParseReport> Reports(T.numProcs());
  parallelFor(T.numProcs(), Options.Threads, [&](size_t Proc) {
    LIMA_SPAN("reduce.shard");
    LIMA_COUNTER_ADD("reduce.events", T.events(Proc).size());
    LIMA_METRIC_COUNT("lima.reduce.events_total", T.events(Proc).size());
    Failed[Proc] = !foldProcessor(T, static_cast<unsigned>(Proc), Options,
                                  Cube, Spans[Proc], Reports[Proc],
                                  Errors[Proc]);
  });

  for (unsigned Proc = 0; Proc != T.numProcs(); ++Proc)
    if (Failed[Proc])
      return Error::fromParse(std::move(Errors[Proc]));
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
