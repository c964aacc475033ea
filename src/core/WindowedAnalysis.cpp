//===- core/WindowedAnalysis.cpp - Rolling-window imbalance ---------------===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "core/WindowedAnalysis.h"
#include "support/Metrics.h"
#include "trace/Trace.h"
#include <cassert>
#include <cmath>

using namespace lima;
using namespace lima::core;
using trace::Event;
using trace::EventKind;

WindowedAnalyzer::WindowedAnalyzer(std::vector<std::string> Regions,
                                   std::vector<std::string> Activities,
                                   unsigned Procs, WindowedOptions Opts)
    : RegionNames(std::move(Regions)), ActivityNames(std::move(Activities)),
      NumProcs(Procs), Options(std::move(Opts)) {
  assert(!RegionNames.empty() && !ActivityNames.empty() && NumProcs > 0 &&
         "windowed analysis needs declared regions, activities and procs");
  assert(Options.WindowSeconds > 0.0 && "window width must be positive");
  this->Procs.resize(NumProcs);
  for (ProcState &P : this->Procs)
    P.OpenActivity = trace::Trace::InvalidId;
}

uint64_t WindowedAnalyzer::windowIndexOf(double Time) const {
  double K = std::floor(Time / Options.WindowSeconds);
  if (K <= 0.0)
    return 0;
  // Casting a double at or beyond 2^64 to uint64_t is undefined
  // behavior; saturate instead (the limit checks reject such indices
  // long before 2^64 anyway).
  if (K >= 18446744073709551616.0) // 2^64
    return UINT64_MAX;
  return static_cast<uint64_t>(K);
}

WindowedAnalyzer::WindowAccum *WindowedAnalyzer::windowAt(uint64_t Index) {
  auto It = Windows.find(Index);
  if (It == Windows.end()) {
    if (Windows.size() >= Options.MaxWindowsInFlight)
      return nullptr;
    It = Windows
             .emplace(Index, WindowAccum(MeasurementCube(
                                 RegionNames, ActivityNames, NumProcs)))
             .first;
  }
  return &It->second;
}

Error WindowedAnalyzer::accumulateInterval(uint32_t Region, uint32_t Activity,
                                           unsigned Proc, double Begin,
                                           double End) {
  if (End <= Begin) // Zero-length intervals add nothing (reduceTrace adds 0.0).
    return Error::success();
  double W = Options.WindowSeconds;
  uint64_t First = windowIndexOf(Begin);
  // Fail before allocating: a finite but absurd end time (say 1e15 s
  // with a 1 s window) would otherwise drive one cube allocation per
  // window across the whole span.
  uint64_t Last = windowIndexOf(End);
  if (Last - First >= Options.MaxIntervalWindows)
    return makeCodedError(ErrorCode::LimitExceeded,
                          "proc %u: interval [%.9f, %.9f) spans more than "
                          "%llu windows of %.9f s",
                          Proc, Begin, End,
                          static_cast<unsigned long long>(
                              Options.MaxIntervalWindows),
                          W);
  for (uint64_t K = First;; ++K) {
    double WinStart = static_cast<double>(K) * W;
    if (WinStart >= End)
      break;
    double WinEnd = static_cast<double>(K + 1) * W;
    // An interval contained in one window reduces to the plain
    // End - Begin difference (max/min select the originals), keeping
    // single-window accumulation bit-identical to reduceTrace.
    double Lo = std::max(Begin, WinStart);
    double Hi = std::min(End, WinEnd);
    if (Hi > Lo) {
      WindowAccum *Accum = windowAt(K);
      if (!Accum)
        return makeCodedError(ErrorCode::LimitExceeded,
                              "more than %llu windows in flight; drain "
                              "more often or widen --window",
                              static_cast<unsigned long long>(
                                  Options.MaxWindowsInFlight));
      Accum->Cube.accumulate(Region, Activity, Proc, Hi - Lo);
      Accum->AnyTime = true;
    }
  }
  return Error::success();
}

Error WindowedAnalyzer::addEvent(const Event &E) {
  assert(!Finished && "addEvent after finish()");
  if (E.Proc >= NumProcs)
    return makeCodedError(ErrorCode::ValueOutOfRange,
                          "event processor %u out of range (trace declares "
                          "%u)",
                          E.Proc, NumProcs);
  // The parsers reject non-finite times, but events can also arrive
  // from in-memory traces; a non-finite time would poison the window
  // index arithmetic, so it is always an error here too.
  if (!std::isfinite(E.Time) || E.Time < 0.0)
    return makeCodedError(ErrorCode::ValueOutOfRange,
                          "proc %u event time %f is not finite and "
                          "non-negative",
                          E.Proc, E.Time);
  ProcState &P = Procs[E.Proc];
  if (P.AnyEvents && E.Time < P.LastTime)
    return makeCodedError(ErrorCode::StructuralError,
                          "proc %u time goes backwards (%.9f after %.9f)",
                          E.Proc, E.Time, P.LastTime);
  if (Options.Report)
    ++Options.Report->TotalRecords;

  // Mirrors TraceReduction's lenient contract: a structurally
  // impossible event is dropped and counted instead of aborting.  A
  // drop returns success so the event still reaches the timeline
  // updates below — its timestamp advances the processor clock and the
  // watermark, exactly like reduceTrace's span — it just attributes no
  // time.
  auto malformed = [&](const char *What) -> Error {
    ParseError PE{ErrorCode::StructuralError, 0, NoByteOffset,
                  "proc " + std::to_string(E.Proc) + ": " + What};
    if (Options.Mode == ParseMode::Lenient) {
      if (Options.Report)
        Options.Report->addDrop(std::move(PE));
      return Error::success();
    }
    return Error::fromParse(std::move(PE));
  };

  switch (E.Kind) {
  case EventKind::RegionEnter:
    if (E.Id >= RegionNames.size())
      return makeCodedError(ErrorCode::ValueOutOfRange,
                            "event region %u out of range", E.Id);
    P.Stack.push_back({E.Id});
    break;
  case EventKind::RegionExit:
    if (P.Stack.empty()) {
      if (auto Err = malformed("region exit without matching enter"))
        return Err;
    } else
      P.Stack.pop_back();
    break;
  case EventKind::ActivityBegin:
    if (E.Id >= ActivityNames.size())
      return makeCodedError(ErrorCode::ValueOutOfRange,
                            "event activity %u out of range", E.Id);
    if (P.Stack.empty()) {
      if (auto Err = malformed("activity begins outside any region"))
        return Err;
    } else {
      P.OpenActivity = E.Id;
      P.ActivityBeginTime = E.Time;
    }
    break;
  case EventKind::ActivityEnd:
    if (P.Stack.empty()) {
      if (auto Err = malformed("activity ends outside any region"))
        return Err;
    } else if (P.OpenActivity == trace::Trace::InvalidId) {
      if (auto Err = malformed("activity end without matching begin"))
        return Err;
    } else {
      if (auto Err = accumulateInterval(P.Stack.back().Region,
                                        P.OpenActivity, E.Proc,
                                        P.ActivityBeginTime, E.Time))
        return Err;
      P.OpenActivity = trace::Trace::InvalidId;
    }
    break;
  case EventKind::MessageSend:
  case EventKind::MessageRecv:
    break; // No attributable duration.
  }

  P.LastTime = E.Time;
  P.AnyEvents = true;
  MaxTime = std::max(MaxTime, E.Time);
  ++EventsSeen;
  WindowAccum *Accum = windowAt(windowIndexOf(E.Time));
  if (!Accum)
    return makeCodedError(ErrorCode::LimitExceeded,
                          "more than %llu windows in flight; drain more "
                          "often or widen --window",
                          static_cast<unsigned long long>(
                              Options.MaxWindowsInFlight));
  Accum->Events += 1;
  return Error::success();
}

Error WindowedAnalyzer::addTrace(const trace::Trace &T) {
  for (unsigned Proc = 0; Proc != T.numProcs(); ++Proc)
    for (const Event &E : T.events(Proc))
      if (auto Err = addEvent(E))
        return Err;
  return Error::success();
}

double WindowedAnalyzer::watermark() const {
  // The time below which no further attribution can happen: a
  // processor's open activity will be attributed back to its begin
  // time when it closes, so an open interval pins the watermark there.
  double Mark = MaxTime;
  for (const ProcState &P : Procs) {
    double Safe = !P.AnyEvents ? 0.0
                  : P.OpenActivity != trace::Trace::InvalidId
                      ? P.ActivityBeginTime
                      : P.LastTime;
    Mark = std::min(Mark, Safe);
  }
  return Mark;
}

WindowResult WindowedAnalyzer::emitWindow(uint64_t Index,
                                          WindowAccum &&Accum) {
  double W = Options.WindowSeconds;
  double Start = static_cast<double>(Index) * W;
  double End = static_cast<double>(Index + 1) * W;
  WindowResult R{Index,        Start, End, Accum.Events, !Accum.AnyTime,
                 std::move(Accum.Cube), {},  {},  {}};
  // Program time is the covered span, so SID scaling in a partial
  // final window reflects the time actually observed.  A full-span
  // single window reproduces reduceTrace's span-derived program time
  // bit for bit (min selects MaxTime, Start is 0).
  double Covered = std::min(MaxTime, End) - Start;
  if (Covered > 0.0)
    R.Cube.setProgramTime(Covered);
  if (!R.Empty) {
    CubeViews Views = computeViews(R.Cube, Options.Views);
    R.Activities = std::move(Views.Activities);
    R.Regions = std::move(Views.Regions);
    R.Processors = std::move(Views.Processors);
  }
  LIMA_METRIC_COUNT("lima.windowed.windows_total", 1);
  return R;
}

std::vector<WindowResult> WindowedAnalyzer::drainUpTo(double Bound,
                                                      bool Flush) {
  // Counted here, once per drain, rather than once per event.
  LIMA_METRIC_COUNT("lima.windowed.events_total", EventsSeen - EventsCounted);
  EventsCounted = EventsSeen;
  std::vector<WindowResult> Out;
  for (auto It = Windows.begin(); It != Windows.end();) {
    double WinEnd =
        static_cast<double>(It->first + 1) * Options.WindowSeconds;
    if (!Flush && WinEnd > Bound)
      break; // Map iteration is in index order; later windows end later.
    if (It->second.AnyTime || Options.EmitEmptyWindows)
      Out.push_back(emitWindow(It->first, std::move(It->second)));
    It = Windows.erase(It);
  }
  return Out;
}

std::vector<WindowResult> WindowedAnalyzer::drainCompleted() {
  return drainUpTo(watermark(), false);
}

std::vector<WindowResult> WindowedAnalyzer::finish() {
  Finished = true;
  return drainUpTo(0.0, true);
}
