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

namespace {

/// 2^64: a window index at or past it does not fit in uint64_t.
constexpr double TwoTo64 = 18446744073709551616.0;

/// The least time T >= 0 at which the monotone predicate \p Reached
/// holds, searched ulp by ulp from \p Guess, a rounded product that
/// lands within a few ulps of it on either side.  +inf when no finite
/// time reaches it.
template <typename Pred> double leastTime(double Guess, Pred Reached) {
  if (!Reached(Guess)) {
    while (Guess < INFINITY && !Reached(Guess))
      Guess = std::nextafter(Guess, INFINITY);
    return Guess;
  }
  while (Guess > 0.0) {
    double Below = std::nextafter(Guess, 0.0);
    if (!Reached(Below))
      break;
    Guess = Below;
  }
  return Guess;
}

} // namespace

WindowedAnalyzer::WindowedAnalyzer(std::vector<std::string> Regions,
                                   std::vector<std::string> Activities,
                                   unsigned Procs, WindowedOptions Opts)
    : RegionNames(std::move(Regions)), ActivityNames(std::move(Activities)),
      NumProcs(Procs), Options(std::move(Opts)) {
  assert(!RegionNames.empty() && !ActivityNames.empty() && NumProcs > 0 &&
         "windowed analysis needs declared regions, activities and procs");
  assert(Options.WindowSeconds > 0.0 && "window width must be positive");
  IdBound.fill(UINT64_MAX);
  IdBound[static_cast<size_t>(EventKind::RegionEnter)] = RegionNames.size();
  IdBound[static_cast<size_t>(EventKind::ActivityBegin)] =
      ActivityNames.size();
  // Tolerance 0: an event the fold accepted never lies in a window the
  // watermark has drained.
  for (unsigned Proc = 0; Proc != NumProcs; ++Proc)
    this->Procs.emplace_back(Proc, Options.Mode, 0.0, Options.Report);
  moveCursor(0);
}

uint64_t WindowedAnalyzer::windowIndexOf(double Time) const {
  double K = std::floor(Time / Options.WindowSeconds);
  // seekCursor rejects the times whose index does not fit.
  assert(K < TwoTo64 && "window index past 2^64");
  return K <= 0.0 ? 0 : static_cast<uint64_t>(K);
}

void WindowedAnalyzer::moveCursor(uint64_t Index) {
  double W = Options.WindowSeconds;
  double K = static_cast<double>(Index); // Exact: Index came from a double.
  double Start = K * W;
  Cursor.Index = Index;
  Cursor.SplitHi = static_cast<double>(Index + 1) * W;
  // floor(t/W) is monotone in t, so window K's times form one interval.
  // Its ends are found from the products K*W and (K+1)*W, never taken
  // as they are: for W = 0.001, t = 0.009 lies in window 9 although
  // 9*W = 0.009000000000000001 > t.
  Cursor.Lo = Index == 0 ? 0.0 : leastTime(Start, [&](double T) {
    return std::floor(T / W) >= K;
  });
  Cursor.Hi = leastTime(Cursor.SplitHi,
                        [&](double T) { return std::floor(T / W) > K; });
  // An interval closes inline only where accumulateInterval would add
  // it as one difference: it begins in this window at or past K*W.  It
  // never does when no interval may span a window at all.
  Cursor.InlineLo =
      Options.MaxIntervalWindows != 0 ? std::max(Cursor.Lo, Start) : INFINITY;
  auto It = Windows.find(Index);
  Cursor.Accum = It == Windows.end() ? nullptr : &It->second;
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

Error WindowedAnalyzer::tooManyWindows() const {
  return makeCodedError(ErrorCode::LimitExceeded,
                        "more than %llu windows in flight; drain more "
                        "often or widen --window",
                        static_cast<unsigned long long>(
                            Options.MaxWindowsInFlight));
}

bool WindowedAnalyzer::reject(Error Err) {
  Rejected = Err.toParseError();
  return false;
}

bool WindowedAnalyzer::accumulateInterval(uint32_t Region, uint32_t Activity,
                                          unsigned Proc, double Begin,
                                          double End) {
  if (End <= Begin) // Zero-length intervals add nothing (reduceTrace adds 0.0).
    return true;
  double W = Options.WindowSeconds;
  uint64_t First = windowIndexOf(Begin);
  // Fail before allocating: a finite but absurd end time (say 1e15 s
  // with a 1 s window) would otherwise drive one cube allocation per
  // window across the whole span.
  uint64_t Last = windowIndexOf(End);
  if (Last - First >= Options.MaxIntervalWindows)
    return reject(makeCodedError(
        ErrorCode::LimitExceeded,
        "proc %u: interval [%.9f, %.9f) spans more than %llu windows of "
        "%.9f s",
        Proc, Begin, End,
        static_cast<unsigned long long>(Options.MaxIntervalWindows), W));
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
        return reject(tooManyWindows());
      Accum->Cube.accumulate(Region, Activity, Proc, Hi - Lo);
      Accum->AnyTime = true;
    }
  }
  return true;
}

bool WindowedAnalyzer::seekCursor(const Event &E) {
  if (E.Proc >= NumProcs)
    return reject(makeCodedError(ErrorCode::ValueOutOfRange,
                                 "event processor %u out of range (trace "
                                 "declares %u)",
                                 E.Proc, NumProcs));
  // The parsers reject non-finite times, but events can also arrive
  // from in-memory traces; a non-finite time would poison the window
  // index arithmetic, so it is always an error here too.
  if (!std::isfinite(E.Time) || E.Time < 0.0)
    return reject(makeCodedError(ErrorCode::ValueOutOfRange,
                                 "proc %u event time %f is not finite and "
                                 "non-negative",
                                 E.Proc, E.Time));
  // Past window 2^64 the index wraps, and an interval's walk over its
  // windows would never end.
  if (E.Time / Options.WindowSeconds >= TwoTo64)
    return reject(makeCodedError(ErrorCode::LimitExceeded,
                                 "proc %u event time %.9g is 2^64 or more "
                                 "windows of %g s; widen --window",
                                 E.Proc, E.Time, Options.WindowSeconds));
  if (E.Id >= IdBound[static_cast<size_t>(E.Kind)])
    return reject(makeCodedError(
        ErrorCode::ValueOutOfRange, "event %s %u out of range",
        E.Kind == EventKind::RegionEnter ? "region" : "activity", E.Id));
  moveCursor(windowIndexOf(E.Time));
  return true;
}

bool WindowedAnalyzer::openCursorWindow() {
  Cursor.Accum = windowAt(Cursor.Index);
  return Cursor.Accum ? true : reject(tooManyWindows());
}

struct WindowedAnalyzer::CursorSink : trace::FoldSink {
  WindowedAnalyzer &A;

  bool interval(const trace::FoldState &State, uint32_t Activity,
                double Begin, double End) {
    WindowCursor &C = A.Cursor;
    uint32_t Region = State.innermost().Region;
    // The end lies in the cursor's window K, so from InlineLo to
    // (K+1)*W accumulateInterval would add this same one difference.
    if (Begin >= C.InlineLo && End <= C.SplitHi && C.Accum) {
      if (End > Begin) {
        C.Accum->Cube.accumulate(Region, Activity, State.proc(),
                                 End - Begin);
        C.Accum->AnyTime = true;
      }
      return true;
    }
    return A.accumulateInterval(Region, Activity, State.proc(), Begin, End);
  }
};

// Inline in addEvents' loop: an accepted event inside the cursor's
// window, whose interval (if it ends one) began in the same window,
// never leaves this function.
[[gnu::always_inline]] inline bool
WindowedAnalyzer::foldEvent(const Event &E) {
  // One range test covers the processor, an id past its table, a
  // non-finite, negative or too-late time, and a window change: all
  // leave through seekCursor.
  if ((E.Proc >= NumProcs || E.Id >= IdBound[static_cast<size_t>(E.Kind)] ||
       !(E.Time >= Cursor.Lo && E.Time < Cursor.Hi)) &&
      !seekCursor(E))
    return false;
  if (Options.Report)
    ++Options.Report->TotalRecords;
  trace::FoldState &P = Procs[E.Proc];
  CursorSink Sink{{}, *this};
  trace::FoldStep Step = P.step(Sink, E.Time, E.Kind, E.Id, E.Bytes);
  if (Step == trace::FoldStep::Failed && P.failed())
    Rejected = P.takeError();
  // An out-of-order event touched no clock, watermark or window: the
  // window it falls in may already have been drained.
  if (Step != trace::FoldStep::Kept)
    return Step == trace::FoldStep::Late;

  MaxTime = std::max(MaxTime, E.Time);
  ++EventsSeen;
  if (!Cursor.Accum && !openCursorWindow())
    return false;
  Cursor.Accum->Events += 1;
  return true;
}

Error WindowedAnalyzer::addEvents(std::span<const Event> Events) {
  assert(!Finished && "addEvent after finish()");
  for (const Event &E : Events)
    if (!foldEvent(E))
      return Error::fromParse(std::move(Rejected));
  return Error::success();
}

Error WindowedAnalyzer::addEvent(const Event &E) { return addEvents({&E, 1}); }

Error WindowedAnalyzer::addTrace(const trace::Trace &T) {
  assert(!Finished && "addTrace after finish()");
  for (unsigned Proc = 0; Proc != T.numProcs(); ++Proc)
    for (const Event &E : T.events(Proc))
      if (!foldEvent(E))
        return Error::fromParse(std::move(Rejected));
  return Error::success();
}

double WindowedAnalyzer::watermark() const {
  // The time below which no further attribution can happen: a
  // processor's open activity will be attributed back to its begin
  // time when it closes, so an open interval pins the watermark there.
  double Mark = MaxTime;
  for (const trace::FoldState &P : Procs)
    Mark = std::min(Mark, P.activityOpen() ? P.activityBegin() : P.clock());
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
  Cursor.Accum = nullptr;
  return Out;
}

std::vector<WindowResult> WindowedAnalyzer::drainCompleted() {
  return drainUpTo(watermark(), false);
}

std::vector<WindowResult> WindowedAnalyzer::finish() {
  Finished = true;
  return drainUpTo(0.0, true);
}
