//===- core/WindowedAnalysis.h - Rolling-window imbalance -------*- C++ -*-===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Time-resolved imbalance analysis: the event stream is cut into
/// fixed-width windows [k*W, (k+1)*W) anchored at t = 0, each window
/// accumulates its own measurement cube incrementally, and when a
/// window completes the paper's dispersion indices (ID_P, ID_A/SID_A,
/// ID_C/SID_C) are evaluated over just that window, by one
/// core::computeViews call.  This turns the post-mortem methodology
/// into the rolling health signal a long-lived trace consumer
/// (lima_monitor) reports, following the time-resolved reading of the
/// indices in Haldar's trace-window analysis (PAPERS.md).  A short
/// window sees few regions and activities, so most of its cube is
/// zero, which computeViews skips.
///
/// Determinism contract: with a single window spanning the whole trace,
/// the accumulated cube — and therefore every derived index — is
/// bit-identical to core::reduceTrace + the whole-trace views.  Cell
/// accumulation happens per processor in event order, exactly like the
/// reduction's per-processor fold, and an interval that does not cross
/// a window boundary is added as one plain `end - begin` difference
/// (never as a sum of split parts).
///
/// Memory: O(windows in flight).  A window can be emitted once every
/// processor's stream has advanced past its end (the watermark); live
/// interleaved streams keep at most a couple of windows open, while a
/// processor-grouped post-mortem file holds windows until finish().
///
/// Unclosed intervals contribute nothing (matching reduceTrace, which
/// only accumulates on ActivityEnd); gap attribution is not supported
/// here.
///
/// Cost: the analyzer keeps a cursor on the window the last event fell
/// in, with the exact range of times whose window floor(t/W) is that
/// one, so an event inside it costs no division and no map lookup, and
/// an interval that begins and ends there is added straight into the
/// cursor's accumulator.  Window changes, splits, drops and errors leave
/// that path for out-of-line code (DESIGN.md §10).
///
//===----------------------------------------------------------------------===//

#ifndef LIMA_CORE_WINDOWEDANALYSIS_H
#define LIMA_CORE_WINDOWEDANALYSIS_H

#include "core/Measurement.h"
#include "core/Views.h"
#include "support/Error.h"
#include "support/ParseLimits.h"
#include "trace/Event.h"
#include <map>
#include <span>
#include <string>
#include <vector>

namespace lima {
namespace trace {
class Trace;
} // namespace trace
namespace core {

/// Options for the windowed analyzer.
struct WindowedOptions {
  /// Window width in seconds; windows are [k*W, (k+1)*W) from t = 0.
  double WindowSeconds = 1.0;
  /// Dispersion-index family for the per-window views.
  ViewOptions Views;
  /// Strict: the first structurally impossible event fails addEvent.
  /// Lenient: such events are dropped and counted into Report.
  ParseMode Mode = ParseMode::Strict;
  /// Receives dropped-event counts in lenient mode (may be null).
  ParseReport *Report = nullptr;
  /// Windows with no attributed time are skipped (no views can be
  /// computed over an all-zero cube); set to true to receive them
  /// anyway with Empty = true.
  bool EmitEmptyWindows = false;
  /// Caps on windowed bookkeeping, in the spirit of ParseLimits: a
  /// finite but absurd timestamp must not drive unbounded work.  A
  /// closed interval may span at most MaxIntervalWindows windows, and
  /// at most MaxWindowsInFlight windows may be held before draining;
  /// exceeding either fails addEvent with ErrorCode::LimitExceeded, as
  /// does an event time of 2^64 or more windows.
  /// The defaults accept any plausible real cadence (a million windows
  /// is 11 days at 1 s width) while bounding allocation.
  uint64_t MaxIntervalWindows = 1ull << 20;
  uint64_t MaxWindowsInFlight = 1ull << 20;
};

/// One completed window with its cube and index views.
struct WindowResult {
  /// Window number k; the window covers [k*W, (k+1)*W).
  uint64_t Index = 0;
  double StartTime = 0.0;
  double EndTime = 0.0;
  /// Events whose timestamp fell inside the window.
  uint64_t Events = 0;
  /// True when nothing was attributed (only with EmitEmptyWindows).
  bool Empty = false;
  /// The window's t[i][j][p] cube.  Program time is the covered span:
  /// min(window end, last event time) - window start.
  MeasurementCube Cube;
  ActivityView Activities;
  RegionView Regions;
  ProcessorView Processors;
};

/// Incremental per-window reduction + analysis.  Feed events (each
/// processor's events in non-decreasing time order; processors may
/// interleave arbitrarily), then drain completed windows as the
/// watermark advances, and finish() to flush the rest.
class WindowedAnalyzer {
public:
  /// Region/activity names and processor count come from the trace
  /// header (they bound the per-window cube's extents).
  WindowedAnalyzer(std::vector<std::string> RegionNames,
                   std::vector<std::string> ActivityNames, unsigned NumProcs,
                   WindowedOptions Options);

  /// Consumes one event.  Structural violations (exit without enter,
  /// activity outside a region, end without begin) fail in strict mode
  /// and are dropped + counted in lenient mode; a dropped event still
  /// advances the processor's clock, the watermark, and the event
  /// counters (mirroring reduceTrace, whose span includes dropped
  /// events), it just attributes no time.  A time regression within a
  /// processor fails in strict mode; in lenient mode it is dropped and
  /// counted before it touches any state, so a drained window never
  /// reopens.  Out-of-range ids and non-finite or negative times are
  /// always errors.
  Error addEvent(const trace::Event &E);

  /// addEvent over \p Events in order, stopping at the first error.
  /// Same rules, same results; it builds no Error for an accepted event.
  Error addEvents(std::span<const trace::Event> Events);

  /// Convenience: feeds every event of \p T in processor-major order
  /// (the same order writeTraceText emits).
  Error addTrace(const trace::Trace &T);

  /// Windows whose end lies at or below the watermark, in index order.
  /// Draining is destructive.
  std::vector<WindowResult> drainCompleted();

  /// Flushes every remaining window (the stream is over), in index
  /// order.  The analyzer stays usable only for inspection afterwards.
  std::vector<WindowResult> finish();

  /// min over all processors of the last event time seen (0 until every
  /// processor has produced at least one event).
  double watermark() const;

  /// max event time seen so far.
  double spanEnd() const { return MaxTime; }

  uint64_t eventsSeen() const { return EventsSeen; }
  double windowSeconds() const { return Options.WindowSeconds; }

private:
  /// BeginWindow of an interval that cannot close as one difference.
  static constexpr uint64_t NoWindow = UINT64_MAX;

  struct ProcState {
    struct Frame {
      uint32_t Region;
    };
    std::vector<Frame> Stack;
    uint32_t OpenActivity;
    /// The window the open activity began in, when it began at or past
    /// that window's K*W (so an end in the same window adds the plain
    /// End - Begin); NoWindow otherwise.
    uint64_t BeginWindow = NoWindow;
    double ActivityBeginTime = 0.0;
    double LastTime = 0.0;
    bool AnyEvents = false;
  };

  struct WindowAccum {
    MeasurementCube Cube;
    uint64_t Events = 0;
    bool AnyTime = false;
    explicit WindowAccum(MeasurementCube C) : Cube(std::move(C)) {}
  };

  /// The window the last event fell in.  A time lies in [Lo, Hi) exactly
  /// when windowIndexOf gives Index.  SplitLo and SplitHi are the K*W and
  /// (K+1)*W products accumulateInterval clips an interval at.
  struct WindowCursor {
    uint64_t Index = 0;
    double Lo = 0.0, Hi = 0.0;
    double SplitLo = 0.0, SplitHi = 0.0;
    /// The window's accumulator; null until the window exists, and after
    /// every drain (drainUpTo erases map nodes).
    WindowAccum *Accum = nullptr;
  };

  /// The per-event rules, once, for addEvent, addEvents and addTrace.
  /// False when \p E failed; the error is then in Rejected.
  bool foldEvent(const trace::Event &E);
  /// Out of line: validates \p E's processor and time, then moves the
  /// cursor to the time's window.
  bool seekCursor(const trace::Event &E);
  void moveCursor(uint64_t Index);
  /// Out of line: allocates the cursor's window for its first event.
  bool openCursorWindow();
  /// Out of line: the drop or error of a time regression.
  bool dropRegression(const trace::Event &E);
  /// Out of line: a structurally impossible event, dropped and counted
  /// (true) in lenient mode, rejected in strict mode.
  bool malformed(const trace::Event &E, const char *What);
  /// Stores \p Err in Rejected; always false.
  bool reject(Error Err);
  Error tooManyWindows() const;

  uint64_t windowIndexOf(double Time) const;
  /// The accumulator for window \p Index, or null when allocating it
  /// would exceed MaxWindowsInFlight.
  WindowAccum *windowAt(uint64_t Index);
  /// Splits [Begin, End) across windows and accumulates into cell
  /// (Region, Activity, Proc).  An interval inside one window is added
  /// as a single plain difference.  Rejects with LimitExceeded when the
  /// interval spans more than MaxIntervalWindows windows or the
  /// in-flight cap is hit.
  bool accumulateInterval(uint32_t Region, uint32_t Activity, unsigned Proc,
                          double Begin, double End);
  WindowResult emitWindow(uint64_t Index, WindowAccum &&Accum);
  std::vector<WindowResult> drainUpTo(double Bound, bool Flush);

  std::vector<std::string> RegionNames;
  std::vector<std::string> ActivityNames;
  unsigned NumProcs;
  WindowedOptions Options;
  std::vector<ProcState> Procs;
  std::map<uint64_t, WindowAccum> Windows;
  WindowCursor Cursor;
  /// The error of the event foldEvent last rejected.
  ParseError Rejected;
  double MaxTime = 0.0;
  uint64_t EventsSeen = 0;
  /// EventsSeen at the last drain, when lima.windowed.events_total was
  /// last bumped.
  uint64_t EventsCounted = 0;
  bool Finished = false;
};

} // namespace core
} // namespace lima

#endif // LIMA_CORE_WINDOWEDANALYSIS_H
