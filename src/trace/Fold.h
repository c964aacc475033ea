//===- trace/Fold.h - The per-processor attribution fold --------*- C++ -*-===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one per-processor fold every trace analysis runs: the paper's
/// attribution rule (an activity's time goes to the innermost open region
/// on its processor) and the strict/lenient contract around it, applied
/// in Trace::validate's order and with its messages.  Each analysis is a
/// sink or drives one; DESIGN.md §9, "Attribution fold", lists the rules.
///
//===----------------------------------------------------------------------===//

#ifndef LIMA_TRACE_FOLD_H
#define LIMA_TRACE_FOLD_H

#include "support/Error.h"
#include "support/ParseLimits.h"
#include "trace/Trace.h"
#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

namespace lima {
namespace trace {

class FoldState;

/// What FoldState::step did with one event.
enum class FoldStep : uint8_t {
  Kept,   ///< Attributed, or dropped for its structure in lenient mode.
  Late,   ///< Out of order; dropped in lenient mode, no state touched.
  Failed, ///< A strict-mode fault (FoldState::takeError) or the sink's.
};

/// The sink interface, every report ignored.  A sink derives from it and
/// hides what it handles; the fold is a template over its sink, so an
/// ignored report costs nothing.  Each report comes before the state
/// changes, so FoldState::innermost() is an interval's or gap's frame.
struct FoldSink {
  static constexpr bool WantsGaps = false; ///< Whether gap() is called.
  /// A region opens; the result is kept as its frame's Tag.
  uint64_t enter(const FoldState &, uint32_t /*Region*/, double) { return 0; }
  /// An activity ran over [Begin, End) in the innermost region; false
  /// fails the step.
  bool interval(const FoldState &, uint32_t, double, double) { return true; }
  /// No activity covered [Begin, End) in the innermost region.
  void gap(const FoldState &, double /*Begin*/, double /*End*/) {}
  /// A message send or receive with processor \p Peer.
  void message(const FoldState &, EventKind, uint32_t /*Peer*/,
               uint64_t /*Bytes*/, double /*Time*/) {}
};

/// One processor's clock, region stack and open activity.
class FoldState {
public:
  struct Frame {
    uint32_t Region;
    double Cursor; ///< Where the frame's next gap begins.
    uint64_t Tag;  ///< What the sink's enter returned.
  };

  /// Folds processor \p Proc's events.  An event more than \p Tolerance
  /// behind the clock is out of order.  Lenient drops go to \p Report
  /// when it is not null.
  FoldState(unsigned Proc, ParseMode Mode, double Tolerance,
            ParseReport *Report = nullptr)
      : Tolerance(Tolerance), Strict(Mode == ParseMode::Strict), Proc(Proc),
        Report(Report) {}

  /// Applies every rule to one event and reports it to \p S; \p Bytes is
  /// read only for messages.  With \p Checked false the event is from a
  /// stream Trace::validate accepted, so no rule is checked again.
  template <bool Checked = true, typename Sink>
  FoldStep step(Sink &S, double Time, EventKind Kind, uint32_t Id,
                const uint64_t &Bytes);

  unsigned proc() const { return Proc; }
  /// The latest time of an event that was not out of order.
  double clock() const { return Clock; }
  size_t depth() const { return Stack.size(); }
  /// The innermost open region; depth() must not be 0.
  const Frame &innermost() const { return Stack.back(); }
  bool activityOpen() const { return Open != NoActivity; }
  double activityBegin() const { return OpenBegin; }

  /// Whether the fold, not the sink, failed the last step, and why.
  bool failed() const { return Failure.has_value(); }
  ParseError takeError() { return *std::exchange(Failure, std::nullopt); }

private:
  static constexpr uint32_t NoActivity = Trace::InvalidId;

  /// Out of line: event \p Index broke the rule \p Fmt states.  Strict
  /// mode fails; lenient mode counts the drop and returns Kept.
  FoldStep fault(size_t Index, const char *Fmt, ...)
      __attribute__((format(printf, 3, 4)));
  FoldStep late(size_t Index, double Time) {
    FoldStep S = fault(Index, "time goes backwards (%.9f after %.9f)", Time,
                       Clock);
    return S == FoldStep::Kept ? FoldStep::Late : S;
  }

  template <typename Sink> void gapTo(Sink &S, double Time) {
    if (S.WantsGaps && Time > Stack.back().Cursor)
      S.gap(*this, Stack.back().Cursor, Time);
  }

  // What step reads per event comes first.
  double Clock = 0.0;
  double Tolerance;
  size_t Next = 0;
  std::vector<Frame> Stack;
  double OpenBegin = 0.0;
  uint32_t Open = NoActivity;
  bool Strict;
  unsigned Proc;
  ParseReport *Report;
  std::optional<ParseError> Failure;
};

// Always inline: step runs once per event inside each caller's loop.
template <bool Checked, typename Sink>
[[gnu::always_inline]] inline FoldStep
FoldState::step(Sink &S, double Time, EventKind Kind, uint32_t Id,
                const uint64_t &Bytes) {
  size_t Index = Next++;
  if (Checked && Time + Tolerance < Clock) [[unlikely]]
    return late(Index, Time);
  Clock = std::max(Clock, Time);
  switch (Kind) {
  case EventKind::RegionEnter:
    if (Checked && Strict && Open != NoActivity) [[unlikely]]
      return fault(Index, "region enters while an activity is open");
    if (!Stack.empty())
      gapTo(S, Time);
    Stack.push_back({Id, Time, S.enter(*this, Id, Time)});
    break;
  case EventKind::RegionExit:
    if (Checked) {
      if (Stack.empty()) [[unlikely]]
        return fault(Index, "region exit without matching enter");
      if (Strict && Id != Stack.back().Region) [[unlikely]]
        return fault(Index,
                     "region exit id %u does not match innermost open "
                     "region %u",
                     Id, Stack.back().Region);
      if (Strict && Open != NoActivity) [[unlikely]]
        return fault(Index, "region exits while an activity is open");
    }
    gapTo(S, Time);
    Stack.pop_back();
    // Time spent in the child is covered from the parent's view.
    if (!Stack.empty())
      Stack.back().Cursor = Time;
    break;
  case EventKind::ActivityBegin:
    if (Checked) {
      if (Stack.empty()) [[unlikely]]
        return fault(Index, "activity begins outside any region");
      if (Strict && Open != NoActivity) [[unlikely]]
        return fault(Index, "overlapping activities");
    }
    gapTo(S, Time);
    Open = Id;
    OpenBegin = Time;
    break;
  case EventKind::ActivityEnd:
    if (Checked) {
      if (Open == NoActivity) [[unlikely]]
        return fault(Index, "activity end without matching begin");
      if (Stack.empty()) [[unlikely]]
        return fault(Index, "activity ends outside any region");
      if (Strict && Id != Open) [[unlikely]]
        return fault(Index,
                     "activity end id %u does not match open activity %u", Id,
                     Open);
    }
    if (!S.interval(*this, Open, OpenBegin, Time))
      return FoldStep::Failed;
    Stack.back().Cursor = Time;
    Open = NoActivity;
    break;
  case EventKind::MessageSend:
  case EventKind::MessageRecv:
    S.message(*this, Kind, Id, Bytes, Time);
    break;
  }
  return FoldStep::Kept;
}

/// Steps \p State over every event of \p Stream, reading its columns, for
/// a sink that never fails.  \p Checked as for FoldState::step.
template <bool Checked = true, typename Sink>
void foldStream(FoldState &State, Sink &S, const Trace::EventsRef &Stream) {
  const double *Times = Stream.times();
  const EventKind *Kinds = Stream.kinds();
  const uint32_t *Ids = Stream.ids();
  const uint64_t *Bytes = Stream.bytes();
  for (size_t I = 0; I != Stream.size(); ++I)
    State.template step<Checked>(S, Times[I], Kinds[I], Ids[I], Bytes[I]);
}

/// Folds every processor of \p T into \p S in processor order, for a sink
/// that never fails.  In strict mode \p T must have passed
/// Trace::validate, and no rule is checked again; in lenient mode the
/// fold drops and tolerates as FoldState::step does, uncounted.
template <typename Sink>
void foldTrace(const Trace &T, ParseMode Mode, Sink &S) {
  for (unsigned Proc = 0; Proc != T.numProcs(); ++Proc) {
    FoldState State(Proc, Mode, Trace::BackwardTimeTolerance);
    if (Mode == ParseMode::Strict)
      foldStream<false>(State, S, T.events(Proc));
    else
      foldStream(State, S, T.events(Proc));
  }
}

} // namespace trace
} // namespace lima

#endif // LIMA_TRACE_FOLD_H
