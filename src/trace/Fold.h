//===- trace/Fold.h - The per-processor attribution fold --------*- C++ -*-===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one per-processor fold every trace analysis runs: the paper's
/// attribution rule (an activity's time goes to the innermost open region
/// on its processor) and the strict/lenient contract around it.
/// foldTrace is the one walk over a whole trace, and in strict mode it is
/// Trace::validate: it checks every rule while it feeds the caller's sink.
/// Each analysis is a sink or drives one; DESIGN.md §9, "Attribution
/// fold", lists the rules.
///
//===----------------------------------------------------------------------===//

#ifndef LIMA_TRACE_FOLD_H
#define LIMA_TRACE_FOLD_H

#include "support/Error.h"
#include "support/Parallel.h"
#include "support/ParseLimits.h"
#include "support/Telemetry.h"
#include "trace/Trace.h"
#include <algorithm>
#include <cassert>
#include <cmath>
#include <optional>
#include <unordered_map>
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
  /// The span foldTrace records around each processor's walk.
  static constexpr const char *ShardSpan = "fold.shard";
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
  /// foldTrace accepted the processor's whole stream.
  void end(const FoldState &) {}
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
  /// read only for messages.
  template <typename Sink>
  FoldStep step(Sink &S, double Time, EventKind Kind, uint32_t Id,
                uint64_t Bytes);

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
template <typename Sink>
[[gnu::always_inline]] inline FoldStep
FoldState::step(Sink &S, double Time, EventKind Kind, uint32_t Id,
                uint64_t Bytes) {
  size_t Index = Next++;
  if (Time + Tolerance < Clock) [[unlikely]]
    return late(Index, Time);
  Clock = std::max(Clock, Time);
  switch (Kind) {
  case EventKind::RegionEnter:
    if (Strict && Open != NoActivity) [[unlikely]]
      return fault(Index, "region enters while an activity is open");
    if (!Stack.empty())
      gapTo(S, Time);
    Stack.push_back({Id, Time, S.enter(*this, Id, Time)});
    break;
  case EventKind::RegionExit:
    if (Stack.empty()) [[unlikely]]
      return fault(Index, "region exit without matching enter");
    if (Strict && Id != Stack.back().Region) [[unlikely]]
      return fault(Index,
                   "region exit id %u does not match innermost open "
                   "region %u",
                   Id, Stack.back().Region);
    if (Strict && Open != NoActivity) [[unlikely]]
      return fault(Index, "region exits while an activity is open");
    gapTo(S, Time);
    Stack.pop_back();
    // Time spent in the child is covered from the parent's view.
    if (!Stack.empty())
      Stack.back().Cursor = Time;
    break;
  case EventKind::ActivityBegin:
    if (Stack.empty()) [[unlikely]]
      return fault(Index, "activity begins outside any region");
    if (Strict && Open != NoActivity) [[unlikely]]
      return fault(Index, "overlapping activities");
    gapTo(S, Time);
    Open = Id;
    OpenBegin = Time;
    break;
  case EventKind::ActivityEnd:
    if (Open == NoActivity) [[unlikely]]
      return fault(Index, "activity end without matching begin");
    if (Stack.empty()) [[unlikely]]
      return fault(Index, "activity ends outside any region");
    if (Strict && Id != Open) [[unlikely]]
      return fault(Index, "activity end id %u does not match open activity %u",
                   Id, Open);
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

namespace detail {

/// One side of a message as seen from the processor that logged it: the
/// peer (receiver of a send, sender of a receive) and the byte count.
struct PeerBytes {
  uint32_t Peer;
  uint64_t Bytes;
  bool operator==(const PeerBytes &O) const {
    return Peer == O.Peer && Bytes == O.Bytes;
  }
};

struct PeerBytesHash {
  size_t operator()(const PeerBytes &K) const {
    return std::hash<uint64_t>()(K.Bytes * 0x9E3779B97F4A7C15ull + K.Peer);
  }
};

/// Message events of one processor, counted per (peer, bytes).
using MessageTally = std::unordered_map<PeerBytes, int64_t, PeerBytesHash>;

/// What foldTrace learns from one processor's stream.
struct ProcCheck {
  std::optional<ParseError> Err; ///< The first error.
  MessageTally Sent;             ///< Strict: (receiver, bytes) -> sends.
  MessageTally Received;         ///< Strict: (sender, bytes) -> receives.
  ParseReport Drops;             ///< The events, and the lenient drops.
};

/// foldTrace's verdict once every processor is walked.
Error verdict(std::vector<ProcCheck> &Checks, ParseMode Mode, unsigned Threads,
              ParseReport *Report);

} // namespace detail

/// Folds every processor of \p T into \p S on \p Threads workers (0 = all
/// hardware threads, 1 = serial in processor order); with more, \p S must
/// keep processors apart.  No step of \p S may fail.  Strict mode is
/// Trace::validate: every rule is checked before an event reaches \p S,
/// and the error is the lowest failing processor's first, else the
/// smallest unmatched message.  Lenient mode drops as FoldState::step
/// does.  Each processor's events and drops merge into \p Report, when
/// not null, in processor order.
template <typename Sink>
Error foldTrace(const Trace &T, ParseMode Mode, Sink &S, unsigned Threads = 1,
                ParseReport *Report = nullptr) {
  std::vector<detail::ProcCheck> Checks(T.numProcs());
  parallelFor(T.numProcs(), Threads, [&](size_t P) {
    LIMA_SPAN(Sink::ShardSpan);
    const bool Strict = Mode == ParseMode::Strict;
    detail::ProcCheck &C = Checks[P];
    const Trace::EventsRef Stream = T.events(static_cast<unsigned>(P));
    C.Drops.TotalRecords = Stream.size();
    FoldState State(static_cast<unsigned>(P), Mode,
                    Trace::BackwardTimeTolerance, Report ? &C.Drops : nullptr);
    const double *Times = Stream.times();
    const EventKind *Kinds = Stream.kinds();
    const uint32_t *Ids = Stream.ids();
    // The message column holds one count per message event, so a cursor
    // walks it; it is read only at a message, never past its end.
    const uint64_t *MessageBytes = Stream.messageBytes();
    size_t Messages = 0;
    for (size_t I = 0; I != Stream.size(); ++I) {
      if (Strict && (!std::isfinite(Times[I]) || Times[I] < 0.0)) {
        C.Err = makeCodedError(ErrorCode::ValueOutOfRange,
                               "proc %zu event %zu: time %.9f is not finite "
                               "and non-negative",
                               P, I, Times[I])
                    .toParseError();
        return;
      }
      const EventKind Kind = Kinds[I];
      const uint64_t Bytes = isMessage(Kind) ? MessageBytes[Messages++] : 0;
      if (State.step(S, Times[I], Kind, Ids[I], Bytes) == FoldStep::Failed) {
        assert(State.failed() && "a foldTrace sink failed a step");
        C.Err = State.takeError();
        return;
      }
      // Strict mode tallies the messages for the matching.
      if (!Strict)
        continue;
      if (Kind == EventKind::MessageSend)
        ++C.Sent[{Ids[I], Bytes}];
      else if (Kind == EventKind::MessageRecv)
        ++C.Received[{Ids[I], Bytes}];
    }
    if (Strict && (State.depth() != 0 || State.activityOpen())) {
      C.Err = makeCodedError(ErrorCode::StructuralError,
                             "proc %zu: %s left open at end of trace", P,
                             State.depth() != 0 ? "region" : "activity")
                  .toParseError();
      return;
    }
    S.end(State);
  });
  return detail::verdict(Checks, Mode, Threads, Report);
}

/// The walk's verdict on \p T if it fails, else \p Err: an analysis that
/// cannot hold \p T still reports a broken rule first.
inline Error verdictBefore(const Trace &T, ParseMode Mode, Error Err,
                           unsigned Threads = 1) {
  FoldSink Rules;
  if (Error Verdict = foldTrace(T, Mode, Rules, Threads)) {
    Err.consume();
    return Verdict;
  }
  return Err;
}

} // namespace trace
} // namespace lima

#endif // LIMA_TRACE_FOLD_H
