//===- fuzz/fuzz_trace_text.cpp - LIMATRACE text parser fuzz target -------===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Besides running both parse modes, the target checks two shortcuts
// against the generic record grammar (splitFields + parseEventRecord)
// on every line of the input, under fixed tables of 64 processors, 8
// regions and 4 activities, and traps on any difference:
//  - a line scanCanonicalEvent accepts must be accepted by the generic
//    path with a bit-identical event, and run on the rest of the input
//    from the line's start, as the stream parser runs it, it must give
//    the same verdict and report the line's own '\n' as its end;
//  - a line the generic path accepts as an event of processor P must be
//    named P by eventLineProcessor, the rule the sharded parser sizes
//    each processor's slice by (a line it missed would be written past
//    the slice), and counted as a message exactly when the event is an
//    ms or mr (a message it missed would be written past the message
//    slice);
//  - an event the generic path accepts must print, through
//    scan::writeCanonicalEvent, exactly as snprintf's "%.9f" event line
//    prints it; so must an event of every kind at the time the input's
//    first 8 bytes spell, whatever double that is.
// It also feeds the input to StreamParser whole and in chunks of 1-7
// bytes, their sizes drawn from the input itself, in both modes, and
// traps unless the two runs give bit-identical events, the same drop
// counts and the same first error (code, line, byte offset, message).
//
// Last, the fold contract: on a trace that parses leniently, lenient
// reduceTrace and a WindowedAnalyzer with one window wider than the
// span must drop the same records and give the same cube bits, and a
// strict validate error of the per-event rules must be the strict
// windowed analyzer's error.  Traces whose span does not fit in one
// window are skipped, and so are traces with an event less than
// Trace::BackwardTimeTolerance behind its processor's clock: the
// whole-trace fold accepts it, the windowed one (tolerance 0) does not.
//
//===----------------------------------------------------------------------===//

#include "FuzzOptions.h"
#include "core/TraceReduction.h"
#include "core/WindowedAnalysis.h"
#include "trace/StreamParser.h"
#include "trace/TextScan.h"
#include "trace/TraceIO.h"
#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string_view>
#include <vector>

using namespace lima;
using namespace lima::trace;

namespace {

bool sameEvent(const Event &A, const Event &B) {
  return std::memcmp(&A.Time, &B.Time, sizeof(double)) == 0 &&
         A.Proc == B.Proc && A.Kind == B.Kind && A.Id == B.Id &&
         A.Bytes == B.Bytes;
}

/// Traps unless scan::writeCanonicalEvent prints \p E as snprintf's
/// "%.9f" event line (tests/TextWriterReference.h) does.
void checkWriter(const Event &E) {
  char Shipped[scan::MaxEventLineBytes];
  size_t ShippedLen = static_cast<size_t>(
      scan::writeCanonicalEvent(Shipped, E.Kind, E.Proc, E.Time, E.Id,
                                E.Bytes) -
      Shipped);
  char Oracle[384];
  const char *Mnemonic = eventKindMnemonic(E.Kind).data();
  int Len = isMessage(E.Kind)
                ? std::snprintf(Oracle, sizeof(Oracle),
                                "%.*s %u %.9f %u %llu\n", 2, Mnemonic, E.Proc,
                                E.Time, E.Id,
                                static_cast<unsigned long long>(E.Bytes))
                : std::snprintf(Oracle, sizeof(Oracle), "%.*s %u %.9f %u\n", 2,
                                Mnemonic, E.Proc, E.Time, E.Id);
  if (Len < 0 || static_cast<size_t>(Len) != ShippedLen ||
      std::memcmp(Shipped, Oracle, ShippedLen) != 0)
    __builtin_trap();
}

void checkLines(std::string_view Text) {
  scan::EventTables Tables;
  Tables.SawProcs = true;
  Tables.NumProcs = 64;
  Tables.NumRegions = 8;
  Tables.NumActivities = 4;
  size_t Pos = 0;
  while (Pos <= Text.size()) {
    size_t End = Text.find('\n', Pos);
    if (End == std::string_view::npos)
      End = Text.size();
    std::string_view Line = scan::skipLeadingSpace(Text.substr(Pos, End - Pos));
    Pos = End + 1;
    size_t LineStart = static_cast<size_t>(Line.data() - Text.data());
    if (Line.empty() || Line.front() == '#')
      continue;
    std::string_view Fields[scan::MaxFields];
    size_t NumFields = scan::splitFields(Line, Fields);
    Event Generic;
    Error Err =
        scan::parseEventRecord(Fields, NumFields, Tables, 1, 0, Generic);
    bool Failed = static_cast<bool>(Err);
    if (Failed)
      Err.consume();
    uint32_t Proc;
    bool Message;
    if (!Failed &&
        (!scan::eventLineProcessor(Line, Tables.NumProcs, Proc, Message) ||
         Proc != Generic.Proc || Message != isMessage(Generic.Kind)))
      __builtin_trap();
    if (!Failed)
      checkWriter(Generic);
    Event Fast, InPlace;
    size_t FastEnd = 0, InPlaceEnd = 0;
    bool Accepted = scan::scanCanonicalEvent(Line, Tables, Fast, FastEnd);
    if (scan::scanCanonicalEvent(Text.substr(LineStart), Tables, InPlace,
                                 InPlaceEnd) != Accepted)
      __builtin_trap();
    if (!Accepted)
      continue;
    if (FastEnd != Line.size() || InPlaceEnd != Line.size() ||
        !sameEvent(Fast, InPlace))
      __builtin_trap();
    if (Failed || !sameEvent(Fast, Generic))
      __builtin_trap();
  }
}

/// What one StreamParser run produced: its events, drop counts and first
/// error.
struct StreamRun {
  std::vector<Event> Events;
  ParseReport Report;
  std::optional<ParseError> Failure;
};

/// Feeds \p Text to a StreamParser in chunks whose sizes come from
/// \p Sizes (1-7 bytes each, cycling through it), or whole when it is
/// empty, and stops at the first error, as lima_monitor does.
StreamRun streamParse(std::string_view Text, ParseMode Mode,
                      std::string_view Sizes) {
  StreamRun Run;
  ParseOptions Options = Mode == ParseMode::Strict
                             ? fuzz::strictOptions()
                             : fuzz::lenientOptions(Run.Report);
  StreamParser Stream(Options);
  size_t Pos = 0;
  for (size_t I = 0; Pos != Text.size(); ++I) {
    size_t Size = Text.size();
    if (!Sizes.empty())
      Size = 1 + static_cast<unsigned char>(Sizes[I % Sizes.size()]) % 7;
    Size = std::min(Size, Text.size() - Pos);
    if (Error Err = Stream.feed(Text.substr(Pos, Size), Run.Events)) {
      Run.Failure = Err.toParseError();
      return Run;
    }
    Pos += Size;
  }
  if (Error Err = Stream.finish(Run.Events))
    Run.Failure = Err.toParseError();
  return Run;
}

void checkStreamChunks(std::string_view Text) {
  for (ParseMode Mode : {ParseMode::Strict, ParseMode::Lenient}) {
    StreamRun Whole = streamParse(Text, Mode, {});
    StreamRun Chunked = streamParse(Text, Mode, Text);
    if (Whole.Events.size() != Chunked.Events.size() ||
        Whole.Report.TotalRecords != Chunked.Report.TotalRecords ||
        Whole.Report.DroppedRecords != Chunked.Report.DroppedRecords ||
        Whole.Failure.has_value() != Chunked.Failure.has_value())
      __builtin_trap();
    for (size_t I = 0; I != Whole.Events.size(); ++I)
      if (!sameEvent(Whole.Events[I], Chunked.Events[I]))
        __builtin_trap();
    if (Whole.Failure &&
        (Whole.Failure->Code != Chunked.Failure->Code ||
         Whole.Failure->Line != Chunked.Failure->Line ||
         Whole.Failure->Offset != Chunked.Failure->Offset ||
         Whole.Failure->Msg != Chunked.Failure->Msg))
      __builtin_trap();
  }
}

/// True when some event of \p T lies behind its processor's clock by no
/// more than Trace::BackwardTimeTolerance.
bool stepsBackWithinTolerance(const Trace &T) {
  for (unsigned P = 0; P != T.numProcs(); ++P) {
    double Clock = 0.0;
    for (const Event &E : T.events(P)) {
      if (E.Time + Trace::BackwardTimeTolerance < Clock)
        continue; // Out of order in both folds.
      if (E.Time < Clock)
        return true;
      Clock = E.Time;
    }
  }
  return false;
}

void checkFoldContract(const Trace &T) {
  if (T.numRegions() == 0 || T.numActivities() == 0 ||
      stepsBackWithinTolerance(T))
    return;
  double Span = 0.0;
  for (unsigned P = 0; P != T.numProcs(); ++P)
    for (const Event &E : T.events(P))
      Span = std::max(Span, E.Time);
  core::WindowedOptions Window;
  Window.WindowSeconds = 2.0 * std::max(Span, 1.0);
  Window.EmitEmptyWindows = true;
  if (!std::isfinite(Window.WindowSeconds))
    return;

  ParseReport Whole, Windowed;
  core::ReductionOptions Reduction;
  Reduction.Threads = 1;
  Reduction.Mode = ParseMode::Lenient;
  Reduction.Report = &Whole;
  Expected<core::MeasurementCube> Cube = core::reduceTrace(T, Reduction);
  if (!Cube)
    __builtin_trap(); // Regions and activities are declared.
  Window.Mode = ParseMode::Lenient;
  Window.Report = &Windowed;
  core::WindowedAnalyzer Lenient(T.regionNames(), T.activityNames(),
                                 T.numProcs(), Window);
  if (Error Err = Lenient.addTrace(T)) {
    Err.consume();
    __builtin_trap();
  }
  std::vector<core::WindowResult> Windows = Lenient.finish();
  if (Windows.size() > 1 || Whole.TotalRecords != Windowed.TotalRecords ||
      Whole.DroppedRecords != Windowed.DroppedRecords ||
      Whole.DroppedByCode != Windowed.DroppedByCode)
    __builtin_trap();
  for (size_t I = 0; I != Cube->numRegions(); ++I)
    for (size_t J = 0; J != Cube->numActivities(); ++J)
      for (unsigned P = 0; P != Cube->numProcs(); ++P) {
        double Cell = Windows.empty() ? 0.0 : Windows[0].Cube.time(I, J, P);
        double Expected = Cube->time(I, J, P);
        if (std::memcmp(&Cell, &Expected, sizeof(double)) != 0)
          __builtin_trap();
      }

  Error Valid = T.validate();
  if (!Valid)
    return;
  std::string Msg = Valid.message();
  Valid.consume();
  if (Msg.rfind("proc ", 0) != 0 || Msg.find(" event ") == std::string::npos)
    return; // Message balance and open ends are whole-trace rules.
  Window.Mode = ParseMode::Strict;
  Window.Report = nullptr;
  core::WindowedAnalyzer Strict(T.regionNames(), T.activityNames(),
                                T.numProcs(), Window);
  Error Err = Strict.addTrace(T);
  if (!Err || Err.message() != Msg)
    __builtin_trap();
  Err.consume();
}

} // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t *Data, size_t Size) {
  std::string_view Text(reinterpret_cast<const char *>(Data), Size);

  auto Strict = trace::parseTraceText(Text, fuzz::strictOptions());
  Strict.takeError().consume();

  ParseReport Report;
  auto Lenient = trace::parseTraceText(Text, fuzz::lenientOptions(Report));
  if (Lenient)
    checkFoldContract(*Lenient);
  Lenient.takeError().consume();

  if (Size >= sizeof(double)) {
    double Time;
    std::memcpy(&Time, Data, sizeof(Time));
    for (EventKind Kind :
         {EventKind::RegionEnter, EventKind::RegionExit,
          EventKind::ActivityBegin, EventKind::ActivityEnd,
          EventKind::MessageSend, EventKind::MessageRecv})
      checkWriter({Time, static_cast<uint32_t>(Size), Kind, UINT32_MAX,
                   UINT64_MAX - Size});
  }
  checkLines(Text);
  checkStreamChunks(Text);
  return 0;
}
