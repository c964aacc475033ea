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
//    the slice).
// It also feeds the input to StreamParser whole and in chunks of 1-7
// bytes, their sizes drawn from the input itself, in both modes, and
// traps unless the two runs give bit-identical events, the same drop
// counts and the same first error (code, line, byte offset, message).
//
//===----------------------------------------------------------------------===//

#include "FuzzOptions.h"
#include "trace/StreamParser.h"
#include "trace/TextScan.h"
#include "trace/TraceIO.h"
#include <algorithm>
#include <cstddef>
#include <cstdint>
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
    if (!Failed && (!scan::eventLineProcessor(Line, Tables.NumProcs, Proc) ||
                    Proc != Generic.Proc))
      __builtin_trap();
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

} // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t *Data, size_t Size) {
  std::string_view Text(reinterpret_cast<const char *>(Data), Size);

  auto Strict = trace::parseTraceText(Text, fuzz::strictOptions());
  Strict.takeError().consume();

  ParseReport Report;
  auto Lenient = trace::parseTraceText(Text, fuzz::lenientOptions(Report));
  Lenient.takeError().consume();

  checkLines(Text);
  checkStreamChunks(Text);
  return 0;
}
