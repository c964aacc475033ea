//===- trace/ParallelParse.cpp - Sharded LIMATRACE text parsing -----------===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Structure of a parallel parse:
//
//   prologue   a StreamParser parses the lines up to the first event
//              line, creating the trace at 'procs' and registering
//              every declared name
//   scan       shard the rest at newline boundaries; per shard, count
//              lines, count the lines naming each processor, and among
//              them the message lines (scan::eventLineProcessor), and
//              look for stray directives (pass A, parallel)
//   size       size every processor's stream and message column once
//              from those counts; a shard's slice of either starts
//              where the slices of the shards before it end
//   parse      per shard, run the shared event-record grammar and write
//              each accepted event straight into the next slot of its
//              processor's slice, and a message's byte count into the
//              next slot of its message slice, plus a shard-local
//              ParseReport (pass B, parallel)
//   merge      fold shard reports and errors back in shard order, then
//              close the gaps dropped lines left, sliding each
//              processor's event and message slices down in shard
//              order
//
// Everything that could make the sharded result differ from the
// sequential one — a directive in the event section (it would mutate
// the tables later events validate against), or an event-count /
// allocation limit that could trip midway (the failing line depends on
// global position) — is caught after pass A and routed to the
// sequential parse instead.  That keeps the fast path simple and the
// equivalence argument airtight: shards only ever parse self-contained
// event lines against frozen tables, with limits proven untrippable up
// front.  The sequential parse is the same StreamParser, fed the rest
// of the text in slices, with every event appended to the trace; one
// thread, a small event section and a header without 'procs' take it
// too.
//
//===----------------------------------------------------------------------===//

#include "trace/ParallelParse.h"
#include "support/MappedFile.h"
#include "support/Metrics.h"
#include "support/Parallel.h"
#include "support/Telemetry.h"
#include "trace/StreamParser.h"
#include "trace/TextScan.h"
#include <algorithm>
#include <cstring>
#include <optional>

using namespace lima;
using namespace lima::trace;

namespace {

/// Below this many event-section bytes the pool overhead outweighs the
/// parse; run sequentially.
constexpr size_t MinParallelBytes = 64 * 1024;

/// The slice of text one StreamParser::feed call takes in a sequential
/// parse.
constexpr size_t FeedBytes = 64 * 1024;

struct Shard {
  size_t Begin = 0; ///< Lines starting in [Begin, End) belong here.
  size_t End = 0;

  // Pass A results.
  uint64_t Lines = 0;
  bool SawDirective = false;
  /// Per processor, the lines naming it: an upper bound on the events
  /// pass B accepts for it, and the length of its slice.
  std::vector<uint64_t> Counts;
  /// Per processor, those of its lines that name an ms or mr event: the
  /// same bound for its messages, and the length of its message slice.
  std::vector<uint64_t> MessageCounts;

  // Pass B inputs/results.
  size_t FirstLineNo = 0; ///< 1-based number of the shard's first line.
  std::vector<uint64_t> Base;    ///< Per processor, its slice's first slot.
  std::vector<uint64_t> Written; ///< Per processor, events in its slice.
  std::vector<uint64_t> MessageBase;    ///< Same, for its message slice.
  std::vector<uint64_t> MessagesWritten; ///< Messages in that slice.
  uint64_t NumEvents = 0;
  ParseReport Report;
  std::optional<ParseError> Err;
};

/// Calls \p F(Begin, End) for every line starting in [\p Begin, \p End)
/// of \p S, as the StreamParser cuts them: the last shard also owns an
/// unterminated final line.  Stops early when \p F returns false.
template <typename Fn>
void forEachSegment(std::string_view Text, const Shard &S, Fn &&F) {
  size_t Pos = S.Begin;
  while (Pos < S.End) {
    const void *Nl = std::memchr(Text.data() + Pos, '\n', S.End - Pos);
    if (!Nl) {
      // Unterminated final line; only the last shard can get here.
      F(Pos, S.End);
      return;
    }
    size_t SegEnd =
        static_cast<size_t>(static_cast<const char *>(Nl) - Text.data());
    if (!F(Pos, SegEnd))
      return;
    Pos = SegEnd + 1;
  }
}

/// True when the first whitespace-delimited token of \p Line
/// (left-trimmed, not blank) is a header directive, i.e. the parser
/// would not treat this line as an event record.
bool isDirectiveLine(std::string_view Line) {
  // Directives all start with 'p', 'r' or 'a'; cheap reject first.
  char C = Line.front();
  if (C != 'p' && C != 'r' && C != 'a')
    return false;
  size_t TokEnd = 0;
  while (TokEnd < Line.size() && !scan::isSpaceByte(Line[TokEnd]))
    ++TokEnd;
  std::string_view Tok = Line.substr(0, TokEnd);
  return Tok == "procs" || Tok == "region" || Tok == "activity";
}

/// Byte offset of the first event line of \p Text: the first line past
/// the first substantive one (the magic line) that is neither blank, a
/// comment nor a directive.  Text.size() when there is none.
size_t eventSectionStart(std::string_view Text) {
  bool SawFirst = false;
  for (size_t Pos = 0; Pos < Text.size();) {
    const void *Nl = std::memchr(Text.data() + Pos, '\n', Text.size() - Pos);
    size_t End = Nl ? static_cast<size_t>(static_cast<const char *>(Nl) -
                                          Text.data())
                    : Text.size();
    std::string_view Line =
        scan::skipLeadingSpace(Text.substr(Pos, End - Pos));
    if (!Line.empty() && Line.front() != '#') {
      if (SawFirst && !isDirectiveLine(Line))
        return Pos;
      SawFirst = true;
    }
    Pos = End + 1;
  }
  return Text.size();
}

/// Pass A: line count, directive detection and per-processor line and
/// message counts for one shard.
void scanShard(std::string_view Text, Shard &S, unsigned NumProcs) {
  S.Counts.assign(NumProcs, 0);
  S.MessageCounts.assign(NumProcs, 0);
  forEachSegment(Text, S, [&](size_t Begin, size_t End) {
    ++S.Lines;
    std::string_view Line =
        scan::skipLeadingSpace(Text.substr(Begin, End - Begin));
    if (Line.empty() || Line.front() == '#')
      return true;
    if (!S.SawDirective && isDirectiveLine(Line))
      S.SawDirective = true;
    uint32_t Proc;
    bool Message;
    if (scan::eventLineProcessor(Line, NumProcs, Proc, Message)) {
      ++S.Counts[Proc];
      S.MessageCounts[Proc] += Message;
    }
    return true;
  });
}

/// Pass B: parses one shard's event lines against the frozen \p Tables,
/// writing each accepted event into its processor's slice of \p Cols.
/// Limits that depend on global state (event count, allocation cap)
/// were proven untrippable before pass B started; the per-line length
/// limit is still enforced here and is fatal, exactly as in the
/// sequential parser.
void parseShard(std::string_view Text, Shard &S,
                const ParseOptions &Options,
                const scan::EventTables &Tables,
                const std::vector<Trace::StreamColumns> &Cols) {
  ParseOptions Local = Options;
  Local.Report = Options.Report ? &S.Report : nullptr;
  const ParseLimits &Limits = Options.Limits;
  size_t LineNo = S.FirstLineNo - 1;
  uint64_t Records = 0; // flushed to S.Report after the walk
  unsigned CanonicalMisses = 0;

  forEachSegment(Text, S, [&](size_t Begin, size_t End) {
    std::string_view RawLine = Text.substr(Begin, End - Begin);
    size_t LineOffset = Begin;
    ++LineNo;
    if (RawLine.size() > Limits.MaxLineBytes) {
      S.Err = makeParseError(ErrorCode::LimitExceeded, LineNo, LineOffset,
                             "trace line %zu: line exceeds the length limit",
                             LineNo)
                  .toParseError();
      return false;
    }
    std::string_view Line = scan::skipLeadingSpace(RawLine);
    if (Line.empty() || Line.front() == '#')
      return true;
    ++Records;
    Event E;
    if (!scan::tryCanonicalEvent(Line, Tables, E, CanonicalMisses)) {
      std::string_view Fields[scan::MaxFields];
      size_t NumFields = scan::splitFields(Line, Fields);
      Error RecordErr =
          scan::parseEventRecord(Fields, NumFields, Tables, LineNo,
                                 LineOffset, E);
      if (RecordErr) {
        ParseError PE = RecordErr.toParseError();
        if (PE.Code != ErrorCode::MissingSection && Local.dropRecord(PE))
          return true;
        S.Err = std::move(PE);
        return false;
      }
    }
    // Pass A counted every line naming this processor, and every message
    // line among them, so the slices have room unless the two passes
    // disagree on the processor or the kind; then the slot would be the
    // next shard's, so stop instead of writing it.
    uint64_t &Written = S.Written[E.Proc];
    uint64_t &MessagesWritten = S.MessagesWritten[E.Proc];
    const bool Message = isMessage(E.Kind);
    if (Written == S.Counts[E.Proc] ||
        (Message && MessagesWritten == S.MessageCounts[E.Proc])) {
      S.Err = makeParseError(ErrorCode::Generic, LineNo, LineOffset,
                             "trace line %zu: internal error: processor %u "
                             "has more %s than pass A counted",
                             LineNo, E.Proc,
                             Written == S.Counts[E.Proc] ? "events"
                                                         : "messages")
                  .toParseError();
      return false;
    }
    const Trace::StreamColumns &C = Cols[E.Proc];
    const uint64_t Slot = S.Base[E.Proc] + Written++;
    C.Times[Slot] = E.Time;
    C.Kinds[Slot] = E.Kind;
    C.Ids[Slot] = E.Id;
    if (Message)
      C.MessageBytes[S.MessageBase[E.Proc] + MessagesWritten++] = E.Bytes;
    ++S.NumEvents;
    return true;
  });
  if (Local.Report)
    Local.Report->TotalRecords += Records;
}

/// The parsed trace, with the lima.parse.text.* counts of the parse.
Trace takeTrace(std::optional<Trace> &Result, [[maybe_unused]] uint64_t Events,
                [[maybe_unused]] uint64_t Lines) {
  LIMA_METRIC_COUNT("lima.parse.text.events_total", Events);
  LIMA_METRIC_COUNT("lima.parse.text.lines_total", Lines);
  return std::move(*Result);
}

/// Parses [\p From, end) of \p Text sequentially: \p Parser, which has
/// consumed everything before \p From, takes the rest in FeedBytes
/// slices and appends every event to \p Result.
Expected<Trace> parseSequentially(std::string_view Text, size_t From,
                                  StreamParser &Parser,
                                  std::optional<Trace> &Result) {
  for (size_t Pos = From; Pos < Text.size(); Pos += FeedBytes)
    if (auto Err = Parser.feed(Text.substr(Pos, FeedBytes), Result))
      return Err;
  if (auto Err = Parser.finish(Result))
    return Err;
  return takeTrace(Result, Parser.eventsParsed(), Parser.lineNumber());
}

} // namespace

Expected<Trace> trace::parseTraceTextParallel(std::string_view Text,
                                              const ParseOptions &Options,
                                              unsigned Threads) {
  Threads = resolveThreadCount(Threads);

  // Phase 1: the header prologue is inherently sequential (each
  // declaration changes the tables the next line validates against).
  // It ends at a line start, so the parser holds no partial line.
  StreamParser Parser(Options);
  std::optional<Trace> Result;
  const size_t EvStart = eventSectionStart(Text);
  if (auto Err = Parser.feed(Text.substr(0, EvStart), Result))
    return Err;
  size_t Remain = Text.size() - EvStart;
  // Every shard keeps six counters for every processor (its line and
  // message counts, its two slices' bases, the events and messages
  // written); cap the shard count so that they never outweigh the
  // event text itself.
  if (Parser.headerComplete())
    Threads = static_cast<unsigned>(std::min<size_t>(
        Threads, Remain / (Parser.numProcs() * 6 * sizeof(uint64_t))));
  // Nothing shardable (or not worth sharding): parse sequentially.
  // Without 'procs' the next event line fails with MissingSection, or
  // is dropped in lenient mode ahead of a late 'procs'; the sequential
  // parse gives either verbatim.
  if (!Parser.headerComplete() || Threads <= 1 || Remain < MinParallelBytes)
    return parseSequentially(Text, EvStart, Parser, Result);

  // Phase 2: shard [EvStart, end) at newline boundaries.
  LIMA_STAGE("ingest");
  std::vector<Shard> Shards;
  {
    LIMA_SPAN("ingest.scan");
    size_t ChunkBytes = Remain / Threads;
    size_t Begin = EvStart;
    for (unsigned I = 0; I != Threads && Begin <= Text.size(); ++I) {
      Shard S;
      S.Begin = Begin;
      if (I + 1 == Threads) {
        S.End = Text.size();
      } else {
        size_t Target = std::min(EvStart + (I + 1) * ChunkBytes,
                                 Text.size());
        Target = std::max(Target, Begin);
        const void *Nl = std::memchr(Text.data() + Target, '\n',
                                     Text.size() - Target);
        S.End = Nl ? static_cast<size_t>(static_cast<const char *>(Nl) -
                                         Text.data()) +
                         1
                   : Text.size();
      }
      Begin = S.End;
      Shards.push_back(S);
    }
    Shards.back().End = Text.size();

    // Pass A: count lines, and per processor the lines naming it; look
    // for stray directives.
    parallelFor(Shards.size(), Threads, [&](size_t I) {
      scanShard(Text, Shards[I], Parser.numProcs());
    });
  }

  uint64_t RemainLines = 0;
  bool SawDirective = false;
  for (const Shard &S : Shards) {
    RemainLines += S.Lines;
    SawDirective |= S.SawDirective;
  }

  // Sequential fallbacks: a directive mid-events mutates the tables
  // later events validate against, and a limit that could trip
  // mid-section fails on a line that depends on global event/byte
  // totals.  Both are position-dependent in a way shards cannot see,
  // so replay them through the sequential parse (bit-identical by
  // construction).  RemainLines over-approximates remaining events, so
  // passing these checks proves no shard can trip either limit.
  const ParseLimits &Limits = Options.Limits;
  if (SawDirective ||
      Parser.eventsParsed() + RemainLines > Limits.MaxEvents ||
      Parser.allocBytes() + RemainLines * sizeof(Event) >
          Limits.MaxAllocBytes) {
    LIMA_METRIC_COUNT("lima.ingest.fallback_total", 1);
    return parseSequentially(Text, EvStart, Parser, Result);
  }

  // Phase 3: size every stream once.  A processor's stream is its
  // shards' slices in shard order, which is file order, and so is its
  // message column.  Counts never exceed RemainLines, so the storage
  // stays inside the bound the allocation check above proved.
  Trace &T = *Result;
  const unsigned NumProcs = T.numProcs();
  const scan::EventTables Tables{true, NumProcs, T.numRegions(),
                                 T.numActivities()};
  std::vector<Trace::StreamColumns> Cols(NumProcs);
  {
    LIMA_SPAN("ingest.size");
    for (Shard &S : Shards) {
      S.Base.resize(NumProcs);
      S.Written.assign(NumProcs, 0);
      S.MessageBase.resize(NumProcs);
      S.MessagesWritten.assign(NumProcs, 0);
    }
    for (unsigned Proc = 0; Proc != NumProcs; ++Proc) {
      uint64_t At = T.events(Proc).size();
      uint64_t MessageAt = T.events(Proc).numMessages();
      for (Shard &S : Shards) {
        S.Base[Proc] = At;
        At += S.Counts[Proc];
        S.MessageBase[Proc] = MessageAt;
        MessageAt += S.MessageCounts[Proc];
      }
      T.resizeStream(Proc, At, MessageAt);
      Cols[Proc] = T.streamColumns(Proc);
    }
  }

  // Phase 4: parse shards concurrently, each into its own slices.
  {
    LIMA_SPAN("ingest.parse");
    size_t NextLine = Parser.lineNumber() + 1;
    for (Shard &S : Shards) {
      S.FirstLineNo = NextLine;
      NextLine += S.Lines;
    }
    parallelFor(Shards.size(), Threads, [&](size_t I) {
      parseShard(Text, Shards[I], Options, Tables, Cols);
    });
  }

  // Phase 5: merge in shard order.  The first erroring shard (lowest
  // byte offset) wins; its report — and those of the shards before it —
  // are exactly what the sequential parser would have accumulated up to
  // and including the failing line.
  LIMA_SPAN("ingest.merge");
  LIMA_METRIC_COUNT("lima.ingest.shards", Shards.size());
  uint64_t MergedEvents = 0;
  for (Shard &S : Shards) {
    if (Options.Report)
      Options.Report->merge(S.Report);
    if (S.Err)
      return Error::fromParse(std::move(*S.Err));
    MergedEvents += S.NumEvents;
  }
  // A slice is short by the lines pass A counted that pass B dropped
  // (lenient mode only: in strict mode such a line is the error).
  // Close the gaps: slide each processor's event and message slices
  // down in shard order.
  for (unsigned Proc = 0; Proc != NumProcs; ++Proc) {
    uint64_t At = Shards.front().Base[Proc];
    uint64_t MessageAt = Shards.front().MessageBase[Proc];
    for (const Shard &S : Shards) {
      Cols[Proc].slide(At, S.Base[Proc], S.Written[Proc]);
      At += S.Written[Proc];
      Cols[Proc].slideMessages(MessageAt, S.MessageBase[Proc],
                               S.MessagesWritten[Proc]);
      MessageAt += S.MessagesWritten[Proc];
    }
    T.resizeStream(Proc, At, MessageAt);
  }
  return takeTrace(Result, Parser.eventsParsed() + MergedEvents,
                   Parser.lineNumber() + RemainLines);
}

Expected<Trace> trace::loadTraceParallel(const std::string &Path,
                                         const ParseOptions &Options,
                                         unsigned Threads) {
  auto FileOrErr = MappedFile::open(Path);
  if (auto Err = FileOrErr.takeError())
    return Err;
  return parseTraceTextParallel(FileOrErr->view(), Options, Threads);
}
