//===- trace/TraceIO.cpp - Text trace format ------------------------------===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Two generations of the text parser live here on purpose:
//
//  - parseTraceText: the shipping single-pass scanner.  One walk over
//    the mapped bytes, an in-place field cursor (no per-line vector),
//    from_chars number parsing (TextScan.h) and the tightened
//    ParseLimits accounting.  The sequential engine is
//    detail::TextTraceParser so the sharded parser (ParallelParse.cpp)
//    can reuse it for the header prologue and as its exact-semantics
//    fallback.
//
//  - parseTraceTextLegacy: the frozen pre-fast-path implementation
//    (split-into-vectors, strtod).  It is the reference the golden
//    equivalence suite and bench/perf_parallel compare against; do not
//    "improve" it — its value is that it does not change.
//
//===----------------------------------------------------------------------===//

#include "trace/TraceIO.h"
#include "support/FileUtils.h"
#include "support/MappedFile.h"
#include "support/Metrics.h"
#include "support/StringUtils.h"
#include "support/Telemetry.h"
#include "trace/TextParserDetail.h"
#include <cmath>
#include <cstdio>
#include <cstring>
#include <optional>
#include <unordered_set>

using namespace lima;
using namespace lima::trace;

static void appendEventLine(std::string &Out, const Event &E) {
  char Buf[384]; // A message at the largest finite time is 367 chars.
  int Len;
  switch (E.Kind) {
  case EventKind::MessageSend:
  case EventKind::MessageRecv:
    Len = std::snprintf(Buf, sizeof(Buf), "%.*s %u %.9f %u %llu\n", 2,
                        eventKindMnemonic(E.Kind).data(), E.Proc, E.Time, E.Id,
                        static_cast<unsigned long long>(E.Bytes));
    break;
  default:
    Len = std::snprintf(Buf, sizeof(Buf), "%.*s %u %.9f %u\n", 2,
                        eventKindMnemonic(E.Kind).data(), E.Proc, E.Time,
                        E.Id);
    break;
  }
  Out.append(Buf, static_cast<size_t>(Len));
}

std::string trace::writeTraceText(const Trace &T) {
  std::string Out;
  Out += "LIMATRACE 1\n";
  Out += "procs " + std::to_string(T.numProcs()) + "\n";
  for (size_t I = 0; I != T.numRegions(); ++I)
    Out += "region " + std::to_string(I) + " " +
           T.regionName(static_cast<uint32_t>(I)) + "\n";
  for (size_t I = 0; I != T.numActivities(); ++I)
    Out += "activity " + std::to_string(I) + " " +
           T.activityName(static_cast<uint32_t>(I)) + "\n";
  for (unsigned Proc = 0; Proc != T.numProcs(); ++Proc)
    for (const Event &E : T.events(Proc))
      appendEventLine(Out, E);
  return Out;
}

//===----------------------------------------------------------------------===//
// The single-pass scanner (detail::TextTraceParser).
//===----------------------------------------------------------------------===//

namespace {

/// End of the line starting at \p Pos: index of the next '\n', or
/// Text.size() for the final (possibly empty) unterminated segment.
size_t lineEnd(std::string_view Text, size_t Pos) {
  const void *Nl =
      std::memchr(Text.data() + Pos, '\n', Text.size() - Pos);
  return Nl ? static_cast<size_t>(static_cast<const char *>(Nl) -
                                  Text.data())
            : Text.size();
}

} // namespace

scan::EventTables detail::TextTraceParser::tables() const {
  scan::EventTables T;
  if (Result) {
    T.SawProcs = true;
    T.NumProcs = Result->numProcs();
    T.NumRegions = Result->numRegions();
    T.NumActivities = Result->numActivities();
  }
  return T;
}

bool detail::TextTraceParser::nextLineIsEvent() const {
  size_t End = lineEnd(Text, Pos);
  std::string_view Line =
      scan::skipLeadingSpace(Text.substr(Pos, End - Pos));
  if (Line.empty() || Line.front() == '#')
    return false;
  if (!SawMagic)
    return false; // The first substantive line is the magic line.
  size_t TokEnd = 0;
  while (TokEnd < Line.size() && !scan::isSpaceByte(Line[TokEnd]))
    ++TokEnd;
  std::string_view Tok = Line.substr(0, TokEnd);
  return Tok != "procs" && Tok != "region" && Tok != "activity";
}

Error detail::TextTraceParser::consumeLine() {
  const ParseLimits &Limits = Options.Limits;
  size_t End = lineEnd(Text, Pos);
  std::string_view RawLine = Text.substr(Pos, End - Pos);
  size_t LineOffset = Pos;
  ++LineNo;
  if (End == Text.size())
    Done = true;
  else
    Pos = End + 1;

  auto fail = [&](ErrorCode Code, const char *What) {
    return makeParseError(Code, LineNo, LineOffset, "trace line %zu: %s",
                          LineNo, What);
  };
  auto failNumber = [&](Error E) {
    return makeParseError(ErrorCode::BadNumber, LineNo, LineOffset,
                          "trace line %zu: %s", LineNo, E.message().c_str());
  };
  // Accepted events, from either path, count against the limits here.
  auto append = [&](const Event &E) {
    if (++TotalEvents > Limits.MaxEvents)
      return fail(ErrorCode::LimitExceeded, "event count exceeds the limit");
    AllocBytes += sizeof(Event);
    if (AllocBytes > Limits.MaxAllocBytes)
      return fail(ErrorCode::LimitExceeded,
                  "event storage exceeds the allocation cap");
    Result->append(E);
    return Error::success();
  };

  if (RawLine.size() > Limits.MaxLineBytes)
    return fail(ErrorCode::LimitExceeded, "line exceeds the length limit");
  std::string_view Line = scan::skipLeadingSpace(RawLine);
  if (Line.empty() || Line.front() == '#')
    return Error::success();
  // Past 'procs', a canonical event line needs no tokenizing; every
  // other line, and every error, takes the generic path below.
  Event E;
  if (Result && scan::tryCanonicalEvent(Line, tables(), E, CanonicalMisses)) {
    ++Records;
    return append(E);
  }
  std::string_view Fields[scan::MaxFields];
  size_t NumFields = scan::splitFields(Line, Fields);

  if (!SawMagic) {
    if (NumFields == 2 && Fields[0] == "LIMATRACE" && Fields[1] != "1")
      return fail(ErrorCode::UnsupportedVersion,
                  "unsupported LIMATRACE version");
    if (NumFields != 2 || Fields[0] != "LIMATRACE" || Fields[1] != "1")
      return fail(ErrorCode::BadMagic, "expected header 'LIMATRACE 1'");
    SawMagic = true;
    return Error::success();
  }

  if (Fields[0] == "procs") {
    if (Result)
      return fail(ErrorCode::DuplicateDeclaration, "duplicate 'procs' line");
    if (NumFields != 2)
      return fail(ErrorCode::MalformedRecord, "'procs' takes one argument");
    auto CountOrErr = scan::scanUnsigned(Fields[1]);
    if (!CountOrErr)
      return failNumber(CountOrErr.takeError());
    if (*CountOrErr == 0 || *CountOrErr > (1u << 20))
      return fail(ErrorCode::ValueOutOfRange, "processor count out of range");
    if (*CountOrErr > Limits.MaxProcs)
      return fail(ErrorCode::LimitExceeded,
                  "processor count exceeds the limit");
    AllocBytes += *CountOrErr * sizeof(std::vector<Event>);
    if (AllocBytes > Limits.MaxAllocBytes)
      return fail(ErrorCode::LimitExceeded,
                  "processor table exceeds the allocation cap");
    Result.emplace(static_cast<unsigned>(*CountOrErr));
    return Error::success();
  }

  if (Fields[0] == "region" || Fields[0] == "activity") {
    if (!Result)
      return fail(ErrorCode::MissingSection,
                  "'procs' must precede declarations");
    if (NumFields < 3)
      return fail(ErrorCode::MalformedRecord,
                  "declaration needs an id and a name");
    auto IdOrErr = scan::scanUnsigned(Fields[1]);
    if (!IdOrErr)
      return failNumber(IdOrErr.takeError());
    bool IsRegion = Fields[0] == "region";
    size_t Declared =
        IsRegion ? Result->numRegions() : Result->numActivities();
    if (*IdOrErr != Declared)
      return fail(ErrorCode::MalformedRecord,
                  "declaration ids must be dense and in order");
    if (Declared >= (IsRegion ? Limits.MaxRegions : Limits.MaxActivities))
      return fail(ErrorCode::LimitExceeded,
                  "declaration count exceeds the limit");
    if (Fields[2].size() > Limits.MaxNameBytes)
      return fail(ErrorCode::LimitExceeded,
                  "declaration name exceeds the length limit");
    AllocBytes += scan::nameAllocCost(Fields[2].size());
    if (AllocBytes > Limits.MaxAllocBytes)
      return fail(ErrorCode::LimitExceeded,
                  "name tables exceed the allocation cap");
    if (!(IsRegion ? RegionNames : ActivityNames).insert(Fields[2]).second)
      return fail(ErrorCode::DuplicateDeclaration,
                  IsRegion ? "duplicate region name"
                           : "duplicate activity name");
    // Register immediately so events can refer to it.
    if (IsRegion)
      Result->addRegion(std::string(Fields[2]));
    else
      Result->addActivity(std::string(Fields[2]));
    return Error::success();
  }

  // Everything else is an event record; in lenient mode a malformed
  // one is dropped instead of aborting the parse.  Attempted records
  // are counted locally and flushed to Options.Report on exit.
  ++Records;
  Error RecordErr = scan::parseEventRecord(Fields, NumFields, tables(),
                                           LineNo, LineOffset, E);
  if (RecordErr) {
    // 'procs' missing is a header problem, not a record problem:
    // nothing later can succeed, so it stays fatal in lenient mode.
    ParseError PE = RecordErr.toParseError();
    if (PE.Code != ErrorCode::MissingSection && Options.dropRecord(PE))
      return Error::success();
    return Error::fromParse(std::move(PE));
  }
  return append(E);
}

Error detail::TextTraceParser::parseAll() {
  while (!Done)
    if (auto Err = consumeLine()) {
      flushRecords();
      return Err;
    }
  flushRecords();
  return Error::success();
}

Error detail::TextTraceParser::parsePrologue() {
  while (!Done && !nextLineIsEvent())
    if (auto Err = consumeLine()) {
      flushRecords();
      return Err;
    }
  flushRecords();
  return Error::success();
}

Expected<Trace> detail::TextTraceParser::take() {
  flushRecords();
  if (!SawMagic)
    return makeCodedError(ErrorCode::BadMagic,
                          "trace: missing 'LIMATRACE 1' header");
  if (!Result)
    return makeCodedError(ErrorCode::MissingSection,
                          "trace: missing 'procs' line");
  LIMA_METRIC_COUNT("lima.parse.text.events_total", TotalEvents);
  LIMA_METRIC_COUNT("lima.parse.text.lines_total", LineNo);
  return std::move(*Result);
}

Expected<Trace> trace::parseTraceText(std::string_view Text,
                                      const ParseOptions &Options) {
  detail::TextTraceParser Parser(Text, Options);
  if (auto Err = Parser.parseAll())
    return Err;
  return Parser.take();
}

//===----------------------------------------------------------------------===//
// The frozen reference parser.
//===----------------------------------------------------------------------===//

static std::optional<EventKind>
legacyKindFromMnemonic(std::string_view Mnemonic) {
  if (Mnemonic == "re")
    return EventKind::RegionEnter;
  if (Mnemonic == "rx")
    return EventKind::RegionExit;
  if (Mnemonic == "ab")
    return EventKind::ActivityBegin;
  if (Mnemonic == "ae")
    return EventKind::ActivityEnd;
  if (Mnemonic == "ms")
    return EventKind::MessageSend;
  if (Mnemonic == "mr")
    return EventKind::MessageRecv;
  return std::nullopt;
}

Expected<Trace> trace::parseTraceTextLegacy(std::string_view Text,
                                            const ParseOptions &Options) {
  const ParseLimits &Limits = Options.Limits;
  std::vector<std::string_view> Lines = splitString(Text, '\n');
  size_t LineNo = 0;
  size_t LineOffset = 0;

  auto fail = [&](ErrorCode Code, const char *What) {
    return makeParseError(Code, LineNo, LineOffset, "trace line %zu: %s",
                          LineNo, What);
  };
  // Re-locates a number-parse error (which knows the bad token but not
  // the line) onto the current line.
  auto failNumber = [&](Error E) {
    return makeParseError(ErrorCode::BadNumber, LineNo, LineOffset,
                          "trace line %zu: %s", LineNo, E.message().c_str());
  };

  // Header.
  std::optional<Trace> Result;
  bool SawMagic = false;
  uint64_t TotalEvents = 0;
  uint64_t AllocBytes = 0;
  std::unordered_set<std::string_view> RegionNames, ActivityNames;

  for (const std::string_view RawLine : Lines) {
    ++LineNo;
    LineOffset = static_cast<size_t>(RawLine.data() - Text.data());
    if (RawLine.size() > Limits.MaxLineBytes)
      return fail(ErrorCode::LimitExceeded, "line exceeds the length limit");
    std::string_view Line = trimString(RawLine);
    if (Line.empty() || Line.front() == '#')
      continue;
    std::vector<std::string_view> Fields = splitWhitespace(Line);

    if (!SawMagic) {
      if (Fields.size() == 2 && Fields[0] == "LIMATRACE" && Fields[1] != "1")
        return fail(ErrorCode::UnsupportedVersion,
                    "unsupported LIMATRACE version");
      if (Fields.size() != 2 || Fields[0] != "LIMATRACE" || Fields[1] != "1")
        return fail(ErrorCode::BadMagic, "expected header 'LIMATRACE 1'");
      SawMagic = true;
      continue;
    }

    if (Fields[0] == "procs") {
      if (Result)
        return fail(ErrorCode::DuplicateDeclaration, "duplicate 'procs' line");
      if (Fields.size() != 2)
        return fail(ErrorCode::MalformedRecord, "'procs' takes one argument");
      auto CountOrErr = parseUnsigned(Fields[1]);
      if (!CountOrErr)
        return failNumber(CountOrErr.takeError());
      if (*CountOrErr == 0 || *CountOrErr > (1u << 20))
        return fail(ErrorCode::ValueOutOfRange,
                    "processor count out of range");
      if (*CountOrErr > Limits.MaxProcs)
        return fail(ErrorCode::LimitExceeded,
                    "processor count exceeds the limit");
      AllocBytes += *CountOrErr * sizeof(std::vector<Event>);
      if (AllocBytes > Limits.MaxAllocBytes)
        return fail(ErrorCode::LimitExceeded,
                    "processor table exceeds the allocation cap");
      Result.emplace(static_cast<unsigned>(*CountOrErr));
      continue;
    }

    if (Fields[0] == "region" || Fields[0] == "activity") {
      if (!Result)
        return fail(ErrorCode::MissingSection,
                    "'procs' must precede declarations");
      if (Fields.size() < 3)
        return fail(ErrorCode::MalformedRecord,
                    "declaration needs an id and a name");
      auto IdOrErr = parseUnsigned(Fields[1]);
      if (!IdOrErr)
        return failNumber(IdOrErr.takeError());
      bool IsRegion = Fields[0] == "region";
      size_t Declared =
          IsRegion ? Result->numRegions() : Result->numActivities();
      if (*IdOrErr != Declared)
        return fail(ErrorCode::MalformedRecord,
                    "declaration ids must be dense and in order");
      if (Declared >= (IsRegion ? Limits.MaxRegions : Limits.MaxActivities))
        return fail(ErrorCode::LimitExceeded,
                    "declaration count exceeds the limit");
      if (Fields[2].size() > Limits.MaxNameBytes)
        return fail(ErrorCode::LimitExceeded,
                    "declaration name exceeds the length limit");
      AllocBytes += Fields[2].size() + sizeof(std::string);
      if (AllocBytes > Limits.MaxAllocBytes)
        return fail(ErrorCode::LimitExceeded,
                    "name tables exceed the allocation cap");
      if (!(IsRegion ? RegionNames : ActivityNames).insert(Fields[2]).second)
        return fail(ErrorCode::DuplicateDeclaration,
                    IsRegion ? "duplicate region name"
                             : "duplicate activity name");
      // Register immediately so events can refer to it.
      if (IsRegion)
        Result->addRegion(std::string(Fields[2]));
      else
        Result->addActivity(std::string(Fields[2]));
      continue;
    }

    // Everything else is an event record; in lenient mode a malformed
    // one is dropped instead of aborting the parse.
    if (Options.Report)
      ++Options.Report->TotalRecords;
    Event E;
    Error RecordErr = [&]() -> Error {
      std::optional<EventKind> Kind = legacyKindFromMnemonic(Fields[0]);
      if (!Kind)
        return fail(ErrorCode::MalformedRecord, "unknown record type");
      if (!Result)
        return fail(ErrorCode::MissingSection, "'procs' must precede events");
      bool IsMessage =
          *Kind == EventKind::MessageSend || *Kind == EventKind::MessageRecv;
      size_t Expect = IsMessage ? 5 : 4;
      if (Fields.size() != Expect)
        return fail(ErrorCode::MalformedRecord,
                    "wrong field count for event");

      E.Kind = *Kind;
      auto ProcOrErr = parseUnsigned(Fields[1]);
      if (!ProcOrErr)
        return failNumber(ProcOrErr.takeError());
      if (*ProcOrErr >= Result->numProcs())
        return fail(ErrorCode::ValueOutOfRange,
                    "event processor out of range");
      E.Proc = static_cast<uint32_t>(*ProcOrErr);
      auto TimeOrErr = parseDouble(Fields[2]);
      if (!TimeOrErr)
        return failNumber(TimeOrErr.takeError());
      // strtod accepts "inf" and "nan"; non-finite times break every
      // downstream time computation, so reject them at the boundary.
      if (!std::isfinite(*TimeOrErr) || *TimeOrErr < 0.0)
        return fail(ErrorCode::ValueOutOfRange,
                    "event time must be finite and non-negative");
      E.Time = *TimeOrErr;
      auto IdOrErr = parseUnsigned(Fields[3]);
      if (!IdOrErr)
        return failNumber(IdOrErr.takeError());
      if (*IdOrErr > UINT32_MAX)
        return fail(ErrorCode::ValueOutOfRange, "event id overflows u32");
      E.Id = static_cast<uint32_t>(*IdOrErr);
      switch (E.Kind) {
      case EventKind::RegionEnter:
      case EventKind::RegionExit:
        if (E.Id >= Result->numRegions())
          return fail(ErrorCode::ValueOutOfRange,
                      "event region out of range");
        break;
      case EventKind::ActivityBegin:
      case EventKind::ActivityEnd:
        if (E.Id >= Result->numActivities())
          return fail(ErrorCode::ValueOutOfRange,
                      "event activity out of range");
        break;
      case EventKind::MessageSend:
      case EventKind::MessageRecv:
        if (E.Id >= Result->numProcs())
          return fail(ErrorCode::ValueOutOfRange,
                      "message peer out of range");
        break;
      }
      if (IsMessage) {
        auto BytesOrErr = parseUnsigned(Fields[4]);
        if (!BytesOrErr)
          return failNumber(BytesOrErr.takeError());
        E.Bytes = *BytesOrErr;
      }
      return Error::success();
    }();
    if (RecordErr) {
      // 'procs' missing is a header problem, not a record problem:
      // nothing later can succeed, so it stays fatal in lenient mode.
      ParseError PE = RecordErr.toParseError();
      if (PE.Code != ErrorCode::MissingSection && Options.dropRecord(PE))
        continue;
      return Error::fromParse(std::move(PE));
    }
    if (++TotalEvents > Limits.MaxEvents)
      return fail(ErrorCode::LimitExceeded, "event count exceeds the limit");
    AllocBytes += sizeof(Event);
    if (AllocBytes > Limits.MaxAllocBytes)
      return fail(ErrorCode::LimitExceeded,
                  "event storage exceeds the allocation cap");
    Result->append(E);
  }

  if (!SawMagic)
    return makeCodedError(ErrorCode::BadMagic,
                          "trace: missing 'LIMATRACE 1' header");
  if (!Result)
    return makeCodedError(ErrorCode::MissingSection,
                          "trace: missing 'procs' line");
  return std::move(*Result);
}

Error trace::saveTrace(const Trace &T, const std::string &Path) {
  return writeFileAtomic(Path, writeTraceText(T));
}

Expected<Trace> trace::loadTrace(const std::string &Path,
                                 const ParseOptions &Options) {
  auto FileOrErr = MappedFile::open(Path);
  if (auto Err = FileOrErr.takeError())
    return Err;
  return parseTraceText(FileOrErr->view(), Options);
}
