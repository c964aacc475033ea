//===- trace/StreamParser.cpp - Incremental LIMATRACE parser --------------===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "trace/StreamParser.h"
#include "support/Metrics.h"
#include "trace/TextScan.h"

using namespace lima;
using namespace lima::trace;

StreamParser::StreamParser(ParseOptions Opts) : Options(std::move(Opts)) {}

Error StreamParser::parseLine(std::string_view RawLine,
                              std::vector<Event> &Out) {
  const ParseLimits &Limits = Options.Limits;
  ++LineNo;
  size_t LineOffset = StreamOffset;

  auto fail = [&](ErrorCode Code, const char *What) {
    return makeParseError(Code, LineNo, LineOffset, "trace line %zu: %s",
                          LineNo, What);
  };
  auto failNumber = [&](Error E) {
    return makeParseError(ErrorCode::BadNumber, LineNo, LineOffset,
                          "trace line %zu: %s", LineNo, E.message().c_str());
  };
  // Accepted events, from either path, count against the limit here.
  auto append = [&](const Event &E) {
    if (++TotalEvents > Limits.MaxEvents)
      return fail(ErrorCode::LimitExceeded, "event count exceeds the limit");
    Out.push_back(E);
    return Error::success();
  };

  if (RawLine.size() > Limits.MaxLineBytes)
    return fail(ErrorCode::LimitExceeded, "line exceeds the length limit");
  std::string_view Line = scan::skipLeadingSpace(RawLine);
  if (Line.empty() || Line.front() == '#')
    return Error::success();
  scan::EventTables Tables;
  Tables.SawProcs = SawProcs;
  Tables.NumProcs = NumProcs;
  Tables.NumRegions = Regions.size();
  Tables.NumActivities = Activities.size();
  // Past 'procs', a canonical event line needs no tokenizing; every
  // other line, and every error, takes the generic path below.
  Event E;
  if (SawProcs && scan::tryCanonicalEvent(Line, Tables, E, CanonicalMisses)) {
    if (Options.Report)
      ++Options.Report->TotalRecords;
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
    if (SawProcs)
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
    SawProcs = true;
    NumProcs = static_cast<unsigned>(*CountOrErr);
    return Error::success();
  }

  if (Fields[0] == "region" || Fields[0] == "activity") {
    if (!SawProcs)
      return fail(ErrorCode::MissingSection,
                  "'procs' must precede declarations");
    if (NumFields < 3)
      return fail(ErrorCode::MalformedRecord,
                  "declaration needs an id and a name");
    auto IdOrErr = scan::scanUnsigned(Fields[1]);
    if (!IdOrErr)
      return failNumber(IdOrErr.takeError());
    bool IsRegion = Fields[0] == "region";
    std::vector<std::string> &Table = IsRegion ? Regions : Activities;
    if (*IdOrErr != Table.size())
      return fail(ErrorCode::MalformedRecord,
                  "declaration ids must be dense and in order");
    if (Table.size() >= (IsRegion ? Limits.MaxRegions : Limits.MaxActivities))
      return fail(ErrorCode::LimitExceeded,
                  "declaration count exceeds the limit");
    if (Fields[2].size() > Limits.MaxNameBytes)
      return fail(ErrorCode::LimitExceeded,
                  "declaration name exceeds the length limit");
    AllocBytes += scan::nameAllocCost(Fields[2].size());
    if (AllocBytes > Limits.MaxAllocBytes)
      return fail(ErrorCode::LimitExceeded,
                  "name tables exceed the allocation cap");
    if (!(IsRegion ? RegionSet : ActivitySet)
             .insert(std::string(Fields[2]))
             .second)
      return fail(ErrorCode::DuplicateDeclaration,
                  IsRegion ? "duplicate region name"
                           : "duplicate activity name");
    Table.push_back(std::string(Fields[2]));
    return Error::success();
  }

  // Event record: the grammar lives in scan::parseEventRecord, shared
  // with the batch and sharded parsers so the three cannot drift.
  if (Options.Report)
    ++Options.Report->TotalRecords;
  Error RecordErr =
      scan::parseEventRecord(Fields, NumFields, Tables, LineNo, LineOffset, E);
  if (RecordErr) {
    ParseError PE = RecordErr.toParseError();
    if (PE.Code != ErrorCode::MissingSection && Options.dropRecord(PE)) {
      LIMA_METRIC_COUNT("lima.stream.dropped_total", 1);
      return Error::success();
    }
    return Error::fromParse(std::move(PE));
  }
  return append(E);
}

// lima.stream.events_total is bumped once per feed() or finish() call
// with the events it appended, not once per event.
Error StreamParser::feed(std::string_view Bytes, std::vector<Event> &Out) {
  [[maybe_unused]] size_t Before = Out.size();
  Error Err = feedLines(Bytes, Out);
  LIMA_METRIC_COUNT("lima.stream.events_total", Out.size() - Before);
  return Err;
}

Error StreamParser::feedLines(std::string_view Bytes,
                              std::vector<Event> &Out) {
  Buffer.append(Bytes);
  size_t Start = 0;
  for (;;) {
    size_t Newline = Buffer.find('\n', Start);
    if (Newline == std::string::npos)
      break;
    std::string_view Line(Buffer.data() + Start, Newline - Start);
    Error Err = parseLine(Line, Out);
    StreamOffset += Newline - Start + 1;
    Start = Newline + 1;
    if (Err) {
      Buffer.erase(0, Start);
      return Err;
    }
  }
  Buffer.erase(0, Start);
  // A partial line longer than the limit can never become valid; fail
  // now instead of buffering unboundedly.
  if (Buffer.size() > Options.Limits.MaxLineBytes)
    return makeParseError(ErrorCode::LimitExceeded, LineNo + 1, StreamOffset,
                          "trace line %zu: line exceeds the length limit",
                          LineNo + 1);
  return Error::success();
}

Error StreamParser::finish(std::vector<Event> &Out) {
  if (!Buffer.empty()) {
    std::string Last;
    Last.swap(Buffer);
    [[maybe_unused]] size_t Before = Out.size();
    Error Err = parseLine(Last, Out);
    LIMA_METRIC_COUNT("lima.stream.events_total", Out.size() - Before);
    if (Err)
      return Err;
    StreamOffset += Last.size();
  }
  if (!SawMagic)
    return makeCodedError(ErrorCode::BadMagic,
                          "trace: missing 'LIMATRACE 1' header");
  if (!SawProcs)
    return makeCodedError(ErrorCode::MissingSection,
                          "trace: missing 'procs' line");
  return Error::success();
}
