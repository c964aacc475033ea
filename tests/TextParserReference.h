//===- tests/TextParserReference.h - LIMATRACE text oracle ------*- C++ -*-===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pre-fast-path LIMATRACE text parser (split into vectors, strtod),
/// kept verbatim as the behavioral reference: IngestEquivalenceTest
/// holds parseTraceText and parseTraceTextParallel to it bit for bit,
/// StreamParserTest holds the stream parser to it, and bench/perf_parallel
/// reports the shipped parser's speedup against it.  Do not "improve" it:
/// its value is that it does not change.  It allocates per line and
/// charges the old, looser ParseLimits accounting for names.
///
//===----------------------------------------------------------------------===//

#ifndef LIMA_TESTS_TEXTPARSERREFERENCE_H
#define LIMA_TESTS_TEXTPARSERREFERENCE_H

#include "support/Error.h"
#include "support/ParseLimits.h"
#include "support/StringUtils.h"
#include "trace/Trace.h"
#include <cmath>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

namespace lima {
namespace testutil {

using trace::Event;
using trace::EventKind;
using trace::Trace;

inline std::optional<EventKind>
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

inline Expected<trace::Trace>
parseTraceTextLegacy(std::string_view Text, const ParseOptions &Options = {}) {
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

} // namespace testutil
} // namespace lima

#endif // LIMA_TESTS_TEXTPARSERREFERENCE_H
