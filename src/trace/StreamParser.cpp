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

namespace {

// The two places events go.  Only what each sink keeps is charged (see
// the file comment of StreamParser.h): a vector hands its events on, a
// trace keeps every one.
template <typename Sink>
constexpr uint64_t KeptEventBytes = 0;
template <>
constexpr uint64_t KeptEventBytes<std::optional<Trace>> = sizeof(Event);

void declareProcs(std::vector<Event> &, unsigned) {}
void declareProcs(std::optional<Trace> &Into, unsigned NumProcs) {
  Into.emplace(NumProcs);
}

void declareName(std::vector<Event> &, bool, std::string_view) {}
void declareName(std::optional<Trace> &Into, bool IsRegion,
                 std::string_view Name) {
  if (IsRegion)
    Into->addRegion(std::string(Name));
  else
    Into->addActivity(std::string(Name));
}

void emit(std::vector<Event> &Out, const Event &E) {
  Out.push_back(E);
}
void emit(std::optional<Trace> &Into, const Event &E) {
  Into->append(E);
}

} // namespace

StreamParser::StreamParser(ParseOptions Opts) : Options(std::move(Opts)) {}

template <typename Sink>
Error StreamParser::parseLine(std::string_view RawLine, Sink &Out,
                              bool Declined) {
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
  // Accepted events, from either path, count against the limits here.
  auto append = [&](const Event &E) {
    if (++TotalEvents > Limits.MaxEvents)
      return fail(ErrorCode::LimitExceeded, "event count exceeds the limit");
    AllocBytes += KeptEventBytes<Sink>;
    if (AllocBytes > Limits.MaxAllocBytes)
      return fail(ErrorCode::LimitExceeded,
                  "event storage exceeds the allocation cap");
    emit(Out, E);
    return Error::success();
  };

  if (RawLine.size() > Limits.MaxLineBytes)
    return fail(ErrorCode::LimitExceeded, "line exceeds the length limit");
  std::string_view Line = scan::skipLeadingSpace(RawLine);
  if (Line.empty() || Line.front() == '#')
    return Error::success();
  scan::EventTables Tables{SawProcs, NumProcs, Regions.size(),
                           Activities.size()};
  // Past 'procs', a canonical event line needs no tokenizing; every
  // other line, and every error, takes the generic path below.  A line
  // feedLines' in-place scan declined is not scanned again.
  Event E;
  if (Declined) {
    scan::noteCanonicalTrial(Line, false, CanonicalMisses);
  } else if (SawProcs &&
             scan::tryCanonicalEvent(Line, Tables, E, CanonicalMisses)) {
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
    AllocBytes += *CountOrErr * sizeof(std::vector<Event>);
    if (AllocBytes > Limits.MaxAllocBytes)
      return fail(ErrorCode::LimitExceeded,
                  "processor table exceeds the allocation cap");
    SawProcs = true;
    NumProcs = static_cast<unsigned>(*CountOrErr);
    declareProcs(Out, NumProcs);
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
    declareName(Out, IsRegion, Fields[2]);
    return Error::success();
  }

  // Event record: the grammar lives in scan::parseEventRecord, shared
  // with the sharded parser's pass B so the two cannot drift.
  ++Records;
  Error RecordErr =
      scan::parseEventRecord(Fields, NumFields, Tables, LineNo, LineOffset, E);
  if (RecordErr) {
    // 'procs' missing is a header problem, not a record problem:
    // nothing later can succeed, so it stays fatal in lenient mode.
    ParseError PE = RecordErr.toParseError();
    if (PE.Code != ErrorCode::MissingSection && Options.dropRecord(PE)) {
      ++Dropped;
      return Error::success();
    }
    return Error::fromParse(std::move(PE));
  }
  return append(E);
}

// lima.stream.events_total and lima.stream.dropped_total count the
// events a vector receives and the records dropped on the way, each
// bumped once per feed() or finish() call rather than once per event.
Error StreamParser::feed(std::string_view Bytes, std::vector<Event> &Out) {
  [[maybe_unused]] size_t Before = Out.size();
  uint64_t DroppedBefore = Dropped;
  Error Err = feedLines(Bytes, Out);
  flushRecords();
  LIMA_METRIC_COUNT("lima.stream.events_total", Out.size() - Before);
  if (Dropped != DroppedBefore)
    LIMA_METRIC_COUNT("lima.stream.dropped_total", Dropped - DroppedBefore);
  return Err;
}

Error StreamParser::finish(std::vector<Event> &Out) {
  size_t Before = Out.size();
  uint64_t DroppedBefore = Dropped;
  Error Err = finishLines(Out);
  flushRecords();
  if (Out.size() != Before)
    LIMA_METRIC_COUNT("lima.stream.events_total", Out.size() - Before);
  if (Dropped != DroppedBefore)
    LIMA_METRIC_COUNT("lima.stream.dropped_total", Dropped - DroppedBefore);
  return Err;
}

Error StreamParser::feed(std::string_view Bytes, std::optional<Trace> &Into) {
  Error Err = feedLines(Bytes, Into);
  flushRecords();
  return Err;
}

Error StreamParser::finish(std::optional<Trace> &Into) {
  Error Err = finishLines(Into);
  flushRecords();
  return Err;
}

// Complete lines are parsed in place from \p Bytes; only a line cut by
// the chunk's end is copied, into Buffer, so a chunk costs no copy of
// itself.  Past 'procs', a line that starts like an event goes first
// through the canonical recognizer, run straight on \p Bytes: it finds
// the line's '\n' as it reads the fields, so an accepted line is read
// once.  A line it declines, one the chunk's end cuts, one over
// MaxLineBytes or one that would pass MaxEvents or MaxAllocBytes takes
// parseLine.  After an error Buffer holds the bytes past the failing
// line, as if the whole chunk had been buffered.
template <typename Sink>
Error StreamParser::feedLines(std::string_view Bytes, Sink &Out) {
  if (!Buffer.empty()) {
    size_t Newline = Bytes.find('\n');
    Buffer.append(Bytes.substr(0, Newline));
    if (Newline == std::string_view::npos) {
      Bytes = {};
    } else {
      Error Err = parseLine(Buffer, Out);
      StreamOffset += Buffer.size() + 1;
      Bytes.remove_prefix(Newline + 1);
      if (Err) {
        Buffer.assign(Bytes);
        return Err;
      }
      Buffer.clear();
    }
  }
  const ParseLimits &Limits = Options.Limits;
  constexpr uint64_t Cost = KeptEventBytes<Sink>;
  size_t Start = 0;
  while (Start != Bytes.size()) {
    bool Declined = false;
    if (SawProcs && CanonicalMisses != scan::MaxCanonicalMisses &&
        !scan::isSpaceByte(Bytes[Start]) && Bytes[Start] != '#') {
      std::string_view Rest = Bytes.substr(Start);
      Event E;
      size_t Length = 0;
      if (!scan::scanCanonicalEvent(Rest,
                                    {true, NumProcs, Regions.size(),
                                     Activities.size()},
                                    E, Length)) {
        Declined = true;
      } else if (Length != Rest.size() && Length <= Limits.MaxLineBytes &&
                 TotalEvents < Limits.MaxEvents &&
                 (Cost == 0 || AllocBytes + Cost <= Limits.MaxAllocBytes)) {
        ++LineNo;
        StreamOffset += Length + 1;
        Start += Length + 1;
        scan::noteCanonicalTrial(Rest.substr(0, Length), true,
                                 CanonicalMisses);
        ++Records;
        ++TotalEvents;
        AllocBytes += Cost;
        emit(Out, E);
        continue;
      }
    }
    size_t Newline = Bytes.find('\n', Start);
    if (Newline == std::string_view::npos)
      break;
    Error Err = parseLine(Bytes.substr(Start, Newline - Start), Out, Declined);
    StreamOffset += Newline - Start + 1;
    Start = Newline + 1;
    if (Err) {
      Buffer.assign(Bytes.substr(Start));
      return Err;
    }
  }
  Buffer.append(Bytes.substr(Start));
  // A partial line longer than the limit can never become valid; fail
  // now instead of buffering unboundedly.
  if (Buffer.size() > Limits.MaxLineBytes)
    return makeParseError(ErrorCode::LimitExceeded, LineNo + 1, StreamOffset,
                          "trace line %zu: line exceeds the length limit",
                          LineNo + 1);
  return Error::success();
}

template <typename Sink>
Error StreamParser::finishLines(Sink &Out) {
  if (!Buffer.empty()) {
    std::string Last;
    Last.swap(Buffer);
    if (auto Err = parseLine(Last, Out))
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
