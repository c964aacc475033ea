//===- trace/StreamParser.h - Incremental LIMATRACE parser ------*- C++ -*-===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An incremental parser for the LIMATRACE text format: feed it byte
/// chunks as they arrive (a tailed file, a pipe) and it emits events as
/// soon as their line is complete, without materializing a Trace.  The
/// grammar, limit checks, error taxonomy and lenient-mode drop rules
/// are the same as parseTraceText's; the only intentional difference is
/// that the stream has no end until finish(), so "missing header"
/// diagnostics are deferred to finish() and a trailing unterminated
/// line is parsed there.
///
/// Intended consumer: lima_monitor, which forwards emitted events into
/// a core::WindowedAnalyzer.
///
//===----------------------------------------------------------------------===//

#ifndef LIMA_TRACE_STREAMPARSER_H
#define LIMA_TRACE_STREAMPARSER_H

#include "support/Error.h"
#include "support/ParseLimits.h"
#include "trace/Event.h"
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

namespace lima {
namespace trace {

/// Push-style LIMATRACE text parser.
class StreamParser {
public:
  explicit StreamParser(ParseOptions Options = {});

  /// Consumes \p Bytes; events from every newline-terminated line seen
  /// so far are appended to \p Out.  Header and declaration lines
  /// update the parser's tables instead of emitting events.  Errors
  /// follow parseTraceText: header problems and exceeded limits are
  /// fatal; malformed event records are fatal in strict mode and
  /// dropped + counted in lenient mode.
  Error feed(std::string_view Bytes, std::vector<Event> &Out);

  /// Ends the stream: parses a trailing unterminated line, then checks
  /// that the magic and 'procs' lines ever arrived.
  Error finish(std::vector<Event> &Out);

  /// True once the 'procs' line has been parsed (declarations and
  /// events can only follow it, so seeing any event implies this).
  bool headerComplete() const { return SawProcs; }
  unsigned numProcs() const { return NumProcs; }
  const std::vector<std::string> &regionNames() const { return Regions; }
  const std::vector<std::string> &activityNames() const { return Activities; }

  /// 1-based number of the last complete line consumed.
  size_t lineNumber() const { return LineNo; }
  uint64_t eventsParsed() const { return TotalEvents; }

private:
  Error feedLines(std::string_view Bytes, std::vector<Event> &Out);
  Error parseLine(std::string_view RawLine, std::vector<Event> &Out);

  ParseOptions Options;
  std::string Buffer;      ///< Bytes of the current incomplete line.
  size_t StreamOffset = 0; ///< Byte offset of Buffer's start in the stream.
  size_t LineNo = 0;
  bool SawMagic = false;
  bool SawProcs = false;
  unsigned NumProcs = 0;
  std::vector<std::string> Regions;
  std::vector<std::string> Activities;
  /// The same names, to reject a repeated one.
  std::unordered_set<std::string> RegionSet, ActivitySet;
  uint64_t TotalEvents = 0;
  uint64_t AllocBytes = 0;
  /// The canonical fast path's miss count (scan::tryCanonicalEvent);
  /// at 64 it is not tried again on this stream.
  unsigned CanonicalMisses = 0;
};

} // namespace trace
} // namespace lima

#endif // LIMA_TRACE_STREAMPARSER_H
