//===- trace/StreamParser.h - Incremental LIMATRACE parser ------*- C++ -*-===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one line-at-a-time parser of the LIMATRACE text format: feed it
/// byte chunks as they arrive (a tailed file, a pipe, or a mapped file
/// in slices) and it hands each event on as soon as its line is
/// complete.  The magic, 'procs' and declaration rules, the limit and
/// allocation checks, the error taxonomy and the lenient-mode drop rules
/// live here and nowhere else; every event record goes through
/// scan::parseEventRecord (TextScan.h).  The stream has no end until
/// finish(), so "missing header" diagnostics are deferred to finish()
/// and a trailing unterminated line is parsed there.
///
/// Where the events go decides what they cost against
/// ParseLimits::MaxAllocBytes.  Names are always charged, and so is the
/// processor table at 'procs' (procs x sizeof(std::vector<Event>)):
/// every consumer keeps per-processor state.  Events handed on in a
/// std::vector are not charged, since the consumer (lima_monitor's
/// windowed analyzer) folds and drops them; events that go into a Trace
/// are kept, so each is charged sizeof(Event) after the MaxEvents check.
///
/// Consumers: lima_monitor, which forwards each batch into a
/// core::WindowedAnalyzer, and parseTraceTextParallel
/// (ParallelParse.h), which runs the header prologue and every
/// sequential parse through it.
///
//===----------------------------------------------------------------------===//

#ifndef LIMA_TRACE_STREAMPARSER_H
#define LIMA_TRACE_STREAMPARSER_H

#include "support/Error.h"
#include "support/ParseLimits.h"
#include "trace/Event.h"
#include "trace/Trace.h"
#include <optional>
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
  /// update the parser's tables instead of emitting events.  Header
  /// problems and exceeded limits are fatal; malformed event records
  /// are fatal in strict mode and dropped + counted in lenient mode.
  Error feed(std::string_view Bytes, std::vector<Event> &Out);

  /// Ends the stream: parses a trailing unterminated line, then checks
  /// that the magic and 'procs' lines ever arrived.
  Error finish(std::vector<Event> &Out);

  /// As above, but the events go into \p Into, which keeps them: the
  /// trace is created at the 'procs' line, every declaration registers
  /// its name there, and each event is charged as event storage.
  Error feed(std::string_view Bytes, std::optional<Trace> &Into);
  Error finish(std::optional<Trace> &Into);

  /// True once the 'procs' line has been parsed (declarations and
  /// events can only follow it, so seeing any event implies this).
  bool headerComplete() const { return SawProcs; }
  unsigned numProcs() const { return NumProcs; }
  const std::vector<std::string> &regionNames() const { return Regions; }
  const std::vector<std::string> &activityNames() const { return Activities; }

  /// 1-based number of the last complete line consumed.
  size_t lineNumber() const { return LineNo; }
  uint64_t eventsParsed() const { return TotalEvents; }
  /// Bytes charged against ParseLimits::MaxAllocBytes so far.
  uint64_t allocBytes() const { return AllocBytes; }

private:
  template <typename Sink>
  Error feedLines(std::string_view Bytes, Sink &Out);
  template <typename Sink>
  Error finishLines(Sink &Out);
  /// Parses one complete line.  \p Declined: the canonical recognizer
  /// already declined it, so only its miss is counted.
  template <typename Sink>
  Error parseLine(std::string_view RawLine, Sink &Out, bool Declined = false);

  /// Publishes the locally counted event records into Options.Report.
  /// A per-record store through the report pointer is the lenient
  /// rent the batch path must not pay, so every feed() and finish()
  /// flushes once instead.
  void flushRecords() {
    if (Options.Report)
      Options.Report->TotalRecords += Records;
    Records = 0;
  }

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
  uint64_t Records = 0; ///< Event records not yet flushed to the report.
  uint64_t Dropped = 0; ///< Records dropped in lenient mode.
  /// The canonical fast path's miss count (scan::tryCanonicalEvent);
  /// at 64 it is not tried again on this stream.
  unsigned CanonicalMisses = 0;
};

} // namespace trace
} // namespace lima

#endif // LIMA_TRACE_STREAMPARSER_H
