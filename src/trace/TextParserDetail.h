//===- trace/TextParserDetail.h - Sequential text-parse state ---*- C++ -*-===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The sequential LIMATRACE text parser behind parseTraceText, exposed
/// as a class so parseTraceTextParallel can drive it in two phases:
/// parse the header prologue sequentially, shard the event section
/// across threads, and fall back to finishing sequentially whenever the
/// input does something sharding cannot reproduce bit-identically
/// (declarations after the first event, limits that could trip
/// mid-section).  Internal to lima_trace.
///
//===----------------------------------------------------------------------===//

#ifndef LIMA_TRACE_TEXTPARSERDETAIL_H
#define LIMA_TRACE_TEXTPARSERDETAIL_H

#include "support/ParseLimits.h"
#include "trace/TextScan.h"
#include "trace/Trace.h"
#include <optional>
#include <string_view>
#include <unordered_set>

namespace lima {
namespace trace {
namespace detail {

/// One sequential pass over LIMATRACE text.  Lines are consumed front
/// to back; position()/lineNumber() always point at the first
/// unconsumed line.
class TextTraceParser {
public:
  TextTraceParser(std::string_view Text, const ParseOptions &Options)
      : Text(Text), Options(Options) {}

  /// Consumes every remaining line.
  Error parseAll();

  /// Consumes header lines (magic, procs, declarations, blanks,
  /// comments) and stops — without consuming — at the first event line.
  Error parsePrologue();

  /// Final magic/procs checks plus ingestion metrics; moves the trace
  /// out.  Call exactly once, after parsing succeeded.
  Expected<Trace> take();

  /// True once every line (including a trailing unterminated one) has
  /// been consumed.
  bool atEnd() const { return Done; }

  /// Byte offset of the first unconsumed line.
  size_t position() const { return Pos; }

  /// 1-based number the next consumed line will get.
  size_t nextLineNumber() const { return LineNo + 1; }

  /// Table sizes events validate against (valid once the prologue ran).
  scan::EventTables tables() const;

  uint64_t allocBytes() const { return AllocBytes; }
  uint64_t totalEvents() const { return TotalEvents; }
  const ParseLimits &limits() const { return Options.Limits; }

  /// Folds the results of an externally parsed event section (the
  /// sharded path) into the final accounting, so take() reports the
  /// same totals the sequential pass would have.
  void noteShardedSection(uint64_t Lines, uint64_t Events, uint64_t Alloc) {
    LineNo += Lines;
    TotalEvents += Events;
    AllocBytes += Alloc;
    Done = true;
  }

  /// The trace under construction, for the sharded merge to fill in
  /// place.  Precondition: the prologue declared 'procs'.
  Trace &trace() { return *Result; }

private:
  /// Parses the line at Pos and advances past it.  Precondition:
  /// !atEnd().
  Error consumeLine();

  /// Classification of the line at Pos without consuming it.
  bool nextLineIsEvent() const;

  /// Publishes the locally counted event records into Options.Report.
  /// Attempted records accumulate in a member instead of going through
  /// the report pointer per line (that per-record store was the lenient
  /// overhead regression); every parse exit flushes, and zeroing makes
  /// repeated flushes harmless.
  void flushRecords() {
    if (Options.Report) {
      Options.Report->TotalRecords += Records;
      Records = 0;
    }
  }

  std::string_view Text;
  const ParseOptions &Options;
  size_t Pos = 0;
  size_t LineNo = 0;
  bool Done = false;
  bool SawMagic = false;
  std::optional<Trace> Result;
  uint64_t TotalEvents = 0;
  uint64_t AllocBytes = 0;
  uint64_t Records = 0;
  unsigned CanonicalMisses = 0; ///< See scan::tryCanonicalEvent.
  /// Names declared so far, to reject a repeated one (views into Text).
  std::unordered_set<std::string_view> RegionNames, ActivityNames;
};

} // namespace detail
} // namespace trace
} // namespace lima

#endif // LIMA_TRACE_TEXTPARSERDETAIL_H
