//===- trace/TraceIO.h - Text trace format ----------------------*- C++ -*-===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A line-oriented text interchange format for traces, so that producers
/// other than the built-in simulator (e.g. a real MPI profiling layer) can
/// feed the analysis.  Format:
///
/// \code
///   LIMATRACE 1
///   procs 16
///   region 0 loop1
///   activity 0 computation
///   re <proc> <time> <region-id>      # region enter
///   rx <proc> <time> <region-id>      # region exit
///   ab <proc> <time> <activity-id>    # activity begin
///   ae <proc> <time> <activity-id>    # activity end
///   ms <proc> <time> <peer> <bytes>   # message send
///   mr <proc> <time> <peer> <bytes>   # message recv
/// \endcode
///
/// Lines starting with '#' and blank lines are ignored.  Times are
/// seconds, printed with 9 decimals (nanosecond resolution round-trip).
///
//===----------------------------------------------------------------------===//

#ifndef LIMA_TRACE_TRACEIO_H
#define LIMA_TRACE_TRACEIO_H

#include "support/Error.h"
#include "support/ParseLimits.h"
#include "trace/Trace.h"
#include <string>

namespace lima {
namespace trace {

/// Serializes \p T to the text format.
std::string writeTraceText(const Trace &T);

/// Parses the text format on the calling thread:
/// parseTraceTextParallel(Text, Options, 1).  Structural validation
/// (validate()) is not run automatically; callers decide how strict to
/// be.
///
/// Header lines (magic, 'procs', declarations) are always load-bearing:
/// errors there are fatal in either mode.  Event lines are records: in
/// ParseMode::Lenient a malformed event is dropped (and counted in
/// Options.Report) instead of aborting the parse.  ParseLimits
/// violations are fatal in both modes.
Expected<Trace> parseTraceText(std::string_view Text,
                               const ParseOptions &Options = {});

/// Convenience: writeTraceText to a file.
Error saveTrace(const Trace &T, const std::string &Path);

/// Convenience: parse a trace file.  The file is mmapped when possible
/// (see support/MappedFile.h) and parsed in place; no byte of the file
/// is copied on the way to the parser.
Expected<Trace> loadTrace(const std::string &Path,
                          const ParseOptions &Options = {});

} // namespace trace
} // namespace lima

#endif // LIMA_TRACE_TRACEIO_H
