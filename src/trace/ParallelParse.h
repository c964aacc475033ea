//===- trace/ParallelParse.h - Sharded LIMATRACE text parsing ---*- C++ -*-===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Parallel ingestion of the LIMATRACE text format: a StreamParser
/// parses the header prologue, then the event section is sharded at
/// newline boundaries and parsed concurrently on the shared thread
/// pool, or fed to the same StreamParser on the calling thread.
///
/// The contract is bit-identical results at every thread count, equal
/// to the one-thread parse (parseTraceText):
///
///  - the produced Trace is identical (each shard keeps its events per
///    processor in file order, and every processor's stream concatenates
///    its shard slices in shard order, so per-processor event order is
///    file order);
///  - in strict mode the reported error is the sequentially-first one
///    (shards are scanned in byte order; the lowest-offset failure
///    wins) with the same code, line number, offset and message;
///  - in lenient mode the ParseReport (totals, per-code drop counts,
///    the first 16 samples) is identical, because shard-local reports
///    merge in shard order.
///
/// Inputs that sharding cannot reproduce exactly — declarations after
/// the first event line, or limits that could trip mid-section — are
/// detected in a cheap pre-scan and fall back to the sequential feed,
/// so equivalence holds unconditionally (see DESIGN.md, "Ingestion fast
/// path" for the determinism argument).
///
//===----------------------------------------------------------------------===//

#ifndef LIMA_TRACE_PARALLELPARSE_H
#define LIMA_TRACE_PARALLELPARSE_H

#include "support/Error.h"
#include "support/ParseLimits.h"
#include "trace/Trace.h"
#include <string>
#include <string_view>

namespace lima {
namespace trace {

/// Parses LIMATRACE text on \p Threads threads (0 = all hardware
/// threads, 1 = the sequential StreamParser feed on the calling
/// thread).  Small event sections run sequentially regardless.
Expected<Trace> parseTraceTextParallel(std::string_view Text,
                                       const ParseOptions &Options = {},
                                       unsigned Threads = 0);

/// Maps \p Path (zero-copy, see support/MappedFile.h) and parses it
/// with parseTraceTextParallel.
Expected<Trace> loadTraceParallel(const std::string &Path,
                                  const ParseOptions &Options = {},
                                  unsigned Threads = 0);

} // namespace trace
} // namespace lima

#endif // LIMA_TRACE_PARALLELPARSE_H
