//===- trace/TraceIO.cpp - Text trace format ------------------------------===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// The writer, and the one-thread entry points of the reader.  Every
// event line is scan::writeCanonicalEvent's, so the writer and the
// reader's fast path (both in TextScan.h) spell the line alike.  Parsing
// itself lives in StreamParser (the line grammar) and ParallelParse
// (the prologue, the sequential feed and the sharded event section).
//
//===----------------------------------------------------------------------===//

#include "trace/TraceIO.h"
#include "support/FileUtils.h"
#include "support/MappedFile.h"
#include "trace/ParallelParse.h"
#include "trace/TextScan.h"
#include <algorithm>
#include <cstring>
#include <memory>

using namespace lima;
using namespace lima::trace;

namespace {

/// The most bytes the emitter hands its sink at once.
constexpr size_t ChunkBytes = 256 * 1024;

/// Prints \p T in the text format into a ChunkBytes buffer and hands
/// each full buffer, then the last, to \p Sink (string_view -> Error).
/// Stops at the sink's first error.  Event lines come from the columns
/// through scan::writeCanonicalEvent, a byte count from the message
/// column at each message.
template <typename SinkT> Error emitTraceText(const Trace &T, SinkT &&Sink) {
  std::unique_ptr<char[]> Chunk(new char[ChunkBytes]);
  char *const Begin = Chunk.get();
  char *const End = Begin + ChunkBytes;
  char *P = Begin;
  auto flush = [&] {
    std::string_view Full(Begin, static_cast<size_t>(P - Begin));
    P = Begin;
    return Sink(Full);
  };
  // Header lines may hold names of any length.
  auto put = [&](std::string_view Text) -> Error {
    while (!Text.empty()) {
      if (P == End)
        if (Error Err = flush())
          return Err;
      size_t N = std::min(Text.size(), static_cast<size_t>(End - P));
      std::memcpy(P, Text.data(), N);
      P += N;
      Text.remove_prefix(N);
    }
    return Error::success();
  };
  std::string Header = "LIMATRACE 1\nprocs " + std::to_string(T.numProcs()) +
                       "\n";
  for (size_t I = 0; I != T.numRegions(); ++I)
    Header += "region " + std::to_string(I) + " " +
              T.regionName(static_cast<uint32_t>(I)) + "\n";
  for (size_t I = 0; I != T.numActivities(); ++I)
    Header += "activity " + std::to_string(I) + " " +
              T.activityName(static_cast<uint32_t>(I)) + "\n";
  if (Error Err = put(Header))
    return Err;

  for (unsigned Proc = 0; Proc != T.numProcs(); ++Proc) {
    const Trace::EventsRef Events = T.events(Proc);
    const double *Times = Events.times();
    const EventKind *Kinds = Events.kinds();
    const uint32_t *Ids = Events.ids();
    const uint64_t *Bytes = Events.messageBytes();
    for (size_t I = 0, M = 0; I != Events.size(); ++I) {
      if (static_cast<size_t>(End - P) < scan::MaxEventLineBytes)
        if (Error Err = flush())
          return Err;
      const EventKind Kind = Kinds[I];
      P = scan::writeCanonicalEvent(P, Kind, Proc, Times[I], Ids[I],
                                    isMessage(Kind) ? Bytes[M++] : 0);
    }
  }
  return P == Begin ? Error::success() : flush();
}

} // namespace

std::string trace::writeTraceText(const Trace &T) {
  std::string Out;
  cantFail(emitTraceText(T, [&](std::string_view Chunk) {
    Out.append(Chunk);
    return Error::success();
  }));
  return Out;
}

Expected<Trace> trace::parseTraceText(std::string_view Text,
                                      const ParseOptions &Options) {
  return parseTraceTextParallel(Text, Options, 1);
}

Error trace::saveTrace(const Trace &T, const std::string &Path) {
  Expected<AtomicFile> File = AtomicFile::create(Path);
  if (!File)
    return File.takeError();
  if (Error Err = emitTraceText(
          T, [&](std::string_view Chunk) { return File->write(Chunk); }))
    return Err;
  return File->commit();
}

Expected<Trace> trace::loadTrace(const std::string &Path,
                                 const ParseOptions &Options) {
  auto FileOrErr = MappedFile::open(Path);
  if (auto Err = FileOrErr.takeError())
    return Err;
  return parseTraceText(FileOrErr->view(), Options);
}
