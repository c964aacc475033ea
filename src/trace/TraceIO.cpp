//===- trace/TraceIO.cpp - Text trace format ------------------------------===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// The writer, and the one-thread entry points of the reader.  Parsing
// itself lives in StreamParser (the line grammar) and ParallelParse
// (the prologue, the sequential feed and the sharded event section).
//
//===----------------------------------------------------------------------===//

#include "trace/TraceIO.h"
#include "support/FileUtils.h"
#include "support/MappedFile.h"
#include "trace/ParallelParse.h"
#include <cstdio>

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

Expected<Trace> trace::parseTraceText(std::string_view Text,
                                      const ParseOptions &Options) {
  return parseTraceTextParallel(Text, Options, 1);
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
