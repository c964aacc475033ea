//===- tests/TextWriterReference.h - LIMATRACE writer oracle ----*- C++ -*-===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The snprintf-based event-line writer that writeTraceText used before
/// the canonical-line writer (scan::writeCanonicalEvent in
/// trace/TextScan.h), kept verbatim as the byte-level reference:
/// TextWriterTest holds writeCanonicalEvent, writeTraceText and the file
/// saveTrace leaves to it, and bench/perf_parallel reports the shipped
/// writer's speedup against it.  Do not "improve" it: its value is that
/// it does not change.
///
//===----------------------------------------------------------------------===//

#ifndef LIMA_TESTS_TEXTWRITERREFERENCE_H
#define LIMA_TESTS_TEXTWRITERREFERENCE_H

#include "trace/Trace.h"
#include <cstdio>
#include <string>

namespace lima {
namespace testutil {

using trace::Event;
using trace::EventKind;
using trace::Trace;

inline void appendEventLine(std::string &Out, const Event &E) {
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

inline std::string writeTraceTextReference(const Trace &T) {
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

} // namespace testutil
} // namespace lima

#endif // LIMA_TESTS_TEXTWRITERREFERENCE_H
