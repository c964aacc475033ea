//===- fuzz/fuzz_trace_text.cpp - LIMATRACE text parser fuzz target -------===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Besides running both parse modes, the target checks two shortcuts
// against the generic record grammar (splitFields + parseEventRecord)
// on every line of the input, under fixed tables of 64 processors, 8
// regions and 4 activities, and traps on any difference:
//  - a line scanCanonicalEvent accepts must be accepted by the generic
//    path with a bit-identical event;
//  - a line the generic path accepts as an event of processor P must be
//    named P by eventLineProcessor, the rule the sharded parser sizes
//    each processor's slice by (a line it missed would be written past
//    the slice).
//
//===----------------------------------------------------------------------===//

#include "FuzzOptions.h"
#include "trace/TextScan.h"
#include "trace/TraceIO.h"
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>

using namespace lima;
using namespace lima::trace;

namespace {

void checkLines(std::string_view Text) {
  scan::EventTables Tables;
  Tables.SawProcs = true;
  Tables.NumProcs = 64;
  Tables.NumRegions = 8;
  Tables.NumActivities = 4;
  size_t Pos = 0;
  while (Pos <= Text.size()) {
    size_t End = Text.find('\n', Pos);
    if (End == std::string_view::npos)
      End = Text.size();
    std::string_view Line = scan::skipLeadingSpace(Text.substr(Pos, End - Pos));
    Pos = End + 1;
    if (Line.empty() || Line.front() == '#')
      continue;
    std::string_view Fields[scan::MaxFields];
    size_t NumFields = scan::splitFields(Line, Fields);
    Event Generic;
    Error Err =
        scan::parseEventRecord(Fields, NumFields, Tables, 1, 0, Generic);
    bool Failed = static_cast<bool>(Err);
    if (Failed)
      Err.consume();
    uint32_t Proc;
    if (!Failed && (!scan::eventLineProcessor(Line, Tables.NumProcs, Proc) ||
                    Proc != Generic.Proc))
      __builtin_trap();
    Event Fast;
    if (!scan::scanCanonicalEvent(Line, Tables, Fast))
      continue;
    if (Failed ||
        std::memcmp(&Fast.Time, &Generic.Time, sizeof(double)) != 0 ||
        Fast.Proc != Generic.Proc || Fast.Kind != Generic.Kind ||
        Fast.Id != Generic.Id || Fast.Bytes != Generic.Bytes)
      __builtin_trap();
  }
}

} // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t *Data, size_t Size) {
  std::string_view Text(reinterpret_cast<const char *>(Data), Size);

  auto Strict = trace::parseTraceText(Text, fuzz::strictOptions());
  Strict.takeError().consume();

  ParseReport Report;
  auto Lenient = trace::parseTraceText(Text, fuzz::lenientOptions(Report));
  Lenient.takeError().consume();

  checkLines(Text);
  return 0;
}
