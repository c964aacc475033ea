//===- tests/monitor_equivalence_helper.cpp - lima_monitor oracle ---------===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
//   monitor_equivalence_helper gen DIR
//   monitor_equivalence_helper trickle FILE
//
// gen writes the inputs of monitor_equivalence.sh into DIR and, for
// each case NAME, what lima_monitor --log-json --window 0.01 must
// produce on NAME.trace: NAME.stdout, NAME.stderr and NAME.status.
// The expectation comes from the single-threaded loop lima_monitor ran
// before its reading and fold stages got threads of their own: read
// 64 KiB, feed the StreamParser, add the events to a WindowedAnalyzer,
// drain and report; at the first error, stop and exit with it.  The
// cases:
//   clean              a time-ordered 8-processor trace, about 1.5 MB
//                      and 2,500 windows
//   lenient            the same with malformed lines and events that
//                      step back in time, under --lenient
//   strict-parse       a malformed record five chunks in
//   strict-fold        an event that steps back in time five chunks in
//   backwards-strict   processor 0 begins an activity before the end
//   backwards-lenient  of the last one (the latter under --lenient)
//
// trickle copies FILE to stdout in odd-sized writes, so the monitor's
// reads of a pipe end at arbitrary bytes.
//
//===----------------------------------------------------------------------===//

#include "core/WindowedAnalysis.h"
#include "support/Error.h"
#include "support/Log.h"
#include "support/RNG.h"
#include "support/raw_ostream.h"
#include "trace/StreamParser.h"
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <unistd.h>
#include <vector>

using namespace lima;

namespace {

constexpr double WindowSeconds = 0.01;
constexpr size_t ChunkBytes = 1 << 16;
constexpr unsigned NumProcs = 8;

bool writeText(const std::string &Path, const std::string &Text) {
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  if (!F)
    return false;
  bool Ok = std::fwrite(Text.data(), 1, Text.size(), F) == Text.size();
  return std::fclose(F) == 0 && Ok;
}

bool readText(const char *Path, std::string &Text) {
  std::FILE *F = std::fopen(Path, "rb");
  if (!F)
    return false;
  char Buf[1 << 16];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) != 0)
    Text.append(Buf, N);
  return std::fclose(F) == 0;
}

/// One event line, at TimeUs microseconds.
struct Line {
  uint64_t TimeUs;
  std::string Text;
};

std::string timeText(uint64_t Us) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%" PRIu64 ".%06" PRIu64, Us / 1000000,
                Us % 1000000);
  return Buf;
}

/// Eight processors run regions of a few activities each for 25 s, in
/// the order a live tracer would write them: by time across processors.
/// About one activity in 50 spans several windows.
std::vector<Line> makeEvents() {
  RNG R(2026);
  std::vector<Line> Lines;
  for (unsigned P = 0; P != NumProcs; ++P) {
    uint64_t T = 0;
    auto emit = [&](const char *Kind, uint64_t Id) {
      std::string Text = std::string(Kind) + ' ' + std::to_string(P) + ' ' +
                         timeText(T) + ' ' + std::to_string(Id);
      Lines.push_back({T, std::move(Text)});
    };
    while (T < 25000000) {
      uint64_t Region = R.uniformInt(3);
      emit("re", Region);
      for (uint64_t Steps = 1 + R.uniformInt(4); Steps != 0; --Steps) {
        uint64_t Activity = R.uniformInt(3);
        emit("ab", Activity);
        T += R.uniformInt(50) == 0 ? 20000 + R.uniformInt(40000)
                                   : 500 + R.uniformInt(8000);
        emit("ae", Activity);
      }
      emit("rx", Region);
      T += R.uniformInt(1000);
    }
  }
  std::stable_sort(Lines.begin(), Lines.end(),
                   [](const Line &A, const Line &B) {
                     return A.TimeUs < B.TimeUs;
                   });
  return Lines;
}

std::string header() {
  return "LIMATRACE 1\nprocs " + std::to_string(NumProcs) +
         "\nregion 0 setup\nregion 1 solve\nregion 2 exchange\n"
         "activity 0 comp\nactivity 1 comm\nactivity 2 io\n";
}

/// The trace text, with Extra[I] inserted before event line I.
std::string render(const std::vector<Line> &Lines,
                   const std::vector<std::pair<size_t, std::string>> &Extra) {
  std::string Text = header();
  size_t Next = 0;
  for (size_t I = 0; I != Lines.size(); ++I) {
    for (; Next != Extra.size() && Extra[Next].first == I; ++Next)
      Text += Extra[Next].second + '\n';
    Text += Lines[I].Text + '\n';
  }
  return Text;
}

/// The index of the first event line that starts past byte \p Offset.
size_t lineAfter(const std::vector<Line> &Lines, size_t Offset) {
  size_t Bytes = header().size();
  for (size_t I = 0; I != Lines.size(); ++I) {
    if (Bytes > Offset)
      return I;
    Bytes += Lines[I].Text.size() + 1;
  }
  return Lines.size();
}

struct Expected {
  std::string Stdout;
  std::string Stderr;
  int Status = 0;
};

/// What the single-threaded monitor loop wrote for \p Text.
Expected referenceRun(const std::string &Text, ParseMode Mode) {
  Expected Result;
  raw_string_ostream OS(Result.Stdout);
  logging::setSink(&OS);
  logging::setJson(true);
  logging::setRepeatWindowMs(0);

  ParseReport Report;
  ParseOptions Parse;
  Parse.Mode = Mode;
  Parse.Report = Mode == ParseMode::Lenient ? &Report : nullptr;
  trace::StreamParser Stream(Parse);
  ParseReport FoldReport;
  core::WindowedOptions Options;
  Options.WindowSeconds = WindowSeconds;
  Options.Mode = Mode;
  Options.Report = Mode == ParseMode::Lenient ? &FoldReport : nullptr;
  std::optional<core::WindowedAnalyzer> Analyzer;
  uint64_t Windows = 0;

  auto report = [&](const std::vector<core::WindowResult> &Done) {
    for (const core::WindowResult &W : Done) {
      ++Windows;
      size_t TopRegion = W.Regions.MostImbalancedScaled;
      size_t TopActivity = W.Activities.MostImbalancedScaled;
      logging::info(
          "window",
          {logging::field("window", W.Index),
           logging::field("start", W.StartTime),
           logging::field("end", W.EndTime),
           logging::field("events", W.Events),
           logging::field("top_region", W.Cube.regionName(TopRegion)),
           logging::field("sid_c", W.Regions.ScaledIndex[TopRegion]),
           logging::field("top_activity", W.Cube.activityName(TopActivity)),
           logging::field("sid_a", W.Activities.ScaledIndex[TopActivity]),
           logging::field("most_imbalanced_proc",
                          W.Processors.MostFrequentlyImbalanced)});
    }
  };
  // True after an error, which ExitOnError would have printed.
  auto failed = [&](Error Err) {
    if (!Err)
      return false;
    Result.Status = exitCodeFor(Err.code());
    Result.Stderr = "lima_monitor: " + Err.message() + "\n";
    return true;
  };
  // Adds one feed's events and drains; false after an error.
  auto consume = [&](std::vector<trace::Event> &Events) {
    for (const trace::Event &E : Events) {
      if (!Analyzer)
        Analyzer.emplace(Stream.regionNames(), Stream.activityNames(),
                         Stream.numProcs(), Options);
      if (failed(Analyzer->addEvent(E)))
        return false;
    }
    Events.clear();
    if (Analyzer)
      report(Analyzer->drainCompleted());
    return true;
  };

  std::vector<trace::Event> Events;
  for (size_t Pos = 0; Pos < Text.size(); Pos += ChunkBytes)
    if (failed(Stream.feed(std::string_view(Text).substr(Pos, ChunkBytes),
                           Events)) ||
        !consume(Events))
      return Result;
  if (failed(Stream.finish(Events)) || !consume(Events))
    return Result;
  if (Analyzer)
    report(Analyzer->finish());
  // The fold's drops join the parser's report; its records were
  // already counted there.
  FoldReport.TotalRecords = 0;
  Report.merge(FoldReport);
  if (Mode == ParseMode::Lenient && Report.anyDropped())
    logging::warn("parse report",
                  {logging::field("dropped", Report.DroppedRecords),
                   logging::field("total", Report.TotalRecords)});
  logging::info("stream complete",
                {logging::field("windows", Windows),
                 logging::field("events", Stream.eventsParsed()),
                 logging::field("span", Analyzer ? Analyzer->spanEnd() : 0.0)});
  return Result;
}

bool writeCase(const std::string &Dir, const std::string &Name,
               const std::string &Text, ParseMode Mode) {
  Expected E = referenceRun(Text, Mode);
  logging::setSink(nullptr);
  std::string Base = Dir + "/" + Name;
  return writeText(Base + ".trace", Text) &&
         writeText(Base + ".stdout", E.Stdout) &&
         writeText(Base + ".stderr", E.Stderr) &&
         writeText(Base + ".status", std::to_string(E.Status) + "\n");
}

int gen(const std::string &Dir) {
  std::vector<Line> Lines = makeEvents();
  // Malformed lines the parser drops, and events the fold drops because
  // they step back in time; spaced so every few chunks carry some.
  std::vector<std::pair<size_t, std::string>> Bad;
  const char *Garbage[] = {"zz 1 2.0 0", "ab 99 2.0 0", "ab 1 nan 0",
                           "ae 1 2.0"};
  for (size_t I = 1009, K = 0; I < Lines.size(); I += 1009, ++K) {
    std::string Text = "rx " + std::to_string(K % NumProcs) + " 0.000001 0";
    if (K % 2)
      Text = Garbage[(K / 2) % 4];
    Bad.push_back({I, std::move(Text)});
  }
  size_t FiveChunksIn = lineAfter(Lines, 5 * ChunkBytes + 1234);
  std::string BadRecord = render(Lines, {{FiveChunksIn, "ab 1 2.0"}});
  std::string BackInTime = render(Lines, {{FiveChunksIn, "rx 3 0.000001 0"}});
  std::string Backwards = "LIMATRACE 1\nprocs 2\nregion 0 r\nactivity 0 a\n"
                          "re 0 0.0 0\nab 0 0.0 0\nae 0 0.5 0\nab 0 0.4 0\n"
                          "ae 0 0.6 0\nre 1 0.0 0\nab 1 0.0 0\nae 1 1.5 0\n";
  if (!writeCase(Dir, "clean", render(Lines, {}), ParseMode::Strict) ||
      !writeCase(Dir, "lenient", render(Lines, Bad), ParseMode::Lenient) ||
      !writeCase(Dir, "strict-parse", BadRecord, ParseMode::Strict) ||
      !writeCase(Dir, "strict-fold", BackInTime, ParseMode::Strict) ||
      !writeCase(Dir, "backwards-strict", Backwards, ParseMode::Strict) ||
      !writeCase(Dir, "backwards-lenient", Backwards, ParseMode::Lenient)) {
    std::fprintf(stderr, "monitor_equivalence_helper: cannot write to %s\n",
                 Dir.c_str());
    return 1;
  }
  return 0;
}

int trickle(const char *Path) {
  std::string Text;
  if (!readText(Path, Text)) {
    std::fprintf(stderr, "monitor_equivalence_helper: cannot read %s\n", Path);
    return 1;
  }
  const size_t Sizes[] = {1, 7, 300, 4093, 65537, 13, 131071, 2};
  for (size_t Pos = 0, K = 0; Pos < Text.size(); ++K) {
    size_t N = std::min(Sizes[K % 8], Text.size() - Pos);
    ssize_t Wrote = ::write(STDOUT_FILENO, Text.data() + Pos, N);
    if (Wrote <= 0)
      return 1;
    Pos += static_cast<size_t>(Wrote);
  }
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc == 3 && std::strcmp(Argv[1], "gen") == 0)
    return gen(Argv[2]);
  if (Argc == 3 && std::strcmp(Argv[1], "trickle") == 0)
    return trickle(Argv[2]);
  std::fprintf(stderr, "usage: %s gen DIR | trickle FILE\n", Argv[0]);
  return 2;
}
