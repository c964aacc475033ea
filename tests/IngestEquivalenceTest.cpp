//===- tests/IngestEquivalenceTest.cpp - Fast path vs legacy parser -------===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// The golden-equivalence suite for the ingestion fast path: every text
// fixture in fuzz/corpus/ plus a set of synthetic stress inputs runs
// through the frozen legacy parser, the single-pass scanner and the
// sharded parallel parser at 1, 2 and 8 threads, in both strict and
// lenient mode.  Success/failure, the serialized Trace, the structured
// error (code, line, offset, message) and the full ParseReport (totals,
// per-code drop counts, samples) must agree bit for bit.  This is the
// test that licenses every future optimization of the fast path.
//
// Also pins the tightened ParseLimits allocation accounting to its
// documented formula.
//
//===----------------------------------------------------------------------===//

#include "support/FileUtils.h"
#include "support/Metrics.h"
#include "support/ParseLimits.h"
#include "trace/ParallelParse.h"
#include "trace/TextScan.h"
#include "trace/TraceIO.h"
#include "gtest/gtest.h"
#include <filesystem>
#include <vector>

using namespace lima;
using trace::Event;
using trace::Trace;

namespace {

/// One parse outcome, flattened for comparison.
struct Outcome {
  bool Ok = false;
  std::string TraceText; // writeTraceText on success
  ParseError Err;        // structured error on failure
  ParseReport Report;    // attached in lenient mode
};

Outcome runParse(std::string_view Text, ParseMode Mode,
                 int Threads /* -1 = legacy, 0 = new sequential */) {
  Outcome O;
  ParseOptions Options;
  Options.Mode = Mode;
  Options.Report = Mode == ParseMode::Lenient ? &O.Report : nullptr;
  Expected<Trace> Result =
      Threads < 0 ? trace::parseTraceTextLegacy(Text, Options)
      : Threads == 0
          ? trace::parseTraceText(Text, Options)
          : trace::parseTraceTextParallel(Text, Options,
                                          static_cast<unsigned>(Threads));
  if (Result) {
    O.Ok = true;
    O.TraceText = trace::writeTraceText(*Result);
  } else {
    O.Err = Result.takeError().toParseError();
  }
  return O;
}

void expectSameOutcome(const Outcome &Ref, const Outcome &Got,
                       const std::string &What) {
  ASSERT_EQ(Ref.Ok, Got.Ok) << What;
  if (Ref.Ok) {
    EXPECT_EQ(Ref.TraceText, Got.TraceText) << What;
  } else {
    EXPECT_EQ(Ref.Err.Code, Got.Err.Code) << What;
    EXPECT_EQ(Ref.Err.Line, Got.Err.Line) << What;
    EXPECT_EQ(Ref.Err.Offset, Got.Err.Offset) << What;
    EXPECT_EQ(Ref.Err.Msg, Got.Err.Msg) << What;
  }
  EXPECT_EQ(Ref.Report.TotalRecords, Got.Report.TotalRecords) << What;
  EXPECT_EQ(Ref.Report.DroppedRecords, Got.Report.DroppedRecords) << What;
  for (size_t I = 0; I != Ref.Report.DroppedByCode.size(); ++I)
    EXPECT_EQ(Ref.Report.DroppedByCode[I], Got.Report.DroppedByCode[I])
        << What << " code " << I;
  ASSERT_EQ(Ref.Report.Samples.size(), Got.Report.Samples.size()) << What;
  for (size_t I = 0; I != Ref.Report.Samples.size(); ++I) {
    EXPECT_EQ(Ref.Report.Samples[I].Code, Got.Report.Samples[I].Code) << What;
    EXPECT_EQ(Ref.Report.Samples[I].Line, Got.Report.Samples[I].Line) << What;
    EXPECT_EQ(Ref.Report.Samples[I].Offset, Got.Report.Samples[I].Offset)
        << What;
    EXPECT_EQ(Ref.Report.Samples[I].Msg, Got.Report.Samples[I].Msg) << What;
  }
}

/// Legacy is the reference; the scanner and the sharded parser at every
/// thread count must match it in both modes.
void expectEquivalent(std::string_view Text, const std::string &Name) {
  for (ParseMode Mode : {ParseMode::Strict, ParseMode::Lenient}) {
    const char *ModeName = Mode == ParseMode::Strict ? "strict" : "lenient";
    Outcome Ref = runParse(Text, Mode, -1);
    expectSameOutcome(Ref, runParse(Text, Mode, 0),
                      Name + " [" + ModeName + ", scanner]");
    for (int Threads : {1, 2, 8})
      expectSameOutcome(Ref, runParse(Text, Mode, Threads),
                        Name + " [" + ModeName + ", threads=" +
                            std::to_string(Threads) + "]");
  }
}

/// A valid trace big enough (>64 KiB of events) that the parallel
/// parser actually shards instead of falling back to sequential.
std::string makeBigTrace(size_t Rounds) {
  std::string Text = "LIMATRACE 1\nprocs 4\nregion 0 main\n"
                     "activity 0 compute\n";
  char Buf[128];
  double T = 0.0;
  for (size_t I = 0; I != Rounds; ++I)
    for (unsigned P = 0; P != 4; ++P) {
      T += 0.001;
      std::snprintf(Buf, sizeof(Buf),
                    "re %u %.6f 0\nab %u %.6f 0\nae %u %.6f 0\n"
                    "rx %u %.6f 0\nms %u %.6f %u 64\n",
                    P, T, P, T + 0.1, P, T + 0.2, P, T + 0.3, P, T + 0.4,
                    (P + 1) % 4);
      Text += Buf;
    }
  return Text;
}

/// The same kind of rounds grouped by processor, as saveTrace writes
/// them: each processor's events are contiguous, so processors straddle
/// the shard boundaries and most shards hold only one or two of them.
/// Processor 3 is declared but logs no events.
std::string makeGroupedBigTrace(size_t Rounds) {
  std::string Text = "LIMATRACE 1\nprocs 6\nregion 0 main\n"
                     "activity 0 compute\n";
  char Buf[128];
  for (unsigned P = 0; P != 6; ++P) {
    if (P == 3)
      continue;
    double T = 0.0;
    for (size_t I = 0; I != Rounds; ++I) {
      T += 0.001;
      std::snprintf(Buf, sizeof(Buf),
                    "re %u %.6f 0\nab %u %.6f 0\nae %u %.6f 0\n"
                    "rx %u %.6f 0\nms %u %.6f %u 64\n",
                    P, T, P, T + 0.1, P, T + 0.2, P, T + 0.3, P, T + 0.4,
                    (P + 1) % 6);
      Text += Buf;
    }
  }
  return Text;
}

/// \p Text with a bad event line after every 163rd line, alternating a
/// bad number and an unknown record type: more than
/// ParseReport::MaxSamples drops, scattered over every shard.
std::string pepper(const std::string &Text) {
  std::string Peppered;
  Peppered.reserve(Text.size() + 4096);
  size_t LineIdx = 0;
  size_t Pos = 0;
  while (Pos < Text.size()) {
    size_t Nl = Text.find('\n', Pos);
    if (Nl == std::string::npos)
      Nl = Text.size() - 1;
    Peppered.append(Text, Pos, Nl - Pos + 1);
    if (++LineIdx % 163 == 0)
      Peppered += LineIdx % 2 ? "re 0 bogus 0\n" : "zz 0 1.0 0\n";
    Pos = Nl + 1;
  }
  return Peppered;
}

TEST(IngestEquivalence, CorpusFixtures) {
  std::filesystem::path Dir =
      std::filesystem::path(LIMA_FUZZ_CORPUS_DIR) / "fuzz_trace_text";
  std::vector<std::filesystem::path> Files;
  for (const auto &Entry : std::filesystem::directory_iterator(Dir))
    Files.push_back(Entry.path());
  std::sort(Files.begin(), Files.end());
  ASSERT_FALSE(Files.empty());
  for (const auto &File : Files) {
    std::string Text = cantFail(readFile(File.string()));
    expectEquivalent(Text, File.filename().string());
  }
}

TEST(IngestEquivalence, SyntheticEdgeCases) {
  const std::string Header = "LIMATRACE 1\nprocs 2\nregion 0 r\n";
  struct Case {
    const char *Name;
    std::string Text;
  } Cases[] = {
      {"empty", ""},
      {"only-newlines", "\n\n\n"},
      {"magic-only", "LIMATRACE 1\n"},
      {"magic-only-no-newline", "LIMATRACE 1"},
      {"no-trailing-newline", Header + "re 0 1.0 0"},
      {"trailing-newline", Header + "re 0 1.0 0\n"},
      {"trailing-blank-lines", Header + "re 0 1.0 0\n\n \n"},
      {"comments-between-events", Header + "re 0 1.0 0\n# c\nrx 0 2.0 0\n"},
      {"plus-prefixed-proc", Header + "re +0 1.0 0\n"},
      {"plus-prefixed-time", Header + "re 0 +1.0 0\n"},
      {"hex-float-time", Header + "re 0 0x1p-3 0\n"},
      {"subnormal-time", Header + "re 0 1e-320 0\n"},
      {"overflow-time", Header + "re 0 1e999 0\n"},
      {"inf-time", Header + "re 0 inf 0\n"},
      {"nan-time", Header + "re 0 nan 0\n"},
      {"negative-time", Header + "re 0 -1.0 0\n"},
      {"six-fields", Header + "ms 0 1.0 1 64 extra\n"},
      {"seven-fields", Header + "ms 0 1.0 1 64 extra more\n"},
      {"late-declaration", Header + "re 0 1.0 0\nregion 1 late\n"
                                     "re 0 2.0 1\n"},
      {"late-procs", Header + "re 0 1.0 0\nprocs 4\n"},
      {"magic-mid-events", Header + "re 0 1.0 0\nLIMATRACE 1\n"},
      {"events-before-procs", "LIMATRACE 1\nre 0 1.0 0\n"},
      {"declaration-extra-tokens", "LIMATRACE 1\nprocs 2\n"
                                   "region 0 name with extra tokens\n"
                                   "re 0 1.0 0\n"},
  };
  for (const Case &C : Cases)
    expectEquivalent(C.Text, C.Name);
}

TEST(IngestEquivalence, BigValidTraceShards) {
  std::string Text = makeBigTrace(800); // ~0.5 MB, 16000 events
  ASSERT_GT(Text.size(), size_t(64) * 1024);
  expectEquivalent(Text, "big-valid");
  Text = makeGroupedBigTrace(700); // ~0.5 MB, 17500 events
  ASSERT_GT(Text.size(), size_t(64) * 1024);
  expectEquivalent(Text, "big-grouped");
}

TEST(IngestEquivalence, BigTraceStrictErrorDeepInside) {
  // A strict error far past the first shard boundary: the reported
  // line/offset must be the sequentially-first failure regardless of
  // which shard hits an error first in wall-clock order.
  std::string Text = makeBigTrace(800);
  size_t Mid = Text.find("\nre 2 ", Text.size() / 2);
  ASSERT_NE(Mid, std::string::npos);
  Text.insert(Mid + 1, "re 9 0.5 0\nre 0 bogus 0\n");
  expectEquivalent(Text, "big-strict-error");
}

TEST(IngestEquivalence, BigTraceLenientScatteredDrops) {
  // Drop counts and the first-16 sample list must merge back in file
  // order at every thread count.
  expectEquivalent(pepper(makeBigTrace(800)), "big-lenient-drops");
  expectEquivalent(pepper(makeGroupedBigTrace(700)),
                   "big-grouped-lenient-drops");
}

TEST(IngestEquivalence, WideProcessorTableParsesUnsharded) {
  // Every shard keeps columns for every declared processor.  With
  // 100000 processors over half a megabyte of events those would
  // outweigh the text, so the parser must not shard — while the same
  // events under 4 processors do shard (lima.ingest.shards counts the
  // shards of every sharded parse).
  std::string Narrow = makeBigTrace(800);
  std::string Wide = Narrow;
  Wide.replace(Wide.find("procs 4"), 7, "procs 100000");
  metrics::setEnabled(true);
  metrics::Counter &Shards = metrics::counter("lima.ingest.shards");
  [[maybe_unused]] uint64_t Before = Shards.value();
  EXPECT_TRUE(static_cast<bool>(trace::parseTraceTextParallel(Wide, {}, 8)));
#if LIMA_TELEMETRY
  EXPECT_EQ(Shards.value(), Before);
#endif
  EXPECT_TRUE(
      static_cast<bool>(trace::parseTraceTextParallel(Narrow, {}, 8)));
#if LIMA_TELEMETRY
  EXPECT_EQ(Shards.value(), Before + 8);
#endif
  metrics::setEnabled(false);
  expectEquivalent(Wide, "wide-proc-table");
}

TEST(IngestEquivalence, AllocAccountingPinned) {
  // The tightened accounting formula, pinned: a std::string header per
  // name plus the out-of-line buffer (len + NUL) only beyond the SSO
  // capacity, sizeof(std::vector<Event>) per declared processor, and
  // sizeof(Event) per event.
  const std::string LongName(100, 'n'); // comfortably past any SSO
  const std::string Text = "LIMATRACE 1\nprocs 2\nregion 0 ab\n"
                           "region 1 " + LongName + "\n"
                           "re 0 1.0 0\nrx 0 2.0 0\n";
  const uint64_t Accounted = 2 * sizeof(std::vector<Event>) +
                             trace::scan::nameAllocCost(2) +
                             trace::scan::nameAllocCost(100) +
                             2 * sizeof(Event);
  // Short names cost only the string header under SSO...
  EXPECT_EQ(trace::scan::nameAllocCost(2), sizeof(std::string));
  // ...and long names additionally their NUL-terminated buffer.
  EXPECT_EQ(trace::scan::nameAllocCost(100), sizeof(std::string) + 101);

  ParseOptions Exact;
  Exact.Limits.MaxAllocBytes = Accounted;
  EXPECT_TRUE(static_cast<bool>(trace::parseTraceText(Text, Exact)));

  ParseOptions OneLess;
  OneLess.Limits.MaxAllocBytes = Accounted - 1;
  Expected<Trace> Fail = trace::parseTraceText(Text, OneLess);
  ASSERT_FALSE(static_cast<bool>(Fail));
  EXPECT_EQ(Fail.takeError().toParseError().Code, ErrorCode::LimitExceeded);
}

} // namespace
