//===- tests/FoldContractTest.cpp - One fold, one verdict -----------------===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Every trace analysis runs the attribution fold of trace/Fold.h, so
// they must judge a trace alike.  Over the text fuzz corpus, in strict
// mode: Trace::validate, reduceTrace, reduceTraceCounts, analyzePhases
// and analyzeWaitStates fail with the same error or none fails
// structurally, and a one-window WindowedAnalyzer fails with validate's
// message whenever that is a per-event one.  In lenient mode no analysis
// fails structurally, and the one-window cube and drop report equal
// reduceTrace's bit for bit.  The remaining tests pin what lenient mode
// keeps of the strict-only rules and the event numbers the windowed
// analyzer prints for interleaved processors.
//
//===----------------------------------------------------------------------===//

#include "core/CountingReduction.h"
#include "core/PhaseAnalysis.h"
#include "core/TraceReduction.h"
#include "core/WaitStates.h"
#include "core/WindowedAnalysis.h"
#include "support/FileUtils.h"
#include "trace/TraceIO.h"
#include "TestHelpers.h"
#include <algorithm>
#include <cstring>
#include <filesystem>
#include <gtest/gtest.h>

using namespace lima;
using namespace lima::core;
using trace::EventKind;

namespace {

/// A one-window analyzer over \p T, whose window is wider than the span.
WindowedAnalyzer oneWindow(const trace::Trace &T, ParseMode Mode,
                           ParseReport *Report) {
  double Span = 0.0;
  for (unsigned P = 0; P != T.numProcs(); ++P)
    for (const trace::Event &E : T.events(P))
      Span = std::max(Span, E.Time);
  WindowedOptions Opts;
  Opts.WindowSeconds = 2.0 * std::max(Span, 1.0);
  Opts.Mode = Mode;
  Opts.Report = Report;
  Opts.EmitEmptyWindows = true;
  return WindowedAnalyzer(T.regionNames(), T.activityNames(), T.numProcs(),
                          Opts);
}

/// True when \p Result failed with a structural error.
template <typename T> bool failsStructurally(Expected<T> Result) {
  Error Err = Result.takeError();
  bool Structural = Err && Err.code() == ErrorCode::StructuralError;
  Err.consume();
  return Structural;
}

bool sameBits(double A, double B) {
  return std::memcmp(&A, &B, sizeof(double)) == 0;
}

void checkStrict(const trace::Trace &T, const std::string &Name) {
  Error Valid = T.validate();
  bool Invalid = static_cast<bool>(Valid);
  ErrorCode Code = Invalid ? Valid.code() : ErrorCode::Generic;
  std::string Msg = testutil::messageOf(std::move(Valid));
  ReductionOptions Reduction;
  Reduction.Threads = 1;
  if (Invalid) {
    EXPECT_EQ(Code, ErrorCode::StructuralError) << Name;
    EXPECT_EQ(testutil::messageOf(reduceTrace(T, Reduction)), Msg) << Name;
    EXPECT_EQ(testutil::messageOf(
                  reduceTraceCounts(T, CountingMetric::MessagesSent)),
              Msg)
        << Name;
    EXPECT_EQ(testutil::messageOf(analyzePhases(T)), Msg) << Name;
    EXPECT_EQ(testutil::messageOf(analyzeWaitStates(T)), Msg) << Name;
  } else {
    EXPECT_FALSE(failsStructurally(reduceTrace(T, Reduction))) << Name;
    EXPECT_FALSE(failsStructurally(
        reduceTraceCounts(T, CountingMetric::MessagesSent)))
        << Name;
    EXPECT_FALSE(failsStructurally(analyzePhases(T))) << Name;
    EXPECT_FALSE(failsStructurally(analyzeWaitStates(T))) << Name;
  }
  // Only the fold's per-event rules reach a followed stream; message
  // balance and what is left open at the end are whole-trace rules.
  bool PerEvent = Msg.rfind("proc ", 0) == 0 &&
                  Msg.find(" event ") != std::string::npos;
  if (!PerEvent || T.numRegions() == 0 || T.numActivities() == 0)
    return;
  WindowedAnalyzer A = oneWindow(T, ParseMode::Strict, nullptr);
  EXPECT_EQ(testutil::messageOf(A.addTrace(T)), Msg) << Name;
}

void checkLenient(const trace::Trace &T, const std::string &Name) {
  ReductionOptions Reduction;
  Reduction.Threads = 1;
  Reduction.Mode = ParseMode::Lenient;
  ParseReport Whole;
  Reduction.Report = &Whole;
  Expected<MeasurementCube> Cube = reduceTrace(T, Reduction);
  EXPECT_FALSE(failsStructurally(reduceTraceCounts(
      T, CountingMetric::MessagesSent, ParseMode::Lenient)))
      << Name;
  EXPECT_FALSE(failsStructurally(analyzePhases(T, {}, ParseMode::Lenient)))
      << Name;
  EXPECT_FALSE(failsStructurally(analyzeWaitStates(T, ParseMode::Lenient)))
      << Name;
  if (!Cube) {
    EXPECT_FALSE(failsStructurally(std::move(Cube))) << Name;
    return;
  }

  ParseReport Windowed;
  WindowedAnalyzer A = oneWindow(T, ParseMode::Lenient, &Windowed);
  ASSERT_FALSE(testutil::failed(A.addTrace(T))) << Name;
  std::vector<WindowResult> Windows = A.finish();
  ASSERT_LE(Windows.size(), 1u) << Name;
  EXPECT_EQ(Windowed.TotalRecords, Whole.TotalRecords) << Name;
  EXPECT_EQ(Windowed.DroppedRecords, Whole.DroppedRecords) << Name;
  EXPECT_EQ(Windowed.DroppedByCode, Whole.DroppedByCode) << Name;
  for (size_t I = 0; I != Cube->numRegions(); ++I)
    for (size_t J = 0; J != Cube->numActivities(); ++J)
      for (unsigned P = 0; P != Cube->numProcs(); ++P) {
        double Cell = Windows.empty() ? 0.0 : Windows[0].Cube.time(I, J, P);
        EXPECT_TRUE(sameBits(Cell, Cube->time(I, J, P)))
            << Name << " cell (" << I << ", " << J << ", " << P << ")";
      }
}

} // namespace

TEST(FoldContractTest, CorpusVerdictsAgreeAcrossAnalyses) {
  std::filesystem::path Dir =
      std::filesystem::path(LIMA_FUZZ_CORPUS_DIR) / "fuzz_trace_text";
  std::vector<std::filesystem::path> Files;
  for (const auto &Entry : std::filesystem::directory_iterator(Dir))
    Files.push_back(Entry.path());
  std::sort(Files.begin(), Files.end());
  unsigned Parsed = 0;
  for (const auto &File : Files) {
    ParseReport Report;
    ParseOptions Options;
    Options.Mode = ParseMode::Lenient;
    Options.Report = &Report;
    Expected<trace::Trace> T =
        trace::parseTraceText(cantFail(readFile(File.string())), Options);
    if (!T) {
      T.takeError().consume();
      continue;
    }
    ++Parsed;
    std::string Name = File.filename().string();
    checkStrict(*T, Name);
    checkLenient(*T, Name);
  }
  EXPECT_GE(Parsed, 3u);
}

TEST(FoldContractTest, LenientKeepsTheAttributionOfStrictOnlyRules) {
  trace::Trace T(1);
  T.addRegion("outer");
  T.addRegion("inner");
  T.addActivity("a");
  T.addActivity("b");
  auto add = [&](double Time, EventKind Kind, uint32_t Id) {
    T.append({Time, 0, Kind, Id, 0});
  };
  add(0.0, EventKind::RegionEnter, 0);
  add(1.0, EventKind::ActivityBegin, 0);
  add(2.0, EventKind::ActivityBegin, 1); // Overlap: b replaces a.
  add(3.0, EventKind::ActivityEnd, 0);   // Wrong id: closes b.
  add(3.0, EventKind::ActivityBegin, 0);
  add(4.0, EventKind::RegionEnter, 1); // Enter inside a.
  add(5.0, EventKind::ActivityEnd, 0); // a goes to inner.
  add(5.0, EventKind::RegionExit, 0);  // Not innermost: pops inner.
  add(5.0, EventKind::ActivityBegin, 1);
  add(6.0, EventKind::RegionExit, 0); // Exit inside b.
  add(7.0, EventKind::ActivityEnd, 1); // Outside any region: dropped.
  EXPECT_EQ(testutil::messageOf(T.validate()),
            "proc 0 event 2: overlapping activities");

  ParseReport Report;
  ReductionOptions Reduction;
  Reduction.Mode = ParseMode::Lenient;
  Reduction.Report = &Report;
  MeasurementCube Cube = cantFail(reduceTrace(T, Reduction));
  EXPECT_EQ(Cube.time(0, 1, 0), 1.0); // b over [2, 3) in outer.
  EXPECT_EQ(Cube.time(1, 0, 0), 2.0); // a over [3, 5) in inner.
  EXPECT_EQ(Cube.time(0, 0, 0), 0.0);
  EXPECT_EQ(Cube.time(1, 1, 0), 0.0);
  EXPECT_EQ(Report.DroppedRecords, 1u);
  ASSERT_EQ(Report.Samples.size(), 1u);
  EXPECT_EQ(Report.Samples[0].Msg,
            "proc 0 event 10: activity ends outside any region");
}

TEST(FoldContractTest, WindowedErrorsNumberEachProcessorsEvents) {
  WindowedOptions Opts;
  Opts.WindowSeconds = 10.0;
  WindowedAnalyzer A({"r"}, {"a", "b"}, 2, Opts);
  const trace::Event Events[] = {
      {0.0, 0, EventKind::RegionEnter, 0, 0},
      {0.0, 1, EventKind::RegionEnter, 0, 0},
      {0.5, 1, EventKind::ActivityBegin, 0, 0},
      {1.0, 0, EventKind::ActivityBegin, 0, 0},
      {1.5, 1, EventKind::ActivityBegin, 1, 0},
  };
  EXPECT_EQ(testutil::messageOf(A.addEvents(Events)),
            "proc 1 event 2: overlapping activities");

  WindowedAnalyzer Back({"r"}, {"a"}, 2, Opts);
  const trace::Event Late[] = {
      {0.0, 1, EventKind::RegionEnter, 0, 0},
      {2.0, 0, EventKind::RegionEnter, 0, 0},
      {1.0, 0, EventKind::RegionExit, 0, 0},
  };
  EXPECT_EQ(testutil::messageOf(Back.addEvents(Late)),
            "proc 0 event 1: time goes backwards (1.000000000 after "
            "2.000000000)");
}
