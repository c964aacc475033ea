//===- tests/WindowedAnalysisTest.cpp - Windowed analysis tests -----------===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "core/WindowedAnalysis.h"
#include "core/TraceReduction.h"
#include "support/RNG.h"
#include "TestHelpers.h"
#include "ViewsReference.h"
#include <algorithm>
#include <array>
#include <cmath>
#include <gtest/gtest.h>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <string>

using namespace lima;
using namespace lima::core;
using trace::EventKind;

namespace {

/// Two regions, two activities, three processors with uneven times —
/// enough structure for every view to be non-trivial.
trace::Trace makeTrace() {
  trace::Trace T(3);
  uint32_t R0 = T.addRegion("setup");
  uint32_t R1 = T.addRegion("solve");
  uint32_t Comp = T.addActivity("comp");
  uint32_t Comm = T.addActivity("comm");
  double Durations[3] = {1.0, 1.5, 0.75};
  for (uint32_t P = 0; P != 3; ++P) {
    double D = Durations[P];
    T.append({0.0, P, EventKind::RegionEnter, R0, 0});
    T.append({0.0, P, EventKind::ActivityBegin, Comp, 0});
    T.append({D, P, EventKind::ActivityEnd, Comp, 0});
    T.append({D, P, EventKind::RegionExit, R0, 0});
    T.append({D, P, EventKind::RegionEnter, R1, 0});
    T.append({D, P, EventKind::ActivityBegin, Comm, 0});
    T.append({D + 0.5, P, EventKind::ActivityEnd, Comm, 0});
    T.append({D + 0.5, P, EventKind::ActivityBegin, Comp, 0});
    T.append({2.5 + 0.25 * P, P, EventKind::ActivityEnd, Comp, 0});
    T.append({2.5 + 0.25 * P, P, EventKind::RegionExit, R1, 0});
  }
  return T;
}

WindowedAnalyzer makeAnalyzer(const trace::Trace &T, WindowedOptions Opts) {
  return WindowedAnalyzer(T.regionNames(), T.activityNames(), T.numProcs(),
                          Opts);
}

} // namespace

TEST(WindowedAnalysisTest, FullSpanWindowBitIdenticalToReduceTrace) {
  trace::Trace T = makeTrace();
  MeasurementCube Whole = cantFail(reduceTrace(T));

  WindowedOptions Opts;
  Opts.WindowSeconds = 100.0; // One window covers the whole span.
  WindowedAnalyzer A = makeAnalyzer(T, Opts);
  ASSERT_FALSE(A.addTrace(T));
  std::vector<WindowResult> Windows = A.finish();
  ASSERT_EQ(Windows.size(), 1u);
  const MeasurementCube &Cube = Windows[0].Cube;

  // Bitwise equality, not tolerance: the windowed fold must perform the
  // same additions in the same order as the whole-trace reduction.
  ASSERT_EQ(Cube.numRegions(), Whole.numRegions());
  ASSERT_EQ(Cube.numActivities(), Whole.numActivities());
  ASSERT_EQ(Cube.numProcs(), Whole.numProcs());
  for (size_t I = 0; I != Whole.numRegions(); ++I)
    for (size_t J = 0; J != Whole.numActivities(); ++J)
      for (unsigned P = 0; P != Whole.numProcs(); ++P)
        EXPECT_EQ(Cube.time(I, J, P), Whole.time(I, J, P))
            << "cell (" << I << ", " << J << ", " << P << ")";
  EXPECT_EQ(Cube.programTime(), Whole.programTime());

  // Identical cube bits imply identical views; spot-check the derived
  // indices are bitwise equal too.
  ActivityView WholeA = computeActivityView(Whole);
  RegionView WholeR = computeRegionView(Whole);
  ProcessorView WholeP = computeProcessorView(Whole);
  for (size_t J = 0; J != WholeA.Index.size(); ++J) {
    EXPECT_EQ(Windows[0].Activities.Index[J], WholeA.Index[J]);
    EXPECT_EQ(Windows[0].Activities.ScaledIndex[J], WholeA.ScaledIndex[J]);
  }
  for (size_t I = 0; I != WholeR.Index.size(); ++I) {
    EXPECT_EQ(Windows[0].Regions.Index[I], WholeR.Index[I]);
    EXPECT_EQ(Windows[0].Regions.ScaledIndex[I], WholeR.ScaledIndex[I]);
  }
  EXPECT_EQ(Windows[0].Processors.MostFrequentlyImbalanced,
            WholeP.MostFrequentlyImbalanced);
}

TEST(WindowedAnalysisTest, WindowedCellsSumToWholeCube) {
  trace::Trace T = makeTrace();
  MeasurementCube Whole = cantFail(reduceTrace(T));

  WindowedOptions Opts;
  Opts.WindowSeconds = 0.4; // Forces splits at many boundaries.
  WindowedAnalyzer A = makeAnalyzer(T, Opts);
  ASSERT_FALSE(A.addTrace(T));
  std::vector<WindowResult> Windows = A.finish();
  ASSERT_GT(Windows.size(), 2u);

  for (size_t I = 0; I != Whole.numRegions(); ++I)
    for (size_t J = 0; J != Whole.numActivities(); ++J)
      for (unsigned P = 0; P != Whole.numProcs(); ++P) {
        double Sum = 0.0;
        for (const WindowResult &W : Windows)
          Sum += W.Cube.time(I, J, P);
        EXPECT_NEAR(Sum, Whole.time(I, J, P), 1e-12)
            << "cell (" << I << ", " << J << ", " << P << ")";
      }
}

TEST(WindowedAnalysisTest, IntervalSplitsAcrossBoundaries) {
  trace::Trace T(1);
  T.addRegion("r");
  T.addActivity("a");
  T.append({0.5, 0, EventKind::RegionEnter, 0, 0});
  T.append({0.5, 0, EventKind::ActivityBegin, 0, 0});
  T.append({2.5, 0, EventKind::ActivityEnd, 0, 0});
  T.append({2.5, 0, EventKind::RegionExit, 0, 0});

  WindowedOptions Opts;
  Opts.WindowSeconds = 1.0;
  WindowedAnalyzer A = makeAnalyzer(T, Opts);
  ASSERT_FALSE(A.addTrace(T));
  std::vector<WindowResult> Windows = A.finish();
  ASSERT_EQ(Windows.size(), 3u);
  EXPECT_DOUBLE_EQ(Windows[0].Cube.time(0, 0, 0), 0.5); // [0.5, 1).
  EXPECT_DOUBLE_EQ(Windows[1].Cube.time(0, 0, 0), 1.0); // [1, 2).
  EXPECT_DOUBLE_EQ(Windows[2].Cube.time(0, 0, 0), 0.5); // [2, 2.5).
  EXPECT_EQ(Windows[0].Index, 0u);
  EXPECT_EQ(Windows[2].Index, 2u);
}

TEST(WindowedAnalysisTest, FeedOrderDoesNotChangeResults) {
  trace::Trace T = makeTrace();

  WindowedOptions Opts;
  Opts.WindowSeconds = 0.6;
  WindowedAnalyzer ByProc = makeAnalyzer(T, Opts);
  ASSERT_FALSE(ByProc.addTrace(T)); // Processor-major.

  // Time-interleaved feed: merge the per-processor streams by time.
  WindowedAnalyzer ByTime = makeAnalyzer(T, Opts);
  std::vector<trace::Event> All;
  for (unsigned P = 0; P != T.numProcs(); ++P)
    for (const trace::Event &E : T.events(P))
      All.push_back(E);
  std::stable_sort(All.begin(), All.end(),
                   [](const trace::Event &A, const trace::Event &B) {
                     return A.Time < B.Time;
                   });
  for (const trace::Event &E : All)
    ASSERT_FALSE(ByTime.addEvent(E));

  std::vector<WindowResult> A = ByProc.finish();
  std::vector<WindowResult> B = ByTime.finish();
  ASSERT_EQ(A.size(), B.size());
  for (size_t W = 0; W != A.size(); ++W) {
    ASSERT_EQ(A[W].Index, B[W].Index);
    for (size_t I = 0; I != A[W].Cube.numRegions(); ++I)
      for (size_t J = 0; J != A[W].Cube.numActivities(); ++J)
        for (unsigned P = 0; P != A[W].Cube.numProcs(); ++P)
          EXPECT_EQ(A[W].Cube.time(I, J, P), B[W].Cube.time(I, J, P));
  }
}

TEST(WindowedAnalysisTest, WatermarkGatesDraining) {
  WindowedOptions Opts;
  Opts.WindowSeconds = 1.0;
  WindowedAnalyzer A({"r"}, {"a"}, 2, Opts);

  // Proc 0 races ahead to t=3.2; proc 1 has seen nothing yet.
  ASSERT_FALSE(A.addEvent({0.0, 0, EventKind::RegionEnter, 0, 0}));
  ASSERT_FALSE(A.addEvent({0.1, 0, EventKind::ActivityBegin, 0, 0}));
  ASSERT_FALSE(A.addEvent({3.2, 0, EventKind::ActivityEnd, 0, 0}));
  EXPECT_DOUBLE_EQ(A.watermark(), 0.0);
  EXPECT_TRUE(A.drainCompleted().empty());

  // Proc 1 advances to t=1.5: windows ending at or before 1.5 drain.
  ASSERT_FALSE(A.addEvent({0.0, 1, EventKind::RegionEnter, 0, 0}));
  ASSERT_FALSE(A.addEvent({1.5, 1, EventKind::ActivityBegin, 0, 0}));
  EXPECT_DOUBLE_EQ(A.watermark(), 1.5);
  std::vector<WindowResult> Done = A.drainCompleted();
  ASSERT_EQ(Done.size(), 1u);
  EXPECT_EQ(Done[0].Index, 0u);

  // An open activity pins the watermark at its begin time even when
  // later events (a message send) advance the processor's clock.
  ASSERT_FALSE(A.addEvent({2.0, 1, EventKind::ActivityEnd, 0, 0}));
  ASSERT_FALSE(A.addEvent({2.2, 1, EventKind::ActivityBegin, 0, 0}));
  ASSERT_FALSE(A.addEvent({2.8, 1, EventKind::MessageSend, 0, 16}));
  EXPECT_DOUBLE_EQ(A.watermark(), 2.2);
  Done = A.drainCompleted();
  ASSERT_EQ(Done.size(), 1u); // Window [1, 2) only.
  EXPECT_EQ(Done[0].Index, 1u);

  // finish() flushes the rest regardless of the watermark.
  Done = A.finish();
  ASSERT_FALSE(Done.empty());
  EXPECT_EQ(Done.front().Index, 2u);
}

TEST(WindowedAnalysisTest, LenientDropCountsMatchReduceTrace) {
  // An activity end with no begin, then a begin that steps back in
  // time, whose end then has no begin either: reduceTrace drops these
  // three records in lenient mode; the windowed fold must agree.
  trace::Trace T(1);
  T.addRegion("r");
  T.addActivity("a");
  T.append({0.0, 0, EventKind::RegionEnter, 0, 0});
  T.append({1.0, 0, EventKind::ActivityEnd, 0, 0}); // No begin.
  T.append({1.5, 0, EventKind::ActivityBegin, 0, 0});
  T.append({2.0, 0, EventKind::ActivityEnd, 0, 0});
  T.append({1.9, 0, EventKind::ActivityBegin, 0, 0}); // Steps back.
  T.append({2.0, 0, EventKind::ActivityEnd, 0, 0});
  T.append({2.0, 0, EventKind::RegionExit, 0, 0});

  ParseReport WholeReport;
  ReductionOptions Reduction;
  Reduction.Mode = ParseMode::Lenient;
  Reduction.Report = &WholeReport;
  MeasurementCube Whole = cantFail(reduceTrace(T, Reduction));

  ParseReport WindowReport;
  WindowedOptions Opts;
  Opts.WindowSeconds = 100.0;
  Opts.Mode = ParseMode::Lenient;
  Opts.Report = &WindowReport;
  WindowedAnalyzer A = makeAnalyzer(T, Opts);
  ASSERT_FALSE(A.addTrace(T));
  std::vector<WindowResult> Windows = A.finish();

  EXPECT_EQ(WindowReport.TotalRecords, WholeReport.TotalRecords);
  EXPECT_EQ(WindowReport.DroppedRecords, WholeReport.DroppedRecords);
  EXPECT_EQ(WindowReport.DroppedRecords, 3u);
  ASSERT_EQ(Windows.size(), 1u);
  EXPECT_EQ(Windows[0].Cube.time(0, 0, 0), Whole.time(0, 0, 0));
}

TEST(WindowedAnalysisTest, StrictModeRejectsStructuralErrors) {
  WindowedOptions Opts;
  Opts.WindowSeconds = 1.0;
  WindowedAnalyzer A({"r"}, {"a"}, 1, Opts);
  EXPECT_TRUE(testutil::failed(
      A.addEvent({0.0, 0, EventKind::RegionExit, 0, 0})));
}

TEST(WindowedAnalysisTest, RejectsOutOfRangeAndTimeRegression) {
  WindowedOptions Opts;
  Opts.WindowSeconds = 1.0;
  WindowedAnalyzer A({"r"}, {"a"}, 1, Opts);
  EXPECT_TRUE(testutil::failed(
      A.addEvent({0.0, 1, EventKind::RegionEnter, 0, 0}))); // Bad proc.
  EXPECT_TRUE(testutil::failed(
      A.addEvent({0.0, 0, EventKind::RegionEnter, 7, 0}))); // Bad region.
  ASSERT_FALSE(A.addEvent({1.0, 0, EventKind::RegionEnter, 0, 0}));
  EXPECT_TRUE(testutil::failed(
      A.addEvent({0.5, 0, EventKind::RegionEnter, 0, 0}))); // Backwards.
}

TEST(WindowedAnalysisTest, RejectsNonFiniteTimes) {
  WindowedOptions Opts;
  Opts.WindowSeconds = 1.0;
  WindowedAnalyzer A({"r"}, {"a"}, 1, Opts);
  double Inf = std::numeric_limits<double>::infinity();
  double NaN = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(testutil::failed(
      A.addEvent({Inf, 0, EventKind::RegionEnter, 0, 0})));
  EXPECT_TRUE(testutil::failed(
      A.addEvent({NaN, 0, EventKind::RegionEnter, 0, 0})));
  EXPECT_TRUE(testutil::failed(
      A.addEvent({-1.0, 0, EventKind::RegionEnter, 0, 0})));
}

TEST(WindowedAnalysisTest, HugeIntervalSpanFailsWithLimitExceeded) {
  WindowedOptions Opts;
  Opts.WindowSeconds = 1.0;
  WindowedAnalyzer A({"r"}, {"a"}, 1, Opts);
  ASSERT_FALSE(A.addEvent({0.0, 0, EventKind::RegionEnter, 0, 0}));
  ASSERT_FALSE(A.addEvent({0.0, 0, EventKind::ActivityBegin, 0, 0}));
  // A finite but absurd end time must fail fast instead of allocating
  // one cube per window across 1e15 seconds (the test finishing at all
  // is the point).
  EXPECT_TRUE(testutil::failed(
      A.addEvent({1e15, 0, EventKind::ActivityEnd, 0, 0})));
}

TEST(WindowedAnalysisTest, WindowsInFlightCapEnforced) {
  WindowedOptions Opts;
  Opts.WindowSeconds = 1.0;
  Opts.MaxWindowsInFlight = 4;
  WindowedAnalyzer A({"r"}, {"a"}, 1, Opts);
  // Message events touch only the per-window event counter; each lands
  // in its own window and nothing is drained in between.
  for (int T = 0; T != 4; ++T)
    ASSERT_FALSE(A.addEvent({double(T), 0, EventKind::MessageSend, 0, 8}));
  EXPECT_TRUE(testutil::failed(
      A.addEvent({4.0, 0, EventKind::MessageSend, 0, 8})));
}

TEST(WindowedAnalysisTest, LenientDropAdvancesTimeline) {
  ParseReport Report;
  WindowedOptions Opts;
  Opts.WindowSeconds = 1.0;
  Opts.Mode = ParseMode::Lenient;
  Opts.Report = &Report;
  Opts.EmitEmptyWindows = true;
  WindowedAnalyzer A({"r"}, {"a"}, 1, Opts);
  // A dropped malformed event still advances the processor clock, the
  // watermark, and the event counters — mirroring reduceTrace, whose
  // span includes dropped events — it just attributes no time.
  ASSERT_FALSE(A.addEvent({2.5, 0, EventKind::RegionExit, 0, 0}));
  EXPECT_EQ(Report.DroppedRecords, 1u);
  EXPECT_DOUBLE_EQ(A.watermark(), 2.5);
  EXPECT_DOUBLE_EQ(A.spanEnd(), 2.5);
  EXPECT_EQ(A.eventsSeen(), 1u);
  EXPECT_TRUE(A.drainCompleted().empty());
  // Later events are judged against the dropped event's time.  One that
  // steps back is dropped before it touches any state: the clock, the
  // watermark and the counters stay, and its window (1, already below
  // the watermark) never opens.
  ASSERT_FALSE(A.addEvent({1.0, 0, EventKind::MessageSend, 0, 8}));
  EXPECT_EQ(Report.DroppedRecords, 2u);
  EXPECT_EQ(Report.TotalRecords, 2u);
  EXPECT_DOUBLE_EQ(A.watermark(), 2.5);
  EXPECT_EQ(A.eventsSeen(), 1u);
  std::vector<WindowResult> Rest = A.finish();
  ASSERT_EQ(Rest.size(), 1u);
  EXPECT_EQ(Rest[0].Index, 2u);
  EXPECT_EQ(Rest[0].Events, 1u);
}

TEST(WindowedAnalysisTest, EmptyWindowsSkippedUnlessRequested) {
  trace::Trace T(1);
  T.addRegion("r");
  T.addActivity("a");
  // Activity in window 0 and window 3; nothing in 1-2.
  T.append({0.0, 0, EventKind::RegionEnter, 0, 0});
  T.append({0.0, 0, EventKind::ActivityBegin, 0, 0});
  T.append({0.5, 0, EventKind::ActivityEnd, 0, 0});
  T.append({3.2, 0, EventKind::ActivityBegin, 0, 0});
  T.append({3.4, 0, EventKind::ActivityEnd, 0, 0});
  T.append({3.4, 0, EventKind::RegionExit, 0, 0});

  WindowedOptions Opts;
  Opts.WindowSeconds = 1.0;
  WindowedAnalyzer Skip = makeAnalyzer(T, Opts);
  ASSERT_FALSE(Skip.addTrace(T));
  std::vector<WindowResult> Windows = Skip.finish();
  ASSERT_EQ(Windows.size(), 2u);
  EXPECT_EQ(Windows[0].Index, 0u);
  EXPECT_EQ(Windows[1].Index, 3u);
  EXPECT_FALSE(Windows[0].Empty);

  Opts.EmitEmptyWindows = true;
  WindowedAnalyzer Keep = makeAnalyzer(T, Opts);
  ASSERT_FALSE(Keep.addTrace(T));
  Windows = Keep.finish();
  // Only windows touched by events materialize; window 3 carries the
  // region-exit boundary so 0 and 3 exist, and 3's cube has time.
  for (const WindowResult &W : Windows) {
    if (W.Index == 3u) {
      EXPECT_FALSE(W.Empty);
    }
  }
}

TEST(WindowedAnalysisTest, PartialFinalWindowProgramTimeIsCoveredSpan) {
  trace::Trace T(1);
  T.addRegion("r");
  T.addActivity("a");
  T.append({0.0, 0, EventKind::RegionEnter, 0, 0});
  T.append({0.0, 0, EventKind::ActivityBegin, 0, 0});
  T.append({1.25, 0, EventKind::ActivityEnd, 0, 0});
  T.append({1.25, 0, EventKind::RegionExit, 0, 0});

  WindowedOptions Opts;
  Opts.WindowSeconds = 1.0;
  WindowedAnalyzer A = makeAnalyzer(T, Opts);
  ASSERT_FALSE(A.addTrace(T));
  std::vector<WindowResult> Windows = A.finish();
  ASSERT_EQ(Windows.size(), 2u);
  EXPECT_DOUBLE_EQ(Windows[0].Cube.programTime(), 1.0);
  EXPECT_DOUBLE_EQ(Windows[1].Cube.programTime(), 0.25);
}

TEST(WindowedAnalysisTest, WindowViewsMatchReferenceWhenRegionsIdle) {
  // Every processor runs regions 0..5 in turn, each a seeded computation
  // then communication interval, so a window a fraction of a region long
  // sees one or two active regions out of six: the shape of a monitor
  // window, where the views kernel skips most of the cube.
  const unsigned Procs = 8;
  const uint32_t Regions = 6;
  trace::Trace T(Procs);
  for (uint32_t R = 0; R != Regions; ++R)
    T.addRegion("loop" + std::to_string(R));
  uint32_t Comp = T.addActivity("comp");
  uint32_t Comm = T.addActivity("comm");
  RNG Rng(42);
  for (uint32_t P = 0; P != Procs; ++P) {
    double Now = 0.0;
    for (int Round = 0; Round != 3; ++Round)
      for (uint32_t R = 0; R != Regions; ++R) {
        T.append({Now, P, EventKind::RegionEnter, R, 0});
        T.append({Now, P, EventKind::ActivityBegin, Comp, 0});
        Now += Rng.uniformIn(0.5, 1.5);
        T.append({Now, P, EventKind::ActivityEnd, Comp, 0});
        T.append({Now, P, EventKind::ActivityBegin, Comm, 0});
        Now += Rng.uniformIn(0.05, 0.3);
        T.append({Now, P, EventKind::ActivityEnd, Comm, 0});
        T.append({Now, P, EventKind::RegionExit, R, 0});
      }
  }

  for (stats::DispersionKind Kind : stats::AllDispersionKinds) {
    WindowedOptions Opts;
    Opts.WindowSeconds = 0.25;
    Opts.Views.Kind = Kind;
    WindowedAnalyzer A = makeAnalyzer(T, Opts);
    ASSERT_FALSE(A.addTrace(T));
    std::vector<WindowResult> Windows = A.finish();
    ASSERT_GT(Windows.size(), 40u);
    size_t WithIdleRegion = 0;
    for (const WindowResult &W : Windows) {
      for (size_t I = 0; I != W.Cube.numRegions(); ++I)
        if (W.Cube.regionTime(I) == 0.0) {
          ++WithIdleRegion;
          break;
        }
      testref::expectViewsBitIdentical(
          {W.Activities, W.Regions, W.Processors},
          testref::views(W.Cube, Opts.Views),
          std::string(stats::dispersionKindName(Kind)) + " window " +
              std::to_string(W.Index));
    }
    EXPECT_GT(WithIdleRegion * 10, Windows.size() * 9);
  }
}

namespace {

/// Expects two window lists to match: indices, event counts, emptiness
/// and every cell's bits.
void expectSameWindows(const std::vector<WindowResult> &A,
                       const std::vector<WindowResult> &B,
                       const std::string &Context) {
  ASSERT_EQ(A.size(), B.size()) << Context;
  for (size_t W = 0; W != A.size(); ++W) {
    ASSERT_EQ(A[W].Index, B[W].Index) << Context;
    EXPECT_EQ(A[W].Events, B[W].Events) << Context;
    EXPECT_EQ(A[W].Empty, B[W].Empty) << Context;
    for (size_t I = 0; I != A[W].Cube.numRegions(); ++I)
      for (size_t J = 0; J != A[W].Cube.numActivities(); ++J)
        for (unsigned P = 0; P != A[W].Cube.numProcs(); ++P)
          EXPECT_EQ(A[W].Cube.time(I, J, P), B[W].Cube.time(I, J, P))
              << Context << " window " << A[W].Index;
  }
}

} // namespace

TEST(WindowedAnalysisTest, EventTimePastWindow2To64FailsInBothModes) {
  // At W = 1e-300 the first event, at 0.5 s, lies 5e299 windows out.
  // Both ends of the interval used to saturate to window 2^64 - 1, so
  // the span check saw no span and the walk over windows never ended.
  // The test finishing at all is the point.
  std::vector<trace::Event> Events = {
      {0.5, 0, EventKind::RegionEnter, 0, 0},
      {0.5, 0, EventKind::ActivityBegin, 0, 0},
      {1.0, 0, EventKind::ActivityEnd, 0, 0},
      {1.0, 0, EventKind::RegionExit, 0, 0}};
  for (ParseMode Mode : {ParseMode::Strict, ParseMode::Lenient})
    for (bool Batch : {false, true}) {
      ParseReport Report;
      WindowedOptions Opts;
      Opts.WindowSeconds = 1e-300;
      Opts.Mode = Mode;
      Opts.Report = &Report;
      WindowedAnalyzer A({"r"}, {"a"}, 1, Opts);
      Error Err = Batch ? A.addEvents(Events) : A.addEvent(Events[0]);
      ASSERT_TRUE(static_cast<bool>(Err));
      EXPECT_EQ(Err.code(), ErrorCode::LimitExceeded);
      EXPECT_NE(Err.message().find("2^64"), std::string::npos);
      EXPECT_EQ(A.eventsSeen(), 0u);
      EXPECT_EQ(Report.DroppedRecords, 0u);
    }

  // 1 s at W = 1e-19 is window 10^19, below 2^64; 2 s is past it.
  WindowedOptions Opts;
  Opts.WindowSeconds = 1e-19;
  WindowedAnalyzer A({"r"}, {"a"}, 1, Opts);
  ASSERT_FALSE(A.addEvent({1.0, 0, EventKind::MessageSend, 0, 8}));
  Error Err = A.addEvent({2.0, 0, EventKind::MessageSend, 0, 8});
  ASSERT_TRUE(static_cast<bool>(Err));
  EXPECT_EQ(Err.code(), ErrorCode::LimitExceeded);
  Err.consume();
  // The interval from 0.5 s to 1 s still fails on its span.
  WindowedAnalyzer Span({"r"}, {"a"}, 1, Opts);
  ASSERT_FALSE(Span.addEvents({Events.data(), 2}));
  Err = Span.addEvent(Events[2]);
  ASSERT_TRUE(static_cast<bool>(Err));
  EXPECT_EQ(Err.code(), ErrorCode::LimitExceeded);
  EXPECT_NE(Err.message().find("spans more than"), std::string::npos);
}

TEST(WindowedAnalysisTest, CursorAgreesWithFloorAtWindowBoundaries) {
  // Events at K*W and one ulp either side.  Between those, floor(t/W)
  // and a plain t >= K*W disagree often (3,765 times for W = 0.001 and
  // K < 2*10^5), so a window cursor bounded by the products alone
  // miscounts here.  The expected windows are computed in the test: an
  // event lies in window floor(t/W), and an interval is clipped at the
  // products K*W and (K+1)*W of each window from floor(begin/W) on.
  // Near K = 2^53, (K+1)*W can round down to K*W, and the split puts the
  // interval into the next window: the second group of boundaries.
  // There a window is about one ulp of time wide, so the group's times
  // are sorted and repeats dropped.
  const uint64_t Two53 = uint64_t(1) << 53;
  const std::pair<uint64_t, uint64_t> Groups[] = {{1, 10000},
                                                  {Two53 - 4, Two53 + 4}};
  for (double W : {0.001, 0.1, 1.0 / 3.0, 0.7, 1e-9}) {
    std::string Context = "W = " + std::to_string(W);
    auto windowOf = [&](double T) {
      return static_cast<uint64_t>(std::floor(T / W));
    };
    std::vector<trace::Event> Events;
    std::map<uint64_t, uint64_t> ExpectEvents;
    std::map<uint64_t, std::array<double, 3>> ExpectCells;
    auto add = [&](trace::Event E) {
      Events.push_back(E);
      ++ExpectEvents[windowOf(E.Time)];
    };
    auto interval = [&](uint32_t P, double Begin, double End) {
      add({Begin, P, EventKind::ActivityBegin, 0, 0});
      add({End, P, EventKind::ActivityEnd, 0, 0});
      for (uint64_t K = windowOf(Begin); static_cast<double>(K) * W < End;
           ++K) {
        double Lo = std::max(Begin, static_cast<double>(K) * W);
        double Hi = std::min(End, static_cast<double>(K + 1) * W);
        if (Hi > Lo)
          ExpectCells[K][P] += Hi - Lo;
      }
    };
    for (uint32_t P = 0; P != 3; ++P)
      add({0.0, P, EventKind::RegionEnter, 0, 0});
    for (auto [First, Last] : Groups) {
      std::vector<double> Times;
      for (uint64_t K = First; K <= Last; ++K) {
        double T = static_cast<double>(K) * W;
        Times.push_back(std::nextafter(T, 0.0));
        Times.push_back(T);
        Times.push_back(std::nextafter(T, INFINITY));
      }
      std::sort(Times.begin(), Times.end());
      Times.erase(std::unique(Times.begin(), Times.end()), Times.end());
      // Proc 0 marks every time with a message; proc 1 runs an activity
      // between every two neighbouring times (inside a window or across
      // a boundary), proc 2 one across every five.
      for (double T : Times)
        add({T, 0, EventKind::MessageSend, 1, 8});
      for (size_t I = 0; I + 1 < Times.size(); ++I)
        interval(1, Times[I], Times[I + 1]);
      for (size_t I = 0; I + 5 < Times.size(); I += 5)
        interval(2, Times[I], Times[I + 5]);
    }
    // Time order across processors, as a live stream arrives.
    std::stable_sort(Events.begin(), Events.end(),
                     [](const trace::Event &A, const trace::Event &B) {
                       return A.Time < B.Time;
                     });

    WindowedOptions Opts;
    Opts.WindowSeconds = W;
    Opts.EmitEmptyWindows = true;
    WindowedAnalyzer A({"r"}, {"a"}, 3, Opts);
    // Batches with a drain after each, as lima_monitor folds.
    std::vector<WindowResult> Windows;
    for (size_t I = 0; I < Events.size(); I += 4093) {
      size_t N = std::min<size_t>(4093, Events.size() - I);
      ASSERT_FALSE(A.addEvents({Events.data() + I, N})) << Context;
      for (WindowResult &R : A.drainCompleted())
        Windows.push_back(std::move(R));
    }
    for (WindowResult &R : A.finish())
      Windows.push_back(std::move(R));

    std::set<uint64_t> Expected;
    for (const auto &[K, N] : ExpectEvents)
      Expected.insert(K);
    for (const auto &[K, Cells] : ExpectCells)
      Expected.insert(K);
    ASSERT_EQ(Windows.size(), Expected.size()) << Context;
    auto It = Expected.begin();
    for (const WindowResult &R : Windows) {
      ASSERT_EQ(R.Index, *It++) << Context;
      EXPECT_EQ(R.Events, ExpectEvents[R.Index])
          << Context << " window " << R.Index;
      for (unsigned P = 0; P != 3; ++P)
        EXPECT_EQ(R.Cube.time(0, 0, P), ExpectCells[R.Index][P])
            << Context << " window " << R.Index << " proc " << P;
    }
  }
}

TEST(WindowedAnalysisTest, AddEventAndAddEventsAgreeOnEveryDropAndError) {
  const double NaN = std::numeric_limits<double>::quiet_NaN();
  const double Inf = std::numeric_limits<double>::infinity();
  // Two processors, windows of 0.5 s; proc 0's first interval is split.
  std::vector<trace::Event> Clean = {
      {0.0, 0, EventKind::RegionEnter, 0, 0},
      {0.1, 0, EventKind::ActivityBegin, 0, 0},
      {1.7, 0, EventKind::ActivityEnd, 0, 0},
      {0.4, 1, EventKind::RegionEnter, 1, 0},
      {0.6, 1, EventKind::ActivityBegin, 1, 0},
      {0.9, 1, EventKind::ActivityEnd, 1, 0},
      {2.5, 0, EventKind::MessageRecv, 1, 8},
      {2.6, 1, EventKind::RegionExit, 1, 0},
      {2.7, 0, EventKind::RegionExit, 0, 0}};
  // Every drop kind, on proc 1 before it enters its region and after.
  std::vector<trace::Event> Drops = {
      {0.0, 1, EventKind::RegionExit, 0, 0},    // Exit without enter.
      {0.2, 1, EventKind::ActivityBegin, 0, 0}, // Begin outside a region.
      {0.3, 1, EventKind::ActivityEnd, 0, 0},   // End outside a region.
      {0.4, 1, EventKind::RegionEnter, 1, 0},
      {0.5, 1, EventKind::ActivityEnd, 1, 0},   // End without begin.
      {0.45, 1, EventKind::MessageSend, 0, 8},  // Time goes backwards.
      {0.6, 1, EventKind::ActivityBegin, 1, 0},
      {0.9, 1, EventKind::ActivityEnd, 1, 0},
      {0.0, 0, EventKind::RegionEnter, 0, 0},
      {0.1, 0, EventKind::ActivityBegin, 0, 0},
      {1.7, 0, EventKind::ActivityEnd, 0, 0},
      {2.5, 0, EventKind::MessageRecv, 1, 8},
      {2.6, 1, EventKind::RegionExit, 1, 0},
      {2.7, 0, EventKind::RegionExit, 0, 0}};
  // Every error kind, each followed by an event that must not be folded.
  trace::Event After{3.0, 0, EventKind::MessageSend, 1, 8};
  std::vector<std::vector<trace::Event>> Failures = {
      {},
      {{3.0, 2, EventKind::MessageSend, 0, 8}}, // Processor out of range.
      {{NaN, 0, EventKind::MessageSend, 1, 8}},
      {{Inf, 0, EventKind::MessageSend, 1, 8}},
      {{-1.0, 0, EventKind::MessageSend, 1, 8}},
      {{1e300, 0, EventKind::MessageSend, 1, 8}}, // Past window 2^64.
      {{3.0, 0, EventKind::RegionEnter, 9, 0}},   // Region out of range.
      {{3.0, 0, EventKind::RegionEnter, 0, 0},    // Activity out of range.
       {3.0, 0, EventKind::ActivityBegin, 9, 0}},
      {{3.0, 0, EventKind::RegionEnter, 0, 0}, // Interval spans too much.
       {3.0, 0, EventKind::ActivityBegin, 0, 0},
       {50.0, 0, EventKind::ActivityEnd, 0, 0}},
      {{4.0, 0, EventKind::MessageSend, 1, 8}, // Windows in flight.
       {5.0, 0, EventKind::MessageSend, 1, 8},
       {6.0, 0, EventKind::MessageSend, 1, 8},
       {7.0, 0, EventKind::MessageSend, 1, 8}}};

  struct Run {
    std::vector<WindowResult> Windows;
    ParseReport Report;
    std::optional<ParseError> Failure;
  };
  auto run = [](const std::vector<trace::Event> &Events, ParseMode Mode,
                RNG *Splits) {
    Run R;
    WindowedOptions Opts;
    Opts.WindowSeconds = 0.5;
    Opts.Mode = Mode;
    Opts.Report = &R.Report;
    Opts.MaxIntervalWindows = 16;
    Opts.MaxWindowsInFlight = 8;
    Opts.EmitEmptyWindows = true;
    WindowedAnalyzer A({"r0", "r1"}, {"a0", "a1"}, 2, Opts);
    for (size_t I = 0; I < Events.size();) {
      size_t N = Splits ? std::min<size_t>(1 + Splits->uniformInt(5),
                                           Events.size() - I)
                        : 1;
      Error Err = Splits ? A.addEvents({Events.data() + I, N})
                         : A.addEvent(Events[I]);
      if (Err) {
        R.Failure = Err.toParseError();
        break;
      }
      I += N;
    }
    R.Windows = A.finish();
    return R;
  };

  RNG Rng(17);
  for (const std::vector<trace::Event> *Prefix : {&Clean, &Drops})
    for (const std::vector<trace::Event> &Failure : Failures)
      for (ParseMode Mode : {ParseMode::Strict, ParseMode::Lenient}) {
        std::vector<trace::Event> Events = *Prefix;
        Events.insert(Events.end(), Failure.begin(), Failure.end());
        Events.push_back(After);
        std::string Context =
            std::string(Prefix == &Clean ? "clean" : "drops") + " + " +
            std::to_string(Failure.size()) + " failing events, " +
            (Mode == ParseMode::Strict ? "strict" : "lenient");
        Run One = run(Events, Mode, nullptr);
        for (int Split = 0; Split != 4; ++Split) {
          Run Batched = run(Events, Mode, &Rng);
          expectSameWindows(One.Windows, Batched.Windows, Context);
          EXPECT_EQ(One.Report.TotalRecords, Batched.Report.TotalRecords)
              << Context;
          EXPECT_EQ(One.Report.DroppedRecords, Batched.Report.DroppedRecords)
              << Context;
          EXPECT_EQ(One.Report.DroppedByCode, Batched.Report.DroppedByCode)
              << Context;
          ASSERT_EQ(One.Report.Samples.size(), Batched.Report.Samples.size())
              << Context;
          for (size_t I = 0; I != One.Report.Samples.size(); ++I)
            EXPECT_EQ(One.Report.Samples[I].Msg, Batched.Report.Samples[I].Msg)
                << Context;
          ASSERT_EQ(One.Failure.has_value(), Batched.Failure.has_value())
              << Context;
          if (One.Failure) {
            EXPECT_EQ(One.Failure->Code, Batched.Failure->Code) << Context;
            EXPECT_EQ(One.Failure->Msg, Batched.Failure->Msg) << Context;
          }
        }
        // Every failing suffix fails, and in lenient mode after the
        // prefix's five drops.
        EXPECT_EQ(One.Failure.has_value(),
                  !Failure.empty() ||
                      (Prefix == &Drops && Mode == ParseMode::Strict))
            << Context;
        if (Prefix == &Drops && Mode == ParseMode::Lenient) {
          EXPECT_EQ(One.Report.DroppedRecords, 5u) << Context;
        }
      }
}
