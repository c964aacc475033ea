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
#include <gtest/gtest.h>
#include <limits>
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
