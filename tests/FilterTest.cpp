//===- tests/FilterTest.cpp - trace slicing tests -------------------------===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "apps/cfd/Cfd.h"
#include "core/TraceReduction.h"
#include "trace/Filter.h"
#include "TestHelpers.h"
#include <gtest/gtest.h>

using namespace lima;
using namespace lima::trace;

namespace {

/// One proc, two regions, two instances of "hot": hot[0,1], cold[2,3],
/// hot[4,5].  Every instance carries one computation activity.
Trace makeFilterTrace() {
  Trace T(1);
  uint32_t Hot = T.addRegion("hot");
  uint32_t Cold = T.addRegion("cold");
  uint32_t A = T.addActivity("comp");
  auto instance = [&](uint32_t Region, double Begin, double End) {
    T.append({Begin, 0, EventKind::RegionEnter, Region, 0});
    T.append({Begin, 0, EventKind::ActivityBegin, A, 0});
    T.append({End, 0, EventKind::ActivityEnd, A, 0});
    T.append({End, 0, EventKind::RegionExit, Region, 0});
  };
  instance(Hot, 0.0, 1.0);
  instance(Cold, 2.0, 3.0);
  instance(Hot, 4.0, 5.0);
  return T;
}

} // namespace

TEST(FilterTest, KeepsOnlyNamedRegions) {
  FilterOptions Options;
  Options.Regions = {"hot"};
  Trace Sliced = cantFail(filterTrace(makeFilterTrace(), Options));
  // Name tables intact, events reduced to the two hot instances.
  EXPECT_EQ(Sliced.numRegions(), 2u);
  EXPECT_EQ(Sliced.numEvents(), 8u);
  Error E = Sliced.validate();
  EXPECT_FALSE(static_cast<bool>(E));
  auto Cube = cantFail(core::reduceTrace(Sliced));
  EXPECT_DOUBLE_EQ(Cube.time(0, 0, 0), 2.0); // Both hot instances.
  EXPECT_DOUBLE_EQ(Cube.time(1, 0, 0), 0.0); // Cold filtered out.
}

TEST(FilterTest, TimeWindowKeepsFullyContainedInstances) {
  FilterOptions Options;
  Options.TimeBegin = 1.5;
  Options.TimeEnd = 5.5;
  Trace Sliced = cantFail(filterTrace(makeFilterTrace(), Options));
  // hot[0,1] starts before the window; cold[2,3] and hot[4,5] survive.
  EXPECT_EQ(Sliced.numEvents(), 8u);
  auto Cube = cantFail(core::reduceTrace(Sliced));
  EXPECT_DOUBLE_EQ(Cube.time(0, 0, 0), 1.0);
  EXPECT_DOUBLE_EQ(Cube.time(1, 0, 0), 1.0);
}

TEST(FilterTest, PartiallyOverlappingInstanceIsDropped) {
  FilterOptions Options;
  Options.TimeBegin = 0.5; // Cuts into hot[0,1].
  Options.TimeEnd = 3.5;   // Cuts before hot[4,5].
  Trace Sliced = cantFail(filterTrace(makeFilterTrace(), Options));
  auto Cube = cantFail(core::reduceTrace(Sliced));
  EXPECT_DOUBLE_EQ(Cube.time(0, 0, 0), 0.0); // Both hot instances cut.
  EXPECT_DOUBLE_EQ(Cube.time(1, 0, 0), 1.0);
}

TEST(FilterTest, MessagesDroppedByDefault) {
  Trace T(2);
  uint32_t R = T.addRegion("r");
  T.addActivity("a");
  T.append({0.0, 0, EventKind::RegionEnter, R, 0});
  T.append({0.1, 0, EventKind::MessageSend, 1, 64});
  T.append({0.2, 0, EventKind::RegionExit, R, 0});
  T.append({0.0, 1, EventKind::RegionEnter, R, 0});
  T.append({0.3, 1, EventKind::MessageRecv, 0, 64});
  T.append({0.4, 1, EventKind::RegionExit, R, 0});

  Trace Sliced = cantFail(filterTrace(T, {}));
  EXPECT_EQ(Sliced.numEvents(), 4u); // Only the region brackets.
  Error E = Sliced.validate();
  EXPECT_FALSE(static_cast<bool>(E));

  FilterOptions Keep;
  Keep.KeepMessages = true;
  Trace WithMessages = cantFail(filterTrace(T, Keep));
  EXPECT_EQ(WithMessages.numEvents(), 6u);
}

TEST(FilterTest, RejectsUnknownRegionAndEmptyWindow) {
  FilterOptions Bad;
  Bad.Regions = {"nonexistent"};
  EXPECT_TRUE(testutil::failed(filterTrace(makeFilterTrace(), Bad)));

  FilterOptions Empty;
  Empty.TimeBegin = 5.0;
  Empty.TimeEnd = 1.0;
  EXPECT_TRUE(testutil::failed(filterTrace(makeFilterTrace(), Empty)));
}

TEST(FilterTest, CfdSliceAnalyzesStandalone) {
  cfd::CfdConfig Config;
  Config.Procs = 6;
  Config.Nx = 32;
  Config.RowsPerRank = 4;
  Config.Iterations = 3;
  auto Run = cantFail(cfd::runCfd(Config));

  FilterOptions Options;
  Options.Regions = {"pressure", "viscous"};
  Trace Sliced = cantFail(filterTrace(Run.Trace, Options));
  Error E = Sliced.validate();
  EXPECT_FALSE(static_cast<bool>(E));

  auto Full = cantFail(core::reduceTrace(Run.Trace));
  auto Slice = cantFail(core::reduceTrace(Sliced));
  // Kept regions carry identical times; dropped regions zero out.
  for (size_t J = 0; J != Full.numActivities(); ++J)
    for (unsigned P = 0; P != Full.numProcs(); ++P) {
      EXPECT_NEAR(Slice.time(0, J, P), Full.time(0, J, P), 1e-12);
      EXPECT_DOUBLE_EQ(Slice.time(2, J, P), 0.0);
    }
}

namespace {

/// fuzz/corpus/fuzz_trace_text/stray-exit-then-earlier.trace: processor
/// 0 exits its region twice, then logs a region instance earlier than
/// the stray exit; processor 1 is clean.  Lenient folds drop five events
/// of processor 0.
Trace makeStrayExitTrace() {
  Trace T(2);
  uint32_t Main = T.addRegion("main");
  uint32_t Comp = T.addActivity("comp");
  uint32_t P2P = T.addActivity("p2p");
  const struct {
    double Time;
    uint32_t Proc;
    EventKind Kind;
    uint32_t Id;
  } Events[] = {
      {0.0, 0, EventKind::RegionEnter, Main},
      {0.5, 0, EventKind::ActivityBegin, Comp},
      {1.0, 0, EventKind::ActivityEnd, Comp},
      {5.0, 0, EventKind::RegionExit, Main},
      {6.0, 0, EventKind::RegionExit, Main},
      {5.5, 0, EventKind::RegionEnter, Main},
      {5.6, 0, EventKind::ActivityBegin, Comp},
      {5.9, 0, EventKind::ActivityEnd, Comp},
      {6.0, 0, EventKind::RegionExit, Main},
      {0.0, 1, EventKind::RegionEnter, Main},
      {0.2, 1, EventKind::ActivityBegin, P2P},
      {1.0, 1, EventKind::ActivityEnd, P2P},
      {1.0, 1, EventKind::ActivityBegin, Comp},
      {5.0, 1, EventKind::ActivityEnd, Comp},
      {6.0, 1, EventKind::RegionExit, Main},
  };
  for (const auto &E : Events)
    T.append({E.Time, E.Proc, E.Kind, E.Id, 0});
  return T;
}

/// One region instance with two events the lenient fold drops inside
/// it: an activity end with no begin, and one that steps back in time.
Trace makeDropsInsideInstanceTrace() {
  Trace T(1);
  uint32_t Main = T.addRegion("main");
  uint32_t Comp = T.addActivity("comp");
  const struct {
    double Time;
    EventKind Kind;
    uint32_t Id;
  } Events[] = {
      {0.0, EventKind::RegionEnter, Main},
      {0.5, EventKind::ActivityBegin, Comp},
      {1.0, EventKind::ActivityEnd, Comp},
      {1.5, EventKind::ActivityEnd, Comp},
      {1.8, EventKind::ActivityBegin, Comp},
      {1.7, EventKind::ActivityEnd, Comp},
      {1.9, EventKind::ActivityEnd, Comp},
      {2.0, EventKind::RegionExit, Main},
  };
  for (const auto &E : Events)
    T.append({E.Time, 0, E.Kind, E.Id, 0});
  return T;
}

core::MeasurementCube reduceLeniently(const Trace &T, ParseReport &Report) {
  core::ReductionOptions Options;
  Options.Threads = 1;
  Options.Mode = ParseMode::Lenient;
  Options.Report = &Report;
  return cantFail(core::reduceTrace(T, Options));
}

} // namespace

TEST(FilterTest, StrictModeRejectsWhatValidationRejects) {
  Trace T = makeStrayExitTrace();
  Error Invalid = T.validate();
  ASSERT_TRUE(static_cast<bool>(Invalid));
  std::string Message = Invalid.message();
  Invalid.consume();
  FilterOptions Options;
  Options.Regions = {"main"};
  Expected<Trace> Sliced = filterTrace(T, Options, ParseMode::Strict);
  ASSERT_FALSE(static_cast<bool>(Sliced));
  EXPECT_EQ(Sliced.takeError().message(), Message);
}

TEST(FilterTest, LenientModeReportsEachFoldDropOnce) {
  // The slice leaves out what the lenient fold drops, and counts it,
  // so a lenient reduction of the slice drops nothing more: with or
  // without the slice, the drops and the cube are the same.  The drops
  // lie after the kept instance in the first trace, inside it in the
  // second.
  const struct {
    Trace T;
    uint64_t Drops;
  } Cases[] = {{makeStrayExitTrace(), 5}, {makeDropsInsideInstanceTrace(), 2}};
  for (const auto &C : Cases) {
    const Trace &T = C.T;
    ParseReport Unsliced;
    core::MeasurementCube Full = reduceLeniently(T, Unsliced);
    ASSERT_EQ(Unsliced.DroppedRecords, C.Drops);

    FilterOptions Options;
    Options.Regions = {"main"};
    ParseReport Report;
    Trace Sliced =
        cantFail(filterTrace(T, Options, ParseMode::Lenient, &Report));
    EXPECT_EQ(Report.TotalRecords, 0u);
    EXPECT_EQ(Report.DroppedRecords, Unsliced.DroppedRecords);
    EXPECT_EQ(Report.DroppedByCode, Unsliced.DroppedByCode);
    ASSERT_EQ(Report.Samples.size(), Unsliced.Samples.size());
    for (size_t I = 0; I != Report.Samples.size(); ++I)
      EXPECT_EQ(Report.Samples[I].Msg, Unsliced.Samples[I].Msg);
    EXPECT_EQ(Sliced.numEvents(), T.numEvents() - C.Drops);
    EXPECT_FALSE(testutil::failed(Sliced.validate()));

    ParseReport Again;
    core::MeasurementCube Slice = reduceLeniently(Sliced, Again);
    EXPECT_EQ(Again.DroppedRecords, 0u);
    for (size_t J = 0; J != Full.numActivities(); ++J)
      for (unsigned P = 0; P != Full.numProcs(); ++P)
        EXPECT_EQ(Slice.time(0, J, P), Full.time(0, J, P));

    // Without a report the slice is the same.
    Trace Unreported = cantFail(filterTrace(T, Options, ParseMode::Lenient));
    EXPECT_EQ(Unreported.numEvents(), Sliced.numEvents());
  }
}

TEST(FilterTest, LenientModeSlicesWhatOnlyValidationRejects) {
  // Overlapping activities and a receive with no send break strict
  // validation, not the lenient fold: the time window slices them with
  // nothing dropped.
  Trace T(2);
  uint32_t Main = T.addRegion("main");
  uint32_t Comp = T.addActivity("comp");
  uint32_t P2P = T.addActivity("p2p");
  T.append({0.0, 0, EventKind::RegionEnter, Main, 0});
  T.append({1.0, 0, EventKind::ActivityBegin, Comp, 0});
  T.append({2.0, 0, EventKind::ActivityBegin, P2P, 0});
  T.append({3.0, 0, EventKind::ActivityEnd, P2P, 0});
  T.append({6.0, 0, EventKind::RegionExit, Main, 0});
  T.append({0.0, 1, EventKind::RegionEnter, Main, 0});
  T.append({1.0, 1, EventKind::MessageRecv, 0, 64});
  T.append({2.0, 1, EventKind::RegionExit, Main, 0});
  T.append({3.0, 1, EventKind::RegionEnter, Main, 0});
  T.append({20.0, 1, EventKind::RegionExit, Main, 0});

  FilterOptions Window;
  Window.TimeEnd = 10.0;
  EXPECT_TRUE(testutil::failed(filterTrace(T, Window, ParseMode::Strict)));
  ParseReport Report;
  Trace Sliced =
      cantFail(filterTrace(T, Window, ParseMode::Lenient, &Report));
  EXPECT_EQ(Report.DroppedRecords, 0u);
  EXPECT_EQ(Sliced.events(0).size(), 5u);
  EXPECT_EQ(Sliced.events(1).size(), 2u); // The message and [3, 20] go.
}
