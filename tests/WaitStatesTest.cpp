//===- tests/WaitStatesTest.cpp - late-sender analysis tests --------------===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "apps/cfd/Cfd.h"
#include "core/TraceReduction.h"
#include "core/Views.h"
#include "core/WaitStates.h"
#include "TestHelpers.h"
#include <gtest/gtest.h>

using namespace lima;
using namespace lima::core;
using trace::EventKind;

namespace {

/// Receiver blocks at t=1 inside its p2p bracket; the sender only sends
/// at t=3 -> 2 seconds of late-sender wait.  A second, punctual message
/// (send at t=4, recv posted at t=5) contributes none.
trace::Trace makeLateSenderTrace() {
  trace::Trace T(2);
  uint32_t R = T.addRegion("r");
  uint32_t Comp = T.addActivity("computation");
  uint32_t P2P = T.addActivity("point-to-point");

  // Sender (proc 0): computes until 3, sends, computes, sends at 4.
  T.append({0.0, 0, EventKind::RegionEnter, R, 0});
  T.append({0.0, 0, EventKind::ActivityBegin, Comp, 0});
  T.append({3.0, 0, EventKind::ActivityEnd, Comp, 0});
  T.append({3.0, 0, EventKind::ActivityBegin, P2P, 0});
  T.append({3.0, 0, EventKind::MessageSend, 1, 100});
  T.append({3.1, 0, EventKind::ActivityEnd, P2P, 0});
  T.append({3.1, 0, EventKind::ActivityBegin, Comp, 0});
  T.append({4.0, 0, EventKind::ActivityEnd, Comp, 0});
  T.append({4.0, 0, EventKind::ActivityBegin, P2P, 0});
  T.append({4.0, 0, EventKind::MessageSend, 1, 200});
  T.append({4.1, 0, EventKind::ActivityEnd, P2P, 0});
  T.append({4.1, 0, EventKind::RegionExit, R, 0});

  // Receiver (proc 1): blocks early for the first message, late for the
  // second.
  T.append({0.0, 1, EventKind::RegionEnter, R, 0});
  T.append({0.0, 1, EventKind::ActivityBegin, Comp, 0});
  T.append({1.0, 1, EventKind::ActivityEnd, Comp, 0});
  T.append({1.0, 1, EventKind::ActivityBegin, P2P, 0});
  T.append({3.2, 1, EventKind::MessageRecv, 0, 100});
  T.append({3.2, 1, EventKind::ActivityEnd, P2P, 0});
  T.append({3.2, 1, EventKind::ActivityBegin, Comp, 0});
  T.append({5.0, 1, EventKind::ActivityEnd, Comp, 0});
  T.append({5.0, 1, EventKind::ActivityBegin, P2P, 0});
  T.append({5.1, 1, EventKind::MessageRecv, 0, 200});
  T.append({5.1, 1, EventKind::ActivityEnd, P2P, 0});
  T.append({5.1, 1, EventKind::RegionExit, R, 0});
  return T;
}

} // namespace

TEST(WaitStatesTest, HandComputedLateSenderWait) {
  auto Report = cantFail(analyzeWaitStates(makeLateSenderTrace()));
  EXPECT_EQ(Report.TotalReceives, 2u);
  EXPECT_EQ(Report.LateReceives, 1u);
  // Receiver blocked at 1.0; sender sent at 3.0 -> 2.0 s late-sender.
  EXPECT_NEAR(Report.TotalLateSender, 2.0, 1e-12);
  EXPECT_NEAR(Report.LateSender.time(0, 0, 1), 2.0, 1e-12);
  EXPECT_DOUBLE_EQ(Report.LateSender.time(0, 0, 0), 0.0);
  ASSERT_EQ(Report.Channels.size(), 1u);
  EXPECT_EQ(Report.Channels[0].From, 0u);
  EXPECT_EQ(Report.Channels[0].To, 1u);
  EXPECT_EQ(Report.Channels[0].Messages, 1u);
}

TEST(WaitStatesTest, RejectsInvalidTrace) {
  trace::Trace T(1);
  T.addRegion("r");
  T.addActivity("a");
  T.append({0.0, 0, EventKind::RegionEnter, 0, 0});
  EXPECT_TRUE(testutil::failed(analyzeWaitStates(T)));
}

TEST(WaitStatesTest, TraceWithoutRegionsIsMissingSection) {
  // A matched send/receive that validate accepts, but no region for the
  // late-sender cube to be built over.
  trace::Trace T(2);
  T.addActivity("p2p");
  T.append({0.0, 0, EventKind::MessageSend, 1, 8});
  T.append({0.5, 1, EventKind::MessageRecv, 0, 8});
  for (ParseMode Mode : {ParseMode::Strict, ParseMode::Lenient}) {
    Expected<WaitStateReport> Report = analyzeWaitStates(T, Mode);
    ASSERT_FALSE(static_cast<bool>(Report));
    Error Err = Report.takeError();
    EXPECT_EQ(Err.code(), ErrorCode::MissingSection);
    EXPECT_EQ(Err.message(), "trace declares no regions");
  }
}

TEST(WaitStatesTest, PipelineFillIsLateSenderDominated) {
  // The CFD wavefront's p2p time is pipeline fill: downstream ranks
  // block long before upstream ranks send.  Late-sender wait must
  // account for the bulk of the sweep region's p2p time.
  cfd::CfdConfig Config;
  Config.Procs = 8;
  Config.Nx = 44;
  Config.RowsPerRank = 4;
  Config.Iterations = 2;
  auto Run = cantFail(cfd::runCfd(Config));
  auto Report = cantFail(analyzeWaitStates(Run.Trace));
  auto Cube = cantFail(core::reduceTrace(Run.Trace));

  double SweepP2P = Cube.regionActivityTime(2, 1) * Config.Procs;
  double SweepLate = 0.0;
  for (unsigned P = 0; P != Config.Procs; ++P)
    SweepLate += Report.LateSender.time(2, 0, P);
  EXPECT_GT(SweepLate, 0.5 * SweepP2P);
  EXPECT_LT(SweepLate, SweepP2P + 1e-9);
}

TEST(WaitStatesTest, OverlappedHaloHasNoLateSenderInAdvection) {
  cfd::CfdConfig Config;
  Config.Procs = 8;
  Config.Nx = 44;
  Config.RowsPerRank = 4;
  Config.Iterations = 2;
  Config.OverlapHalo = true;
  auto Run = cantFail(cfd::runCfd(Config));
  auto Report = cantFail(analyzeWaitStates(Run.Trace));
  // Advection (region 3): sends happen before the compute, so by wait
  // time every matching send long precedes the receive -> no late
  // senders.
  for (unsigned P = 0; P != Config.Procs; ++P)
    EXPECT_NEAR(Report.LateSender.time(3, 0, P), 0.0, 1e-9) << "rank " << P;
}

TEST(WaitStatesTest, DispersionMachineryAppliesToWaits) {
  // The late-sender cube is a MeasurementCube: the region view runs on
  // it unchanged, localizing who waits.
  cfd::CfdConfig Config;
  Config.Procs = 8;
  Config.Nx = 44;
  Config.RowsPerRank = 4;
  Config.Iterations = 2;
  auto Run = cantFail(cfd::runCfd(Config));
  auto Report = cantFail(analyzeWaitStates(Run.Trace));
  if (Report.TotalLateSender <= 0.0)
    GTEST_SKIP() << "no waits to analyze";
  auto Matrix = core::computeDissimilarityMatrix(Report.LateSender);
  for (const auto &Row : Matrix)
    for (double Index : Row)
      EXPECT_GE(Index, 0.0);
}
