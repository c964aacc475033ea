//===- tests/CountingTest.cpp - counting-parameter tests ------------------===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "apps/cfd/Cfd.h"
#include "core/CountingReduction.h"
#include "core/Views.h"
#include "trace/TraceStats.h"
#include "TestHelpers.h"
#include <cmath>
#include <gtest/gtest.h>

using namespace lima;
using namespace lima::core;
using trace::EventKind;

namespace {

/// Proc 0 sends 2 messages (100B + 300B) from region r0 and 1 message
/// (50B) from region r1; proc 1 receives them all in region r0.
trace::Trace makeCountingTrace() {
  trace::Trace T(2);
  uint32_t R0 = T.addRegion("r0");
  uint32_t R1 = T.addRegion("r1");
  T.addActivity("comp");

  T.append({0.0, 0, EventKind::RegionEnter, R0, 0});
  T.append({0.1, 0, EventKind::MessageSend, 1, 100});
  T.append({0.2, 0, EventKind::MessageSend, 1, 300});
  T.append({0.3, 0, EventKind::RegionExit, R0, 0});
  T.append({0.4, 0, EventKind::RegionEnter, R1, 0});
  T.append({0.5, 0, EventKind::MessageSend, 1, 50});
  T.append({0.6, 0, EventKind::RegionExit, R1, 0});

  T.append({0.0, 1, EventKind::RegionEnter, R0, 0});
  T.append({0.5, 1, EventKind::MessageRecv, 0, 100});
  T.append({0.6, 1, EventKind::MessageRecv, 0, 300});
  T.append({0.7, 1, EventKind::MessageRecv, 0, 50});
  T.append({0.8, 1, EventKind::RegionExit, R0, 0});
  return T;
}

} // namespace

TEST(CountingTest, MessagesSentAttributedToRegions) {
  auto Cube = cantFail(
      reduceTraceCounts(makeCountingTrace(), CountingMetric::MessagesSent));
  EXPECT_EQ(Cube.numActivities(), 1u);
  EXPECT_EQ(Cube.activityName(0), "messages-sent");
  EXPECT_DOUBLE_EQ(Cube.time(0, 0, 0), 2.0);
  EXPECT_DOUBLE_EQ(Cube.time(1, 0, 0), 1.0);
  EXPECT_DOUBLE_EQ(Cube.time(0, 0, 1), 0.0);
}

TEST(CountingTest, BytesSentAndReceived) {
  auto Sent = cantFail(
      reduceTraceCounts(makeCountingTrace(), CountingMetric::BytesSent));
  EXPECT_DOUBLE_EQ(Sent.time(0, 0, 0), 400.0);
  EXPECT_DOUBLE_EQ(Sent.time(1, 0, 0), 50.0);

  auto Received = cantFail(reduceTraceCounts(
      makeCountingTrace(), CountingMetric::BytesReceived));
  EXPECT_DOUBLE_EQ(Received.time(0, 0, 1), 450.0);
  EXPECT_DOUBLE_EQ(Received.time(0, 0, 0), 0.0);
  EXPECT_DOUBLE_EQ(Received.time(1, 0, 1), 0.0);
}

TEST(CountingTest, DispersionMachineryAppliesToCounts) {
  auto Cube = cantFail(
      reduceTraceCounts(makeCountingTrace(), CountingMetric::MessagesSent));
  auto Matrix = computeDissimilarityMatrix(Cube);
  // All messages from proc 0: one-hot across two procs.
  EXPECT_NEAR(Matrix[0][0], std::sqrt(0.5), 1e-12);
}

TEST(CountingTest, MetricNames) {
  EXPECT_EQ(countingMetricName(CountingMetric::MessagesSent),
            "messages-sent");
  EXPECT_EQ(countingMetricName(CountingMetric::BytesReceived),
            "bytes-received");
}

TEST(CountingTest, RejectsInvalidTrace) {
  trace::Trace T(1);
  T.addRegion("r");
  T.addActivity("a");
  T.append({0.0, 0, EventKind::RegionEnter, 0, 0});
  EXPECT_TRUE(testutil::failed(
      reduceTraceCounts(T, CountingMetric::MessagesSent)));
}

TEST(CountingTest, CfdMessageCountsMatchTraceStats) {
  cfd::CfdConfig Config;
  Config.Procs = 6;
  Config.Nx = 32;
  Config.RowsPerRank = 4;
  Config.Iterations = 2;
  auto Run = cantFail(cfd::runCfd(Config));
  auto Cube = cantFail(
      reduceTraceCounts(Run.Trace, CountingMetric::MessagesSent));
  trace::TraceStats Stats = cantFail(trace::computeTraceStats(Run.Trace));
  // Region-attributed counts must sum to the trace's total sends.
  double Total = 0.0;
  for (size_t I = 0; I != Cube.numRegions(); ++I)
    for (unsigned P = 0; P != Cube.numProcs(); ++P)
      Total += Cube.time(I, 0, P);
  EXPECT_DOUBLE_EQ(Total, static_cast<double>(Stats.TotalMessages));
}

TEST(CountingTest, CfdCommunicationVolumeSkewedByPipeline) {
  cfd::CfdConfig Config;
  Config.Procs = 8;
  Config.Nx = 48;
  Config.RowsPerRank = 4;
  Config.Iterations = 2;
  auto Run = cantFail(cfd::runCfd(Config));
  auto Cube = cantFail(
      reduceTraceCounts(Run.Trace, CountingMetric::MessagesSent));
  // In the wavefront region, edge rank P-1 sends only backward chunks
  // while middle ranks send both directions: real count imbalance that
  // the timing view does not expose.
  auto Matrix = computeDissimilarityMatrix(Cube);
  EXPECT_GT(Matrix[2][0], 0.0);
}
