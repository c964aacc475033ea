//===- tests/TraceStatsTest.cpp - trace statistics & timeline tests -------===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "sim/Simulation.h"
#include "trace/Timeline.h"
#include "trace/TraceStats.h"
#include <gtest/gtest.h>

using namespace lima;
using namespace lima::trace;

namespace {

/// Two procs: p1 computes then sends twice to p2; p2 receives.
Trace makeStatsTrace() {
  Trace T(2);
  uint32_t R = T.addRegion("loop");
  uint32_t Comp = T.addActivity("comp");
  uint32_t P2P = T.addActivity("p2p");

  T.append({0.0, 0, EventKind::RegionEnter, R, 0});
  T.append({0.0, 0, EventKind::ActivityBegin, Comp, 0});
  T.append({2.0, 0, EventKind::ActivityEnd, Comp, 0});
  T.append({2.0, 0, EventKind::ActivityBegin, P2P, 0});
  T.append({2.0, 0, EventKind::MessageSend, 1, 100});
  T.append({2.1, 0, EventKind::MessageSend, 1, 300});
  T.append({2.2, 0, EventKind::ActivityEnd, P2P, 0});
  T.append({2.2, 0, EventKind::RegionExit, R, 0});

  T.append({0.0, 1, EventKind::RegionEnter, R, 0});
  T.append({0.0, 1, EventKind::ActivityBegin, P2P, 0});
  T.append({2.5, 1, EventKind::MessageRecv, 0, 100});
  T.append({2.6, 1, EventKind::MessageRecv, 0, 300});
  T.append({2.6, 1, EventKind::ActivityEnd, P2P, 0});
  T.append({2.6, 1, EventKind::RegionExit, R, 0});
  return T;
}

} // namespace

TEST(TraceStatsTest, CountsAndSpan) {
  TraceStats Stats = cantFail(computeTraceStats(makeStatsTrace()));
  EXPECT_DOUBLE_EQ(Stats.Span, 2.6);
  // Two sends and two receives: only the sends count.
  EXPECT_EQ(Stats.TotalMessages, 2u);
}

TEST(TraceStatsTest, TrafficMatrix) {
  TraceStats Stats = cantFail(computeTraceStats(makeStatsTrace()));
  EXPECT_EQ(Stats.traffic(0, 1).Messages, 2u);
  EXPECT_EQ(Stats.traffic(0, 1).Bytes, 400u);
  EXPECT_EQ(Stats.traffic(1, 0).Messages, 0u);
  EXPECT_EQ(Stats.TotalMessages, 2u);
  EXPECT_EQ(Stats.TotalBytes, 400u);
}

TEST(TraceStatsTest, MatrixRendering) {
  std::string Matrix = renderCommunicationMatrix(
      cantFail(computeTraceStats(makeStatsTrace())));
  EXPECT_NE(Matrix.find("2/400"), std::string::npos);
  EXPECT_NE(Matrix.find("from\\to"), std::string::npos);
  EXPECT_NE(Matrix.find("p2"), std::string::npos);
}

TEST(TraceStatsTest, AgreesWithSimulatorTraffic) {
  sim::SimulationOptions Options;
  Options.NumProcs = 4;
  Options.RegionNames = {"r"};
  auto Trace = cantFail(sim::simulate(Options, [](sim::Comm &C) {
    sim::RegionScope Scope(C, 0);
    unsigned Next = (C.rank() + 1) % C.size();
    unsigned Prev = (C.rank() + C.size() - 1) % C.size();
    C.send(Next, 50 * (C.rank() + 1));
    C.recv(Prev);
  }));
  TraceStats Stats = cantFail(computeTraceStats(Trace));
  EXPECT_EQ(Stats.TotalMessages, 4u);
  EXPECT_EQ(Stats.TotalBytes, 50u + 100u + 150u + 200u);
  EXPECT_EQ(Stats.traffic(2, 3).Bytes, 150u);
}

//===----------------------------------------------------------------------===//
// Timeline rendering
//===----------------------------------------------------------------------===//

TEST(TimelineTest, RendersDominantActivityPerBucket) {
  Trace T = makeStatsTrace();
  TimelineOptions Options;
  Options.Width = 13; // 0.2s buckets over the 2.6s span.
  std::string Art = cantFail(renderTimeline(T, Options));
  // Proc 1: computation (activity 0 -> 'c') for the first ~10 buckets,
  // then p2p ('p').
  EXPECT_NE(Art.find("p1 |cccccccccc"), std::string::npos);
  // Proc 2 is p2p the whole way.
  EXPECT_NE(Art.find("p2 |ppppppppppppp|"), std::string::npos);
  EXPECT_NE(Art.find("legend:"), std::string::npos);
  EXPECT_NE(Art.find("c=comp"), std::string::npos);
}

TEST(TimelineTest, EmptyTraceHandled) {
  Trace T(2);
  T.addRegion("r");
  T.addActivity("a");
  EXPECT_EQ(cantFail(renderTimeline(T)), "(empty trace)\n");
}

TEST(TimelineTest, IdleGapsBlank) {
  Trace T(1);
  uint32_t R = T.addRegion("r");
  uint32_t A = T.addActivity("a");
  T.append({0.0, 0, EventKind::RegionEnter, R, 0});
  T.append({0.0, 0, EventKind::ActivityBegin, A, 0});
  T.append({1.0, 0, EventKind::ActivityEnd, A, 0});
  // Gap from 1.0 to 3.0.
  T.append({3.0, 0, EventKind::ActivityBegin, A, 0});
  T.append({4.0, 0, EventKind::ActivityEnd, A, 0});
  T.append({4.0, 0, EventKind::RegionExit, R, 0});
  TimelineOptions Options;
  Options.Width = 4; // 1s buckets.
  std::string Art = cantFail(renderTimeline(T, Options));
  EXPECT_NE(Art.find("|c  c|"), std::string::npos);
}

TEST(TimelineTest, CustomActivityCharsAndWidth) {
  Trace T = makeStatsTrace();
  TimelineOptions Options;
  Options.Width = 5;
  Options.ActivityChars = "XY";
  Options.IdleChar = '_';
  std::string Art = cantFail(renderTimeline(T, Options));
  EXPECT_NE(Art.find('X'), std::string::npos);
  EXPECT_NE(Art.find('Y'), std::string::npos);
  EXPECT_NE(Art.find("X=comp"), std::string::npos);
  EXPECT_NE(Art.find("Y=p2p"), std::string::npos);
}
