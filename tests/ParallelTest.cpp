//===- tests/ParallelTest.cpp - Parallel execution layer tests ------------===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Covers the thread-pool layer itself (correctness under contention)
// and its contract with the analysis paths: reduction, trace stats,
// bootstrap intervals, k-means and the full pipeline must be
// bit-identical at every thread count, and malformed traces must fold
// to descriptive errors instead of crashing.
//
//===----------------------------------------------------------------------===//

#include "TestHelpers.h"
#include "cluster/KMeans.h"
#include "core/Pipeline.h"
#include "core/TraceReduction.h"
#include "stats/Bootstrap.h"
#include "support/Parallel.h"
#include "support/RNG.h"
#include "trace/TraceStats.h"
#include <atomic>
#include <gtest/gtest.h>
#include <numeric>

using namespace lima;
using lima::testutil::failed;
using lima::testutil::messageOf;

namespace {

constexpr unsigned ThreadCounts[] = {1, 2, 8};

//===----------------------------------------------------------------------===//
// Thread pool and helpers
//===----------------------------------------------------------------------===//

TEST(ThreadPoolTest, RunsEverySubmittedTaskUnderContention) {
  ThreadPool Pool(8);
  EXPECT_EQ(Pool.numThreads(), 8u);
  std::atomic<int> Counter{0};
  for (int I = 0; I != 5000; ++I)
    Pool.submit([&Counter] { Counter.fetch_add(1, std::memory_order_relaxed); });
  Pool.wait();
  EXPECT_EQ(Counter.load(), 5000);

  // The pool stays usable after a wait().
  for (int I = 0; I != 100; ++I)
    Pool.submit([&Counter] { Counter.fetch_add(1, std::memory_order_relaxed); });
  Pool.wait();
  EXPECT_EQ(Counter.load(), 5100);
}

TEST(ThreadPoolTest, WaitOnIdlePoolReturnsImmediately) {
  ThreadPool Pool(2);
  Pool.wait();
  Pool.wait();
}

TEST(ParallelForTest, VisitsEveryIndexExactlyOnce) {
  for (unsigned Threads : ThreadCounts) {
    std::vector<int> Visits(10000, 0);
    parallelFor(Visits.size(), Threads,
                [&](size_t I) { ++Visits[I]; });
    EXPECT_EQ(std::count(Visits.begin(), Visits.end(), 1),
              static_cast<ptrdiff_t>(Visits.size()))
        << "threads=" << Threads;
  }
}

TEST(ParallelForTest, HandlesEmptyAndTinyRanges) {
  int Calls = 0;
  parallelFor(0, 8, [&](size_t) { ++Calls; });
  EXPECT_EQ(Calls, 0);
  std::atomic<int> Atomic{0};
  parallelFor(3, 8, [&](size_t) { Atomic.fetch_add(1); });
  EXPECT_EQ(Atomic.load(), 3);
}

TEST(ParallelChunksTest, ChunksPartitionTheRangeContiguously) {
  std::vector<unsigned char> Covered(1000, 0);
  std::atomic<int> Chunks{0};
  parallelChunks(Covered.size(), 8,
                 [&](size_t, size_t Begin, size_t End) {
                   Chunks.fetch_add(1);
                   for (size_t I = Begin; I != End; ++I)
                     Covered[I] = 1;
                 });
  EXPECT_LE(Chunks.load(), 8);
  EXPECT_EQ(std::count(Covered.begin(), Covered.end(), 1),
            static_cast<ptrdiff_t>(Covered.size()));
}

TEST(ParallelReduceTest, IntegerSumMatchesClosedFormAtAnyThreadCount) {
  const size_t N = 100000;
  for (unsigned Threads : ThreadCounts) {
    uint64_t Sum = parallelReduce<uint64_t>(
        N, Threads, 0,
        [](uint64_t &Acc, size_t I) { Acc += I; },
        [](uint64_t &Into, uint64_t &From) { Into += From; });
    EXPECT_EQ(Sum, static_cast<uint64_t>(N) * (N - 1) / 2)
        << "threads=" << Threads;
  }
}

TEST(ParallelSupportTest, ThreadCountResolution) {
  EXPECT_GE(hardwareThreads(), 1u);
  EXPECT_EQ(resolveThreadCount(0), hardwareThreads());
  EXPECT_EQ(resolveThreadCount(1), 1u);
  EXPECT_EQ(resolveThreadCount(7), 7u);
}

TEST(ParallelSupportTest, SplitSeedDerivesDistinctDeterministicStreams) {
  EXPECT_EQ(splitSeed(42, 3), splitSeed(42, 3));
  EXPECT_NE(splitSeed(42, 3), splitSeed(42, 4));
  EXPECT_NE(splitSeed(42, 3), splitSeed(43, 3));
}

//===----------------------------------------------------------------------===//
// Bit-identical analysis across thread counts
//===----------------------------------------------------------------------===//

/// A nontrivial valid trace: nested regions, per-processor skewed
/// activity intervals, gaps, and matched message traffic.
trace::Trace makeTrace(unsigned Procs, unsigned Rounds) {
  trace::Trace T(Procs);
  uint32_t Outer = T.addRegion("outer");
  uint32_t Inner = T.addRegion("inner");
  uint32_t Comp = T.addActivity("comp");
  uint32_t P2P = T.addActivity("p2p");

  double MaxClock = 0.0;
  for (unsigned P = 0; P != Procs; ++P) {
    double Clock = 0.001 * P;
    for (unsigned R = 0; R != Rounds; ++R) {
      double Work = 0.01 + 0.001 * ((P * 7 + R) % 13);
      T.append({Clock, P, trace::EventKind::RegionEnter, Outer, 0});
      T.append({Clock, P, trace::EventKind::ActivityBegin, Comp, 0});
      Clock += Work;
      T.append({Clock, P, trace::EventKind::ActivityEnd, Comp, 0});
      T.append({Clock, P, trace::EventKind::RegionEnter, Inner, 0});
      T.append({Clock, P, trace::EventKind::ActivityBegin, P2P, 0});
      Clock += Work * 0.5;
      T.append({Clock, P, trace::EventKind::ActivityEnd, P2P, 0});
      T.append({Clock, P, trace::EventKind::RegionExit, Inner, 0});
      Clock += 0.002; // Uncovered gap inside the outer region.
      T.append({Clock, P, trace::EventKind::RegionExit, Outer, 0});
    }
    MaxClock = std::max(MaxClock, Clock);
  }
  // Matched ring traffic appended after all brackets closed.
  for (unsigned P = 0; P != Procs; ++P)
    T.append({MaxClock + 1.0, P, trace::EventKind::MessageSend,
              (P + 1) % Procs, 256});
  for (unsigned P = 0; P != Procs; ++P)
    T.append({MaxClock + 2.0, P, trace::EventKind::MessageRecv,
              (P + Procs - 1) % Procs, 256});
  return T;
}

TEST(ParallelIdentityTest, ReduceTraceIsBitIdenticalAcrossThreadCounts) {
  trace::Trace T = makeTrace(16, 20);
  core::ReductionOptions Serial;
  Serial.AttributeGaps = true;
  Serial.Threads = 1;
  core::MeasurementCube Reference = cantFail(core::reduceTrace(T, Serial));

  for (unsigned Threads : ThreadCounts) {
    core::ReductionOptions Options = Serial;
    Options.Threads = Threads;
    core::MeasurementCube Cube = cantFail(core::reduceTrace(T, Options));
    ASSERT_EQ(Cube.numRegions(), Reference.numRegions());
    ASSERT_EQ(Cube.numProcs(), Reference.numProcs());
    EXPECT_EQ(Cube.programTime(), Reference.programTime())
        << "threads=" << Threads;
    for (size_t I = 0; I != Reference.numRegions(); ++I)
      for (size_t J = 0; J != Reference.numActivities(); ++J)
        for (unsigned P = 0; P != Reference.numProcs(); ++P)
          ASSERT_EQ(Cube.time(I, J, P), Reference.time(I, J, P))
              << "threads=" << Threads << " cell (" << I << ',' << J << ','
              << P << ')';
  }
}

TEST(ParallelIdentityTest, TraceStatsAreBitIdenticalAcrossThreadCounts) {
  trace::Trace T = makeTrace(16, 20);
  trace::TraceStats Reference = cantFail(trace::computeTraceStats(T, 1));
  for (unsigned Threads : ThreadCounts) {
    trace::TraceStats Stats = cantFail(trace::computeTraceStats(T, Threads));
    EXPECT_EQ(Stats.Span, Reference.Span);
    EXPECT_EQ(Stats.TotalMessages, Reference.TotalMessages);
    EXPECT_EQ(Stats.TotalBytes, Reference.TotalBytes);
    for (unsigned From = 0; From != T.numProcs(); ++From)
      for (unsigned To = 0; To != T.numProcs(); ++To) {
        EXPECT_EQ(Stats.traffic(From, To).Messages,
                  Reference.traffic(From, To).Messages);
        EXPECT_EQ(Stats.traffic(From, To).Bytes,
                  Reference.traffic(From, To).Bytes);
      }
  }
}

TEST(ParallelIdentityTest, BootstrapIsBitIdenticalAcrossThreadCounts) {
  RNG Rng(7);
  std::vector<double> Times;
  for (int I = 0; I != 64; ++I)
    Times.push_back(Rng.uniformIn(0.5, 2.0));

  stats::BootstrapOptions Serial;
  Serial.Resamples = 2000;
  Serial.Threads = 1;
  stats::BootstrapInterval Reference =
      stats::bootstrapImbalanceCI(Times, Serial);

  for (unsigned Threads : ThreadCounts) {
    stats::BootstrapOptions Options = Serial;
    Options.Threads = Threads;
    stats::BootstrapInterval Interval =
        stats::bootstrapImbalanceCI(Times, Options);
    EXPECT_EQ(Interval.Estimate, Reference.Estimate) << "threads=" << Threads;
    EXPECT_EQ(Interval.Lower, Reference.Lower) << "threads=" << Threads;
    EXPECT_EQ(Interval.Upper, Reference.Upper) << "threads=" << Threads;
  }
}

TEST(ParallelIdentityTest, KMeansIsBitIdenticalAcrossThreadCounts) {
  RNG Rng(11);
  std::vector<std::vector<double>> Points;
  for (int I = 0; I != 400; ++I) {
    double Center = static_cast<double>(I % 3) * 10.0;
    Points.push_back({Center + Rng.normal(), Center + Rng.normal(),
                      Center + Rng.normal(), Center + Rng.normal()});
  }

  cluster::KMeansOptions Serial;
  Serial.K = 3;
  Serial.Threads = 1;
  cluster::KMeansResult Reference = cantFail(cluster::kMeans(Points, Serial));

  for (unsigned Threads : ThreadCounts) {
    cluster::KMeansOptions Options = Serial;
    Options.Threads = Threads;
    cluster::KMeansResult Result = cantFail(cluster::kMeans(Points, Options));
    EXPECT_EQ(Result.Assignments, Reference.Assignments)
        << "threads=" << Threads;
    EXPECT_EQ(Result.Centroids, Reference.Centroids) << "threads=" << Threads;
    EXPECT_EQ(Result.Inertia, Reference.Inertia) << "threads=" << Threads;
    EXPECT_EQ(Result.Iterations, Reference.Iterations)
        << "threads=" << Threads;
  }
}

TEST(ParallelIdentityTest, AnalyzeIsBitIdenticalAcrossThreadCounts) {
  trace::Trace T = makeTrace(16, 20);
  core::MeasurementCube Cube = cantFail(core::reduceTrace(T));

  core::AnalysisOptions Serial;
  Serial.Threads = 1;
  core::AnalysisResult Reference = cantFail(core::analyze(Cube, Serial));

  for (unsigned Threads : ThreadCounts) {
    core::AnalysisOptions Options = Serial;
    Options.Threads = Threads;
    core::AnalysisResult Result = cantFail(core::analyze(Cube, Options));
    EXPECT_EQ(Result.Activities.Index, Reference.Activities.Index);
    EXPECT_EQ(Result.Activities.ScaledIndex, Reference.Activities.ScaledIndex);
    EXPECT_EQ(Result.Activities.Dissimilarity,
              Reference.Activities.Dissimilarity);
    EXPECT_EQ(Result.Regions.Index, Reference.Regions.Index);
    EXPECT_EQ(Result.Regions.ScaledIndex, Reference.Regions.ScaledIndex);
    EXPECT_EQ(Result.Processors.Index, Reference.Processors.Index);
    EXPECT_EQ(Result.Processors.MostImbalancedProc,
              Reference.Processors.MostImbalancedProc);
    ASSERT_EQ(Result.Patterns.size(), Reference.Patterns.size());
    for (size_t D = 0; D != Reference.Patterns.size(); ++D) {
      EXPECT_EQ(Result.Patterns[D].Activity, Reference.Patterns[D].Activity);
      EXPECT_EQ(Result.Patterns[D].Regions, Reference.Patterns[D].Regions);
      EXPECT_EQ(Result.Patterns[D].Cells, Reference.Patterns[D].Cells);
    }
    EXPECT_EQ(Result.HasClusters, Reference.HasClusters);
    if (Result.HasClusters) {
      EXPECT_EQ(Result.Clusters.Assignments, Reference.Clusters.Assignments);
    }
  }
}

//===----------------------------------------------------------------------===//
// Malformed-trace error paths in reduceTrace
//===----------------------------------------------------------------------===//

TEST(ReduceTraceErrorTest, RegionExitWithoutEnterIsAnError) {
  trace::Trace T(1);
  uint32_t R = T.addRegion("r");
  T.addActivity("a");
  T.append({1.0, 0, trace::EventKind::RegionExit, R, 0});
  auto Result = core::reduceTrace(T);
  std::string Message = messageOf(std::move(Result));
  EXPECT_NE(Message.find("exit without matching enter"), std::string::npos)
      << Message;
}

TEST(ReduceTraceErrorTest, ActivityOutsideAnyRegionIsAnError) {
  trace::Trace T(2);
  uint32_t R = T.addRegion("r");
  uint32_t A = T.addActivity("a");
  // Proc 0 is fine; proc 1 begins an activity outside any region.
  T.append({0.0, 0, trace::EventKind::RegionEnter, R, 0});
  T.append({1.0, 0, trace::EventKind::RegionExit, R, 0});
  T.append({0.5, 1, trace::EventKind::ActivityBegin, A, 0});
  T.append({0.7, 1, trace::EventKind::ActivityEnd, A, 0});
  auto Result = core::reduceTrace(T);
  std::string Message = messageOf(std::move(Result));
  EXPECT_NE(Message.find("outside any region"), std::string::npos) << Message;
}

TEST(ReduceTraceErrorTest, ActivityEndWithoutBeginIsAnError) {
  trace::Trace T(1);
  uint32_t R = T.addRegion("r");
  uint32_t A = T.addActivity("a");
  T.append({0.0, 0, trace::EventKind::RegionEnter, R, 0});
  T.append({0.5, 0, trace::EventKind::ActivityEnd, A, 0});
  T.append({1.0, 0, trace::EventKind::RegionExit, R, 0});
  auto Result = core::reduceTrace(T);
  std::string Message = messageOf(std::move(Result));
  EXPECT_NE(Message.find("without matching begin"), std::string::npos)
      << Message;
}

TEST(ReduceTraceErrorTest, ValidTraceStillReducesAfterErrorPathsAdded) {
  trace::Trace T = makeTrace(4, 3);
  core::MeasurementCube Cube = cantFail(core::reduceTrace(T));
  EXPECT_GT(Cube.instrumentedTotal(), 0.0);
}

} // namespace
