//===- tests/GalleryTest.cpp - workload-gallery tests ---------------------===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "apps/gallery/BspStencil.h"
#include "apps/gallery/Decomposition.h"
#include "apps/gallery/MasterWorker.h"
#include "apps/gallery/ParticleExchange.h"
#include "core/Profile.h"
#include "core/TraceReduction.h"
#include "core/Views.h"
#include "trace/TraceIO.h"
#include "trace/TraceStats.h"
#include "TestHelpers.h"
#include <gtest/gtest.h>

using namespace lima;
using namespace lima::gallery;

//===----------------------------------------------------------------------===//
// Master-worker task farm
//===----------------------------------------------------------------------===//

TEST(MasterWorkerTest, RunsAndValidates) {
  MasterWorkerConfig Config;
  Config.Procs = 5;
  Config.Tasks = 40;
  auto Trace = cantFail(runMasterWorker(Config));
  Error E = Trace.validate();
  EXPECT_FALSE(static_cast<bool>(E));
  // Every task produces a master->worker message plus the stop messages,
  // and each worker sends one request per task plus the initial one.
  trace::TraceStats Stats = cantFail(trace::computeTraceStats(Trace));
  EXPECT_EQ(Stats.TotalMessages,
            (40u + 4u) /* tasks + stops */ + (40u + 4u) /* requests */);
}

TEST(MasterWorkerTest, SelfSchedulingBalancesVariableTasks) {
  MasterWorkerConfig Config;
  Config.Procs = 9;
  Config.Tasks = 400; // 50 tasks per worker: plenty to self-balance.
  Config.TaskSizeSigma = 1.0;
  auto Trace = cantFail(runMasterWorker(Config));
  auto Cube = cantFail(core::reduceTrace(Trace));
  // Computation dispersion across the *workers* must be small.  The
  // idle master contributes no computation, so exclude it by hand.
  std::vector<double> WorkerComp;
  for (unsigned P = 1; P != Config.Procs; ++P)
    WorkerComp.push_back(Cube.time(0, 0, P));
  EXPECT_LT(stats::imbalanceIndex(WorkerComp), 0.05);
}

TEST(MasterWorkerTest, CoarseTasksRecreateImbalance) {
  MasterWorkerConfig Fine, Coarse;
  Fine.Procs = Coarse.Procs = 9;
  Fine.Tasks = 400;
  Coarse.Tasks = 10; // Barely more tasks than workers.
  Fine.TaskSizeSigma = Coarse.TaskSizeSigma = 1.0;

  auto fineIndex = [](const MasterWorkerConfig &Config) {
    auto Trace = cantFail(runMasterWorker(Config));
    auto Cube = cantFail(core::reduceTrace(Trace));
    std::vector<double> WorkerComp;
    for (unsigned P = 1; P != Config.Procs; ++P)
      WorkerComp.push_back(Cube.time(0, 0, P));
    return stats::imbalanceIndex(WorkerComp);
  };
  EXPECT_GT(fineIndex(Coarse), 3.0 * fineIndex(Fine));
}

TEST(MasterWorkerTest, MasterIsCommunicationBound) {
  MasterWorkerConfig Config;
  Config.Procs = 5;
  Config.Tasks = 60;
  auto Trace = cantFail(runMasterWorker(Config));
  auto Cube = cantFail(core::reduceTrace(Trace));
  // Master (proc 0): p2p time dwarfs computation.
  EXPECT_GT(Cube.time(0, 1, 0), 5.0 * Cube.time(0, 0, 0));
}

TEST(MasterWorkerTest, RejectsDegenerateConfig) {
  MasterWorkerConfig Config;
  Config.Procs = 1;
  EXPECT_TRUE(testutil::failed(runMasterWorker(Config)));
  Config.Procs = 4;
  Config.Tasks = 0;
  EXPECT_TRUE(testutil::failed(runMasterWorker(Config)));
}

//===----------------------------------------------------------------------===//
// BSP stencil
//===----------------------------------------------------------------------===//

TEST(BspStencilTest, RunsAndValidates) {
  BspStencilConfig Config;
  Config.Procs = 6;
  Config.Steps = 5;
  auto Trace = cantFail(runBspStencil(Config));
  Error E = Trace.validate();
  EXPECT_FALSE(static_cast<bool>(E));
}

TEST(BspStencilTest, BarrierConvertsSkewToSynchronization) {
  BspStencilConfig Config;
  Config.Procs = 8;
  Config.Steps = 10;
  Config.Skew = 0.5;
  auto Trace = cantFail(runBspStencil(Config));
  auto Cube = cantFail(core::reduceTrace(Trace));
  // The lightest rank (0) waits in the barrier roughly the skew of the
  // heaviest rank's compute.
  double Sync0 = Cube.time(0, 3, 0);
  double SyncLast = Cube.time(0, 3, Config.Procs - 1);
  EXPECT_GT(Sync0, 5.0 * std::max(SyncLast, 1e-9));
  // Total sync share is substantial.
  double SyncShare = Cube.activityTime(3) / Cube.instrumentedTotal();
  EXPECT_GT(SyncShare, 0.1);
}

TEST(BspStencilTest, BalancedRunHasAlmostNoSyncTime) {
  BspStencilConfig Config;
  Config.Procs = 8;
  Config.Steps = 10;
  Config.Skew = 0.0;
  auto Trace = cantFail(runBspStencil(Config));
  auto Cube = cantFail(core::reduceTrace(Trace));
  double SyncShare = Cube.activityTime(3) / Cube.instrumentedTotal();
  EXPECT_LT(SyncShare, 0.02);
}

TEST(BspStencilTest, SynchronizationIndexTracksSkew) {
  auto syncIndex = [](double Skew) {
    BspStencilConfig Config;
    Config.Procs = 8;
    Config.Steps = 6;
    Config.Skew = Skew;
    auto Trace = cantFail(runBspStencil(Config));
    auto Cube = cantFail(core::reduceTrace(Trace));
    auto Matrix = core::computeDissimilarityMatrix(Cube);
    return Matrix[0][3];
  };
  EXPECT_GT(syncIndex(0.8), syncIndex(0.2));
}

//===----------------------------------------------------------------------===//
// Particle exchange
//===----------------------------------------------------------------------===//

TEST(ParticleExchangeTest, RunsAndValidates) {
  ParticleExchangeConfig Config;
  Config.Procs = 6;
  Config.Steps = 4;
  auto Trace = cantFail(runParticleExchange(Config));
  Error E = Trace.validate();
  EXPECT_FALSE(static_cast<bool>(E));
  EXPECT_EQ(Trace.numRegions(), 2u);
}

TEST(ParticleExchangeTest, LoadPilesUpOnHighRanks) {
  ParticleExchangeConfig Config;
  Config.Procs = 8;
  Config.Steps = 12;
  Config.MigrationFraction = 0.1;
  auto Trace = cantFail(runParticleExchange(Config));
  auto Cube = cantFail(core::reduceTrace(Trace));
  // Aggregate compute of the last rank exceeds the first rank's.
  EXPECT_GT(Cube.time(0, 0, Config.Procs - 1), Cube.time(0, 0, 0));
}

TEST(ParticleExchangeTest, RejectsBadMigrationFraction) {
  ParticleExchangeConfig Config;
  Config.MigrationFraction = 1.5;
  EXPECT_TRUE(testutil::failed(runParticleExchange(Config)));
}

TEST(GalleryTest, AllProgramsAreDeterministic) {
  MasterWorkerConfig MW;
  MW.Procs = 4;
  MW.Tasks = 20;
  auto A = cantFail(runMasterWorker(MW));
  auto B = cantFail(runMasterWorker(MW));
  EXPECT_EQ(trace::writeTraceText(A), trace::writeTraceText(B));

  BspStencilConfig Bsp;
  Bsp.Procs = 4;
  Bsp.Steps = 3;
  auto C = cantFail(runBspStencil(Bsp));
  auto D = cantFail(runBspStencil(Bsp));
  EXPECT_EQ(trace::writeTraceText(C), trace::writeTraceText(D));

  ParticleExchangeConfig Px;
  Px.Procs = 4;
  Px.Steps = 3;
  auto E = cantFail(runParticleExchange(Px));
  auto F = cantFail(runParticleExchange(Px));
  EXPECT_EQ(trace::writeTraceText(E), trace::writeTraceText(F));
}

//===----------------------------------------------------------------------===//
// Decomposition study
//===----------------------------------------------------------------------===//

TEST(DecompositionTest, BothLayoutsRunAndValidate) {
  DecompositionConfig Config;
  Config.Procs = 16;
  Config.GridN = 64;
  Config.Steps = 3;
  for (Decomposition Layout :
       {Decomposition::Strips1D, Decomposition::Blocks2D}) {
    Config.Layout = Layout;
    auto Trace = cantFail(runDecomposition(Config));
    Error E = Trace.validate();
    EXPECT_FALSE(static_cast<bool>(E)) << decompositionName(Layout);
  }
}

TEST(DecompositionTest, CommunicationVolumeMatchesSurfaceModel) {
  DecompositionConfig Config;
  Config.Procs = 16;
  Config.GridN = 128;
  Config.Steps = 2;
  Config.Layout = Decomposition::Strips1D;
  auto Strips = cantFail(runDecomposition(Config));
  Config.Layout = Decomposition::Blocks2D;
  auto Blocks = cantFail(runDecomposition(Config));

  trace::TraceStats StripStats = cantFail(trace::computeTraceStats(Strips));
  trace::TraceStats BlockStats = cantFail(trace::computeTraceStats(Blocks));
  // Strips: 2*(P-1) messages of N cells per step.
  EXPECT_EQ(StripStats.TotalMessages, 2u * 15u * 2u);
  EXPECT_EQ(StripStats.TotalBytes, 2ull * 15 * 2 * 128 * 8);
  // Blocks (4x4): 2 * (2 * Side * (Side-1)) = 48 messages of N/4 cells.
  EXPECT_EQ(BlockStats.TotalMessages, 48u * 2u);
  EXPECT_EQ(BlockStats.TotalBytes, 48ull * 2 * 32 * 8);
  // 2-D moves less data in total even at this modest size.
  EXPECT_LT(BlockStats.TotalBytes, StripStats.TotalBytes);
}

TEST(DecompositionTest, CrossoverDirectionMatchesTheory) {
  DecompositionConfig Config;
  Config.Procs = 16;
  Config.Steps = 3;
  auto p2p = [&](Decomposition Layout, unsigned GridN) {
    Config.Layout = Layout;
    Config.GridN = GridN;
    auto Cube =
        cantFail(core::reduceTrace(cantFail(runDecomposition(Config))));
    return Cube.regionActivityTime(0, 1);
  };
  // Small grid: latency dominates, strips (fewer messages) win.
  EXPECT_LT(p2p(Decomposition::Strips1D, 64),
            p2p(Decomposition::Blocks2D, 64));
  // Large grid: bandwidth dominates, blocks (less data) win.
  EXPECT_GT(p2p(Decomposition::Strips1D, 4096),
            p2p(Decomposition::Blocks2D, 4096));
}

TEST(DecompositionTest, RejectsNonSquareBlockCounts) {
  DecompositionConfig Config;
  Config.Procs = 6;
  Config.Layout = Decomposition::Blocks2D;
  EXPECT_TRUE(testutil::failed(runDecomposition(Config)));
  Config.Procs = 16;
  Config.GridN = 130; // Not divisible by 4.
  EXPECT_TRUE(testutil::failed(runDecomposition(Config)));
}
