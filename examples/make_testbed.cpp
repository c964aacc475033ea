//===- examples/make_testbed.cpp - build a local trace repository ---------===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Builds a miniature "Tracefile Testbed" (the community trace repository
// of the paper's reference [3], which the authors co-created): every
// workload in the gallery is simulated, its trace saved in the compact
// binary format, and an index CSV written with the descriptive metadata
// an analyst would search by — program, processors, events, span,
// message volume, heaviest region and the analysis' top candidate.
//
//   make_testbed --dir ./testbed
//
//===----------------------------------------------------------------------===//

#include "apps/cfd/Cfd.h"
#include "apps/gallery/BspStencil.h"
#include "apps/gallery/Decomposition.h"
#include "apps/gallery/MasterWorker.h"
#include "apps/gallery/ParticleExchange.h"
#include "core/Pipeline.h"
#include "core/TraceReduction.h"
#include "support/CSV.h"
#include "support/CommandLine.h"
#include "support/FileUtils.h"
#include "support/Format.h"
#include "support/raw_ostream.h"
#include "trace/BinaryIO.h"
#include "trace/TraceStats.h"

using namespace lima;

namespace {

struct Entry {
  std::string Name;
  trace::Trace Trace;
};

std::vector<Entry> buildTraces() {
  ExitOnError ExitOnErr("make_testbed: ");
  std::vector<Entry> Entries;

  cfd::CfdConfig Cfd;
  Cfd.Iterations = 4;
  Entries.push_back({"cfd-paper-shape", ExitOnErr(cfd::runCfd(Cfd)).Trace});

  cfd::CfdConfig Balanced = Cfd;
  Balanced.ImbalanceScale = 0.0;
  Entries.push_back(
      {"cfd-balanced", ExitOnErr(cfd::runCfd(Balanced)).Trace});

  gallery::MasterWorkerConfig Farm;
  Farm.Tasks = 300;
  Entries.push_back(
      {"task-farm", ExitOnErr(gallery::runMasterWorker(Farm))});

  gallery::BspStencilConfig Bsp;
  Bsp.Skew = 0.5;
  Entries.push_back(
      {"bsp-stencil-skewed", ExitOnErr(gallery::runBspStencil(Bsp))});

  gallery::ParticleExchangeConfig Particles;
  Particles.Steps = 10;
  Entries.push_back({"particles-migrating",
                     ExitOnErr(gallery::runParticleExchange(Particles))});

  gallery::DecompositionConfig Blocks;
  Blocks.Layout = gallery::Decomposition::Blocks2D;
  Blocks.GridN = 512;
  Entries.push_back({"stencil-2d-blocks",
                     ExitOnErr(gallery::runDecomposition(Blocks))});
  return Entries;
}

} // namespace

int main(int Argc, char **Argv) {
  ExitOnError ExitOnErr("make_testbed: ");
  ArgParser Parser("make_testbed",
                   "simulates the workload gallery and archives the "
                   "traces with an index CSV");
  Parser.addOption("dir", "output directory (must exist)", ".");
  ExitOnErr(Parser.parse(Argc, Argv));
  std::string Dir = Parser.getString("dir");

  raw_ostream &OS = outs();
  std::vector<std::vector<std::string>> Index;
  Index.push_back({"name", "file", "procs", "events", "span-s", "messages",
                   "bytes", "heaviest-region", "top-candidate", "SID_C"});

  for (Entry &E : buildTraces()) {
    std::string File = E.Name + ".limb";
    ExitOnErr(trace::saveTraceBinary(E.Trace, Dir + "/" + File));

    trace::TraceStats Stats = ExitOnErr(trace::computeTraceStats(E.Trace));
    auto Cube = ExitOnErr(core::reduceTrace(E.Trace));
    auto Analysis = ExitOnErr(core::analyze(Cube));
    size_t Candidate = Analysis.Regions.MostImbalancedScaled;
    Index.push_back(
        {E.Name, File, std::to_string(E.Trace.numProcs()),
         std::to_string(E.Trace.numEvents()), formatFixed(Stats.Span, 3),
         std::to_string(Stats.TotalMessages),
         std::to_string(Stats.TotalBytes),
         Cube.regionName(Analysis.Profile.HeaviestRegion),
         Cube.regionName(Candidate),
         formatFixed(Analysis.Regions.ScaledIndex[Candidate], 5)});
    OS << "archived " << File << " (" << E.Trace.numEvents()
       << " events)\n";
  }

  ExitOnErr(writeFile(Dir + "/index.csv", writeCSV(Index)));
  OS << "\nindex written to " << Dir << "/index.csv\n";
  OS << "re-analyze any entry with: lima_analyze " << Dir
     << "/<file>.limb --diagnose\n";
  OS.flush();
  return 0;
}
