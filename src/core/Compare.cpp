//===- core/Compare.cpp - Before/after run comparison ---------------------===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "core/Compare.h"
#include "support/Compiler.h"
#include "support/Format.h"
#include <cmath>

using namespace lima;
using namespace lima::core;

std::string_view core::regionVerdictName(RegionVerdict Verdict) {
  switch (Verdict) {
  case RegionVerdict::Improved:
    return "improved";
  case RegionVerdict::Regressed:
    return "regressed";
  case RegionVerdict::Unchanged:
    return "unchanged";
  }
  lima_unreachable("unknown RegionVerdict");
}

Expected<RunComparison> core::compareRuns(const MeasurementCube &Before,
                                          const MeasurementCube &After,
                                          const CompareOptions &Options) {
  if (Before.regionNames() != After.regionNames())
    return makeStringError("cubes disagree on the region set");
  if (Before.activityNames() != After.activityNames())
    return makeStringError("cubes disagree on the activity set");

  RegionView ViewBefore = computeViews(Before, Options.Views).Regions;
  RegionView ViewAfter = computeViews(After, Options.Views).Regions;

  RunComparison Comparison;
  Comparison.ProgramTimeBefore = Before.programTime();
  Comparison.ProgramTimeAfter = After.programTime();
  Comparison.Speedup = Comparison.ProgramTimeAfter > 0.0
                           ? Comparison.ProgramTimeBefore /
                                 Comparison.ProgramTimeAfter
                           : 1.0;

  for (size_t I = 0; I != Before.numRegions(); ++I) {
    RegionDelta Delta;
    Delta.Region = I;
    Delta.TimeBefore = Before.regionTime(I);
    Delta.TimeAfter = After.regionTime(I);
    Delta.IndexBefore = ViewBefore.Index[I];
    Delta.IndexAfter = ViewAfter.Index[I];

    double TimeBase = std::max(Delta.TimeBefore, 1e-12);
    double RelativeTime = (Delta.TimeAfter - Delta.TimeBefore) / TimeBase;
    double IndexChange = Delta.IndexAfter - Delta.IndexBefore;
    bool TimeMoved = std::fabs(RelativeTime) > Options.TimeTolerance;
    bool IndexMoved = std::fabs(IndexChange) > Options.IndexTolerance;
    if (!TimeMoved && !IndexMoved)
      Delta.Verdict = RegionVerdict::Unchanged;
    else if (RelativeTime <= Options.TimeTolerance &&
             IndexChange <= Options.IndexTolerance)
      Delta.Verdict = RegionVerdict::Improved;
    else if (RelativeTime >= -Options.TimeTolerance &&
             IndexChange >= -Options.IndexTolerance)
      Delta.Verdict = RegionVerdict::Regressed;
    else
      Delta.Verdict = RegionVerdict::Unchanged; // Mixed signals.
    Comparison.Regions.push_back(Delta);
  }
  return Comparison;
}

TextTable core::makeComparisonTable(const MeasurementCube &Before,
                                    const RunComparison &Comparison) {
  TextTable Table({"region", "time before [s]", "time after [s]",
                   "ID before", "ID after", "verdict"});
  Table.setTitle("Before/after comparison (speedup " +
                 formatFixed(Comparison.Speedup, 2) + "x)");
  Table.setAlign(0, Align::Left);
  Table.setAlign(5, Align::Left);
  for (const RegionDelta &Delta : Comparison.Regions)
    Table.addRow({Before.regionName(Delta.Region),
                  formatFixed(Delta.TimeBefore, 3),
                  formatFixed(Delta.TimeAfter, 3),
                  formatFixed(Delta.IndexBefore, 4),
                  formatFixed(Delta.IndexAfter, 4),
                  std::string(regionVerdictName(Delta.Verdict))});
  return Table;
}
