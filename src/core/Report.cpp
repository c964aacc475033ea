//===- core/Report.cpp - Table and report rendering -----------------------===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "core/Report.h"
#include "support/Format.h"

using namespace lima;
using namespace lima::core;

/// Renders a time cell, using "-" for activities a region does not
/// perform (matching the paper's tables).
static std::string timeCell(double Seconds) {
  if (Seconds <= 0.0)
    return "-";
  return formatFixed(Seconds, 3);
}

static std::string indexCell(double Index) {
  if (Index <= 0.0)
    return "-";
  return formatFixed(Index, 5);
}

TextTable core::makeRegionBreakdownTable(const MeasurementCube &Cube,
                                         const CoarseProfile &Profile) {
  std::vector<std::string> Header = {"region", "overall"};
  for (size_t J = 0; J != Cube.numActivities(); ++J)
    Header.push_back(Cube.activityName(J));
  TextTable Table(std::move(Header));
  Table.setTitle("Table 1: wall clock time of the regions and breakdown "
                 "into activities (seconds)");
  Table.setAlign(0, Align::Left);
  for (const RegionTotal &Row : Profile.Regions) {
    std::vector<std::string> Cells;
    Cells.push_back(Cube.regionName(Row.Region));
    Cells.push_back(formatFixed(Row.Time, 3));
    for (double Tij : Row.ByActivity)
      Cells.push_back(timeCell(Tij));
    Table.addRow(std::move(Cells));
  }
  return Table;
}

TextTable core::makeDissimilarityTable(const MeasurementCube &Cube,
                                       const ActivityView &View) {
  std::vector<std::string> Header = {"region"};
  for (size_t J = 0; J != Cube.numActivities(); ++J)
    Header.push_back(Cube.activityName(J));
  TextTable Table(std::move(Header));
  Table.setTitle("Table 2: indices of dispersion ID_ij of the activities "
                 "performed by the regions");
  Table.setAlign(0, Align::Left);
  for (size_t I = 0; I != Cube.numRegions(); ++I) {
    std::vector<std::string> Cells;
    Cells.push_back(Cube.regionName(I));
    for (size_t J = 0; J != Cube.numActivities(); ++J)
      Cells.push_back(indexCell(View.Dissimilarity[I][J]));
    Table.addRow(std::move(Cells));
  }
  return Table;
}

TextTable core::makeActivityViewTable(const MeasurementCube &Cube,
                                      const ActivityView &View) {
  TextTable Table({"activity", "ID_A", "SID_A"});
  Table.setTitle("Table 3: summary of the indices of dispersion of the "
                 "activity view");
  Table.setAlign(0, Align::Left);
  for (size_t J = 0; J != Cube.numActivities(); ++J)
    Table.addRow({Cube.activityName(J), formatFixed(View.Index[J], 5),
                  formatFixed(View.ScaledIndex[J], 5)});
  return Table;
}

TextTable core::makeRegionViewTable(const MeasurementCube &Cube,
                                    const RegionView &View) {
  TextTable Table({"region", "ID_C", "SID_C"});
  Table.setTitle("Table 4: summary of the indices of dispersion of the "
                 "code region view");
  Table.setAlign(0, Align::Left);
  for (size_t I = 0; I != Cube.numRegions(); ++I)
    Table.addRow({Cube.regionName(I), formatFixed(View.Index[I], 5),
                  formatFixed(View.ScaledIndex[I], 5)});
  return Table;
}

TextTable core::makeProcessorViewTable(const MeasurementCube &Cube,
                                       const ProcessorView &View) {
  TextTable Table(
      {"region", "most imbalanced proc", "ID_P", "proc wall clock [s]"});
  Table.setTitle("Processor view: most imbalanced processor per region "
                 "(processors numbered from 1)");
  Table.setAlign(0, Align::Left);
  for (size_t I = 0; I != Cube.numRegions(); ++I) {
    unsigned Proc = View.MostImbalancedProc[I];
    Table.addRow({Cube.regionName(I), std::to_string(Proc + 1),
                  formatFixed(View.Index[I][Proc], 5),
                  formatFixed(Cube.procRegionTime(I, Proc), 2)});
  }
  return Table;
}

TextTable core::makeProcessorMatrixTable(const MeasurementCube &Cube,
                                         const ProcessorView &View) {
  std::vector<std::string> Header = {"region"};
  for (unsigned P = 0; P != Cube.numProcs(); ++P)
    Header.push_back(std::string("p").append(std::to_string(P + 1)));
  TextTable Table(std::move(Header));
  Table.setTitle("Processor view: full ID_P matrix");
  Table.setAlign(0, Align::Left);
  for (size_t I = 0; I != Cube.numRegions(); ++I) {
    std::vector<std::string> Row = {Cube.regionName(I)};
    for (unsigned P = 0; P != Cube.numProcs(); ++P)
      Row.push_back(View.Index[I][P] > 0.0
                        ? formatFixed(View.Index[I][P], 3)
                        : std::string("-"));
    Table.addRow(std::move(Row));
  }
  return Table;
}

std::string core::summarizeFindings(const MeasurementCube &Cube,
                                    const CoarseProfile &Profile,
                                    const ActivityView &AView,
                                    const RegionView &RView,
                                    const ProcessorView &PView) {
  std::string Out;
  Out += "The heaviest region is " +
         Cube.regionName(Profile.HeaviestRegion) + " (" +
         formatPercent(Profile.Regions[Profile.HeaviestRegion]
                           .FractionOfProgram) +
         " of the program wall clock time); the dominant activity is " +
         Cube.activityName(Profile.DominantActivity) + ".\n";
  Out += "The most imbalanced activity is " +
         Cube.activityName(AView.MostImbalanced) +
         " (ID_A = " + formatFixed(AView.Index[AView.MostImbalanced], 5) +
         "), but after scaling by its share of the program time the "
         "activity to tune is " +
         Cube.activityName(AView.MostImbalancedScaled) +
         " (SID_A = " +
         formatFixed(AView.ScaledIndex[AView.MostImbalancedScaled], 5) +
         ").\n";
  Out += "The most imbalanced region is " +
         Cube.regionName(RView.MostImbalanced) +
         " (ID_C = " + formatFixed(RView.Index[RView.MostImbalanced], 5) +
         "); weighted by region weight the best tuning candidate is " +
         Cube.regionName(RView.MostImbalancedScaled) +
         " (SID_C = " +
         formatFixed(RView.ScaledIndex[RView.MostImbalancedScaled], 5) +
         ").\n";
  unsigned Wins = PView.TimesMostImbalanced[PView.MostFrequentlyImbalanced];
  Out += "Processor " + std::to_string(PView.MostFrequentlyImbalanced + 1) +
         " is the most frequently imbalanced (" + std::to_string(Wins) +
         (Wins == 1 ? " region" : " regions") + "). Processor " +
         std::to_string(PView.LongestImbalanced + 1) +
         " is imbalanced for the longest time (" +
         formatFixed(PView.ImbalancedWallClock[PView.LongestImbalanced], 2) +
         " s).\n";
  return Out;
}

std::string core::describeClusters(const MeasurementCube &Cube,
                                   const RegionClusters &Clusters) {
  std::string Out;
  for (size_t G = 0; G != Clusters.Groups.size(); ++G) {
    Out += "group " + std::to_string(G) + ":";
    for (size_t Region : Clusters.Groups[G])
      Out += " " + Cube.regionName(Region);
    Out += "\n";
  }
  Out += "silhouette = " + formatFixed(Clusters.Silhouette, 3) + "\n";
  return Out;
}
