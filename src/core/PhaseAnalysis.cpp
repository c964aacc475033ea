//===- core/PhaseAnalysis.cpp - Per-instance (temporal) analysis ----------===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "core/PhaseAnalysis.h"
#include "stats/Descriptive.h"
#include "stats/Dispersion.h"
#include "support/MathUtils.h"
#include "support/Telemetry.h"
#include "trace/Fold.h"

using namespace lima;
using namespace lima::core;

namespace {

/// The fold's sink: activity time per region instance.  A frame's tag is
/// its instance, the count of earlier enters of its region.
struct InstanceSink : trace::FoldSink {
  size_t Activities;
  unsigned Procs;
  /// PerInstance[region][instance][activity][proc] accumulated times.
  std::vector<std::vector<std::vector<std::vector<double>>>> PerInstance;
  /// Instance counter per (region, proc).
  std::vector<std::vector<size_t>> InstanceCount;

  InstanceSink(size_t Regions, size_t Activities, unsigned Procs)
      : Activities(Activities), Procs(Procs), PerInstance(Regions),
        InstanceCount(Regions, std::vector<size_t>(Procs, 0)) {}

  uint64_t enter(const trace::FoldState &State, uint32_t Region, double) {
    size_t Instance = InstanceCount[Region][State.proc()]++;
    auto &Instances = PerInstance[Region];
    if (Instances.size() <= Instance)
      Instances.resize(Instance + 1,
                       std::vector<std::vector<double>>(
                           Activities, std::vector<double>(Procs, 0.0)));
    return Instance;
  }
  bool interval(const trace::FoldState &State, uint32_t Activity,
                double Begin, double End) {
    const trace::FoldState::Frame &Frame = State.innermost();
    PerInstance[Frame.Region][Frame.Tag][Activity][State.proc()] +=
        End - Begin;
    return true;
  }
};

} // namespace

Expected<PhaseResult> core::analyzePhases(const trace::Trace &T,
                                          const ViewOptions &Options,
                                          ParseMode Mode) {
  LIMA_STAGE("phases");
  LIMA_SPAN("phases.fold");
  if (Mode == ParseMode::Strict)
    if (auto Err = T.validate())
      return Err;

  size_t N = T.numRegions();
  size_t K = T.numActivities();
  unsigned P = T.numProcs();
  InstanceSink Sink(N, K, P);
  trace::foldTrace(T, Mode, Sink);

  // All processors must agree on the instance count of each region they
  // execute at all.
  for (size_t I = 0; I != N; ++I) {
    size_t Expected = 0;
    for (unsigned Proc = 0; Proc != P; ++Proc)
      Expected = std::max(Expected, Sink.InstanceCount[I][Proc]);
    for (unsigned Proc = 0; Proc != P; ++Proc)
      if (Sink.InstanceCount[I][Proc] != Expected)
        return makeStringError(
            "region '%s': processor %u executed %zu instances, others %zu "
            "(phase analysis needs SPMD-shaped traces)",
            T.regionName(static_cast<uint32_t>(I)).c_str(), Proc,
            Sink.InstanceCount[I][Proc], Expected);
  }

  PhaseResult Result;
  Result.Series.resize(N);
  for (size_t I = 0; I != N; ++I) {
    PhaseSeries &Series = Result.Series[I];
    Series.Region = I;
    for (const auto &Activities : Sink.PerInstance[I]) {
      // Weighted dispersion across processors, exactly like ID_C but
      // restricted to this instance.
      double InstanceTotal = 0.0;
      KahanSum Weighted;
      for (size_t J = 0; J != K; ++J) {
        double Tij = stats::sum(Activities[J]) / P;
        if (Tij <= 0.0)
          continue;
        InstanceTotal += Tij;
        Weighted.add(Tij *
                     stats::imbalanceIndexAs(Options.Kind, Activities[J]));
      }
      Series.InstanceIndex.push_back(
          InstanceTotal > 0.0 ? Weighted.total() / InstanceTotal : 0.0);
      Series.InstanceTime.push_back(InstanceTotal);
    }
  }
  return Result;
}

Trend core::linearTrend(const std::vector<double> &Values) {
  Trend Result;
  size_t N = Values.size();
  if (N < 2)
    return Result;
  double MeanX = static_cast<double>(N - 1) / 2.0;
  double MeanY = stats::mean(Values);
  double Num = 0.0, Den = 0.0;
  for (size_t I = 0; I != N; ++I) {
    double DX = static_cast<double>(I) - MeanX;
    Num += DX * (Values[I] - MeanY);
    Den += DX * DX;
  }
  Result.Slope = Den > 0.0 ? Num / Den : 0.0;
  Result.RelativeSlope = MeanY != 0.0 ? Result.Slope / MeanY : 0.0;
  return Result;
}

std::string core::renderSparkline(const std::vector<double> &Values) {
  static const char Levels[] = ".:-=+*#%@";
  constexpr size_t NumLevels = sizeof(Levels) - 1;
  if (Values.empty())
    return "";
  double Lo = stats::minimum(Values);
  double Hi = stats::maximum(Values);
  std::string Out;
  Out.reserve(Values.size());
  for (double V : Values) {
    size_t Level = 0;
    if (Hi > Lo)
      Level = std::min(NumLevels - 1,
                       static_cast<size_t>((V - Lo) / (Hi - Lo) *
                                           (NumLevels - 1) +
                                           0.5));
    Out += Levels[Level];
  }
  return Out;
}
