//===- core/Measurement.h - The t[i][j][p] measurement cube -----*- C++ -*-===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The central data structure of the methodology: the wall-clock time
/// cube t[i][j][p] of Section 2 of the paper — the time processor p spent
/// in activity j of code region i — together with the aggregations the
/// analysis is built from:
///
///   t_ij = mean_p t_ijp   (region i, activity j)
///   t_i  = sum_j t_ij     (region i)
///   T_j  = sum_i t_ij     (activity j)
///   T    = program wall clock time
///
/// Aggregates use the per-processor *mean*: this is the only reading of
/// the paper consistent with all its published numbers at once — loop 1
/// lasts t_1 = 19.051s while processor 2's wall clock in it is 15.93s
/// (impossible if t_1 were a processor sum, given loop 1's small ID_C of
/// 0.048), and back-solving the scaled indices of Tables 3-4 gives a
/// program time T ~= 69.9s against a 64.75s loop sum — i.e. T is the
/// program *duration* and the instrumented loops do not cover all of it.
/// The cube therefore allows an explicit program total overriding the
/// derived sum.  All ratio-based indices (Tables 2-4) are invariant to
/// the mean-vs-sum choice as long as it is consistent.
///
//===----------------------------------------------------------------------===//

#ifndef LIMA_CORE_MEASUREMENT_H
#define LIMA_CORE_MEASUREMENT_H

#include "support/Error.h"
#include <cassert>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace lima {
namespace core {

/// The measurement cube: N code regions x K activities x P processors of
/// non-negative wall-clock seconds, with region/activity names.
class MeasurementCube {
public:
  /// Creates a zero-initialized cube.  All three extents must be >= 1 and
  /// names must be unique within their dimension.
  MeasurementCube(std::vector<std::string> RegionNames,
                  std::vector<std::string> ActivityNames, unsigned NumProcs);

  size_t numRegions() const { return RegionNames_.size(); }
  size_t numActivities() const { return ActivityNames_.size(); }
  unsigned numProcs() const { return NumProcs_; }

  const std::string &regionName(size_t I) const {
    assert(I < numRegions() && "region out of range");
    return RegionNames_[I];
  }
  const std::string &activityName(size_t J) const {
    assert(J < numActivities() && "activity out of range");
    return ActivityNames_[J];
  }
  const std::vector<std::string> &regionNames() const { return RegionNames_; }
  const std::vector<std::string> &activityNames() const {
    return ActivityNames_;
  }

  /// Mutable cell access.
  double &at(size_t I, size_t J, unsigned P) {
    return Data[index(I, J, P)];
  }
  /// t_ijp: time processor \p P spent in activity \p J of region \p I.
  double time(size_t I, size_t J, unsigned P) const {
    return Data[index(I, J, P)];
  }

  /// Adds \p Seconds to cell (I, J, P); used by the trace reduction.
  void accumulate(size_t I, size_t J, unsigned P, double Seconds) {
    assert(Seconds >= 0.0 && "cannot accumulate negative time");
    Data[index(I, J, P)] += Seconds;
  }

  /// t_ij: the wall clock of activity \p J in region \p I (mean over
  /// processors).
  double regionActivityTime(size_t I, size_t J) const;
  /// t_i: wall clock of region \p I (sum over activities of t_ij).
  double regionTime(size_t I) const;
  /// T_j: wall clock of activity \p J across all regions (sum of t_ij).
  double activityTime(size_t J) const;
  /// sum_i t_i — the program time covered by instrumented regions.
  double instrumentedTotal() const;
  /// Raw processor sum over the whole cube (sum of every cell).
  double cellSum() const;
  /// Processor \p P's wall clock within region \p I (sum over activities
  /// of the raw t_ijp) — e.g. the paper's "15.93 seconds" for processor 2
  /// in loop 1.
  double procRegionTime(size_t I, unsigned P) const;

  /// Program wall clock time T: the explicit override when set, otherwise
  /// the instrumented total.
  double programTime() const;

  /// Sets the explicit program wall clock time.  Must be >= the
  /// instrumented total at analysis time (validated by validate()).
  void setProgramTime(double Seconds) { ProgramTotal = Seconds; }
  bool hasExplicitProgramTime() const { return ProgramTotal.has_value(); }

  /// The per-processor slice t[I][J][.] as a vector of length P.
  std::vector<double> processorSlice(size_t I, size_t J) const;

  /// Every cell in storage order, read in place: region-major, then
  /// activity, then processor, so t_ijp sits at
  /// (I * numActivities() + J) * numProcs() + P.  Valid while the cube
  /// lives.
  std::span<const double> cells() const { return Data; }

  /// The activity profile of region \p I: (t_i1, ..., t_iK) — the vector
  /// each region is described by for clustering (Section 2).
  std::vector<double> activityProfile(size_t I) const;

  /// Per-processor times of processor \p P across activities of region
  /// \p I (the processor-view slice t[I][.][P]).
  std::vector<double> activitySliceForProc(size_t I, unsigned P) const;

  /// Checks invariants: non-negative cells; explicit program time (when
  /// set) not smaller than the instrumented total.
  Error validate() const;

private:
  size_t index(size_t I, size_t J, unsigned P) const {
    assert(I < numRegions() && "region out of range");
    assert(J < numActivities() && "activity out of range");
    assert(P < NumProcs_ && "processor out of range");
    return (I * numActivities() + J) * NumProcs_ + P;
  }

  std::vector<std::string> RegionNames_;
  std::vector<std::string> ActivityNames_;
  unsigned NumProcs_;
  std::vector<double> Data;
  std::optional<double> ProgramTotal;
};

} // namespace core
} // namespace lima

#endif // LIMA_CORE_MEASUREMENT_H
