//===- core/Measurement.cpp - The t[i][j][p] measurement cube -------------===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "core/Measurement.h"
#include "support/MathUtils.h"
#include <set>

using namespace lima;
using namespace lima::core;

MeasurementCube::MeasurementCube(std::vector<std::string> RegionNames,
                                 std::vector<std::string> ActivityNames,
                                 unsigned NumProcs)
    : RegionNames_(std::move(RegionNames)),
      ActivityNames_(std::move(ActivityNames)), NumProcs_(NumProcs) {
  assert(!RegionNames_.empty() && "cube needs at least one region");
  assert(!ActivityNames_.empty() && "cube needs at least one activity");
  assert(NumProcs_ > 0 && "cube needs at least one processor");
  assert(std::set<std::string>(RegionNames_.begin(), RegionNames_.end())
                 .size() == RegionNames_.size() &&
         "duplicate region names");
  assert(std::set<std::string>(ActivityNames_.begin(), ActivityNames_.end())
                 .size() == ActivityNames_.size() &&
         "duplicate activity names");
  Data.assign(RegionNames_.size() * ActivityNames_.size() * NumProcs_, 0.0);
}

double MeasurementCube::regionActivityTime(size_t I, size_t J) const {
  KahanSum Sum;
  for (unsigned P = 0; P != NumProcs_; ++P)
    Sum.add(time(I, J, P));
  return Sum.total() / static_cast<double>(NumProcs_);
}

double MeasurementCube::regionTime(size_t I) const {
  KahanSum Sum;
  for (size_t J = 0; J != numActivities(); ++J)
    for (unsigned P = 0; P != NumProcs_; ++P)
      Sum.add(time(I, J, P));
  return Sum.total() / static_cast<double>(NumProcs_);
}

double MeasurementCube::activityTime(size_t J) const {
  KahanSum Sum;
  for (size_t I = 0; I != numRegions(); ++I)
    for (unsigned P = 0; P != NumProcs_; ++P)
      Sum.add(time(I, J, P));
  return Sum.total() / static_cast<double>(NumProcs_);
}

double MeasurementCube::instrumentedTotal() const {
  return sumKahan(Data) / static_cast<double>(NumProcs_);
}

double MeasurementCube::cellSum() const { return sumKahan(Data); }

double MeasurementCube::procRegionTime(size_t I, unsigned P) const {
  KahanSum Sum;
  for (size_t J = 0; J != numActivities(); ++J)
    Sum.add(time(I, J, P));
  return Sum.total();
}

double MeasurementCube::programTime() const {
  // Not value_or: its argument would sum the whole cube on every call.
  return ProgramTotal ? *ProgramTotal : instrumentedTotal();
}

std::vector<double> MeasurementCube::processorSlice(size_t I, size_t J) const {
  std::vector<double> Slice(NumProcs_);
  for (unsigned P = 0; P != NumProcs_; ++P)
    Slice[P] = time(I, J, P);
  return Slice;
}

std::vector<double> MeasurementCube::activityProfile(size_t I) const {
  std::vector<double> Profile(numActivities());
  for (size_t J = 0; J != numActivities(); ++J)
    Profile[J] = regionActivityTime(I, J);
  return Profile;
}

std::vector<double> MeasurementCube::activitySliceForProc(size_t I,
                                                          unsigned P) const {
  std::vector<double> Slice(numActivities());
  for (size_t J = 0; J != numActivities(); ++J)
    Slice[J] = time(I, J, P);
  return Slice;
}

Error MeasurementCube::validate() const {
  for (size_t I = 0; I != numRegions(); ++I)
    for (size_t J = 0; J != numActivities(); ++J)
      for (unsigned P = 0; P != NumProcs_; ++P)
        if (time(I, J, P) < 0.0)
          return makeStringError(
              "cube cell (%zu, %zu, %u) is negative: %g", I, J, P,
              time(I, J, P));
  if (ProgramTotal) {
    double Instrumented = instrumentedTotal();
    // Allow a relative epsilon so cubes built from traces round-trip.
    if (*ProgramTotal < Instrumented * (1.0 - 1e-9) - 1e-12)
      return makeStringError("explicit program time %g is smaller than the "
                             "instrumented total %g",
                             *ProgramTotal, Instrumented);
  }
  return Error::success();
}
