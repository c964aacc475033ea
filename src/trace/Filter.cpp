//===- trace/Filter.cpp - Trace slicing -----------------------------------===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "trace/Filter.h"
#include "trace/Fold.h"
#include <algorithm>

using namespace lima;
using namespace lima::trace;

Expected<Trace> trace::filterTrace(const Trace &T, const FilterOptions &Options,
                                   ParseMode Mode, ParseReport *Report) {
  const bool Lenient = Mode == ParseMode::Lenient;
  if (!Lenient)
    if (auto Err = T.validate())
      return Err;
  if (!(Options.TimeBegin <= Options.TimeEnd))
    return makeStringError("filter window is empty");

  // Resolve the region-name allowlist to ids.
  std::vector<bool> KeepRegion(T.numRegions(), Options.Regions.empty());
  for (const std::string &Name : Options.Regions) {
    uint32_t Id = T.findRegion(Name);
    if (Id == Trace::InvalidId)
      return makeStringError("filter: unknown region '%s'", Name.c_str());
    KeepRegion[Id] = true;
  }

  Trace Result(T.numProcs());
  for (const std::string &Name : T.regionNames())
    Result.addRegion(Name);
  for (const std::string &Name : T.activityNames())
    Result.addActivity(Name);

  ParseReport Drops;
  for (unsigned Proc = 0; Proc != T.numProcs(); ++Proc) {
    // The filter unit is the *outermost* region instance: nested child
    // regions ride along with their enclosing bracket, and the region
    // allowlist is matched against the outermost region id.
    std::vector<Event> Pending;
    unsigned Depth = 0;
    bool InstanceKept = false;
    FoldState Fold(Proc, Mode, Trace::BackwardTimeTolerance, &Drops);
    FoldSink Ignored;
    for (const Event &E : T.events(Proc)) {
      if (Lenient) {
        uint64_t DroppedBefore = Drops.DroppedRecords;
        Fold.step(Ignored, E.Time, E.Kind, E.Id, E.Bytes);
        if (Drops.DroppedRecords != DroppedBefore)
          continue; // The fold drops it, and so does the slice.
      }
      switch (E.Kind) {
      case EventKind::RegionEnter:
        if (Depth == 0) {
          InstanceKept = KeepRegion[E.Id] && E.Time >= Options.TimeBegin;
          Pending.clear();
        }
        ++Depth;
        Pending.push_back(E);
        break;
      case EventKind::RegionExit:
        Pending.push_back(E);
        --Depth;
        if (Depth == 0) {
          if (InstanceKept && E.Time <= Options.TimeEnd)
            for (const Event &Kept : Pending)
              Result.append(Kept);
          Pending.clear();
        }
        break;
      case EventKind::MessageSend:
      case EventKind::MessageRecv:
        if (Options.KeepMessages && Depth > 0)
          Pending.push_back(E);
        break;
      default:
        if (Depth > 0)
          Pending.push_back(E);
        break;
      }
    }
  }
  if (Report)
    Report->merge(Drops);
  return Result;
}
