//===- trace/Timeline.cpp - ASCII execution timelines ---------------------===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "trace/Timeline.h"
#include "support/Format.h"
#include <algorithm>
#include <cassert>
#include <vector>

using namespace lima;
using namespace lima::trace;

std::string trace::renderTimeline(const Trace &T,
                                  const TimelineOptions &Options) {
  assert(Options.Width > 0 && "timeline needs at least one bucket");
  assert(!Options.ActivityChars.empty() && "need activity characters");

  // Find the span.
  double Span = 0.0;
  for (unsigned Proc = 0; Proc != T.numProcs(); ++Proc)
    for (const Event &E : T.events(Proc))
      Span = std::max(Span, E.Time);
  std::string Out;
  if (Span <= 0.0)
    return "(empty trace)\n";

  double BucketWidth = Span / Options.Width;
  auto activityChar = [&](uint32_t Activity) {
    return Options.ActivityChars[Activity % Options.ActivityChars.size()];
  };

  size_t LabelWidth = 0;
  for (unsigned Proc = 0; Proc != T.numProcs(); ++Proc)
    LabelWidth = std::max(LabelWidth, 1 + std::to_string(Proc + 1).size());

  for (unsigned Proc = 0; Proc != T.numProcs(); ++Proc) {
    // Coverage[bucket][activity]: seconds of that activity in the bucket.
    std::vector<std::vector<double>> Coverage(
        Options.Width, std::vector<double>(T.numActivities(), 0.0));
    double Begin = 0.0;
    bool Open = false;
    uint32_t Current = 0;
    auto deposit = [&](double From, double To, uint32_t Activity) {
      if (To <= From)
        return;
      unsigned FirstBucket = std::min(
          Options.Width - 1, static_cast<unsigned>(From / BucketWidth));
      unsigned LastBucket = std::min(
          Options.Width - 1, static_cast<unsigned>(To / BucketWidth));
      for (unsigned B = FirstBucket; B <= LastBucket; ++B) {
        double BucketBegin = B * BucketWidth;
        double BucketEnd = BucketBegin + BucketWidth;
        double Overlap =
            std::min(To, BucketEnd) - std::max(From, BucketBegin);
        if (Overlap > 0.0)
          Coverage[B][Activity] += Overlap;
      }
    };
    for (const Event &E : T.events(Proc)) {
      if (E.Kind == EventKind::ActivityBegin) {
        Begin = E.Time;
        Current = E.Id;
        Open = true;
      } else if (E.Kind == EventKind::ActivityEnd && Open) {
        deposit(Begin, E.Time, Current);
        Open = false;
      }
    }

    std::string Label = "p";
    Label += std::to_string(Proc + 1);
    Out += leftJustify(Label, LabelWidth);
    Out += " |";
    for (unsigned B = 0; B != Options.Width; ++B) {
      double Best = 0.0;
      uint32_t BestActivity = 0;
      for (uint32_t A = 0; A != T.numActivities(); ++A) {
        if (Coverage[B][A] > Best) {
          Best = Coverage[B][A];
          BestActivity = A;
        }
      }
      Out += Best > 0.0 ? activityChar(BestActivity) : Options.IdleChar;
    }
    Out += "|\n";
  }

  // Time axis and legend.
  Out += leftJustify("", LabelWidth) + " 0";
  Out.append(Options.Width - 1, ' ');
  Out += formatGeneral(Span) + "s\n";
  Out += "legend:";
  for (uint32_t A = 0; A != T.numActivities(); ++A) {
    Out += ' ';
    Out += activityChar(A);
    Out += '=';
    Out += T.activityName(A);
  }
  Out += "  (blank = outside activities)\n";
  return Out;
}
