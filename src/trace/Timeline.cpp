//===- trace/Timeline.cpp - ASCII execution timelines ---------------------===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "trace/Timeline.h"
#include "support/Format.h"
#include "trace/Fold.h"
#include <algorithm>
#include <cassert>
#include <tuple>
#include <vector>

using namespace lima;
using namespace lima::trace;

namespace {

/// The fold's sink: each processor's (begin, end, activity) intervals in
/// its row, bucketed once the span is known, and the span.
struct IntervalSink : FoldSink {
  std::vector<std::vector<std::tuple<double, double, uint32_t>>> Rows;
  double Span = 0.0;

  bool interval(const FoldState &State, uint32_t Activity, double Begin,
                double End) {
    Rows[State.proc()].emplace_back(Begin, End, Activity);
    return true;
  }
  void end(const FoldState &State) { Span = std::max(Span, State.clock()); }
};

} // namespace

Expected<std::string> trace::renderTimeline(const Trace &T,
                                            const TimelineOptions &Options,
                                            ParseMode Mode) {
  assert(Options.Width > 0 && "timeline needs at least one bucket");
  assert(!Options.ActivityChars.empty() && "need activity characters");

  IntervalSink Sink;
  Sink.Rows.resize(T.numProcs());
  if (Error Err = foldTrace(T, Mode, Sink))
    return Err;
  double Span = Sink.Span;
  std::string Out;
  if (Span <= 0.0)
    return std::string("(empty trace)\n");

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
    for (auto [Begin, End, Activity] : Sink.Rows[Proc]) {
      if (End <= Begin)
        continue;
      unsigned FirstBucket = std::min(
          Options.Width - 1, static_cast<unsigned>(Begin / BucketWidth));
      unsigned LastBucket = std::min(
          Options.Width - 1, static_cast<unsigned>(End / BucketWidth));
      for (unsigned B = FirstBucket; B <= LastBucket; ++B) {
        double BucketBegin = B * BucketWidth;
        double BucketEnd = BucketBegin + BucketWidth;
        double Overlap =
            std::min(End, BucketEnd) - std::max(Begin, BucketBegin);
        if (Overlap > 0.0)
          Coverage[B][Activity] += Overlap;
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
