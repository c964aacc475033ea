//===- tests/StreamParserTest.cpp - Incremental parser tests --------------===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "trace/StreamParser.h"
#include "support/FileUtils.h"
#include "support/MappedFile.h"
#include "support/Metrics.h"
#include "trace/TraceIO.h"
#include "TestHelpers.h"
#include "TextParserReference.h"
#include "TraceCompare.h"
#include <cstdio>
#include <optional>
#include <gtest/gtest.h>

using namespace lima;
using namespace lima::trace;

namespace {

const char *SampleTrace = "LIMATRACE 1\n"
                          "procs 2\n"
                          "region 0 main\n"
                          "activity 0 comp\n"
                          "# a comment\n"
                          "re 0 0.0 0\n"
                          "ab 0 0.0 0\n"
                          "ae 0 1.0 0\n"
                          "rx 0 1.0 0\n"
                          "re 1 0.0 0\n"
                          "ab 1 0.0 0\n"
                          "ae 1 2.0 0\n"
                          "rx 1 2.0 0\n";

/// Feeds \p Text in chunks of \p ChunkSize bytes and returns all events;
/// the parser's eventsParsed() goes to \p Parsed when given.
Expected<std::vector<Event>> parseChunked(std::string_view Text,
                                          size_t ChunkSize,
                                          ParseOptions Options = {},
                                          uint64_t *Parsed = nullptr) {
  StreamParser P(Options);
  std::vector<Event> Events;
  for (size_t I = 0; I < Text.size(); I += ChunkSize) {
    if (auto Err = P.feed(Text.substr(I, ChunkSize), Events))
      return Err;
  }
  if (auto Err = P.finish(Events))
    return Err;
  if (Parsed)
    *Parsed = P.eventsParsed();
  return Events;
}

/// \p Events appended to a trace with \p Like's processors and names,
/// so a stream parse can be compared column by column with a batch one.
Trace rebuild(const std::vector<Event> &Events, const Trace &Like) {
  Trace T(Like.numProcs());
  for (const std::string &Name : Like.regionNames())
    T.addRegion(Name);
  for (const std::string &Name : Like.activityNames())
    T.addActivity(Name);
  for (const Event &E : Events)
    T.append(E);
  return T;
}

} // namespace

TEST(StreamParserTest, MatchesBatchParserAtAnyChunkSize) {
  Trace Whole = cantFail(parseTraceText(SampleTrace));
  size_t Total = 0;
  for (unsigned P = 0; P != Whole.numProcs(); ++P)
    Total += Whole.events(P).size();
  // The parser bumps lima.stream.events_total once per feed() or
  // finish() call; at every chunk size it must still add up to the
  // parser's own count, also when the last event arrives in finish()
  // as an unterminated line.
  std::string_view Terminated = SampleTrace;
  std::string_view Unterminated = Terminated.substr(0, Terminated.size() - 1);
  metrics::setEnabled(true);
  metrics::Counter &Counted = metrics::counter("lima.stream.events_total");
  for (std::string_view Text : {Terminated, Unterminated})
    for (size_t Chunk : {size_t(1), size_t(7), size_t(64), size_t(4096)}) {
      [[maybe_unused]] uint64_t Before = Counted.value();
      uint64_t Parsed = 0;
      auto EventsOrErr = parseChunked(Text, Chunk, {}, &Parsed);
      ASSERT_TRUE(static_cast<bool>(EventsOrErr)) << "chunk " << Chunk;
      EXPECT_EQ(EventsOrErr->size(), Total) << "chunk " << Chunk;
      EXPECT_EQ(Parsed, Total) << "chunk " << Chunk;
      EXPECT_TRUE(
          testutil::sameEventColumns(rebuild(*EventsOrErr, Whole), Whole))
          << "chunk " << Chunk;
#if LIMA_TELEMETRY
      EXPECT_EQ(Counted.value() - Before, Parsed) << "chunk " << Chunk;
#endif
    }
  metrics::setEnabled(false);
}

TEST(StreamParserTest, HeaderTablesExposed) {
  StreamParser P;
  std::vector<Event> Events;
  ASSERT_FALSE(P.feed(SampleTrace, Events));
  EXPECT_TRUE(P.headerComplete());
  EXPECT_EQ(P.numProcs(), 2u);
  ASSERT_EQ(P.regionNames().size(), 1u);
  EXPECT_EQ(P.regionNames()[0], "main");
  ASSERT_EQ(P.activityNames().size(), 1u);
  EXPECT_EQ(P.activityNames()[0], "comp");
  EXPECT_EQ(P.eventsParsed(), 8u);
}

TEST(StreamParserTest, TrailingLineParsedAtFinish) {
  StreamParser P;
  std::vector<Event> Events;
  // No trailing newline on the last event.
  ASSERT_FALSE(P.feed("LIMATRACE 1\nprocs 1\nregion 0 r\nactivity 0 a\n"
                      "re 0 0.5 0",
                      Events));
  EXPECT_EQ(Events.size(), 0u); // Line incomplete until finish.
  ASSERT_FALSE(P.finish(Events));
  ASSERT_EQ(Events.size(), 1u);
  EXPECT_EQ(Events[0].Kind, EventKind::RegionEnter);
  EXPECT_DOUBLE_EQ(Events[0].Time, 0.5);
}

TEST(StreamParserTest, MissingHeaderFailsAtFinish) {
  StreamParser P;
  std::vector<Event> Events;
  EXPECT_TRUE(testutil::failed(P.finish(Events)));

  StreamParser P2;
  ASSERT_FALSE(P2.feed("LIMATRACE 1\n", Events));
  EXPECT_TRUE(testutil::failed(P2.finish(Events))); // No 'procs'.
}

TEST(StreamParserTest, BadMagicFailsImmediately) {
  StreamParser P;
  std::vector<Event> Events;
  EXPECT_TRUE(testutil::failed(P.feed("NOTATRACE 1\n", Events)));
}

TEST(StreamParserTest, StrictModeFailsOnMalformedRecord) {
  StreamParser P;
  std::vector<Event> Events;
  EXPECT_TRUE(testutil::failed(
      P.feed("LIMATRACE 1\nprocs 1\nregion 0 r\nactivity 0 a\n"
             "re 0 notanumber 0\n",
             Events)));
}

TEST(StreamParserTest, LenientModeDropsAndCounts) {
  ParseReport Report;
  ParseOptions Options;
  Options.Mode = ParseMode::Lenient;
  Options.Report = &Report;
  StreamParser P(Options);
  std::vector<Event> Events;
  ASSERT_FALSE(P.feed("LIMATRACE 1\nprocs 1\nregion 0 r\nactivity 0 a\n"
                      "re 0 notanumber 0\n"
                      "zz 0 1.0 0\n"
                      "re 0 1.0 0\n",
                      Events));
  ASSERT_FALSE(P.finish(Events));
  EXPECT_EQ(Events.size(), 1u);
  EXPECT_EQ(Report.TotalRecords, 3u);
  EXPECT_EQ(Report.DroppedRecords, 2u);
}

TEST(StreamParserTest, NonFiniteTimesRejected) {
  // strtod accepts "inf" and "nan"; a non-finite time reaching the
  // windowed analyzer would hang or invoke undefined behavior, so the
  // parser must reject it like a negative time.
  for (const char *Time : {"inf", "-inf", "nan", "Infinity", "NAN"}) {
    StreamParser P;
    std::vector<Event> Events;
    std::string Text = "LIMATRACE 1\nprocs 1\nregion 0 r\nactivity 0 a\n"
                       "re 0 " +
                       std::string(Time) + " 0\n";
    EXPECT_TRUE(testutil::failed(P.feed(Text, Events))) << Time;
  }
}

TEST(StreamParserTest, OverlongPartialLineRejected) {
  ParseOptions Options;
  Options.Limits.MaxLineBytes = 16;
  StreamParser P(Options);
  std::vector<Event> Events;
  std::string Long(64, 'x'); // No newline: still must fail fast.
  EXPECT_TRUE(testutil::failed(P.feed(Long, Events)));
}

TEST(StreamParserTest, EventLimitEnforced) {
  ParseOptions Options;
  Options.Limits.MaxEvents = 2;
  StreamParser P(Options);
  std::vector<Event> Events;
  EXPECT_TRUE(testutil::failed(
      P.feed("LIMATRACE 1\nprocs 1\nregion 0 r\nactivity 0 a\n"
             "re 0 0.0 0\nab 0 0.1 0\nae 0 0.2 0\n",
             Events)));
}

TEST(StreamParserTest, InPlaceScanKeepsLimitsLinesAndOffsets) {
  // A chunk that holds a canonical line whole parses it in place; a
  // chunk of a few bytes cuts every line, which then takes the buffered
  // path.  Both must give the same events, and fail at the same line
  // and byte offset with the same message.  The header is 4 lines, 44
  // bytes.
  const std::string Header =
      "LIMATRACE 1\nprocs 1\nregion 0 r\nactivity 0 a\n";
  struct Case {
    const char *Name;
    std::string Body;
    ParseLimits Limits;
    size_t Events;   ///< Without an error.
    size_t FailLine; ///< 0: no error.
    size_t FailOffset;
    const char *Message;
  };
  ParseLimits TwoEvents, ShortLines;
  TwoEvents.MaxEvents = 2;
  ShortLines.MaxLineBytes = 12;
  const Case Cases[] = {
      {"line ends", "re 0 0.0 0\r\n\tab 0 0.1 0\nae 0 0.2 0 \t\n\n# c\nrx 0 0.2 0",
       {}, 4, 0, 0, ""},
      {"event limit", "re 0 0.0 0\nab 0 0.1 0\nae 0 0.2 0\n", TwoEvents, 0, 7,
       66, "trace line 7: event count exceeds the limit"},
      {"line limit", "re 0 0.0 0\nab 0 0.123456789 0\n", ShortLines, 0, 6, 55,
       "trace line 6: line exceeds the length limit"}};
  for (const Case &C : Cases) {
    std::string Text = Header + C.Body;
    ParseOptions Options;
    Options.Limits = C.Limits;
    std::vector<Event> First;
    for (size_t Chunk : {Text.size(), size_t(1), size_t(5)}) {
      std::string Context =
          std::string(C.Name) + ", chunk " + std::to_string(Chunk);
      auto EventsOrErr = parseChunked(Text, Chunk, Options);
      if (C.FailLine == 0) {
        ASSERT_TRUE(static_cast<bool>(EventsOrErr)) << Context;
        ASSERT_EQ(EventsOrErr->size(), C.Events) << Context;
        if (First.empty())
          First = *EventsOrErr;
        for (size_t I = 0; I != First.size(); ++I) {
          EXPECT_EQ((*EventsOrErr)[I].Time, First[I].Time) << Context;
          EXPECT_EQ((*EventsOrErr)[I].Kind, First[I].Kind) << Context;
        }
        continue;
      }
      ASSERT_FALSE(static_cast<bool>(EventsOrErr)) << Context;
      ParseError PE = EventsOrErr.takeError().toParseError();
      EXPECT_EQ(PE.Code, ErrorCode::LimitExceeded) << Context;
      EXPECT_EQ(PE.Line, C.FailLine) << Context;
      EXPECT_EQ(PE.Offset, C.FailOffset) << Context;
      EXPECT_EQ(PE.Msg, C.Message) << Context;
    }
  }
}

TEST(StreamParserTest, ChargesTheProcessorTableAtProcs) {
  // The monitor's analyzer keeps per-processor state, so the stream
  // charges the processor table at 'procs', as a batch parse does.  The
  // events go on to the analyzer, which does not keep them, so they
  // are not charged: the cap that holds the tables holds the stream.
  const std::string Text = "LIMATRACE 1\nprocs 2\nregion 0 ab\n"
                           "re 0 1.0 0\nrx 0 2.0 0\n";
  for (size_t Chunk : {size_t(1), size_t(7), Text.size()}) {
    ParseOptions Options;
    Options.Limits.MaxAllocBytes = 2 * sizeof(std::vector<Event>) - 1;
    auto EventsOrErr = parseChunked(Text, Chunk, Options);
    ASSERT_FALSE(static_cast<bool>(EventsOrErr)) << "chunk " << Chunk;
    ParseError PE = EventsOrErr.takeError().toParseError();
    EXPECT_EQ(PE.Code, ErrorCode::LimitExceeded) << "chunk " << Chunk;
    EXPECT_EQ(PE.Line, 2u) << "chunk " << Chunk;
    EXPECT_EQ(PE.Offset, 12u) << "chunk " << Chunk;
    EXPECT_EQ(PE.Msg,
              "trace line 2: processor table exceeds the allocation cap")
        << "chunk " << Chunk;

    Options.Limits.MaxAllocBytes =
        2 * sizeof(std::vector<Event>) + sizeof(std::string);
    auto Streamed = parseChunked(Text, Chunk, Options);
    ASSERT_TRUE(static_cast<bool>(Streamed)) << "chunk " << Chunk;
    EXPECT_EQ(Streamed->size(), 2u) << "chunk " << Chunk;
  }
}

TEST(StreamParserTest, ChargesEventsATraceKeeps) {
  // The same bytes and cap into a Trace, which keeps every event: the
  // first event trips the cap as event storage.
  const std::string Text = "LIMATRACE 1\nprocs 2\nregion 0 ab\n"
                           "re 0 1.0 0\nrx 0 2.0 0\n";
  ParseOptions Options;
  Options.Limits.MaxAllocBytes =
      2 * sizeof(std::vector<Event>) + sizeof(std::string);
  for (size_t Chunk : {size_t(1), size_t(7), Text.size()}) {
    StreamParser P(Options);
    std::optional<Trace> Kept;
    Error Err = Error::success();
    for (size_t I = 0; !Err && I < Text.size(); I += Chunk)
      Err = P.feed(Text.substr(I, Chunk), Kept);
    if (!Err)
      Err = P.finish(Kept);
    ASSERT_TRUE(static_cast<bool>(Err)) << "chunk " << Chunk;
    ParseError PE = Err.toParseError();
    EXPECT_EQ(PE.Line, 4u) << "chunk " << Chunk;
    EXPECT_EQ(PE.Msg, "trace line 4: event storage exceeds the allocation cap")
        << "chunk " << Chunk;
    ASSERT_TRUE(Kept.has_value()) << "chunk " << Chunk;
    EXPECT_EQ(Kept->regionNames(), P.regionNames()) << "chunk " << Chunk;
  }
}

TEST(StreamParserTest, DuplicateProcsRejected) {
  StreamParser P;
  std::vector<Event> Events;
  EXPECT_TRUE(testutil::failed(
      P.feed("LIMATRACE 1\nprocs 2\nprocs 2\n", Events)));
}

TEST(StreamParserTest, RepeatedNameRejectedAtItsLine) {
  // The monitor's cube cannot hold two regions (or activities) of one
  // name, so the parser refuses the second declaration, wherever the
  // chunk boundaries fall.
  const std::string Events = "re 0 1.0 0\nab 0 2.0 0\nae 0 2.5 0\n"
                             "rx 0 3.0 0\n";
  const struct {
    std::string Text;
    size_t Line;
  } Cases[] = {
      {"LIMATRACE 1\nprocs 1\nregion 0 main\nregion 1 main\n"
       "activity 0 compute\n" +
           Events,
       4},
      {"LIMATRACE 1\nprocs 1\nregion 0 main\nactivity 0 compute\n"
       "activity 1 compute\n" +
           Events,
       5},
  };
  for (const auto &C : Cases)
    for (size_t Chunk : {size_t(1), size_t(7), size_t(4096)}) {
      auto EventsOrErr = parseChunked(C.Text, Chunk);
      ASSERT_FALSE(static_cast<bool>(EventsOrErr)) << "chunk " << Chunk;
      ParseError PE = EventsOrErr.takeError().toParseError();
      EXPECT_EQ(PE.Code, ErrorCode::DuplicateDeclaration) << "chunk " << Chunk;
      EXPECT_EQ(PE.Line, C.Line) << "chunk " << Chunk;
    }
}

TEST(StreamParserTest, ChunkedStreamMatchesMappedBatchLoad) {
  // Chunk-boundary parity extended to the mmap-backed path: a stream
  // parse reassembled from 7-byte chunks must see exactly the events
  // loadTrace() produces when it parses the same bytes in place from a
  // MappedFile view.
  std::string Path = ::testing::TempDir() + "/lima_stream_mmap.trace";
  cantFail(writeFile(Path, SampleTrace));
  Trace Loaded = cantFail(loadTrace(Path));
  std::remove(Path.c_str());

  auto StreamedOrErr = parseChunked(SampleTrace, 7);
  ASSERT_TRUE(static_cast<bool>(StreamedOrErr));
  ASSERT_EQ(StreamedOrErr->size(), Loaded.numEvents());
  Trace Rebuilt = rebuild(*StreamedOrErr, Loaded);
  EXPECT_EQ(writeTraceText(Rebuilt), writeTraceText(Loaded));
  EXPECT_TRUE(testutil::sameEventColumns(Rebuilt, Loaded));
}

TEST(StreamParserTest, MatchesLegacyParserBitForBit) {
  // The monitor's parser against the frozen strtod-based reference, on
  // times as LIMA writes them ("%.9f"), with an exponent ("%.6e"), and
  // in renderings the canonical fast path declines ("%.17g" mostly needs
  // more than 19 digits, tabs and CRs change the separators).  Half the
  // lines hit, so the fast path stays in use to the end.
  std::string Text = "LIMATRACE 1\nprocs 3\nregion 0 main\nactivity 0 a\n";
  char Buf[96];
  const char *Formats[] = {"re %u %.9f 0\n", "re %u %.17g 0\n",
                           "re %u %.6e 0\n", "re\t%u %.9f\t0\r\n"};
  double T = 0.0;
  for (unsigned I = 0; I != 4000; ++I) {
    T += 0.000123456789 * (1 + I % 7);
    std::snprintf(Buf, sizeof(Buf), Formats[I % 4], I % 3, T);
    Text += Buf;
  }
  Trace Reference = cantFail(testutil::parseTraceTextLegacy(Text));
  for (size_t Chunk : {size_t(1), size_t(7), size_t(4096)}) {
    auto EventsOrErr = parseChunked(Text, Chunk);
    ASSERT_TRUE(static_cast<bool>(EventsOrErr)) << "chunk " << Chunk;
    EXPECT_TRUE(testutil::sameEventColumns(rebuild(*EventsOrErr, Reference),
                                           Reference))
        << "chunk " << Chunk;
  }
}

TEST(StreamParserTest, MappedFileViewsAreZeroCopyForRegularFiles) {
  std::string Path = ::testing::TempDir() + "/lima_mapped_file.trace";
  cantFail(writeFile(Path, SampleTrace));
  MappedFile File = cantFail(MappedFile::open(Path));
  EXPECT_TRUE(File.isMapped());
  EXPECT_EQ(File.view(), SampleTrace);
  std::remove(Path.c_str());

  EXPECT_TRUE(testutil::failed(
      MappedFile::open(::testing::TempDir() + "/lima_no_such_file")));
}
