//===- tests/TraceTest.cpp - trace library tests --------------------------===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "trace/Trace.h"
#include "support/FileUtils.h"
#include "trace/BinaryIO.h"
#include "trace/TraceIO.h"
#include "TestHelpers.h"
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <gtest/gtest.h>
#include <limits>

using namespace lima;
using namespace lima::trace;

namespace {

/// A tiny, structurally valid two-processor trace: each proc runs one
/// region with one computation activity; proc 0 sends 64 bytes to proc 1.
Trace makeValidTrace() {
  Trace T(2);
  uint32_t Loop = T.addRegion("loop");
  uint32_t Comp = T.addActivity("computation");
  uint32_t P2P = T.addActivity("p2p");

  T.append({0.0, 0, EventKind::RegionEnter, Loop, 0});
  T.append({0.0, 0, EventKind::ActivityBegin, Comp, 0});
  T.append({1.0, 0, EventKind::ActivityEnd, Comp, 0});
  T.append({1.0, 0, EventKind::ActivityBegin, P2P, 0});
  T.append({1.0, 0, EventKind::MessageSend, 1, 64});
  T.append({1.1, 0, EventKind::ActivityEnd, P2P, 0});
  T.append({1.1, 0, EventKind::RegionExit, Loop, 0});

  T.append({0.0, 1, EventKind::RegionEnter, Loop, 0});
  T.append({0.0, 1, EventKind::ActivityBegin, P2P, 0});
  T.append({1.2, 1, EventKind::MessageRecv, 0, 64});
  T.append({1.2, 1, EventKind::ActivityEnd, P2P, 0});
  T.append({1.2, 1, EventKind::RegionExit, Loop, 0});
  return T;
}

} // namespace

TEST(TraceTest, RegistersNamesAndIds) {
  Trace T(4);
  EXPECT_EQ(T.numProcs(), 4u);
  uint32_t A = T.addRegion("alpha");
  uint32_t B = T.addRegion("beta");
  EXPECT_EQ(A, 0u);
  EXPECT_EQ(B, 1u);
  EXPECT_EQ(T.regionName(B), "beta");
  EXPECT_EQ(T.findRegion("alpha"), 0u);
  EXPECT_EQ(T.findRegion("gamma"), Trace::InvalidId);
  uint32_t Act = T.addActivity("compute");
  EXPECT_EQ(T.findActivity("compute"), Act);
}

TEST(TraceTest, ValidTracePasses) {
  Trace T = makeValidTrace();
  EXPECT_EQ(T.numEvents(), 12u);
  Error E = T.validate();
  EXPECT_FALSE(static_cast<bool>(E));
}

TEST(TraceValidationTest, DetectsBackwardsTime) {
  Trace T(1);
  uint32_t R = T.addRegion("r");
  T.addActivity("a");
  T.append({1.0, 0, EventKind::RegionEnter, R, 0});
  T.append({0.5, 0, EventKind::RegionExit, R, 0});
  Error E = T.validate();
  ASSERT_TRUE(static_cast<bool>(E));
  EXPECT_NE(E.message().find("backwards"), std::string::npos);
}

TEST(TraceValidationTest, ProperlyNestedRegionsAreValid) {
  // Regions may nest (routine > loop > statement granularity).
  Trace T(1);
  uint32_t Routine = T.addRegion("routine");
  uint32_t Loop = T.addRegion("loop");
  uint32_t A = T.addActivity("a");
  T.append({0.0, 0, EventKind::RegionEnter, Routine, 0});
  T.append({0.1, 0, EventKind::RegionEnter, Loop, 0});
  T.append({0.1, 0, EventKind::ActivityBegin, A, 0});
  T.append({0.5, 0, EventKind::ActivityEnd, A, 0});
  T.append({0.5, 0, EventKind::RegionExit, Loop, 0});
  T.append({0.9, 0, EventKind::RegionExit, Routine, 0});
  Error E = T.validate();
  EXPECT_FALSE(static_cast<bool>(E));
}

TEST(TraceValidationTest, DetectsCrossedRegionBrackets) {
  // Exits must match the innermost open region.
  Trace T(1);
  uint32_t R = T.addRegion("r");
  uint32_t S = T.addRegion("s");
  T.addActivity("a");
  T.append({0.0, 0, EventKind::RegionEnter, R, 0});
  T.append({0.1, 0, EventKind::RegionEnter, S, 0});
  T.append({0.2, 0, EventKind::RegionExit, R, 0}); // Crossed.
  T.append({0.3, 0, EventKind::RegionExit, S, 0});
  Error E = T.validate();
  ASSERT_TRUE(static_cast<bool>(E));
  EXPECT_NE(E.message().find("innermost"), std::string::npos);
}

TEST(TraceValidationTest, DetectsRegionEnterInsideActivity) {
  Trace T(1);
  uint32_t R = T.addRegion("r");
  uint32_t S = T.addRegion("s");
  uint32_t A = T.addActivity("a");
  T.append({0.0, 0, EventKind::RegionEnter, R, 0});
  T.append({0.1, 0, EventKind::ActivityBegin, A, 0});
  T.append({0.2, 0, EventKind::RegionEnter, S, 0}); // Inside activity.
  EXPECT_TRUE(testutil::failed(T.validate()));
}

TEST(TraceValidationTest, DetectsMismatchedRegionExit) {
  Trace T(1);
  uint32_t R = T.addRegion("r");
  uint32_t S = T.addRegion("s");
  T.addActivity("a");
  T.append({0.0, 0, EventKind::RegionEnter, R, 0});
  T.append({0.1, 0, EventKind::RegionExit, S, 0});
  EXPECT_TRUE(testutil::failed(T.validate()));
}

TEST(TraceValidationTest, DetectsActivityOutsideRegion) {
  Trace T(1);
  T.addRegion("r");
  uint32_t A = T.addActivity("a");
  T.append({0.0, 0, EventKind::ActivityBegin, A, 0});
  Error E = T.validate();
  ASSERT_TRUE(static_cast<bool>(E));
  EXPECT_NE(E.message().find("outside"), std::string::npos);
}

TEST(TraceValidationTest, DetectsOverlappingActivities) {
  Trace T(1);
  uint32_t R = T.addRegion("r");
  uint32_t A = T.addActivity("a");
  uint32_t B = T.addActivity("b");
  T.append({0.0, 0, EventKind::RegionEnter, R, 0});
  T.append({0.1, 0, EventKind::ActivityBegin, A, 0});
  T.append({0.2, 0, EventKind::ActivityBegin, B, 0});
  EXPECT_TRUE(testutil::failed(T.validate()));
}

TEST(TraceValidationTest, DetectsRegionExitWithOpenActivity) {
  Trace T(1);
  uint32_t R = T.addRegion("r");
  uint32_t A = T.addActivity("a");
  T.append({0.0, 0, EventKind::RegionEnter, R, 0});
  T.append({0.1, 0, EventKind::ActivityBegin, A, 0});
  T.append({0.2, 0, EventKind::RegionExit, R, 0});
  EXPECT_TRUE(testutil::failed(T.validate()));
}

TEST(TraceValidationTest, DetectsDanglingOpenRegion) {
  Trace T(1);
  uint32_t R = T.addRegion("r");
  T.addActivity("a");
  T.append({0.0, 0, EventKind::RegionEnter, R, 0});
  Error E = T.validate();
  ASSERT_TRUE(static_cast<bool>(E));
  EXPECT_NE(E.message().find("open"), std::string::npos);
}

TEST(TraceValidationTest, DetectsUnmatchedSend) {
  Trace T = makeValidTrace();
  T.append({2.0, 0, EventKind::RegionEnter, 0, 0});
  T.append({2.1, 0, EventKind::MessageSend, 1, 99});
  T.append({2.2, 0, EventKind::RegionExit, 0, 0});
  Error E = T.validate();
  ASSERT_TRUE(static_cast<bool>(E));
  EXPECT_NE(E.message().find("unmatched"), std::string::npos);
}

TEST(TraceValidationTest, DetectsByteCountMismatch) {
  Trace T(2);
  uint32_t R = T.addRegion("r");
  T.addActivity("a");
  T.append({0.0, 0, EventKind::RegionEnter, R, 0});
  T.append({0.1, 0, EventKind::MessageSend, 1, 10});
  T.append({0.2, 0, EventKind::RegionExit, R, 0});
  T.append({0.0, 1, EventKind::RegionEnter, R, 0});
  T.append({0.3, 1, EventKind::MessageRecv, 0, 20});
  T.append({0.4, 1, EventKind::RegionExit, R, 0});
  EXPECT_TRUE(testutil::failed(T.validate()));
}

namespace {

/// Expects validate() to fail with exactly \p Msg, as a structural
/// error, at every thread count.
void expectValidateError(const Trace &T, const std::string &Msg) {
  for (unsigned Threads : {1u, 2u, 8u}) {
    Error E = T.validate(Threads);
    ASSERT_TRUE(static_cast<bool>(E)) << "threads=" << Threads;
    EXPECT_EQ(E.code(), ErrorCode::StructuralError) << "threads=" << Threads;
    EXPECT_EQ(E.message(), Msg) << "threads=" << Threads;
  }
}

/// One message event: a send logged by From (Side +1) or a receive
/// logged by To (Side -1).
struct Message {
  uint32_t From, To;
  uint64_t Bytes;
  int Side;
};

/// Four processors, each inside one region from t=0 to t=1, logging
/// \p Messages in order in between.
Trace makeMessageTrace(const std::vector<Message> &Messages) {
  Trace T(4);
  uint32_t R = T.addRegion("r");
  T.addActivity("a");
  for (uint32_t P = 0; P != 4; ++P)
    T.append({0.0, P, EventKind::RegionEnter, R, 0});
  double Time = 0.0;
  for (const Message &M : Messages) {
    Time += 0.01;
    if (M.Side > 0)
      T.append({Time, M.From, EventKind::MessageSend, M.To, M.Bytes});
    else
      T.append({Time, M.To, EventKind::MessageRecv, M.From, M.Bytes});
  }
  for (uint32_t P = 0; P != 4; ++P)
    T.append({1.0, P, EventKind::RegionExit, R, 0});
  return T;
}

} // namespace

TEST(TraceValidationTest, LowestFailingProcessorWinsAtAnyThreadCount) {
  // Proc 1 fails at its third event, proc 3 at its first, and proc 2
  // has an unmatched send: proc 1's error is the one reported.
  Trace T(4);
  uint32_t R = T.addRegion("r");
  uint32_t S = T.addRegion("s");
  uint32_t A = T.addActivity("a");
  T.append({0.0, 0, EventKind::RegionEnter, R, 0});
  T.append({1.0, 0, EventKind::RegionExit, R, 0});
  T.append({0.0, 1, EventKind::RegionEnter, R, 0});
  T.append({0.5, 1, EventKind::RegionEnter, S, 0});
  T.append({0.6, 1, EventKind::RegionExit, R, 0});
  T.append({0.7, 1, EventKind::ActivityEnd, A, 0});
  T.append({0.0, 2, EventKind::RegionEnter, R, 0});
  T.append({0.5, 2, EventKind::MessageSend, 3, 99});
  T.append({1.0, 2, EventKind::RegionExit, R, 0});
  T.append({0.0, 3, EventKind::RegionExit, R, 0});
  expectValidateError(T, "proc 1 event 2: region exit id 0 does not match "
                         "innermost open region 1");
}

TEST(TraceValidationTest, EndOfStreamErrorOfLowerProcessorWins) {
  // Proc 0's only fault shows after its last event; proc 2's shows at
  // its first event.
  Trace T(3);
  uint32_t R = T.addRegion("r");
  uint32_t A = T.addActivity("a");
  T.append({0.0, 0, EventKind::RegionEnter, R, 0});
  T.append({0.1, 0, EventKind::ActivityBegin, A, 0});
  T.append({0.2, 0, EventKind::ActivityEnd, A, 0});
  T.append({2.0, 2, EventKind::RegionEnter, R, 0});
  T.append({1.0, 2, EventKind::RegionExit, R, 0});
  expectValidateError(T, "proc 0: region left open at end of trace");
}

TEST(TraceValidationTest, TimeOutOfRangeIsCheckedBeforeTheStep) {
  // A negative time is also out of order here; the range check comes
  // first, with its own code, as does an infinite one.
  for (double Bad : {-1.0, std::numeric_limits<double>::infinity()}) {
    Trace T(2);
    uint32_t R = T.addRegion("r");
    T.append({0.0, 0, EventKind::RegionEnter, R, 0});
    T.append({1.0, 0, EventKind::RegionExit, R, 0});
    T.append({0.5, 1, EventKind::RegionEnter, R, 0});
    T.append({Bad, 1, EventKind::RegionExit, R, 0});
    std::string Msg = "proc 1 event 1: time " +
                      std::string(Bad < 0.0 ? "-1.000000000" : "inf") +
                      " is not finite and non-negative";
    for (unsigned Threads : {1u, 2u, 8u}) {
      Error E = T.validate(Threads);
      ASSERT_TRUE(static_cast<bool>(E)) << "threads=" << Threads;
      EXPECT_EQ(E.code(), ErrorCode::ValueOutOfRange);
      EXPECT_EQ(E.message(), Msg) << "threads=" << Threads;
    }
  }
}

TEST(TraceValidationTest, SmallestUnbalancedMessageKeyWins) {
  Trace Balanced = makeMessageTrace(
      {{0, 1, 64, +1}, {0, 1, 64, +1}, {0, 1, 64, -1}, {0, 1, 64, -1}});
  EXPECT_FALSE(testutil::failed(Balanced.validate(1)));
  EXPECT_FALSE(testutil::failed(Balanced.validate(8)));

  std::vector<Message> Messages = {
      // A balanced pair, then a later pair (3 -> 0) with one unreceived
      // send.
      {0, 1, 64, +1}, {0, 1, 64, -1}, {3, 0, 100, +1},
      // One pair (1 -> 3) with two byte counts, both off: 32 bytes sent
      // twice and received once, logged first; 16 bytes sent once and
      // received three times.
      {1, 3, 32, +1}, {1, 3, 32, +1}, {1, 3, 16, +1}, {1, 3, 32, -1},
      {1, 3, 16, -1}, {1, 3, 16, -1}, {1, 3, 16, -1},
      // A receive-only key (1 -> 2) that only the receiver sees.
      {1, 2, 8, -1}};
  expectValidateError(makeMessageTrace(Messages),
                      "unmatched message 1 -> 2 (8 bytes): balance -1");
  Messages.pop_back(); // Without the receive-only key.
  expectValidateError(makeMessageTrace(Messages),
                      "unmatched message 1 -> 3 (16 bytes): balance -2");
  Messages.resize(3); // Without the (1 -> 3) pair.
  expectValidateError(makeMessageTrace(Messages),
                      "unmatched message 3 -> 0 (100 bytes): balance 1");
}

TEST(TraceValidationTest, CorpusOutcomesMatchAcrossThreadCounts) {
  std::filesystem::path Dir =
      std::filesystem::path(LIMA_FUZZ_CORPUS_DIR) / "fuzz_trace_text";
  std::vector<std::filesystem::path> Files;
  for (const auto &Entry : std::filesystem::directory_iterator(Dir))
    Files.push_back(Entry.path());
  std::sort(Files.begin(), Files.end());
  unsigned Parsed = 0;
  for (const auto &File : Files) {
    ParseReport Report;
    ParseOptions Options;
    Options.Mode = ParseMode::Lenient;
    Options.Report = &Report;
    Expected<Trace> T =
        parseTraceText(cantFail(readFile(File.string())), Options);
    if (!T) {
      T.takeError().consume();
      continue;
    }
    ++Parsed;
    EXPECT_EQ(testutil::messageOf(T->validate(1)),
              testutil::messageOf(T->validate(8)))
        << File.filename();
  }
  EXPECT_GT(Parsed, 0u);
}

//===----------------------------------------------------------------------===//
// Text format
//===----------------------------------------------------------------------===//

TEST(TraceIOTest, RoundTripsExactly) {
  Trace T = makeValidTrace();
  std::string Text = writeTraceText(T);
  Trace Parsed = cantFail(parseTraceText(Text));
  EXPECT_EQ(Parsed.numProcs(), T.numProcs());
  EXPECT_EQ(Parsed.numRegions(), T.numRegions());
  EXPECT_EQ(Parsed.numActivities(), T.numActivities());
  ASSERT_EQ(Parsed.numEvents(), T.numEvents());
  for (unsigned P = 0; P != T.numProcs(); ++P) {
    const auto &A = T.events(P);
    const auto &B = Parsed.events(P);
    ASSERT_EQ(A.size(), B.size());
    for (auto X = A.begin(), Y = B.begin(); X != A.end(); ++X, ++Y) {
      EXPECT_EQ((*X).Kind, (*Y).Kind);
      EXPECT_EQ((*X).Id, (*Y).Id);
      EXPECT_EQ((*X).Bytes, (*Y).Bytes);
      EXPECT_NEAR((*X).Time, (*Y).Time, 1e-9);
    }
  }
  // And the round-tripped trace still validates.
  Error E = Parsed.validate();
  EXPECT_FALSE(static_cast<bool>(E));
}

TEST(TraceIOTest, WritesTheLongestEventLinesInFull) {
  // %.9f of the largest finite double is 320 characters: a message line
  // around it must come out whole and read back bit for bit.
  const double Max = std::numeric_limits<double>::max();
  Trace T(2);
  T.addRegion("r");
  T.addActivity("a");
  T.append({Max, 0, EventKind::MessageSend, 1, UINT64_MAX});
  T.append({Max, 1, EventKind::MessageRecv, 0, UINT64_MAX});
  std::string Text = writeTraceText(T);
  EXPECT_EQ(std::count(Text.begin(), Text.end(), '\n'), 6);
  EXPECT_EQ(Text.find('\0'), std::string::npos);
  Trace Parsed = cantFail(parseTraceText(Text));
  ASSERT_EQ(Parsed.numEvents(), 2u);
  for (unsigned P = 0; P != 2; ++P)
    for (const Event &E : Parsed.events(P)) {
      EXPECT_EQ(E.Time, Max);
      EXPECT_EQ(E.Bytes, UINT64_MAX);
    }
}

TEST(TraceIOTest, HeaderAndCommentsTolerated) {
  std::string Text = "# comment\nLIMATRACE 1\nprocs 1\n\nregion 0 r\n"
                     "activity 0 a\n# more\nre 0 0.0 0\nrx 0 1.0 0\n";
  Trace T = cantFail(parseTraceText(Text));
  EXPECT_EQ(T.numEvents(), 2u);
}

TEST(TraceIOTest, RejectsMissingMagic) {
  auto Result = parseTraceText("procs 2\n");
  EXPECT_FALSE(static_cast<bool>(Result));
  Result.takeError().consume();
}

TEST(TraceIOTest, RejectsEventBeforeProcs) {
  auto Result = parseTraceText("LIMATRACE 1\nre 0 0.0 0\n");
  EXPECT_FALSE(static_cast<bool>(Result));
  Result.takeError().consume();
}

TEST(TraceIOTest, RejectsOutOfRangeProc) {
  auto Result = parseTraceText(
      "LIMATRACE 1\nprocs 1\nregion 0 r\nactivity 0 a\nre 3 0.0 0\n");
  EXPECT_FALSE(static_cast<bool>(Result));
  Result.takeError().consume();
}

TEST(TraceIOTest, RejectsOutOfRangeRegion) {
  auto Result = parseTraceText(
      "LIMATRACE 1\nprocs 1\nregion 0 r\nactivity 0 a\nre 0 0.0 7\n");
  EXPECT_FALSE(static_cast<bool>(Result));
  Result.takeError().consume();
}

TEST(TraceIOTest, RejectsNegativeTime) {
  auto Result = parseTraceText(
      "LIMATRACE 1\nprocs 1\nregion 0 r\nactivity 0 a\nre 0 -1.0 0\n");
  EXPECT_FALSE(static_cast<bool>(Result));
  Result.takeError().consume();
}

TEST(TraceIOTest, RejectsNonDenseDeclarationIds) {
  auto Result = parseTraceText("LIMATRACE 1\nprocs 1\nregion 5 r\n");
  EXPECT_FALSE(static_cast<bool>(Result));
  Result.takeError().consume();
}

TEST(TraceIOTest, RejectsUnknownRecord) {
  auto Result = parseTraceText("LIMATRACE 1\nprocs 1\nzz 0 0.0 0\n");
  EXPECT_FALSE(static_cast<bool>(Result));
  Result.takeError().consume();
}

TEST(TraceIOTest, SaveLoadRoundTrip) {
  Trace T = makeValidTrace();
  std::string Path = ::testing::TempDir() + "/lima_trace_test.trace";
  cantFail(saveTrace(T, Path));
  Trace Loaded = cantFail(loadTrace(Path));
  EXPECT_EQ(Loaded.numEvents(), T.numEvents());
  std::remove(Path.c_str());
}

TEST(TraceIOTest, WidestNameTableParsesInLinearTime) {
  // Registering and finding a name cost O(1): a header that declares
  // MaxRegions regions parses in well under the bound, as text and as
  // LIMB v2, also in the sanitizer builds.  With a linear uniqueness
  // scan per name, the text parse alone took about 11 s.
  const uint32_t Regions = ParseLimits().MaxRegions;
  std::string Text = "LIMATRACE 1\nprocs 2\n";
  for (uint32_t I = 0; I != Regions; ++I) {
    std::string Id = std::to_string(I);
    Text.append("region ").append(Id).append(" r").append(Id).append("\n");
  }
  Text += "activity 0 a\nre 0 1.0 0\nab 0 1.0 0\nae 0 2.0 0\nrx 0 2.0 0\n";
  constexpr double BoundSeconds = 4.0;
  auto secondsSince = [](std::chrono::steady_clock::time_point Start) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         Start)
        .count();
  };

  auto Start = std::chrono::steady_clock::now();
  Trace T = cantFail(parseTraceText(Text));
  EXPECT_LT(secondsSince(Start), BoundSeconds);
  ASSERT_EQ(T.numRegions(), Regions);
  EXPECT_EQ(T.findRegion(std::string("r").append(std::to_string(Regions - 1))),
            Regions - 1);
  EXPECT_EQ(T.numEvents(), 4u);

  std::string Binary = writeTraceBinary(T);
  Start = std::chrono::steady_clock::now();
  Trace FromBinary = cantFail(parseTraceBinary(Binary));
  EXPECT_LT(secondsSince(Start), BoundSeconds);
  EXPECT_EQ(FromBinary.regionNames(), T.regionNames());
  EXPECT_EQ(FromBinary.numEvents(), 4u);
}

TEST(EventTest, MnemonicsAreStable) {
  EXPECT_EQ(eventKindMnemonic(EventKind::RegionEnter), "re");
  EXPECT_EQ(eventKindMnemonic(EventKind::RegionExit), "rx");
  EXPECT_EQ(eventKindMnemonic(EventKind::ActivityBegin), "ab");
  EXPECT_EQ(eventKindMnemonic(EventKind::ActivityEnd), "ae");
  EXPECT_EQ(eventKindMnemonic(EventKind::MessageSend), "ms");
  EXPECT_EQ(eventKindMnemonic(EventKind::MessageRecv), "mr");
}
