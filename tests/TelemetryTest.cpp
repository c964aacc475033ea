//===- tests/TelemetryTest.cpp - Self-instrumentation layer tests ---------===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Covers the telemetry layer end to end: span recording and stage
// attribution across pool workers, counter atomicity at several thread
// counts, the disabled-mode zero-event guarantee, well-formedness of the
// Chrome trace-event export (checked with a tiny JSON parser), bit-level
// determinism of the analysis under instrumentation, and reconstruction
// of the self-profile measurement cube.
//
// Telemetry state is process-global, so every test begins with reset()
// and ends with recording disabled.  Tests that need recorded events
// skip themselves when the layer is compiled out (LIMA_TELEMETRY=0).
//
//===----------------------------------------------------------------------===//

#include "TestHelpers.h"
#include "core/CountingReduction.h"
#include "core/PhaseAnalysis.h"
#include "core/Pipeline.h"
#include "core/SelfProfile.h"
#include "core/TraceReduction.h"
#include "core/WaitStates.h"
#include "support/Format.h"
#include "support/Parallel.h"
#include "support/Telemetry.h"
#include "support/TraceEventExport.h"
#include "trace/BinaryIO.h"
#include "trace/ParallelBinary.h"
#include "trace/ParallelParse.h"
#include "trace/TraceIO.h"
#include <algorithm>
#include <atomic>
#include <cctype>
#include <gtest/gtest.h>

using namespace lima;
using lima::testutil::failed;
using lima::testutil::messageOf;

namespace {

constexpr bool TelemetryCompiled = LIMA_TELEMETRY != 0;

/// RAII guard: every test starts from a clean slate and never leaks an
/// enabled recorder into the next test.
struct TelemetrySession {
  TelemetrySession() {
    telemetry::reset();
    telemetry::setEnabled(true);
  }
  ~TelemetrySession() {
    telemetry::setEnabled(false);
    telemetry::collect();
  }
};

/// A small trace with deliberate skew, enough to exercise every stage.
trace::Trace makeTrace(unsigned Procs, unsigned Rounds) {
  trace::Trace T(Procs);
  uint32_t Solve = T.addRegion("solve");
  uint32_t Comp = T.addActivity("computation");
  for (unsigned P = 0; P != Procs; ++P) {
    double Clock = 0.0;
    for (unsigned R = 0; R != Rounds; ++R) {
      double Work = 0.001 * (1.0 + P + R % 3);
      T.append({Clock, P, trace::EventKind::RegionEnter, Solve, 0});
      T.append({Clock, P, trace::EventKind::ActivityBegin, Comp, 0});
      Clock += Work;
      T.append({Clock, P, trace::EventKind::ActivityEnd, Comp, 0});
      T.append({Clock, P, trace::EventKind::RegionExit, Solve, 0});
    }
  }
  return T;
}

//===----------------------------------------------------------------------===//
// A minimal JSON well-formedness checker (no values retained)
//===----------------------------------------------------------------------===//

class JsonChecker {
public:
  explicit JsonChecker(std::string_view Text) : Text(Text) {}

  bool valid() {
    skipSpace();
    if (!value())
      return false;
    skipSpace();
    return Pos == Text.size();
  }

private:
  bool value() {
    if (Pos >= Text.size())
      return false;
    switch (Text[Pos]) {
    case '{':
      return object();
    case '[':
      return array();
    case '"':
      return string();
    case 't':
      return literal("true");
    case 'f':
      return literal("false");
    case 'n':
      return literal("null");
    default:
      return number();
    }
  }

  bool object() {
    ++Pos; // '{'
    skipSpace();
    if (peek() == '}')
      return ++Pos, true;
    while (true) {
      skipSpace();
      if (!string())
        return false;
      skipSpace();
      if (peek() != ':')
        return false;
      ++Pos;
      skipSpace();
      if (!value())
        return false;
      skipSpace();
      if (peek() == ',') {
        ++Pos;
        continue;
      }
      if (peek() == '}')
        return ++Pos, true;
      return false;
    }
  }

  bool array() {
    ++Pos; // '['
    skipSpace();
    if (peek() == ']')
      return ++Pos, true;
    while (true) {
      skipSpace();
      if (!value())
        return false;
      skipSpace();
      if (peek() == ',') {
        ++Pos;
        continue;
      }
      if (peek() == ']')
        return ++Pos, true;
      return false;
    }
  }

  bool string() {
    if (peek() != '"')
      return false;
    ++Pos;
    while (Pos < Text.size() && Text[Pos] != '"') {
      if (Text[Pos] == '\\') {
        if (Pos + 1 >= Text.size())
          return false;
        ++Pos;
      }
      ++Pos;
    }
    if (Pos >= Text.size())
      return false;
    ++Pos;
    return true;
  }

  bool number() {
    size_t Start = Pos;
    if (peek() == '-')
      ++Pos;
    while (Pos < Text.size() &&
           (std::isdigit(static_cast<unsigned char>(Text[Pos])) ||
            Text[Pos] == '.' || Text[Pos] == 'e' || Text[Pos] == 'E' ||
            Text[Pos] == '+' || Text[Pos] == '-'))
      ++Pos;
    return Pos > Start;
  }

  bool literal(std::string_view Word) {
    if (Text.substr(Pos, Word.size()) != Word)
      return false;
    Pos += Word.size();
    return true;
  }

  char peek() const { return Pos < Text.size() ? Text[Pos] : '\0'; }
  void skipSpace() {
    while (Pos < Text.size() &&
           std::isspace(static_cast<unsigned char>(Text[Pos])))
      ++Pos;
  }

  std::string_view Text;
  size_t Pos = 0;
};

/// Extracts the "ts" values of complete ("X") events in document order.
std::vector<double> completeEventTimestamps(const std::string &Json) {
  std::vector<double> Timestamps;
  size_t Pos = 0;
  while ((Pos = Json.find("\"ph\": \"X\"", Pos)) != std::string::npos) {
    size_t Ts = Json.find("\"ts\": ", Pos);
    EXPECT_NE(Ts, std::string::npos);
    Timestamps.push_back(std::stod(Json.substr(Ts + 6)));
    Pos += 9;
  }
  return Timestamps;
}

//===----------------------------------------------------------------------===//
// Spans, stages and counters
//===----------------------------------------------------------------------===//

TEST(TelemetryTest, NestedSpansRecordWithStageAttribution) {
  if (!TelemetryCompiled)
    GTEST_SKIP() << "telemetry compiled out";
  TelemetrySession Session;
  {
    LIMA_STAGE("test-stage");
    LIMA_SPAN("outer");
    LIMA_SPAN("inner");
  }
  telemetry::setEnabled(false);
  telemetry::Snapshot S = telemetry::collect();

  ASSERT_EQ(S.Stages.size(), 1u);
  EXPECT_EQ(S.Stages[0].Name, "test-stage");
  EXPECT_GT(S.Stages[0].WallMs, 0.0);

  ASSERT_EQ(S.Events.size(), 2u);
  double OuterMs = 0.0, InnerMs = 0.0;
  for (const telemetry::SpanEvent &E : S.Events) {
    EXPECT_EQ(S.nameOf(E.Stage), "test-stage");
    EXPECT_EQ(E.Worker, 0u);
    if (S.nameOf(E.Name) == "outer")
      OuterMs = static_cast<double>(E.DurNs);
    else if (S.nameOf(E.Name) == "inner")
      InnerMs = static_cast<double>(E.DurNs);
    else
      ADD_FAILURE() << "unexpected span " << S.nameOf(E.Name);
  }
  // The inner span closes before (and within) the outer one.
  EXPECT_LE(InnerMs, OuterMs);
}

TEST(TelemetryTest, SpansInsidePoolTasksCarryTheSubmittingStage) {
  if (!TelemetryCompiled)
    GTEST_SKIP() << "telemetry compiled out";
  TelemetrySession Session;
  {
    LIMA_STAGE("sharded");
    parallelChunks(1000, 8, [](size_t, size_t, size_t) {
      LIMA_SPAN("shard");
    });
  }
  telemetry::setEnabled(false);
  telemetry::Snapshot S = telemetry::collect();

  unsigned Shards = 0, Tasks = 0;
  for (const telemetry::SpanEvent &E : S.Events) {
    if (S.nameOf(E.Name) == "shard") {
      ++Shards;
      EXPECT_EQ(S.nameOf(E.Stage), "sharded");
      EXPECT_LT(E.Worker, S.NumWorkers);
    }
    if (S.nameOf(E.Name) == "pool.task") {
      ++Tasks;
      EXPECT_EQ(S.nameOf(E.Stage), "sharded");
    }
  }
  EXPECT_GT(Shards, 0u);
  EXPECT_EQ(Shards, Tasks); // caller-run chunks are tasks too
  ASSERT_EQ(S.Stages.size(), 1u);
  double Busy = 0.0;
  for (double Ms : S.Stages[0].WorkerComputeMs)
    Busy += Ms;
  EXPECT_GT(Busy, 0.0);
}

TEST(TelemetryTest, CountersAreAtomicAcrossThreadCounts) {
  if (!TelemetryCompiled)
    GTEST_SKIP() << "telemetry compiled out";
  for (unsigned Threads : {1u, 2u, 8u}) {
    TelemetrySession Session;
    parallelFor(10000, Threads, [](size_t) {
      LIMA_COUNTER_ADD("test.increments", 1);
    });
    telemetry::setEnabled(false);
    telemetry::Snapshot S = telemetry::collect();
    bool Found = false;
    for (const telemetry::CounterValue &C : S.Counters)
      if (C.Name == "test.increments") {
        Found = true;
        EXPECT_EQ(C.Value, 10000u) << "threads=" << Threads;
      }
    EXPECT_TRUE(Found) << "threads=" << Threads;
  }
}

TEST(TelemetryTest, ReductionSpansOneShardPerProcessorInReduceStage) {
  if (!TelemetryCompiled)
    GTEST_SKIP() << "telemetry compiled out";
  trace::Trace T = makeTrace(4, 10);
  for (ParseMode Mode : {ParseMode::Strict, ParseMode::Lenient}) {
    TelemetrySession Session;
    core::ReductionOptions Reduction;
    Reduction.Threads = 2;
    Reduction.Mode = Mode;
    (void)cantFail(core::reduceTrace(T, Reduction));
    telemetry::setEnabled(false);
    telemetry::Snapshot S = telemetry::collect();

    // One walk per processor, which in strict mode is the validation:
    // no separate validation pass runs.
    unsigned Shards = 0, Validations = 0;
    for (const telemetry::SpanEvent &E : S.Events) {
      if (S.nameOf(E.Name) == "reduce.shard") {
        ++Shards;
        EXPECT_EQ(S.nameOf(E.Stage), "reduce");
      }
      if (S.nameOf(E.Name) == "reduce.validate")
        ++Validations;
    }
    EXPECT_EQ(Shards, T.numProcs());
    EXPECT_EQ(Validations, 0u);
  }
}

TEST(TelemetryTest, SecondaryAnalysesSpanTheirFoldInTheirOwnStage) {
  if (!TelemetryCompiled)
    GTEST_SKIP() << "telemetry compiled out";
  trace::Trace T = makeTrace(4, 10);
  for (ParseMode Mode : {ParseMode::Strict, ParseMode::Lenient}) {
    TelemetrySession Session;
    (void)cantFail(core::analyzePhases(T, {}, Mode));
    (void)cantFail(core::reduceTraceCounts(
        T, core::CountingMetric::MessagesSent, Mode));
    (void)cantFail(core::analyzeWaitStates(T, Mode));
    telemetry::setEnabled(false);
    telemetry::Snapshot S = telemetry::collect();

    for (std::string Stage : {"phases", "counting", "waitstates"}) {
      unsigned Spans = 0;
      for (const telemetry::SpanEvent &E : S.Events)
        if (S.nameOf(E.Name) == Stage + ".fold") {
          ++Spans;
          EXPECT_EQ(S.nameOf(E.Stage), Stage);
        }
      EXPECT_EQ(Spans, 1u) << Stage;
      EXPECT_TRUE(std::any_of(
          S.Stages.begin(), S.Stages.end(),
          [&](const telemetry::StageStats &St) { return St.Name == Stage; }))
          << Stage;
    }
  }
}

TEST(TelemetryTest, BulkDecodersSpanStreamSizingInIngestStage) {
  if (!TelemetryCompiled)
    GTEST_SKIP() << "telemetry compiled out";
  trace::Trace T = makeTrace(4, 2000);
  const std::string Text = trace::writeTraceText(T);
  const std::string Limb = trace::writeTraceBinary(T);
  ASSERT_GT(Text.size(), size_t(64) * 1024); // enough text to shard
  for (bool Binary : {false, true}) {
    TelemetrySession Session;
    if (Binary)
      (void)cantFail(trace::parseTraceBinaryParallel(Limb, {}, 2));
    else
      (void)cantFail(trace::parseTraceTextParallel(Text, {}, 2));
    telemetry::setEnabled(false);
    telemetry::Snapshot S = telemetry::collect();

    unsigned Sizings = 0;
    for (const telemetry::SpanEvent &E : S.Events)
      if (S.nameOf(E.Name) == "ingest.size") {
        ++Sizings;
        EXPECT_EQ(S.nameOf(E.Stage), "ingest");
      }
    EXPECT_EQ(Sizings, 1u) << (Binary ? "LIMB v2" : "text");
  }
}

TEST(TelemetryTest, BinaryDecodeSpansEachBlockAndSessionRecordsProcess) {
  if (!TelemetryCompiled)
    GTEST_SKIP() << "telemetry compiled out";
  trace::Trace T = makeTrace(4, 200);
  trace::BinaryWriteOptions Small;
  Small.BlockEvents = 500;
  const std::string Limb = trace::writeTraceBinary(T, Small);
  const uint64_t Blocks =
      (T.numEvents() + Small.BlockEvents - 1) / Small.BlockEvents;
  ASSERT_GT(Blocks, 2u);
  TelemetrySession Session;
  (void)cantFail(trace::parseTraceBinaryParallel(Limb, {}, 2));
  telemetry::setEnabled(false);
  telemetry::Snapshot S = telemetry::collect();

  // Each block's CRC check and record decode, inside the ingest stage.
  for (std::string Name : {"ingest.crc", "ingest.records"}) {
    uint64_t Spans = 0;
    for (const telemetry::SpanEvent &E : S.Events)
      if (S.nameOf(E.Name) == Name) {
        ++Spans;
        EXPECT_EQ(S.nameOf(E.Stage), "ingest") << Name;
      }
    EXPECT_EQ(Spans, Blocks) << Name;
  }

  // getrusage at collect(): the process has run, faulted pages in and
  // has a peak RSS, and the stats document carries all of it.
  const telemetry::ProcessUsage &P = S.Process;
  EXPECT_GT(P.UserCpuMs + P.SystemCpuMs, 0.0);
  EXPECT_GT(P.MinorFaults, 0u);
  EXPECT_GT(P.MaxRssKb, 0u);
  std::string Json = telemetry::exportSelfProfileJson(S);
  EXPECT_TRUE(JsonChecker(Json).valid()) << Json.substr(0, 400);
  for (std::string Field :
       {"\"process\": {\"user_cpu_ms\": " + formatFixed(P.UserCpuMs, 3),
        "\"system_cpu_ms\": " + formatFixed(P.SystemCpuMs, 3),
        "\"minor_faults\": " + std::to_string(P.MinorFaults),
        "\"major_faults\": " + std::to_string(P.MajorFaults),
        "\"voluntary_switches\": " + std::to_string(P.VoluntarySwitches),
        "\"involuntary_switches\": " + std::to_string(P.InvoluntarySwitches),
        "\"max_rss_kb\": " + std::to_string(P.MaxRssKb) + "}"})
    EXPECT_NE(Json.find(Field), std::string::npos) << Field;
}

TEST(TelemetryTest, DisabledModeRecordsNothing) {
  telemetry::reset();
  ASSERT_FALSE(telemetry::enabled());
  {
    LIMA_STAGE("dark");
    LIMA_SPAN("unseen");
    LIMA_COUNTER_ADD("unseen.counter", 42);
  }
  parallelFor(100, 4, [](size_t) { LIMA_SPAN("unseen.parallel"); });
  telemetry::Snapshot S = telemetry::collect();
  EXPECT_TRUE(S.Events.empty());
  EXPECT_TRUE(S.Stages.empty());
  EXPECT_TRUE(S.Counters.empty());
}

//===----------------------------------------------------------------------===//
// Exporters
//===----------------------------------------------------------------------===//

TEST(TelemetryExportTest, ChromeTraceIsWellFormedWithMonotonicTimestamps) {
  if (!TelemetryCompiled)
    GTEST_SKIP() << "telemetry compiled out";
  TelemetrySession Session;
  trace::Trace T = makeTrace(8, 40);
  core::ReductionOptions Reduction;
  Reduction.Threads = 4;
  core::MeasurementCube Cube = cantFail(core::reduceTrace(T, Reduction));
  core::AnalysisOptions Options;
  Options.Threads = 4;
  (void)cantFail(core::analyze(Cube, Options));
  telemetry::setEnabled(false);
  telemetry::Snapshot S = telemetry::collect();
  ASSERT_FALSE(S.Events.empty());

  std::string Json = telemetry::exportChromeTrace(S);
  EXPECT_TRUE(JsonChecker(Json).valid()) << Json.substr(0, 400);
  EXPECT_NE(Json.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(Json.find("\"thread_name\""), std::string::npos);

  std::vector<double> Ts = completeEventTimestamps(Json);
  ASSERT_FALSE(Ts.empty());
  for (size_t I = 1; I < Ts.size(); ++I)
    EXPECT_LE(Ts[I - 1], Ts[I]) << "timestamps regress at event " << I;

  std::string Stats = telemetry::exportSelfProfileJson(S);
  EXPECT_TRUE(JsonChecker(Stats).valid()) << Stats.substr(0, 400);
  EXPECT_NE(Stats.find("\"git_rev\""), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Determinism and the self-profile cube
//===----------------------------------------------------------------------===//

TEST(TelemetryTest, RecordingDoesNotChangeAnalysisResults) {
  trace::Trace T = makeTrace(8, 60);
  core::ReductionOptions Reduction;
  Reduction.Threads = 4;
  core::AnalysisOptions Options;
  Options.Threads = 4;

  telemetry::reset();
  core::MeasurementCube PlainCube = cantFail(core::reduceTrace(T, Reduction));
  core::AnalysisResult Plain = cantFail(core::analyze(PlainCube, Options));

  core::AnalysisResult Recorded = [&] {
    TelemetrySession Session;
    core::MeasurementCube Cube = cantFail(core::reduceTrace(T, Reduction));
    return cantFail(core::analyze(Cube, Options));
  }();

  EXPECT_EQ(Plain.Regions.Index, Recorded.Regions.Index);
  EXPECT_EQ(Plain.Regions.ScaledIndex, Recorded.Regions.ScaledIndex);
  EXPECT_EQ(Plain.Processors.Index, Recorded.Processors.Index);
  EXPECT_EQ(Plain.Activities.Dissimilarity, Recorded.Activities.Dissimilarity);
}

TEST(SelfProfileTest, CubeReproducesStageWallTimes) {
  if (!TelemetryCompiled)
    GTEST_SKIP() << "telemetry compiled out";
  TelemetrySession Session;
  trace::Trace T = makeTrace(8, 40);
  core::ReductionOptions Reduction;
  Reduction.Threads = 4;
  core::MeasurementCube Cube = cantFail(core::reduceTrace(T, Reduction));
  core::AnalysisOptions Options;
  Options.Threads = 4;
  (void)cantFail(core::analyze(Cube, Options));
  telemetry::setEnabled(false);
  telemetry::Snapshot S = telemetry::collect();

  core::MeasurementCube Self = cantFail(core::buildSelfProfileCube(S));
  ASSERT_EQ(Self.numRegions(), S.Stages.size());
  EXPECT_EQ(Self.numActivities(), 3u);
  EXPECT_EQ(Self.numProcs(), S.NumWorkers);

  // Each worker's compute+wait+idle row sums to the stage wall, so the
  // cube's instrumented total is (stages x wall) and the program time
  // covers the whole session.
  for (size_t R = 0; R != Self.numRegions(); ++R) {
    EXPECT_EQ(Self.regionName(R), S.Stages[R].Name);
    for (unsigned P = 0; P != Self.numProcs(); ++P) {
      double RowSec = 0.0;
      for (size_t A = 0; A != Self.numActivities(); ++A)
        RowSec += Self.time(R, A, P);
      EXPECT_NEAR(RowSec, S.Stages[R].WallMs / 1e3,
                  1e-9 + S.Stages[R].WallMs / 1e3 * 1e-6);
    }
  }
  EXPECT_GE(Self.programTime(), 0.999 * (S.SessionWallMs / 1e3));

  // The dogfooded cube feeds back into the standard analysis.
  core::AnalysisOptions SelfOptions;
  SelfOptions.Clusters = 0;
  SelfOptions.Threads = 1;
  core::AnalysisResult Result = cantFail(core::analyze(Self, SelfOptions));
  EXPECT_EQ(Result.Regions.Index.size(), S.Stages.size());
}

TEST(SelfProfileTest, EmptySnapshotIsARecoverableError) {
  telemetry::reset();
  telemetry::Snapshot S = telemetry::collect();
  std::string Message = messageOf(core::buildSelfProfileCube(S));
  EXPECT_NE(Message.find("no pipeline stages"), std::string::npos)
      << Message;
}

} // namespace
