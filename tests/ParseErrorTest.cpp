//===- tests/ParseErrorTest.cpp - Error taxonomy and lenient parsing ------===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Corpus-driven checks of the structured parse errors: every malformed
// fixture in fuzz/corpus/ must fail with a specific ErrorCode at a
// specific location, lenient mode must drop exactly the bad records
// (deterministically at any thread count), and ParseLimits must turn
// hostile inputs into LimitExceeded before memory is committed.
//
//===----------------------------------------------------------------------===//

#include "core/CubeIO.h"
#include "core/TraceReduction.h"
#include "support/CSV.h"
#include "support/FileUtils.h"
#include "support/ParseLimits.h"
#include "trace/BinaryIO.h"
#include "trace/ParallelBinary.h"
#include "trace/TraceIO.h"
#include "gtest/gtest.h"

using namespace lima;
using trace::Event;
using trace::EventKind;
using trace::Trace;

namespace {

std::string fixture(const std::string &Name) {
  return cantFail(readFile(std::string(LIMA_FUZZ_CORPUS_DIR) + "/" + Name));
}

/// Byte offset of the start of 1-based \p LineNo in \p Text.
size_t lineStart(std::string_view Text, size_t LineNo) {
  size_t Offset = 0;
  for (size_t L = 1; L < LineNo; ++L)
    Offset = Text.find('\n', Offset) + 1;
  return Offset;
}

template <typename T> ParseError takeParseError(Expected<T> ValOrErr) {
  if (ValOrErr) {
    ADD_FAILURE() << "expected a parse failure, got a value";
    return ParseError{};
  }
  return ValOrErr.takeError().toParseError();
}

/// Two processors, one region, one activity, all well-formed.
Trace makeValidTrace() {
  Trace T(2);
  uint32_t R = T.addRegion("main");
  uint32_t A = T.addActivity("compute");
  for (uint32_t P = 0; P != 2; ++P) {
    T.append({0.0, P, EventKind::RegionEnter, R, 0});
    T.append({0.1, P, EventKind::ActivityBegin, A, 0});
    T.append({1.0 + P, P, EventKind::ActivityEnd, A, 0});
    T.append({1.1 + P, P, EventKind::RegionExit, R, 0});
  }
  return T;
}

TEST(ParseErrorTest, TraceTextFixtures) {
  struct Case {
    const char *Name;
    ErrorCode Code;
    size_t Line;
  };
  const Case Cases[] = {
      {"fuzz_trace_text/bad-magic.trace", ErrorCode::BadMagic, 1},
      {"fuzz_trace_text/bad-version.trace", ErrorCode::UnsupportedVersion, 1},
      {"fuzz_trace_text/missing-procs.trace", ErrorCode::MissingSection, 2},
      {"fuzz_trace_text/dup-procs.trace", ErrorCode::DuplicateDeclaration, 3},
      {"fuzz_trace_text/dup-region.trace", ErrorCode::DuplicateDeclaration, 4},
      {"fuzz_trace_text/dup-activity.trace", ErrorCode::DuplicateDeclaration,
       5},
      {"fuzz_trace_text/bad-number.trace", ErrorCode::BadNumber, 5},
      {"fuzz_trace_text/out-of-range-proc.trace", ErrorCode::ValueOutOfRange,
       5},
      {"fuzz_trace_text/unknown-record.trace", ErrorCode::MalformedRecord, 5},
      {"fuzz_trace_text/sparse-declaration.trace", ErrorCode::MalformedRecord,
       3},
  };
  for (const Case &C : Cases) {
    SCOPED_TRACE(C.Name);
    std::string Text = fixture(C.Name);
    ParseError PE = takeParseError(trace::parseTraceText(Text));
    EXPECT_EQ(PE.Code, C.Code);
    EXPECT_EQ(PE.Line, C.Line);
    EXPECT_EQ(PE.Offset, lineStart(Text, C.Line));
  }
}

TEST(ParseErrorTest, CubeFixtures) {
  struct Case {
    const char *Name;
    ErrorCode Code;
    size_t Line; // CSV row number; 0 when the error is not row-scoped.
  };
  const Case Cases[] = {
      {"fuzz_cube/bad-header.cube.csv", ErrorCode::BadMagic, 0},
      {"fuzz_cube/bad-row.cube.csv", ErrorCode::MalformedRecord, 2},
      {"fuzz_cube/negative-time.cube.csv", ErrorCode::ValueOutOfRange, 2},
      {"fuzz_cube/proc-zero.cube.csv", ErrorCode::ValueOutOfRange, 2},
      {"fuzz_cube/unknown-declaration.cube.csv", ErrorCode::MalformedRecord,
       2},
      {"fuzz_cube/no-data.cube.csv", ErrorCode::MissingSection, 0},
  };
  for (const Case &C : Cases) {
    SCOPED_TRACE(C.Name);
    ParseError PE = takeParseError(core::parseCubeCSV(fixture(C.Name)));
    EXPECT_EQ(PE.Code, C.Code);
    EXPECT_EQ(PE.Line, C.Line);
  }
}

TEST(ParseErrorTest, CsvFixtures) {
  {
    std::string Text = fixture("fuzz_csv/stray-quote.csv");
    ParseError PE = takeParseError(parseCSV(Text));
    EXPECT_EQ(PE.Code, ErrorCode::MalformedRecord);
    EXPECT_EQ(PE.Line, 1u);
    EXPECT_EQ(PE.Offset, Text.find('"'));
  }
  {
    std::string Text = fixture("fuzz_csv/unterminated-quote.csv");
    ParseError PE = takeParseError(parseCSV(Text));
    EXPECT_EQ(PE.Code, ErrorCode::TruncatedInput);
    EXPECT_EQ(PE.Line, 2u);
    EXPECT_EQ(PE.Offset, Text.size());
  }
}

TEST(ParseErrorTest, BinaryErrors) {
  std::string Bytes = trace::writeTraceBinaryV1(makeValidTrace());

  std::string BadMagic = Bytes;
  BadMagic[0] = 'X';
  EXPECT_EQ(takeParseError(trace::parseTraceBinary(BadMagic)).Code,
            ErrorCode::BadMagic);

  std::string BadVersion = Bytes;
  BadVersion[4] = 0x7f;
  EXPECT_EQ(takeParseError(trace::parseTraceBinary(BadVersion)).Code,
            ErrorCode::UnsupportedVersion);

  // Clipping inside the magic itself means the format cannot even be
  // identified: BadMagic, not TruncatedInput.
  EXPECT_EQ(takeParseError(
                trace::parseTraceBinary(std::string_view(Bytes).substr(0, 2)))
                .Code,
            ErrorCode::BadMagic);

  // Any truncation point past the magic loses framing: TruncatedInput,
  // with the reported offset inside the clipped buffer.
  for (size_t Cut : {size_t(9), Bytes.size() / 2, Bytes.size() - 1}) {
    SCOPED_TRACE(Cut);
    ParseError PE = takeParseError(
        trace::parseTraceBinary(std::string_view(Bytes).substr(0, Cut)));
    EXPECT_EQ(PE.Code, ErrorCode::TruncatedInput);
    EXPECT_LE(PE.Offset, Cut);
  }

  // Trailing garbage: fatal in strict mode, dropped in lenient mode.
  std::string Trailing = Bytes + "garbage";
  EXPECT_EQ(takeParseError(trace::parseTraceBinary(Trailing)).Code,
            ErrorCode::MalformedRecord);
  ParseReport Report;
  ParseOptions Lenient;
  Lenient.Mode = ParseMode::Lenient;
  Lenient.Report = &Report;
  Trace Reparsed = cantFail(trace::parseTraceBinary(Trailing, Lenient));
  EXPECT_EQ(Reparsed.numEvents(), makeValidTrace().numEvents());
  EXPECT_EQ(Report.DroppedRecords, 1u);
  EXPECT_EQ(Report.DroppedByCode[size_t(ErrorCode::MalformedRecord)], 1u);
}

TEST(ParseErrorTest, BinaryV2Errors) {
  std::string Bytes = trace::writeTraceBinary(makeValidTrace());

  // Header errors carry the same taxonomy as v1.
  std::string BadMagic = Bytes;
  BadMagic[0] = 'X';
  EXPECT_EQ(takeParseError(trace::parseTraceBinary(BadMagic)).Code,
            ErrorCode::BadMagic);
  std::string BadVersion = Bytes;
  BadVersion[4] = 0x7f;
  EXPECT_EQ(takeParseError(trace::parseTraceBinary(BadVersion)).Code,
            ErrorCode::UnsupportedVersion);

  // Unknown format flags are an unsupported dialect, not garbage.
  std::string BadFlags = Bytes;
  BadFlags[8] = char(0x80); // Flags field follows the version.
  EXPECT_EQ(takeParseError(trace::parseTraceBinary(BadFlags)).Code,
            ErrorCode::UnsupportedVersion);

  // Truncation inside the payload loses framing even for v2 (the index
  // is gone too, so the sequential walk hits the cliff).
  ParseError PE = takeParseError(trace::parseTraceBinary(
      std::string_view(Bytes).substr(0, Bytes.size() / 2)));
  EXPECT_EQ(PE.Code, ErrorCode::TruncatedInput);
  EXPECT_LE(PE.Offset, Bytes.size() / 2);
}

TEST(ParseErrorTest, BinaryDuplicateNames) {
  // A repeated name is refused in the header, in both modes, by the
  // sequential reader and by the indexed v2 decode alike.
  ParseOptions Lenient;
  Lenient.Mode = ParseMode::Lenient;
  for (const char *Name : {"fuzz_trace_binary/dup-region-v1.limb",
                           "fuzz_trace_binary/dup-region-v2.limb"}) {
    SCOPED_TRACE(Name);
    std::string Bytes = fixture(Name);
    EXPECT_EQ(takeParseError(trace::parseTraceBinary(Bytes)).Code,
              ErrorCode::DuplicateDeclaration);
    EXPECT_EQ(takeParseError(trace::parseTraceBinary(Bytes, Lenient)).Code,
              ErrorCode::DuplicateDeclaration);
    EXPECT_EQ(
        takeParseError(trace::parseTraceBinaryParallel(Bytes, {}, 2)).Code,
        ErrorCode::DuplicateDeclaration);
  }
  // The activity table: rename the second activity onto the first.
  Trace T(1);
  T.addRegion("r");
  T.addActivity("ab");
  T.addActivity("ac");
  std::string Bytes = trace::writeTraceBinary(T);
  Bytes.replace(Bytes.find("ac"), 2, "ab");
  EXPECT_EQ(takeParseError(trace::parseTraceBinary(Bytes)).Code,
            ErrorCode::DuplicateDeclaration);
}

TEST(ParseErrorTest, LenientTraceTextDropsAreDeterministic) {
  std::string Text = fixture("fuzz_trace_text/valid-with-bad-lines.trace");
  EXPECT_EQ(takeParseError(trace::parseTraceText(Text)).Code,
            ErrorCode::MalformedRecord);

  // The file has 10 event lines, two of them bad (one unknown mnemonic,
  // one out-of-range processor); lenient keeps the other eight.
  ParseReport First;
  for (int Round = 0; Round != 3; ++Round) {
    ParseReport Report;
    ParseOptions Options;
    Options.Mode = ParseMode::Lenient;
    Options.Report = &Report;
    Trace T = cantFail(trace::parseTraceText(Text, Options));
    EXPECT_EQ(T.numEvents(), 8u);
    EXPECT_EQ(Report.TotalRecords, 10u);
    EXPECT_EQ(Report.DroppedRecords, 2u);
    EXPECT_EQ(Report.DroppedByCode[size_t(ErrorCode::MalformedRecord)], 1u);
    EXPECT_EQ(Report.DroppedByCode[size_t(ErrorCode::ValueOutOfRange)], 1u);
    if (Round == 0)
      First = Report;
    else
      EXPECT_EQ(Report.DroppedByCode, First.DroppedByCode);
  }
}

TEST(ParseErrorTest, LenientCubeDropsBadRows) {
  std::string Text = fixture("fuzz_cube/valid-with-bad-rows.cube.csv");
  EXPECT_EQ(takeParseError(core::parseCubeCSV(Text)).Code,
            ErrorCode::BadNumber);

  ParseReport Report;
  ParseOptions Options;
  Options.Mode = ParseMode::Lenient;
  Options.Report = &Report;
  core::MeasurementCube Cube = cantFail(core::parseCubeCSV(Text, Options));
  EXPECT_EQ(Report.DroppedRecords, 2u);
  EXPECT_EQ(Report.DroppedByCode[size_t(ErrorCode::BadNumber)], 1u);
  EXPECT_EQ(Report.DroppedByCode[size_t(ErrorCode::ValueOutOfRange)], 1u);
  ASSERT_EQ(Cube.numProcs(), 2u);
  EXPECT_DOUBLE_EQ(Cube.time(0, 0, 0), 1.5);
  EXPECT_DOUBLE_EQ(Cube.time(0, 0, 1), 2.5);
}

TEST(ParseErrorTest, LenientCsvResyncsAtNextRow) {
  ParseReport Report;
  ParseOptions Options;
  Options.Mode = ParseMode::Lenient;
  Options.Report = &Report;
  auto Rows =
      cantFail(parseCSV(fixture("fuzz_csv/stray-quote.csv"), Options));
  ASSERT_EQ(Rows.size(), 1u);
  EXPECT_EQ(Rows[0], (std::vector<std::string>{"e", "f"}));
  EXPECT_EQ(Report.DroppedRecords, 1u);
}

// The reduceTrace regression from the issue: exit-without-enter and
// activity-outside-region must flow through the ParseReport in lenient
// mode instead of aborting, with counts independent of the thread count.
TEST(ParseErrorTest, LenientReductionIsDeterministicAcrossThreads) {
  // Structural faults on some processors and, with \p Backward, events
  // that step back in time on others.  Lenient mode skips validate, so
  // the fold itself must drop those: an end before its begin would
  // otherwise attribute negative time, and a stray enter would change
  // which later events count as inside a region.
  auto makeTrace = [](bool Backward) {
    Trace T(8);
    uint32_t R = T.addRegion("main");
    uint32_t A = T.addActivity("compute");
    for (uint32_t P = 0; P != 8; ++P) {
      if (P % 2 == 0)
        T.append({0.0, P, EventKind::RegionExit, R, 0}); // exit w/o enter
      T.append({0.1, P, EventKind::RegionEnter, R, 0});
      T.append({0.2, P, EventKind::ActivityBegin, A, 0});
      if (Backward && P % 3 == 0)
        T.append({0.15, P, EventKind::ActivityEnd, A, 0}); // before begin
      T.append({1.0 + P, P, EventKind::ActivityEnd, A, 0});
      T.append({1.1 + P, P, EventKind::RegionExit, R, 0});
      if (Backward && P % 3 == 1)
        T.append({0.5, P, EventKind::RegionEnter, R, 0}); // before exit
      if (P % 4 == 0)
        T.append({2.0 + P, P, EventKind::ActivityBegin, A, 0}); // outside
    }
    return T;
  };
  const Trace T = makeTrace(true);
  const Trace Clean = makeTrace(false);
  const size_t Backward = T.numEvents() - Clean.numEvents();
  ASSERT_EQ(Backward, 6u);

  core::ReductionOptions Strict;
  Strict.Threads = 1;
  auto StrictResult = core::reduceTrace(T, Strict);
  EXPECT_FALSE(static_cast<bool>(StrictResult));
  StrictResult.takeError().consume();

  auto cells = [](const core::MeasurementCube &Cube) {
    std::vector<double> Cells;
    for (unsigned P = 0; P != Cube.numProcs(); ++P)
      Cells.push_back(Cube.time(0, 0, P));
    return Cells;
  };
  std::vector<double> Reference;
  for (unsigned Threads : {1u, 2u, 8u}) {
    SCOPED_TRACE(Threads);
    ParseReport Report, CleanReport;
    core::ReductionOptions Options;
    Options.Threads = Threads;
    Options.Mode = ParseMode::Lenient;
    Options.Report = &CleanReport;
    std::vector<double> CleanCells =
        cells(cantFail(core::reduceTrace(Clean, Options)));
    Options.Report = &Report;
    std::vector<double> Cells = cells(cantFail(core::reduceTrace(T, Options)));

    EXPECT_EQ(CleanReport.DroppedRecords, 6u); // 4 exits + 2 begins
    EXPECT_EQ(Report.TotalRecords, T.numEvents());
    EXPECT_EQ(Report.DroppedRecords, CleanReport.DroppedRecords + Backward);
    EXPECT_EQ(Report.DroppedByCode[size_t(ErrorCode::StructuralError)],
              CleanReport.DroppedRecords + Backward);
    bool SawMessage = false;
    for (const ParseError &Sample : Report.Samples)
      SawMessage |= Sample.Msg == "proc 0 event 3: time goes backwards "
                                  "(0.150000000 after 0.200000000)";
    EXPECT_TRUE(SawMessage);

    // Dropping the backward events leaves exactly the clean trace's
    // cube, bit for bit.
    EXPECT_EQ(Cells, CleanCells);
    if (Reference.empty())
      Reference = Cells;
    else
      EXPECT_EQ(Cells, Reference); // bit-identical, not just close
  }
}

TEST(ParseErrorTest, BackwardStepWithinToleranceAttributesNoTime) {
  // validate lets an event step back by up to its tolerance, so in both
  // modes the fold sees an activity that ends just before it began; it
  // counts as empty instead of tripping the cube's negative-time check.
  Trace T(1);
  uint32_t R = T.addRegion("main");
  uint32_t A = T.addActivity("compute");
  T.append({1.0, 0, EventKind::RegionEnter, R, 0});
  T.append({2.0, 0, EventKind::ActivityBegin, A, 0});
  T.append({2.0 - 5e-13, 0, EventKind::ActivityEnd, A, 0});
  T.append({2.5, 0, EventKind::ActivityBegin, A, 0});
  T.append({2.75, 0, EventKind::ActivityEnd, A, 0});
  T.append({3.0, 0, EventKind::RegionExit, R, 0});
  ASSERT_FALSE(T.validate());
  for (ParseMode Mode : {ParseMode::Strict, ParseMode::Lenient}) {
    ParseReport Report;
    core::ReductionOptions Options;
    Options.Mode = Mode;
    Options.Report = &Report;
    core::MeasurementCube Cube = cantFail(core::reduceTrace(T, Options));
    EXPECT_EQ(Cube.time(0, 0, 0), 0.25);
    EXPECT_EQ(Report.DroppedRecords, 0u);
  }
}

TEST(ParseErrorTest, LimitsRejectHostileInputs) {
  // Event-count cap on the text format.
  std::string Text = trace::writeTraceText(makeValidTrace());
  ParseOptions Options;
  Options.Limits.MaxEvents = 3;
  EXPECT_EQ(takeParseError(trace::parseTraceText(Text, Options)).Code,
            ErrorCode::LimitExceeded);

  // Processor-count cap, below the format's own hard range check.
  ParseOptions ProcOptions;
  ProcOptions.Limits.MaxProcs = 10;
  EXPECT_EQ(takeParseError(trace::parseTraceText("LIMATRACE 1\nprocs 100\n",
                                                 ProcOptions))
                .Code,
            ErrorCode::LimitExceeded);

  // A hostile cube header declaring a huge cell cuboid must fail before
  // the cube allocates regions x activities x processors doubles.
  std::string Cube = "region,activity,proc,seconds\n";
  Cube += "#procs,,,100000\n";
  for (int I = 0; I != 10; ++I) {
    Cube += "#region,r" + std::to_string(I) + ",,\n";
    Cube += "#activity,a" + std::to_string(I) + ",,\n";
  }
  Cube += "r0,a0,1,1.0\n";
  ParseOptions CubeOptions;
  CubeOptions.Limits.MaxAllocBytes = 1u << 20;
  EXPECT_EQ(takeParseError(core::parseCubeCSV(Cube, CubeOptions)).Code,
            ErrorCode::LimitExceeded);

  // Name-length cap on the binary format's string table.
  Trace Named(1);
  Named.addRegion(std::string(100, 'r'));
  Named.addActivity("a");
  Named.append({0.0, 0, EventKind::RegionEnter, 0, 0});
  Named.append({1.0, 0, EventKind::RegionExit, 0, 0});
  std::string Binary = trace::writeTraceBinary(Named);
  ParseOptions NameOptions;
  NameOptions.Limits.MaxNameBytes = 16;
  EXPECT_EQ(takeParseError(trace::parseTraceBinary(Binary, NameOptions)).Code,
            ErrorCode::LimitExceeded);
}

TEST(ParseErrorTest, ExitCodesAndNamesAreStable) {
  EXPECT_EQ(exitCodeFor(ErrorCode::Generic), 1);
  EXPECT_EQ(exitCodeFor(ErrorCode::IoError), 2);
  EXPECT_EQ(exitCodeFor(ErrorCode::BadMagic), 3);
  EXPECT_EQ(exitCodeFor(ErrorCode::UnsupportedVersion), 3);
  EXPECT_EQ(exitCodeFor(ErrorCode::TruncatedInput), 4);
  EXPECT_EQ(exitCodeFor(ErrorCode::MalformedRecord), 4);
  EXPECT_EQ(exitCodeFor(ErrorCode::BadNumber), 4);
  EXPECT_EQ(exitCodeFor(ErrorCode::ValueOutOfRange), 5);
  EXPECT_EQ(exitCodeFor(ErrorCode::DuplicateDeclaration), 5);
  EXPECT_EQ(exitCodeFor(ErrorCode::MissingSection), 5);
  EXPECT_EQ(exitCodeFor(ErrorCode::StructuralError), 6);
  EXPECT_EQ(exitCodeFor(ErrorCode::LimitExceeded), 7);
  EXPECT_EQ(errorCodeName(ErrorCode::BadMagic), "bad-magic");
  EXPECT_EQ(errorCodeName(ErrorCode::LimitExceeded), "limit-exceeded");
}

TEST(ParseErrorTest, ReportSummaryMentionsCodesAndSamples) {
  ParseReport Report;
  Report.TotalRecords = 5;
  Report.addDrop({ErrorCode::MalformedRecord, 3, 42, "line 3: bad"});
  Report.addDrop({ErrorCode::BadNumber, 4, 50, "line 4: worse"});
  std::string Summary = Report.summary();
  EXPECT_NE(Summary.find("dropped 2 of 5 records"), std::string::npos);
  EXPECT_NE(Summary.find("malformed-record: 1"), std::string::npos);
  EXPECT_NE(Summary.find("bad-number: 1"), std::string::npos);
  EXPECT_NE(Summary.find("line 3: bad"), std::string::npos);
}

} // namespace
