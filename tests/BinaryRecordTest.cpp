//===- tests/BinaryRecordTest.cpp - LIMB record decoder vs reference ------===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Differential test of the one LIMB event-record decoder
// (trace::detail::decodeRecord plus recordError) against the per-field
// reference in BinaryRecordReference.h.  Both decode the same bytes:
// every record of a run of hand-made records, under every single-byte
// overwrite and every truncation length, with junk after the bound so a
// read past it would change the result.  Each step must agree on the
// status (accepted, value failure, framing failure), the bytes
// consumed, the decoded values, and the error's code, offset and
// message.  The two varint edges also ship as fuzz seeds; the readers'
// verdicts on them are pinned at the end, and so is what every reader
// does with the byte count of a record that is not a message.
//
//===----------------------------------------------------------------------===//

#include "BinaryRecordReference.h"
#include "TraceCompare.h"
#include "support/Checksum.h"
#include "support/FileUtils.h"
#include "trace/BinaryDetail.h"
#include "trace/BinaryIO.h"
#include "trace/ParallelBinary.h"
#include "gtest/gtest.h"
#include <cstring>
#include <limits>
#include <string>

using namespace lima;
using namespace lima::trace::detail;
using lima::testutil::RefRecord;
using trace::EventKind;
using trace::Trace;

namespace {

/// 3 processors, 2 regions, 2 activities: every id table is small
/// enough that one-byte ids fall on both sides of its bound.
Trace makeTables() {
  Trace T(3);
  T.addRegion("main");
  T.addRegion("loop");
  T.addActivity("computation");
  T.addActivity("p2p");
  return T;
}

void appendVarint(std::string &Out, uint64_t Value) {
  while (Value >= 0x80) {
    Out.push_back(static_cast<char>(0x80 | (Value & 0x7F)));
    Value >>= 7;
  }
  Out.push_back(static_cast<char>(Value));
}

/// One record as the writers lay it out, with a raw kind byte.
std::string record(double Time, uint8_t Kind, uint64_t Id, uint64_t Bytes) {
  std::string Out(sizeof(double), '\0');
  std::memcpy(Out.data(), &Time, sizeof(double));
  Out.push_back(static_cast<char>(Kind));
  appendVarint(Out, Id);
  appendVarint(Out, Bytes);
  return Out;
}

/// A record whose id field is the raw varint bytes \p IdBytes.
std::string rawIdRecord(double Time, uint8_t Kind, std::string IdBytes) {
  std::string Out(sizeof(double), '\0');
  std::memcpy(Out.data(), &Time, sizeof(double));
  Out.push_back(static_cast<char>(Kind));
  return Out + IdBytes + std::string(1, '\0');
}

uint8_t kindByte(EventKind K) { return static_cast<uint8_t>(K); }

/// Nine continuation bytes with no value bits, then \p Last: with 0x01
/// that is the ten-byte varint of 2^63.
std::string tenByteVarint(uint8_t Last) {
  std::string Out(9, static_cast<char>(0x80));
  Out.push_back(static_cast<char>(Last));
  return Out;
}

uint64_t bitsOf(double D) {
  uint64_t U;
  std::memcpy(&U, &D, sizeof(U));
  return U;
}

/// Decodes records from \p Start with both decoders, bounded at \p End,
/// until a framing failure or the bound; every step must agree.
/// Returns the number of records compared.
size_t expectSameDecode(std::string_view Data, size_t Start, size_t End,
                        const Trace &T, const std::string &What) {
  const RecordBounds Bounds(T);
  size_t Pos = Start, Steps = 0;
  while (true) {
    RefRecord Ref = testutil::refDecodeRecord(Data.substr(0, End), Pos, T);
    RawRecord R;
    size_t Next = Pos;
    RecordStatus S = decodeRecord(Data.data(), Next, End, Bounds, R);
    std::string At = What + " record at " + std::to_string(Pos);
    ++Steps;
    EXPECT_EQ(S.framing(), !Ref.Framed) << At;
    EXPECT_EQ(S.ok(), !Ref.Err.has_value()) << At;
    if (S.framing() != !Ref.Framed || S.ok() != !Ref.Err.has_value())
      return Steps;
    if (Ref.Err) {
      ParseError PE = recordError(S, R).toParseError();
      EXPECT_EQ(PE.Code, Ref.Err->Code) << At;
      EXPECT_EQ(PE.Line, Ref.Err->Line) << At;
      EXPECT_EQ(PE.Offset, Ref.Err->Offset) << At;
      EXPECT_EQ(PE.Msg, Ref.Err->Msg) << At;
    }
    if (!Ref.Framed)
      return Steps;
    EXPECT_EQ(Next, Ref.End) << At;
    EXPECT_EQ(bitsOf(R.Time), bitsOf(Ref.Time)) << At;
    EXPECT_EQ(R.Kind, Ref.Kind) << At;
    EXPECT_EQ(R.Id, Ref.Id) << At;
    EXPECT_EQ(R.Bytes, Ref.Bytes) << At;
    if (S.ok()) {
      EXPECT_EQ(S.Offset, Pos) << At;
    }
    Pos = Next;
    if (Pos >= End)
      return Steps;
  }
}

/// Junk after the bound: continuation bytes that would extend a varint
/// and a kind byte that would look valid.
const std::string Guard(16, static_cast<char>(0x81));

/// Every single-byte overwrite (all 256 values at every position) and
/// every truncation length of \p Records, with the guard after the
/// bound.  A cut at a record boundary is a record that ends in its
/// block's last bytes.
void sweep(const std::string &Records, const Trace &T,
           const std::string &What) {
  std::string Data = Records + Guard;
  for (size_t Len = 0; Len <= Records.size(); ++Len)
    expectSameDecode(Data, 0, Len, T, What + " cut at " + std::to_string(Len));
  for (size_t I = 0; I != Records.size(); ++I)
    for (unsigned V = 0; V != 256; ++V) {
      std::string Mutated = Data;
      Mutated[I] = static_cast<char>(V);
      expectSameDecode(Mutated, 0, Records.size(), T,
                       What + " byte " + std::to_string(I) + "=" +
                           std::to_string(V));
      if (::testing::Test::HasFailure())
        return;
    }
}

TEST(BinaryRecordTest, AcceptsEveryKindAndVarintWidth) {
  Trace T = makeTables();
  std::string Records =
      record(0.0, kindByte(EventKind::RegionEnter), 1, 0) +
      record(0.5, kindByte(EventKind::ActivityBegin), 1, 0) +
      record(-0.0, kindByte(EventKind::ActivityEnd), 0, 0) +
      record(1.25, kindByte(EventKind::MessageSend), 2, 300) +
      record(std::numeric_limits<double>::infinity(),
             kindByte(EventKind::MessageRecv), 0, UINT64_MAX) +
      record(2.0, kindByte(EventKind::RegionExit), 0, uint64_t(1) << 63);
  EXPECT_EQ(expectSameDecode(Records, 0, Records.size(), T, "valid"), 6u);
  sweep(Records, T, "valid");
}

TEST(BinaryRecordTest, EachValueErrorMatches) {
  Trace T = makeTables();
  const double NaN = std::numeric_limits<double>::quiet_NaN();
  std::string Records =
      record(NaN, kindByte(EventKind::RegionEnter), 0, 0) +
      record(-1.0, kindByte(EventKind::RegionEnter), 0, 0) +
      record(1.0, 6, 0, 0) + record(1.0, 255, 0, 0) +
      record(1.0, kindByte(EventKind::MessageSend), uint64_t(1) << 32, 8) +
      record(1.0, kindByte(EventKind::RegionExit), UINT64_MAX, 0) +
      record(1.0, kindByte(EventKind::RegionEnter), 2, 0) +
      record(1.0, kindByte(EventKind::ActivityEnd), 2, 0) +
      record(1.0, kindByte(EventKind::MessageRecv), 3, 8) +
      record(1.0, kindByte(EventKind::MessageSend), 1, 8);
  // Value failures keep the records framed, so all ten are compared.
  EXPECT_EQ(expectSameDecode(Records, 0, Records.size(), T, "values"), 10u);
  const RecordBounds Bounds(T);
  const RecordStatus::Code Expected[] = {
      RecordStatus::BadTime,          RecordStatus::BadTime,
      RecordStatus::UnknownKind,      RecordStatus::UnknownKind,
      RecordStatus::IdOverflow,       RecordStatus::IdOverflow,
      RecordStatus::RegionOutOfRange, RecordStatus::ActivityOutOfRange,
      RecordStatus::PeerOutOfRange,   RecordStatus::Ok};
  size_t Pos = 0;
  for (RecordStatus::Code Code : Expected) {
    RawRecord R;
    EXPECT_EQ(decodeRecord(Records.data(), Pos, Records.size(), Bounds, R)
                  .What,
              Code);
  }
  sweep(Records.substr(0, Records.size() / 2), T, "values");
}

TEST(BinaryRecordTest, VarintEdgesMatch) {
  Trace T = makeTables();
  // Ten-byte ids: 2^63 is framed (an id overflow), a tenth byte of 2 or
  // with its continuation bit set overflows at that byte, and eleven
  // bytes never get past the tenth.
  for (uint8_t Last : {0x00, 0x01, 0x02, 0x7F, 0x80, 0x81, 0xFF}) {
    std::string Rec =
        rawIdRecord(1.0, kindByte(EventKind::RegionEnter), tenByteVarint(Last));
    std::string What = "tenth byte " + std::to_string(Last);
    expectSameDecode(Rec + Guard, 0, Rec.size(), T, What);
    sweep(Rec, T, What);
  }
  std::string Eleven = rawIdRecord(1.0, kindByte(EventKind::RegionEnter),
                                   std::string(10, '\xff') + '\x01');
  expectSameDecode(Eleven, 0, Eleven.size(), T, "eleven bytes");

  // The same edges through the run-header path of ByteReader.
  auto flatten = [](Expected<uint64_t> V) {
    if (V)
      return "value " + std::to_string(*V);
    ParseError PE = V.takeError().toParseError();
    return std::string(errorCodeName(PE.Code)) + " at " +
           std::to_string(PE.Offset) + ": " + PE.Msg;
  };
  for (uint8_t Last : {0x01, 0x02}) {
    std::string V = tenByteVarint(Last);
    ByteReader In(V, 0, 0);
    testutil::RefByteReader Ref(V, 0);
    EXPECT_EQ(flatten(In.readVarint()), flatten(Ref.readVarint()))
        << "tenth byte " << unsigned(Last);
  }
}

std::string fixture(const std::string &Name) {
  return cantFail(readFile(std::string(LIMA_FUZZ_CORPUS_DIR) +
                           "/fuzz_trace_binary/" + Name));
}

TEST(BinaryRecordTest, VarintEdgeSeedsParse) {
  // varint-10-byte.limb: a message of 2^64 - 1 bytes, a ten-byte varint.
  Trace Ten = cantFail(trace::parseTraceBinary(fixture("varint-10-byte.limb")));
  bool Found = false;
  for (unsigned P = 0; P != Ten.numProcs(); ++P)
    for (const trace::Event &E : Ten.events(P))
      Found |= E.Bytes == UINT64_MAX;
  EXPECT_TRUE(Found);

  // varint-overflow.limb: the same file without block CRCs and with the
  // tenth byte raised to 2, which overflows.  Strict stops there; lenient
  // drops the whole block.
  std::string Overflow = fixture("varint-overflow.limb");
  Expected<Trace> Strict = trace::parseTraceBinary(Overflow);
  ASSERT_FALSE(static_cast<bool>(Strict));
  ParseError PE = Strict.takeError().toParseError();
  EXPECT_EQ(PE.Code, ErrorCode::MalformedRecord);
  EXPECT_EQ(PE.Msg, "binary trace: varint overflow at byte " +
                        std::to_string(PE.Offset));
  EXPECT_EQ(static_cast<uint8_t>(Overflow[PE.Offset]), 2u);

  ParseReport Report;
  ParseOptions Lenient;
  Lenient.Mode = ParseMode::Lenient;
  Lenient.Report = &Report;
  Trace Salvaged = cantFail(trace::parseTraceBinary(Overflow, Lenient));
  EXPECT_EQ(Report.DroppedByCode[static_cast<size_t>(
                ErrorCode::MalformedRecord)],
            Report.DroppedRecords);
  EXPECT_EQ(Salvaged.numEvents() + Report.DroppedRecords, Ten.numEvents());
  EXPECT_EQ(Report.TotalRecords, Ten.numEvents());
}

template <typename T> void appendScalar(std::string &Out, T Value) {
  char Buf[sizeof(T)];
  std::memcpy(Buf, &Value, sizeof(T));
  Out.append(Buf, sizeof(T));
}

void appendName(std::string &Out, std::string_view Name) {
  appendScalar<uint32_t>(Out, static_cast<uint32_t>(Name.size()));
  Out += Name;
}

/// A LIMB file over makeTables()'s names in which processor P logs the
/// records \p Procs[P] (at least one each): version 1, or version 2 as
/// one block without a CRC, with its index and footer when \p Indexed.
std::string limbFile(uint32_t Version, bool Indexed,
                     const std::vector<std::vector<std::string>> &Procs) {
  std::string Out(BinaryMagic, sizeof(BinaryMagic));
  appendScalar<uint32_t>(Out, Version);
  if (Version == BinaryVersion2)
    appendScalar<uint32_t>(Out, 0);
  appendScalar<uint32_t>(Out, static_cast<uint32_t>(Procs.size()));
  appendScalar<uint32_t>(Out, 2);
  appendName(Out, "main");
  appendName(Out, "loop");
  appendScalar<uint32_t>(Out, 2);
  appendName(Out, "computation");
  appendName(Out, "p2p");
  if (Version == BinaryVersion1) {
    for (const std::vector<std::string> &Records : Procs) {
      appendScalar<uint64_t>(Out, Records.size());
      for (const std::string &Rec : Records)
        Out += Rec;
    }
    return Out;
  }
  uint32_t Total = 0;
  for (const std::vector<std::string> &Records : Procs)
    Total += static_cast<uint32_t>(Records.size());
  appendScalar<uint64_t>(Out, Total);
  const uint64_t BlockStart = Out.size();
  appendVarint(Out, Procs.size());
  for (size_t P = 0; P != Procs.size(); ++P) {
    appendVarint(Out, P);
    appendVarint(Out, Procs[P].size());
    for (const std::string &Rec : Procs[P])
      Out += Rec;
  }
  if (!Indexed)
    return Out;
  auto timeOf = [](const std::string &Rec) {
    double Time;
    std::memcpy(&Time, Rec.data(), sizeof(double));
    return Time;
  };
  std::string Index;
  appendScalar<uint32_t>(Index, 1);
  appendScalar<uint64_t>(Index, BlockStart);
  appendScalar<uint32_t>(Index, static_cast<uint32_t>(Out.size() - BlockStart));
  appendScalar<uint32_t>(Index, Total);
  appendScalar<double>(Index, timeOf(Procs.front().front()));
  appendScalar<double>(Index, timeOf(Procs.back().back()));
  appendScalar<uint32_t>(Index, 0);
  appendScalar<uint32_t>(Index, static_cast<uint32_t>(Procs.size()));
  for (size_t P = 0; P != Procs.size(); ++P) {
    appendScalar<uint32_t>(Index, static_cast<uint32_t>(P));
    appendScalar<uint32_t>(Index, static_cast<uint32_t>(Procs[P].size()));
  }
  const uint64_t IndexStart = Out.size();
  Out += Index;
  appendScalar<uint64_t>(Out, IndexStart);
  appendScalar<uint32_t>(Out, static_cast<uint32_t>(Index.size()));
  appendScalar<uint32_t>(Out, crc32(Index));
  Out.append(BinaryFooterMagic, sizeof(BinaryFooterMagic));
  return Out;
}

/// Three processors' records in which every region and activity record
/// carries the byte count \p N and the two messages carry 300.  With
/// \p Bad, processor 1's activity begin has a negative time.
std::vector<std::vector<std::string>> countedRecords(uint64_t N, bool Bad) {
  const uint8_t Re = kindByte(EventKind::RegionEnter);
  const uint8_t Rx = kindByte(EventKind::RegionExit);
  const uint8_t Ab = kindByte(EventKind::ActivityBegin);
  const uint8_t Ae = kindByte(EventKind::ActivityEnd);
  return {{record(0.0, Re, 0, N), record(0.5, Ab, 0, N),
           record(1.0, kindByte(EventKind::MessageSend), 1, 300),
           record(1.5, Ae, 0, N), record(2.0, Rx, 0, N)},
          {record(0.0, Re, 0, N),
           record(1.25, kindByte(EventKind::MessageRecv), 0, 300),
           record(Bad ? -1.0 : 1.5, Ab, 1, N), record(1.75, Ae, 1, N),
           record(2.0, Rx, 0, N)},
          {record(0.0, Re, 1, N), record(0.25, Ab, 0, N),
           record(0.75, Ae, 0, N), record(1.0, Rx, 1, N)}};
}

/// What one parse returned: the trace, or the error, and the report.
struct Parsed {
  std::optional<Trace> T;
  ParseError Err;
  ParseReport Report;
};

Parsed parseLimb(std::string_view Data, ParseMode Mode, unsigned Threads) {
  Parsed Out;
  ParseOptions Options;
  Options.Mode = Mode;
  Options.Report = Mode == ParseMode::Lenient ? &Out.Report : nullptr;
  Expected<Trace> T = trace::parseTraceBinaryParallel(Data, Options, Threads);
  if (T)
    Out.T.emplace(std::move(*T));
  else
    Out.Err = T.takeError().toParseError();
  return Out;
}

TEST(BinaryRecordTest, NonMessageByteCountsReadBackAsZero) {
  // Only ms and mr records keep their byte count.  Any other record's
  // count is still read and framed, so it may be any varint, but the
  // event reads back with 0, and the file parses to exactly what the
  // same file with counts of 0 parses to: the same columns, verdict
  // (code, offset, message) and report.  One-byte counts keep every
  // offset of the two files equal.
  const struct {
    const char *Name;
    uint32_t Version;
    bool Indexed;
  } Shapes[] = {{"v1", BinaryVersion1, false},
                {"v2-indexed", BinaryVersion2, true},
                {"v2-walked", BinaryVersion2, false}};
  for (const auto &Shape : Shapes)
    for (uint64_t N : {uint64_t(42), uint64_t(300), UINT64_MAX})
      for (bool Bad : {false, true}) {
        if (Bad && N >= 0x80)
          continue;
        std::string Zero =
            limbFile(Shape.Version, Shape.Indexed, countedRecords(0, Bad));
        std::string Counted =
            limbFile(Shape.Version, Shape.Indexed, countedRecords(N, Bad));
        for (ParseMode Mode : {ParseMode::Strict, ParseMode::Lenient})
          for (unsigned Threads : {1u, 2u}) {
            std::string What = std::string(Shape.Name) + " bytes " +
                               std::to_string(N) + (Bad ? " bad" : "") +
                               (Mode == ParseMode::Strict ? " strict"
                                                          : " lenient") +
                               " threads " + std::to_string(Threads);
            Parsed Want = parseLimb(Zero, Mode, Threads);
            Parsed Got = parseLimb(Counted, Mode, Threads);
            ASSERT_EQ(Got.T.has_value(), Want.T.has_value()) << What;
            EXPECT_EQ(Got.T.has_value(), Mode == ParseMode::Lenient || !Bad)
                << What;
            if (Got.T) {
              EXPECT_TRUE(testutil::sameEventColumns(*Got.T, *Want.T))
                  << What;
              for (unsigned P = 0; P != Got.T->numProcs(); ++P)
                for (const trace::Event &E : Got.T->events(P))
                  EXPECT_EQ(E.Bytes, trace::isMessage(E.Kind) ? 300u : 0u)
                      << What;
              // A rewrite writes 0, and reads back the same columns.
              std::string Rewritten = trace::writeTraceBinary(*Got.T);
              EXPECT_EQ(Rewritten, trace::writeTraceBinary(*Want.T)) << What;
              EXPECT_TRUE(testutil::sameEventColumns(
                  cantFail(trace::parseTraceBinary(Rewritten)), *Got.T))
                  << What;
            } else {
              EXPECT_EQ(Got.Err.Code, Want.Err.Code) << What;
              EXPECT_EQ(Got.Err.Offset, Want.Err.Offset) << What;
              EXPECT_EQ(Got.Err.Msg, Want.Err.Msg) << What;
            }
            EXPECT_EQ(Got.Report.TotalRecords, Want.Report.TotalRecords)
                << What;
            EXPECT_EQ(Got.Report.DroppedRecords, Want.Report.DroppedRecords)
                << What;
            EXPECT_EQ(Got.Report.DroppedRecords, Bad && Mode ==
                                                     ParseMode::Lenient
                                                     ? 1u
                                                     : 0u)
                << What;
            ASSERT_EQ(Got.Report.Samples.size(), Want.Report.Samples.size())
                << What;
            for (size_t I = 0; I != Got.Report.Samples.size(); ++I) {
              EXPECT_EQ(Got.Report.Samples[I].Offset,
                        Want.Report.Samples[I].Offset)
                  << What;
              EXPECT_EQ(Got.Report.Samples[I].Msg, Want.Report.Samples[I].Msg)
                  << What;
            }
          }
      }
}

} // namespace
