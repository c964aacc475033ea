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
// verdicts on them are pinned at the end.
//
//===----------------------------------------------------------------------===//

#include "BinaryRecordReference.h"
#include "support/FileUtils.h"
#include "trace/BinaryDetail.h"
#include "trace/BinaryIO.h"
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

} // namespace
