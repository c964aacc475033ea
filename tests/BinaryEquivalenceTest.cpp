//===- tests/BinaryEquivalenceTest.cpp - v2 sharded vs v1 sequential ------===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// The golden-equivalence suite for the block-indexed binary reader:
// the same logical trace is serialized as LIMB v1 and as LIMB v2 (at
// several block sizes), then parsed through the v1 sequential reader
// and the v2 sharded reader at 1, 2 and 8 threads, in strict and
// lenient mode.
//
//  - Across v2 thread counts, everything must agree bit for bit:
//    events, success/failure, error code/offset/message, and the full
//    ParseReport (totals, per-code drops, sample order and text).
//  - Across encodings (v2 vs v1), the logical outcome must agree:
//    identical events, identical drop counts per code, identical error
//    codes — byte offsets necessarily differ between encodings.
//
// The suite also pins the fallback matrix: every corrupt-index shape
// (truncated footer, bad footer magic, index CRC damage, out-of-range
// index offset, inconsistent entries) must take the sequential salvage
// walk and still produce the full trace, while payload damage under a
// *valid* index is confined to the enclosing block (strict: that
// block's error; lenient: exactly that block's events dropped).  The
// checked-in corrupt fixtures in fuzz/corpus/fuzz_trace_binary/ are
// replayed against the same expectations.
//
//===----------------------------------------------------------------------===//

#include "TestHelpers.h"
#include "TraceCompare.h"
#include "support/Checksum.h"
#include "support/FileUtils.h"
#include "support/ParseLimits.h"
#include "trace/BinaryDetail.h"
#include "trace/BinaryIO.h"
#include "trace/ParallelBinary.h"
#include "trace/TraceIO.h"
#include "gtest/gtest.h"
#include <cstring>
#include <optional>
#include <vector>

using namespace lima;
using trace::Event;
using trace::EventKind;
using trace::Trace;

namespace {

std::string fixture(const std::string &Name) {
  return cantFail(readFile(std::string(LIMA_FUZZ_CORPUS_DIR) + "/" + Name));
}

/// A multi-processor trace with uneven streams, messages and (when
/// \p Dirty) a few negative-time events — the one value error both
/// writers can encode, so the same logical drops exist in v1 and v2.
Trace makeTrace(unsigned Procs, unsigned Rounds, bool Dirty) {
  Trace T(Procs);
  uint32_t Main = T.addRegion("main");
  uint32_t Loop = T.addRegion("loop");
  uint32_t Comp = T.addActivity("computation");
  uint32_t Comm = T.addActivity("communication");
  for (unsigned P = 0; P != Procs; ++P) {
    double Time = 0.0;
    T.append({Time, P, EventKind::RegionEnter, Main, 0});
    // Uneven stream lengths: processor P does P extra rounds.
    for (unsigned R = 0; R != Rounds + P; ++R) {
      T.append({Time += 0.1, P, EventKind::RegionEnter, Loop, 0});
      T.append({Time, P, EventKind::ActivityBegin, Comp, 0});
      T.append({Time += 0.5 + 0.01 * P, P, EventKind::ActivityEnd, Comp, 0});
      if (Dirty && R % 7 == 3)
        T.append({-1.0, P, EventKind::ActivityBegin, Comm, 0});
      T.append({Time, P, EventKind::ActivityBegin, Comm, 0});
      if (P + 1 != Procs)
        T.append({Time, P, EventKind::MessageSend, P + 1, 64 + R});
      if (P != 0)
        T.append({Time += 0.05, P, EventKind::MessageRecv, P - 1, 64 + R});
      T.append({Time += 0.05, P, EventKind::ActivityEnd, Comm, 0});
      T.append({Time, P, EventKind::RegionExit, Loop, 0});
    }
    T.append({Time + 0.1, P, EventKind::RegionExit, Main, 0});
  }
  return T;
}

/// Four processors whose messages sit at the message column's edges:
/// processor 0 logs nothing but messages, processor 1 no message, and
/// the streams of processors 2 and 3 start and end with a message.
/// When \p Dirty, processor 3's first and last events and every third
/// send of processor 0 have negative times, so lenient mode drops
/// messages at run boundaries and, in small blocks, at block seams.
Trace makeMessageEdgeTrace(unsigned Rounds, bool Dirty) {
  Trace T(4);
  uint32_t Main = T.addRegion("main");
  uint32_t Comp = T.addActivity("computation");
  const double Bad = -1.0;
  for (unsigned P = 0; P != 4; ++P) {
    double Time = 0.0;
    if (P == 2)
      T.append({Time, P, EventKind::MessageSend, 3, 7});
    if (P == 3)
      T.append({Dirty ? Bad : Time, P, EventKind::MessageSend, 0, 9});
    for (unsigned R = 0; R != Rounds; ++R) {
      if (P == 0) {
        Time += 0.1;
        T.append({Dirty && R % 3 == 1 ? Bad : Time, P,
                  EventKind::MessageSend, 1, 64 + R});
        T.append({Time += 0.1, P, EventKind::MessageRecv, 3, 128 + R});
        continue;
      }
      T.append({Time += 0.1, P, EventKind::RegionEnter, Main, 0});
      T.append({Time, P, EventKind::ActivityBegin, Comp, 0});
      T.append({Time += 0.5, P, EventKind::ActivityEnd, Comp, 0});
      T.append({Time, P, EventKind::RegionExit, Main, 0});
    }
    if (P == 2)
      T.append({Time + 0.1, P, EventKind::MessageRecv, 1, 11});
    if (P == 3)
      T.append({Dirty ? Bad : Time + 0.1, P, EventKind::MessageRecv, 2, 13});
  }
  return T;
}

/// The traces every block size and thread count is checked on.
std::vector<std::pair<std::string, Trace>> equivalenceTraces() {
  std::vector<std::pair<std::string, Trace>> Traces;
  Traces.emplace_back("clean", makeTrace(4, 20, false));
  Traces.emplace_back("dirty", makeTrace(4, 20, true));
  Traces.emplace_back("message-edges", makeMessageEdgeTrace(20, false));
  Traces.emplace_back("message-edges-dirty", makeMessageEdgeTrace(20, true));
  return Traces;
}

/// One parse outcome, flattened for comparison.
struct Outcome {
  bool Ok = false;
  std::optional<Trace> Parsed; // the trace on success
  std::string TraceText;       // writeTraceText on success
  ParseError Err;              // structured error on failure
  ParseReport Report;          // attached in lenient mode
};

Outcome runParse(std::string_view Bytes, ParseMode Mode, unsigned Threads) {
  Outcome O;
  ParseOptions Options;
  Options.Mode = Mode;
  Options.Report = Mode == ParseMode::Lenient ? &O.Report : nullptr;
  Expected<Trace> Result =
      trace::parseTraceBinaryParallel(Bytes, Options, Threads);
  if (Result) {
    O.Ok = true;
    O.TraceText = trace::writeTraceText(*Result);
    O.Parsed.emplace(std::move(*Result));
  } else {
    O.Err = Result.takeError().toParseError();
  }
  return O;
}

/// The same events, bit for bit, and the same text rendering (which
/// makes a failure readable).
void expectSameTrace(const Outcome &Ref, const Outcome &Got,
                     const std::string &What) {
  EXPECT_TRUE(testutil::sameTraceText(Ref.TraceText, Got.TraceText)) << What;
  EXPECT_TRUE(testutil::sameEventColumns(*Ref.Parsed, *Got.Parsed)) << What;
}

/// Bit-for-bit agreement: trace, error (incl. offset and message) and
/// report samples.  Used across thread counts of the same encoding.
void expectIdenticalOutcome(const Outcome &Ref, const Outcome &Got,
                            const std::string &What) {
  ASSERT_EQ(Ref.Ok, Got.Ok) << What;
  if (Ref.Ok) {
    expectSameTrace(Ref, Got, What);
  } else {
    EXPECT_EQ(Ref.Err.Code, Got.Err.Code) << What;
    EXPECT_EQ(Ref.Err.Offset, Got.Err.Offset) << What;
    EXPECT_EQ(Ref.Err.Msg, Got.Err.Msg) << What;
  }
  EXPECT_EQ(Ref.Report.TotalRecords, Got.Report.TotalRecords) << What;
  EXPECT_EQ(Ref.Report.DroppedRecords, Got.Report.DroppedRecords) << What;
  EXPECT_EQ(Ref.Report.DroppedByCode, Got.Report.DroppedByCode) << What;
  ASSERT_EQ(Ref.Report.Samples.size(), Got.Report.Samples.size()) << What;
  for (size_t I = 0; I != Ref.Report.Samples.size(); ++I) {
    EXPECT_EQ(Ref.Report.Samples[I].Code, Got.Report.Samples[I].Code)
        << What << " sample " << I;
    EXPECT_EQ(Ref.Report.Samples[I].Offset, Got.Report.Samples[I].Offset)
        << What << " sample " << I;
    EXPECT_EQ(Ref.Report.Samples[I].Msg, Got.Report.Samples[I].Msg)
        << What << " sample " << I;
  }
}

/// Logical agreement across encodings: identical events, drop counts
/// per code and error codes; offsets and messages differ by design.
void expectSameLogicalOutcome(const Outcome &Ref, const Outcome &Got,
                              const std::string &What) {
  ASSERT_EQ(Ref.Ok, Got.Ok) << What;
  if (Ref.Ok)
    expectSameTrace(Ref, Got, What);
  else
    EXPECT_EQ(Ref.Err.Code, Got.Err.Code) << What;
  EXPECT_EQ(Ref.Report.TotalRecords, Got.Report.TotalRecords) << What;
  EXPECT_EQ(Ref.Report.DroppedRecords, Got.Report.DroppedRecords) << What;
  EXPECT_EQ(Ref.Report.DroppedByCode, Got.Report.DroppedByCode) << What;
}

constexpr size_t FooterSize = 24;

/// Patches the footer's index-offset field and recomputes nothing: the
/// offset no longer matches the index bounds, so the index is invalid.
std::string withIndexOffsetPastEof(std::string V2) {
  uint64_t Offset = V2.size() + 1024;
  std::memcpy(V2.data() + V2.size() - FooterSize, &Offset, sizeof(Offset));
  return V2;
}

/// Reads the footer's index-offset field.
size_t indexStart(const std::string &V2) {
  uint64_t Offset;
  std::memcpy(&Offset, V2.data() + V2.size() - FooterSize, sizeof(Offset));
  return static_cast<size_t>(Offset);
}

/// Flips a byte inside the index region and fixes the footer CRC so
/// only the *contents* are inconsistent — exercising the semantic
/// index validation rather than the CRC gate.
std::string withInconsistentIndex(std::string V2) {
  size_t Start = indexStart(V2);
  // First block entry: u64 offset at Start+4.  Shift it by one byte so
  // the blocks no longer tile the payload.
  V2[Start + 4] = static_cast<char>(V2[Start + 4] + 1);
  std::string_view Index(V2.data() + Start,
                         V2.size() - FooterSize - Start);
  uint32_t Crc = crc32(Index);
  std::memcpy(V2.data() + V2.size() - FooterSize + 12, &Crc, sizeof(Crc));
  return V2;
}

} // namespace

TEST(BinaryEquivalenceTest, V2ThreadCountsAreBitIdentical) {
  for (const auto &[Name, T] : equivalenceTraces()) {
    for (size_t BlockEvents : {size_t(3), size_t(16), size_t(1) << 16}) {
      trace::BinaryWriteOptions W;
      W.BlockEvents = BlockEvents;
      std::string V2 = writeTraceBinary(T, W);
      for (ParseMode Mode : {ParseMode::Strict, ParseMode::Lenient}) {
        Outcome Ref = runParse(V2, Mode, 1);
        for (unsigned Threads : {2u, 8u}) {
          std::string What = Name + " block=" + std::to_string(BlockEvents) +
                             " mode=" +
                             (Mode == ParseMode::Strict ? "strict"
                                                        : "lenient") +
                             " threads=" + std::to_string(Threads);
          expectIdenticalOutcome(Ref, runParse(V2, Mode, Threads), What);
        }
      }
    }
  }
}

TEST(BinaryEquivalenceTest, V2MatchesV1OnTheSameLogicalTrace) {
  for (const auto &[Name, T] : equivalenceTraces()) {
    std::string V1 = writeTraceBinaryV1(T);
    for (size_t BlockEvents : {size_t(3), size_t(5), size_t(1) << 16}) {
      trace::BinaryWriteOptions W;
      W.BlockEvents = BlockEvents;
      std::string V2 = writeTraceBinary(T, W);
      for (ParseMode Mode : {ParseMode::Strict, ParseMode::Lenient}) {
        Outcome Ref = runParse(V1, Mode, 1);
        for (unsigned Threads : {1u, 2u, 8u}) {
          std::string What = Name + " block=" + std::to_string(BlockEvents) +
                             " mode=" +
                             (Mode == ParseMode::Strict ? "strict"
                                                        : "lenient") +
                             " threads=" + std::to_string(Threads);
          expectSameLogicalOutcome(Ref, runParse(V2, Mode, Threads), What);
        }
      }
    }
  }
}

TEST(BinaryEquivalenceTest, IndexlessSalvageMatchesIndexedDecode) {
  // Every corrupt-index shape must fall back to the sequential walk
  // and still produce the exact trace the indexed decode produces.
  Trace T = makeTrace(3, 12, false);
  trace::BinaryWriteOptions W;
  W.BlockEvents = 7;
  std::string V2 = writeTraceBinary(T, W);
  Outcome Ref = runParse(V2, ParseMode::Strict, 2);
  ASSERT_TRUE(Ref.Ok);

  std::string TruncatedFooter = V2.substr(0, V2.size() - 3);
  std::string BadFooterMagic = V2;
  BadFooterMagic[V2.size() - 1] = 'X';
  std::string BadIndexCrc = V2;
  BadIndexCrc[indexStart(V2) + 4] ^= 0x01; // no CRC fix-up
  std::string Cases[] = {TruncatedFooter, BadFooterMagic, BadIndexCrc,
                         withIndexOffsetPastEof(V2),
                         withInconsistentIndex(V2)};
  const char *Names[] = {"truncated-footer", "bad-footer-magic",
                         "bad-index-crc", "index-offset-past-eof",
                         "inconsistent-index"};
  for (size_t I = 0; I != std::size(Cases); ++I) {
    for (ParseMode Mode : {ParseMode::Strict, ParseMode::Lenient}) {
      Outcome Got = runParse(Cases[I], Mode, 4);
      ASSERT_TRUE(Got.Ok) << Names[I];
      expectSameTrace(Ref, Got, Names[I]);
      EXPECT_EQ(Got.Report.DroppedRecords, 0u) << Names[I];
    }
  }
}

TEST(BinaryEquivalenceTest, PayloadDamageUnderValidIndexIsBlockScoped) {
  Trace T = makeTrace(3, 12, false);
  size_t Total = T.numEvents();
  // Two damages to the block holding the file's middle byte, the index
  // staying valid: a flipped payload byte, which the block CRC catches
  // before a record is decoded, and, in a file without CRCs, a nudged
  // first time, which the index check catches once every run of the
  // block has been decoded.
  for (bool Crc : {true, false}) {
    trace::BinaryWriteOptions W;
    W.BlockEvents = 7;
    W.BlockCrc = Crc;
    std::string V2 = writeTraceBinary(T, W);
    const std::string Shape = Crc ? "crc" : "first-time";
    const size_t Hit = indexStart(V2) / 2;
    trace::detail::BinaryHeader H;
    std::optional<Trace> Tables;
    uint64_t AllocBytes = 0;
    ASSERT_FALSE(testutil::failed(
        trace::detail::parseBinaryHeader(V2, {}, H, Tables, AllocBytes)));
    std::optional<trace::detail::BinaryIndex> Idx =
        trace::detail::readBinaryIndex(V2, H);
    ASSERT_TRUE(Idx.has_value());
    uint64_t First = 0;
    const trace::detail::BlockInfo *Blk = nullptr;
    for (const trace::detail::BlockInfo &B : Idx->Blocks) {
      if (Hit < B.Offset + B.Bytes) {
        Blk = &B;
        break;
      }
      First += B.Events;
    }
    ASSERT_NE(Blk, nullptr);

    std::string Damaged = V2;
    if (Crc)
      Damaged[Hit] ^= 0x40;
    else // The lowest byte of the time after three one-byte varints.
      Damaged[Blk->Offset + 3] ^= 0x01;

    Outcome Strict = runParse(Damaged, ParseMode::Strict, 1);
    ASSERT_FALSE(Strict.Ok) << Shape;
    EXPECT_EQ(Strict.Err.Code, ErrorCode::MalformedRecord) << Shape;
    for (unsigned Threads : {2u, 8u})
      expectIdenticalOutcome(Strict,
                             runParse(Damaged, ParseMode::Strict, Threads),
                             Shape + " strict threads=" +
                                 std::to_string(Threads));

    Outcome Ref = runParse(Damaged, ParseMode::Lenient, 1);
    ASSERT_TRUE(Ref.Ok) << Shape;
    // The whole block drops, and a mid-file hit lands in a full one
    // (only the final block may be short).
    EXPECT_EQ(Ref.Report.DroppedRecords, Blk->Events) << Shape;
    EXPECT_EQ(Ref.Report.DroppedRecords, 7u) << Shape;
    EXPECT_EQ(Ref.Report.TotalRecords, Total) << Shape;
    EXPECT_EQ(Ref.Report.DroppedByCode[size_t(ErrorCode::MalformedRecord)],
              Ref.Report.DroppedRecords)
        << Shape;

    // The trace is T without the block's events, messages included:
    // the block's runs leave no message behind.
    Trace Expected = *Tables;
    uint64_t At = 0;
    bool DropsMessage = false;
    for (unsigned P = 0; P != T.numProcs(); ++P)
      for (const Event &E : T.events(P)) {
        if (At < First || At >= First + Blk->Events)
          Expected.append(E);
        else
          DropsMessage |= trace::isMessage(E.Kind);
        ++At;
      }
    EXPECT_TRUE(DropsMessage) << Shape;
    EXPECT_TRUE(testutil::sameEventColumns(*Ref.Parsed, Expected)) << Shape;
    for (unsigned Threads : {2u, 8u})
      expectIdenticalOutcome(Ref,
                             runParse(Damaged, ParseMode::Lenient, Threads),
                             Shape + " threads=" + std::to_string(Threads));
  }
}

TEST(BinaryEquivalenceTest, CheckedInCorruptFixturesFollowTheMatrix) {
  // The fixtures were generated from the make_corpus seed trace; the
  // salvageable ones must all decode to that same trace.
  std::string Valid = fixture("fuzz_trace_binary/valid-v2.limb");
  Outcome Ref = runParse(Valid, ParseMode::Strict, 2);
  ASSERT_TRUE(Ref.Ok);

  // Damaged or inconsistent index, intact payload: salvage succeeds.
  for (const char *Name :
       {"fuzz_trace_binary/truncated-index.limb",
        "fuzz_trace_binary/index-offset-past-eof.limb",
        "fuzz_trace_binary/count-mismatch.limb",
        "fuzz_trace_binary/overlapping-blocks.limb"}) {
    Outcome Got = runParse(fixture(Name), ParseMode::Strict, 4);
    ASSERT_TRUE(Got.Ok) << Name;
    expectSameTrace(Ref, Got, Name);
  }

  // Valid index, corrupt block payload: strict errors, lenient drops
  // the block.
  std::string BadCrc = fixture("fuzz_trace_binary/bad-block-crc.limb");
  Outcome Strict = runParse(BadCrc, ParseMode::Strict, 2);
  ASSERT_FALSE(Strict.Ok);
  EXPECT_EQ(Strict.Err.Code, ErrorCode::MalformedRecord);
  Outcome Lenient = runParse(BadCrc, ParseMode::Lenient, 2);
  ASSERT_TRUE(Lenient.Ok);
  EXPECT_GT(Lenient.Report.DroppedRecords, 0u);
}

TEST(BinaryEquivalenceTest, LoadTraceAutoRoutesV2ThroughShardedReader) {
  Trace T = makeTrace(3, 10, false);
  std::string Path = ::testing::TempDir() + "/lima_equiv_auto.limb";
  cantFail(trace::saveTraceBinary(T, Path));
  for (unsigned Threads : {1u, 4u}) {
    Trace Loaded = cantFail(trace::loadTraceAuto(Path, {}, Threads));
    EXPECT_EQ(trace::writeTraceText(T), trace::writeTraceText(Loaded));
    EXPECT_TRUE(testutil::sameEventColumns(T, Loaded));
  }
  std::remove(Path.c_str());
}

TEST(BinaryEquivalenceTest, LimitsFailBeforeAllocationFromDeclaredTotals) {
  Trace T = makeTrace(2, 8, false);
  std::string V2 = writeTraceBinary(T);
  ParseOptions Options;
  Options.Limits.MaxEvents = 4; // far below the declared total
  Expected<Trace> R = trace::parseTraceBinaryParallel(V2, Options, 2);
  ASSERT_FALSE(static_cast<bool>(R));
  EXPECT_EQ(R.takeError().toParseError().Code, ErrorCode::LimitExceeded);

  ParseOptions Alloc;
  Alloc.Limits.MaxAllocBytes = 512; // name tables fit, events do not
  Expected<Trace> R2 = trace::parseTraceBinaryParallel(V2, Alloc, 2);
  ASSERT_FALSE(static_cast<bool>(R2));
  EXPECT_EQ(R2.takeError().toParseError().Code, ErrorCode::LimitExceeded);
}
