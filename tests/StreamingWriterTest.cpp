//===- tests/StreamingWriterTest.cpp - crash-consistent writer tests ------===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Pins the StreamingBinaryWriter's two contracts:
//
//  1. A close()d file is byte-identical to writeTraceBinary's output
//     except for the streamed header flag, so every existing reader
//     path (indexed, parallel, sequential fallback) applies unchanged.
//
//  2. Kill the writer at ANY byte boundary — simulated by truncating a
//     finished file at every block boundary +/- a few bytes, and by
//     snapshotting the live file mid-write — and parsing recovers
//     exactly the fully-flushed block prefix, in strict and lenient
//     mode, at every thread count.
//
//===----------------------------------------------------------------------===//

#include "support/FaultInjection.h"
#include "support/FileUtils.h"
#include "trace/BinaryIO.h"
#include "trace/ParallelBinary.h"
#include "TestHelpers.h"
#include "TraceCompare.h"
#include <gtest/gtest.h>
#include <sys/stat.h>

using namespace lima;
using namespace lima::trace;
using lima::testutil::failed;

namespace {

constexpr unsigned NumProcs = 3;

/// A deterministic interleaved event sequence: per-processor times are
/// non-decreasing and every id is in range, so the values survive
/// validation; the processor interleaving forces multiple runs per
/// block.  Every seventh event is a message, so every block holds
/// some, and activity ends carry a byte count that a trace drops.
std::vector<Event> makeEvents(size_t Total) {
  std::vector<Event> Events;
  Events.reserve(Total);
  for (size_t I = 0; I != Total; ++I) {
    Event E;
    E.Proc = static_cast<uint32_t>((I / 5) % NumProcs);
    E.Time = 0.001 * static_cast<double>(I);
    switch (I % 4) {
    case 0:
      E.Kind = EventKind::RegionEnter;
      E.Id = static_cast<uint32_t>(I % 2);
      break;
    case 1:
      E.Kind = EventKind::ActivityBegin;
      E.Id = static_cast<uint32_t>(I % 2);
      break;
    case 2:
      E.Kind = EventKind::ActivityEnd;
      E.Id = static_cast<uint32_t>(I % 2);
      E.Bytes = I;
      break;
    default:
      E.Kind = EventKind::RegionExit;
      E.Id = static_cast<uint32_t>(I % 2);
      break;
    }
    if (I % 7 == 3) {
      E.Kind = I % 2 ? EventKind::MessageSend : EventKind::MessageRecv;
      E.Id = (E.Proc + 1) % NumProcs;
      E.Bytes = 100 + I;
    }
    Events.push_back(E);
  }
  return Events;
}

/// The trace the first \p Count events of the sequence describe.
Trace prefixTrace(const std::vector<Event> &Events, size_t Count) {
  Trace T(NumProcs);
  T.addRegion("halo");
  T.addRegion("solve");
  T.addActivity("compute");
  T.addActivity("wait");
  for (size_t I = 0; I != Count; ++I)
    T.append(Events[I]);
  return T;
}

Error openWriter(StreamingBinaryWriter &W, const std::string &Path,
                 const BinaryWriteOptions &Options) {
  return W.open(Path, {"halo", "solve"}, {"compute", "wait"}, NumProcs,
                Options);
}

uint64_t fileSize(const std::string &Path) {
  struct stat St;
  EXPECT_EQ(::stat(Path.c_str(), &St), 0);
  return static_cast<uint64_t>(St.st_size);
}


/// Expects \p Data (a possibly-truncated streamed file) to parse to
/// exactly \p Expected events in both modes at 1/2/8 threads.
void expectSalvage(const std::string &Data, const std::vector<Event> &Events,
                   uint64_t Expected, const char *What) {
  Trace Want = prefixTrace(Events, Expected);
  for (unsigned Threads : {1u, 2u, 8u}) {
    for (ParseMode Mode : {ParseMode::Strict, ParseMode::Lenient}) {
      ParseOptions Options;
      Options.Mode = Mode;
      ParseReport Report;
      if (Mode == ParseMode::Lenient)
        Options.Report = &Report;
      auto ParsedOrErr = parseTraceBinaryParallel(Data, Options, Threads);
      ASSERT_FALSE(failed(std::move(ParsedOrErr)))
          << What << " threads=" << Threads;
      Trace Parsed =
          cantFail(parseTraceBinaryParallel(Data, Options, Threads));
      EXPECT_EQ(Parsed.numEvents(), Expected)
          << What << " threads=" << Threads;
      EXPECT_TRUE(testutil::sameEventColumns(Parsed, Want))
          << What << " threads=" << Threads;
      if (Mode == ParseMode::Lenient) {
        EXPECT_EQ(Report.DroppedRecords, 0u) << What;
      }
    }
  }
}

} // namespace

TEST(StreamingWriterTest, ByteIdenticalToBufferedExceptFlag) {
  std::vector<Event> Events = makeEvents(1000);
  Trace T = prefixTrace(Events, Events.size());
  BinaryWriteOptions Options;
  Options.BlockEvents = 64;
  std::string Buffered = writeTraceBinary(T, Options);

  std::string Path = ::testing::TempDir() + "/lima_stream_ident.limb";
  ASSERT_FALSE(failed(StreamingBinaryWriter::writeTrace(T, Path, Options)));
  std::string Streamed = cantFail(readFile(Path));

  ASSERT_EQ(Streamed.size(), Buffered.size());
  // The only difference is flag bit 1 in the u32 at offset 8.
  EXPECT_EQ(Streamed[8] & 0x2, 0x2);
  Streamed[8] = static_cast<char>(Streamed[8] & ~0x2);
  EXPECT_EQ(Streamed, Buffered);
  std::remove(Path.c_str());
}

TEST(StreamingWriterTest, RoundTripsInterleavedAppends) {
  std::vector<Event> Events = makeEvents(777);
  std::string Path = ::testing::TempDir() + "/lima_stream_roundtrip.limb";
  BinaryWriteOptions Options;
  Options.BlockEvents = 50;
  StreamingBinaryWriter W;
  ASSERT_FALSE(failed(openWriter(W, Path, Options)));
  for (const Event &E : Events)
    ASSERT_FALSE(failed(W.append(E)));
  EXPECT_EQ(W.eventsAppended(), Events.size());
  EXPECT_LE(W.bufferedBytes(), 50u * 24u); // O(one block), never the file
  ASSERT_FALSE(failed(W.close()));
  EXPECT_FALSE(W.isOpen());

  std::string Data = cantFail(readFile(Path));
  expectSalvage(Data, Events, Events.size(), "complete file");
  std::remove(Path.c_str());
}

TEST(StreamingWriterTest, LiveFileSnapshotsRecoverFlushedPrefix) {
  // Read the file while the writer is still open — byte-for-byte what a
  // kill -9 at that instant would leave — and at a destructor-closed
  // (crashed, never close()d) end state.
  std::vector<Event> Events = makeEvents(500);
  std::string Path = ::testing::TempDir() + "/lima_stream_live.limb";
  BinaryWriteOptions Options;
  Options.BlockEvents = 64;
  {
    StreamingBinaryWriter W;
    ASSERT_FALSE(failed(openWriter(W, Path, Options)));
    for (size_t I = 0; I != Events.size(); ++I) {
      ASSERT_FALSE(failed(W.append(Events[I])));
      if (I % 50 == 0 || I + 1 == Events.size()) {
        std::string Snapshot = cantFail(readFile(Path));
        expectSalvage(Snapshot, Events, W.eventsFlushed(), "live snapshot");
      }
    }
    // Writer destroyed here without close(): no tail flush, no index.
  }
  std::string Data = cantFail(readFile(Path));
  // 500 events / 64 per block = 7 full blocks (448 events) flushed.
  expectSalvage(Data, Events, 448, "unclosed file");
  std::remove(Path.c_str());
}

TEST(StreamingWriterTest, TruncationSweepRecoversExactPrefix) {
  // 576 events / 48 per block = exactly 12 blocks, so the last recorded
  // boundary is the payload end and everything past it is index bytes.
  std::vector<Event> Events = makeEvents(576);
  std::string Path = ::testing::TempDir() + "/lima_stream_sweep.limb";
  BinaryWriteOptions Options;
  Options.BlockEvents = 48;

  // Record every block boundary (file size, flushed events) as blocks
  // land; the first entry is the header end (payload start, 0 events).
  struct Boundary {
    uint64_t Offset;
    uint64_t Events;
  };
  std::vector<Boundary> Boundaries;
  StreamingBinaryWriter W;
  ASSERT_FALSE(failed(openWriter(W, Path, Options)));
  Boundaries.push_back({fileSize(Path), 0});
  uint64_t SeenBlocks = 0;
  for (const Event &E : Events) {
    ASSERT_FALSE(failed(W.append(E)));
    if (W.blocksFlushed() != SeenBlocks) {
      SeenBlocks = W.blocksFlushed();
      Boundaries.push_back({fileSize(Path), W.eventsFlushed()});
    }
  }
  ASSERT_FALSE(failed(W.close()));
  ASSERT_EQ(Boundaries.size(), 13u); // header + 12 blocks
  EXPECT_EQ(Boundaries.back().Events, Events.size());

  std::string Full = cantFail(readFile(Path));
  const uint64_t PayloadStart = Boundaries.front().Offset;

  // Cut at every block boundary +/- a few bytes.  Cuts past the payload
  // end land inside the index: the reader loses the index, falls back
  // to the sequential walk, consumes the header total exactly and
  // still recovers everything.  The same max-boundary-at-or-below-cut
  // rule predicts both regimes.
  auto expectedAt = [&](uint64_t Cut) {
    uint64_t Expected = 0;
    for (const Boundary &C : Boundaries)
      if (C.Offset <= Cut)
        Expected = std::max(Expected, C.Events);
    return Expected;
  };
  for (const Boundary &B : Boundaries) {
    for (int64_t Delta : {-7, -3, -1, 0, 1, 3, 7}) {
      int64_t Cut = static_cast<int64_t>(B.Offset) + Delta;
      if (Cut < static_cast<int64_t>(PayloadStart) ||
          Cut >= static_cast<int64_t>(Full.size()))
        continue;
      std::string Truncated = Full.substr(0, static_cast<size_t>(Cut));
      expectSalvage(Truncated, Events, expectedAt(static_cast<uint64_t>(Cut)),
                    "sweep cut");
    }
  }

  // Two representative index-region cuts: mid-index and one byte short
  // of the footer.
  const uint64_t PayloadEnd = Boundaries.back().Offset;
  ASSERT_LT(PayloadEnd, Full.size());
  for (uint64_t Cut : {(PayloadEnd + Full.size()) / 2, Full.size() - 1})
    expectSalvage(Full.substr(0, Cut), Events, Events.size(), "index cut");
  std::remove(Path.c_str());
}

TEST(StreamingWriterTest, EmptyFileAndHeaderOnlyCrashParse) {
  std::string Path = ::testing::TempDir() + "/lima_stream_empty.limb";
  BinaryWriteOptions Options;
  {
    StreamingBinaryWriter W;
    ASSERT_FALSE(failed(openWriter(W, Path, Options)));
    ASSERT_FALSE(failed(W.close()));
    Trace Parsed = cantFail(loadTraceBinary(Path));
    EXPECT_EQ(Parsed.numEvents(), 0u);
    EXPECT_EQ(Parsed.numProcs(), NumProcs);
    EXPECT_EQ(Parsed.numRegions(), 2u);
  }
  {
    // Crash right after open(): header only, total 0, no index.
    StreamingBinaryWriter W;
    ASSERT_FALSE(failed(openWriter(W, Path, Options)));
  }
  Trace Parsed = cantFail(loadTraceBinary(Path));
  EXPECT_EQ(Parsed.numEvents(), 0u);
  EXPECT_EQ(Parsed.numProcs(), NumProcs);
  std::remove(Path.c_str());
}

TEST(StreamingWriterTest, FailedFlushIsRetryable) {
  // ENOSPC on the header patch of the first block flush: the append
  // reports the error, the writer stays consistent, and once space
  // frees up (fault exhausted) close() finishes the full file.
  std::vector<Event> Events = makeEvents(64);
  std::string Path = ::testing::TempDir() + "/lima_stream_enospc.limb";
  BinaryWriteOptions Options;
  Options.BlockEvents = 64;
  StreamingBinaryWriter W;
  ASSERT_FALSE(failed(openWriter(W, Path, Options)));
  ASSERT_FALSE(failed(fault::configure("stream.patch:enospc@1")));
  bool SawError = false;
  for (const Event &E : Events) {
    if (Error Err = W.append(E)) {
      EXPECT_EQ(Err.code(), ErrorCode::IoError);
      Err.consume();
      SawError = true;
      break;
    }
  }
  ASSERT_TRUE(SawError);
  EXPECT_EQ(W.eventsFlushed(), 0u);
  EXPECT_EQ(W.eventsAppended(), Events.size());
  fault::reset();

  ASSERT_FALSE(failed(W.close()));
  std::string Data = cantFail(readFile(Path));
  expectSalvage(Data, Events, Events.size(), "post-retry file");
  std::remove(Path.c_str());
}

TEST(StreamingWriterTest, BufferedTruncationStaysFatal) {
  // The salvage carve-out is gated on the streamed flag: the same
  // truncation of a buffered (non-streamed) v2 file is still the hard
  // corruption error ParseErrorTest pins.
  std::vector<Event> Events = makeEvents(200);
  Trace T = prefixTrace(Events, Events.size());
  BinaryWriteOptions Options;
  Options.BlockEvents = 48;
  std::string Buffered = writeTraceBinary(T, Options);
  // Cut mid-payload; the header total (200) can no longer be consumed.
  std::string Truncated = Buffered.substr(0, Buffered.size() / 2);
  for (ParseMode Mode : {ParseMode::Strict, ParseMode::Lenient}) {
    ParseOptions ParseOpts;
    ParseOpts.Mode = Mode;
    ParseReport Report;
    if (Mode == ParseMode::Lenient)
      ParseOpts.Report = &Report;
    EXPECT_TRUE(failed(parseTraceBinaryParallel(Truncated, ParseOpts, 1)));
  }
}
