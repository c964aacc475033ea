//===- trace/ParallelBinary.cpp - Sharded LIMB binary parsing -------------===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Structure of a block-indexed binary parse:
//
//   header     sequential: magic/version/flags, name tables, event total
//   pre-check  prove the ParseLimits event and allocation bounds from
//              the declared total, before any event storage exists
//   index      read and validate the footer + block index (CRC, exact
//              tiling of the payload, run/event consistency); on any
//              doubt fall back to a sequential self-framed block walk
//   size       size every processor's columns from the index, leaving
//              the slots unwritten
//   decode     decode blocks concurrently, each writing its runs'
//              events straight into their final positions
//   merge      fold per-block reports in block order (sequential);
//              lenient drops compact the columns afterwards
//
// The merge order makes the result independent of scheduling: the first
// erroring block in file order wins in strict mode, and lenient counts
// accumulate exactly as a sequential block walk would produce them, so
// the parse is bit-identical at any thread count.
//
//===----------------------------------------------------------------------===//

#include "trace/ParallelBinary.h"
#include "support/Checksum.h"
#include "support/MappedFile.h"
#include "support/Metrics.h"
#include "support/Parallel.h"
#include "support/Telemetry.h"
#include "trace/BinaryDetail.h"
#include "trace/BinaryIO.h"
#include <cstring>
#include <optional>

using namespace lima;
using namespace lima::trace;
using namespace lima::trace::detail;

namespace {

/// Smallest possible serialized event: f64 time, one kind byte, two
/// one-byte varints.  Used to reject index entries whose event counts
/// could not possibly fit their byte ranges (which otherwise would let
/// a hostile index drive arbitrary pre-allocation).
constexpr uint64_t MinEventBytes = 8 + 1 + 1 + 1;

template <typename T> T loadScalar(const char *P) {
  T Value;
  std::memcpy(&Value, P, sizeof(T));
  return Value;
}

/// Raw-bit double comparison (the index pins the exact stored bytes, so
/// NaN payloads and signed zeros must round-trip too).
bool sameBits(double A, double B) {
  return std::memcmp(&A, &B, sizeof(double)) == 0;
}

/// Decode state of one block, merged in block order afterwards.
struct BlockState {
  ParseReport Report;
  std::optional<ParseError> Err; ///< Strict-mode stop for this block.
  std::vector<uint32_t> RunWritten;
};

/// Decodes block \p B of \p Idx into the pre-sized columns \p Cols.
/// Runs land at the destinations in \p RunDest (indexed like
/// Idx.Runs).  Record-level value errors drop single records (lenient)
/// or stop with the record's error (strict), exactly like the v1
/// reader.  Anything that contradicts the validated index — CRC
/// mismatch, run table disagreement, truncated or oversized payload,
/// time bounds that do not match — discards the whole block in lenient
/// mode (all its declared events count as dropped) or stops with the
/// block's error in strict mode.
void decodeBlock(std::string_view Data, const BinaryHeader &H,
                 const BinaryIndex &Idx, size_t B, const Trace &T,
                 const std::vector<Trace::StreamColumns> &Cols,
                 const std::vector<uint64_t> &RunDest,
                 const ParseOptions &Options, BlockState &State) {
  const BlockInfo &Blk = Idx.Blocks[B];
  State.RunWritten.assign(Blk.NumRuns, 0);
  const size_t BlockEnd = static_cast<size_t>(Blk.Offset) + Blk.Bytes;
  uint64_t Inspected = 0;
  bool Strict = Options.Mode != ParseMode::Lenient;

  // Charges the whole block: in strict mode the block's error (or its
  // first bad record's) is the parse error; in lenient mode every
  // declared event of the block is counted as inspected and dropped,
  // and nothing the block decoded so far survives.
  auto dropWholeBlock = [&](ParseError PE) {
    if (Strict) {
      State.Report.TotalRecords = Inspected;
      State.Err = std::move(PE);
      return;
    }
    State.Report = ParseReport();
    State.RunWritten.assign(Blk.NumRuns, 0);
    State.Report.TotalRecords = Blk.Events;
    size_t Bucket = static_cast<size_t>(PE.Code);
    State.Report.addDrop(std::move(PE));
    State.Report.DroppedRecords += Blk.Events - 1;
    State.Report.DroppedByCode[Bucket] += Blk.Events - 1;
  };

  if ((H.Flags & BinaryFlagBlockCrc) != 0) {
    LIMA_SPAN("ingest.crc");
    if (crc32(Data.substr(Blk.Offset, Blk.Bytes)) != Blk.Crc)
      return dropWholeBlock(makeParseError(ErrorCode::MalformedRecord, 0,
                                           Blk.Offset,
                                           "binary trace: block payload "
                                           "CRC mismatch at byte %zu",
                                           static_cast<size_t>(Blk.Offset))
                                .toParseError());
  }

  LIMA_SPAN("ingest.records");
  // Every read stops at the block's end: a lying payload must not be
  // able to walk into a neighboring block or the index.
  size_t Pos = Blk.Offset;
  auto indexMismatch = [&](size_t Offset) {
    dropWholeBlock(makeParseError(ErrorCode::MalformedRecord, 0, Offset,
                                  "binary trace: block payload disagrees "
                                  "with index at byte %zu",
                                  Offset)
                       .toParseError());
  };
  // Reads one run-header varint; a framing failure drops the block.
  auto header = [&](uint64_t &Value) {
    RecordStatus::Code C = decodeVarint(Data.data(), Pos, BlockEnd, Value);
    if (C != RecordStatus::Ok)
      dropWholeBlock(recordError({C, Pos}).toParseError());
    return C == RecordStatus::Ok;
  };

  uint64_t NumRuns;
  if (!header(NumRuns))
    return;
  if (NumRuns != Blk.NumRuns)
    return indexMismatch(Blk.Offset);

  // The index holds at least one run and one event per block, so the
  // first and last times are always set when the loop completes.
  const RecordBounds Bounds(T);
  double FirstRaw = 0.0, LastRaw = 0.0;
  for (uint32_t R = 0; R != Blk.NumRuns; ++R) {
    const BlockRun &Run = Idx.Runs[Blk.FirstRun + R];
    const size_t RunOffset = Pos;
    uint64_t Proc, Count;
    if (!header(Proc) || !header(Count))
      return;
    if (Proc != Run.Proc || Count != Run.Count)
      return indexMismatch(RunOffset);

    const Trace::StreamColumns &C = Cols[Run.Proc];
    const uint64_t Dest = RunDest[Blk.FirstRun + R];
    uint32_t Written = 0;
    for (uint32_t J = 0; J != Run.Count; ++J) {
      RawRecord Rec;
      RecordStatus S = decodeRecord(Data.data(), Pos, BlockEnd, Bounds, Rec);
      ++Inspected;
      if (!S.ok() && (S.framing() || Strict))
        return dropWholeBlock(recordError(S, Rec).toParseError());
      if (Inspected == 1)
        FirstRaw = Rec.Time;
      LastRaw = Rec.Time;
      if (!S.ok()) {
        State.Report.addDrop(recordError(S, Rec).toParseError());
        continue;
      }
      C.Times[Dest + Written] = Rec.Time;
      C.Kinds[Dest + Written] = static_cast<EventKind>(Rec.Kind);
      C.Ids[Dest + Written] = static_cast<uint32_t>(Rec.Id);
      C.Bytes[Dest + Written] = Rec.Bytes;
      ++Written;
    }
    State.RunWritten[R] = Written;
  }
  if (Pos != BlockEnd)
    return indexMismatch(Pos);
  if (!sameBits(FirstRaw, Blk.FirstTime) || !sameBits(LastRaw, Blk.LastTime))
    return indexMismatch(Blk.Offset);
  State.Report.TotalRecords = Inspected;
}

/// Sequential fallback for v2 buffers without a usable index: walk the
/// self-framed blocks until the header's event total is consumed, then
/// ignore whatever trails (a damaged index).  Framing damage is fatal
/// in both modes, value errors are droppable, exactly like v1 — with
/// one carve-out: in a *streamed* file (header flag bit 1) truncation
/// mid-walk is the expected fingerprint of a writer that died, because
/// the streaming writer patches the header total ahead of each block.
/// The walk then rolls the partial tail block back (events, report
/// counts) and returns the fully-flushed prefix in both parse modes —
/// the recovery contract StreamingWriterTest pins.
Expected<Trace> walkBinaryV2(std::string_view Data,
                             const ParseOptions &Options,
                             const BinaryHeader &H, Trace T) {
  LIMA_METRIC_COUNT("lima.parse.binary.fallback_total", 1);
  const bool Streamed = (H.Flags & BinaryFlagStreamed) != 0;
  ByteReader In(Data, H.PayloadStart, Options.Limits.MaxNameBytes);
  const RecordBounds Bounds(T);
  uint64_t Remaining = H.TotalEvents;
  uint64_t Decoded = 0;

  // Decodes the block at the cursor; consumes from Remaining.
  auto decodeOneBlock = [&]() -> Error {
    size_t BlockOffset = In.offset();
    auto RunCountOrErr = In.readVarint();
    if (auto Err = RunCountOrErr.takeError())
      return Err;
    if (*RunCountOrErr == 0)
      return makeParseError(ErrorCode::MalformedRecord, 0, BlockOffset,
                            "binary trace: block declares no runs at byte "
                            "%zu",
                            BlockOffset);
    for (uint64_t R = 0; R != *RunCountOrErr; ++R) {
      size_t RunOffset = In.offset();
      auto ProcOrErr = In.readVarint();
      if (auto Err = ProcOrErr.takeError())
        return Err;
      if (*ProcOrErr >= H.NumProcs)
        return makeParseError(ErrorCode::MalformedRecord, 0, RunOffset,
                              "binary trace: block run processor out of "
                              "range at byte %zu",
                              RunOffset);
      auto CountOrErr = In.readVarint();
      if (auto Err = CountOrErr.takeError())
        return Err;
      if (*CountOrErr == 0 || *CountOrErr > Remaining)
        return makeParseError(ErrorCode::MalformedRecord, 0, RunOffset,
                              "binary trace: block run count out of range "
                              "at byte %zu",
                              RunOffset);
      uint32_t Proc = static_cast<uint32_t>(*ProcOrErr);
      for (uint64_t J = 0; J != *CountOrErr; ++J) {
        if (Options.Report)
          ++Options.Report->TotalRecords;
        RawRecord Rec;
        RecordStatus S = In.readRecord(Bounds, Rec);
        if (!S.ok()) {
          ParseError PE = recordError(S, Rec).toParseError();
          if (S.framing() || !Options.dropRecord(PE))
            return Error::fromParse(std::move(PE));
          continue;
        }
        T.append({Rec.Time, Proc, static_cast<EventKind>(Rec.Kind),
                  static_cast<uint32_t>(Rec.Id), Rec.Bytes});
        ++Decoded;
      }
      Remaining -= *CountOrErr;
    }
    return Error::success();
  };

  // Rollback state, refreshed at each block boundary of a streamed
  // file so a truncated tail block can be undone in O(its size).
  std::vector<size_t> ProcSizes;
  ParseReport ReportSnapshot;
  uint64_t DecodedSnapshot = 0;
  if (Streamed)
    ProcSizes.resize(H.NumProcs, 0);

  while (Remaining != 0) {
    if (Streamed) {
      for (uint32_t Proc = 0; Proc != H.NumProcs; ++Proc)
        ProcSizes[Proc] = T.events(Proc).size();
      if (Options.Report)
        ReportSnapshot = *Options.Report;
      DecodedSnapshot = Decoded;
    }
    if (Error Err = decodeOneBlock()) {
      if (Streamed && Err.code() == ErrorCode::TruncatedInput) {
        // The writer died mid-block (or mid-patch): everything before
        // this block is complete by the patch-before-block ordering.
        // Un-append the partial block and return the flushed prefix.
        Err.consume();
        for (uint32_t Proc = 0; Proc != H.NumProcs; ++Proc)
          T.truncateStream(Proc, ProcSizes[Proc]);
        if (Options.Report)
          *Options.Report = std::move(ReportSnapshot);
        Decoded = DecodedSnapshot;
        LIMA_METRIC_COUNT("lima.parse.binary.salvaged_total", 1);
        break;
      }
      return Err;
    }
  }
  // Bytes after the last block are the (unvalidated) index; ignore them.
  LIMA_METRIC_COUNT("lima.parse.binary.events_total", Decoded);
  return T;
}

/// The indexed v2 decode: pre-size, decode blocks on \p Threads
/// threads, merge in block order, compact out lenient drops.
Expected<Trace> parseBinaryV2Indexed(std::string_view Data,
                                     const ParseOptions &Options,
                                     const BinaryHeader &H,
                                     const BinaryIndex &Idx, Trace T,
                                     unsigned Threads) {
  // Destination offsets: runs are in file order, which within one
  // processor is stream order, so a prefix scan per processor places
  // every run.  Sizing leaves the slots unwritten; the decoding thread
  // of each block is the first to touch its runs' slots.
  std::vector<uint64_t> RunDest(Idx.Runs.size());
  std::vector<Trace::StreamColumns> Cols(H.NumProcs);
  {
    LIMA_SPAN("ingest.size");
    std::vector<uint64_t> ProcTotal(H.NumProcs, 0);
    for (size_t R = 0; R != Idx.Runs.size(); ++R) {
      RunDest[R] = ProcTotal[Idx.Runs[R].Proc];
      ProcTotal[Idx.Runs[R].Proc] += Idx.Runs[R].Count;
    }
    for (unsigned Proc = 0; Proc != H.NumProcs; ++Proc) {
      T.resizeStream(Proc, ProcTotal[Proc]);
      Cols[Proc] = T.streamColumns(Proc);
    }
  }

  {
    LIMA_SPAN("ingest.decode");
    LIMA_METRIC_COUNT("lima.parse.binary.blocks", Idx.Blocks.size());
    std::vector<BlockState> States(Idx.Blocks.size());
    parallelFor(Idx.Blocks.size(), Threads, [&](size_t B) {
      decodeBlock(Data, H, Idx, B, T, Cols, RunDest, Options, States[B]);
    });

    // Merge in block order; the lowest-offset erroring block wins, and
    // the reports merged before it are exactly what a sequential walk
    // would have accumulated up to that point.
    LIMA_SPAN("ingest.merge");
    for (size_t B = 0; B != Idx.Blocks.size(); ++B) {
      if (Options.Report)
        Options.Report->merge(States[B].Report);
      if (States[B].Err)
        return Error::fromParse(std::move(*States[B].Err));
    }

    // Compact out the gaps lenient drops left in the pre-sized columns:
    // per processor, slide each run's written prefix down in run order.
    std::vector<uint64_t> Cursor(H.NumProcs, 0);
    for (size_t B = 0; B != Idx.Blocks.size(); ++B) {
      const BlockInfo &Blk = Idx.Blocks[B];
      for (uint32_t R = 0; R != Blk.NumRuns; ++R) {
        const BlockRun &Run = Idx.Runs[Blk.FirstRun + R];
        const uint64_t Written = States[B].RunWritten[R];
        const uint64_t Dest = RunDest[Blk.FirstRun + R];
        uint64_t &At = Cursor[Run.Proc];
        Cols[Run.Proc].slide(At, Dest, Written);
        At += Written;
      }
    }
    uint64_t Kept = 0;
    for (unsigned Proc = 0; Proc != H.NumProcs; ++Proc) {
      T.truncateStream(Proc, Cursor[Proc]);
      Kept += Cursor[Proc];
    }
    LIMA_METRIC_COUNT("lima.parse.binary.events_total", Kept);
  }
  return T;
}

} // namespace

std::optional<BinaryIndex> detail::readBinaryIndex(std::string_view Data,
                                                   const BinaryHeader &H) {
  if (Data.size() < H.PayloadStart + BinaryFooterSize)
    return std::nullopt;
  const char *Footer = Data.data() + Data.size() - BinaryFooterSize;
  if (std::memcmp(Footer + 16, BinaryFooterMagic,
                  sizeof(BinaryFooterMagic)) != 0)
    return std::nullopt;
  const uint64_t IndexOffset = loadScalar<uint64_t>(Footer);
  const uint32_t IndexBytes = loadScalar<uint32_t>(Footer + 8);
  const uint32_t IndexCrc = loadScalar<uint32_t>(Footer + 12);
  if (IndexOffset < H.PayloadStart)
    return std::nullopt;
  // The index must end exactly at the footer; this also rejects an
  // index offset pointing past the end of the file.
  if (IndexOffset + IndexBytes + BinaryFooterSize != Data.size())
    return std::nullopt;
  std::string_view IndexView = Data.substr(IndexOffset, IndexBytes);
  if (crc32(IndexView) != IndexCrc)
    return std::nullopt;

  size_t Pos = 0;
  auto readU32 = [&](uint32_t &Out) {
    if (Pos + sizeof(uint32_t) > IndexView.size())
      return false;
    Out = loadScalar<uint32_t>(IndexView.data() + Pos);
    Pos += sizeof(uint32_t);
    return true;
  };
  auto readU64 = [&](uint64_t &Out) {
    if (Pos + sizeof(uint64_t) > IndexView.size())
      return false;
    Out = loadScalar<uint64_t>(IndexView.data() + Pos);
    Pos += sizeof(uint64_t);
    return true;
  };
  auto readF64 = [&](double &Out) {
    if (Pos + sizeof(double) > IndexView.size())
      return false;
    Out = loadScalar<double>(IndexView.data() + Pos);
    Pos += sizeof(double);
    return true;
  };

  uint32_t BlockCount = 0;
  if (!readU32(BlockCount))
    return std::nullopt;
  if (BlockCount != 0 &&
      BlockCount > (IndexView.size() - Pos) / BinaryMinIndexEntry)
    return std::nullopt;
  BinaryIndex Idx;
  Idx.Blocks.reserve(BlockCount);
  uint64_t ExpectOffset = H.PayloadStart;
  uint64_t TotalEvents = 0;
  for (uint32_t B = 0; B != BlockCount; ++B) {
    BlockInfo Blk;
    uint32_t RunCount = 0;
    if (!readU64(Blk.Offset) || !readU32(Blk.Bytes) ||
        !readU32(Blk.Events) || !readF64(Blk.FirstTime) ||
        !readF64(Blk.LastTime) || !readU32(Blk.Crc) || !readU32(RunCount))
      return std::nullopt;
    // Blocks must tile the payload contiguously in order (rejects
    // overlaps, gaps and out-of-order entries in one comparison).
    if (Blk.Offset != ExpectOffset || Blk.Bytes == 0 || Blk.Events == 0 ||
        RunCount == 0)
      return std::nullopt;
    // An event count its byte range could not possibly hold would let
    // a hostile index drive arbitrary pre-allocation.
    if (1 + 2 * static_cast<uint64_t>(RunCount) +
            MinEventBytes * Blk.Events >
        Blk.Bytes)
      return std::nullopt;
    ExpectOffset += Blk.Bytes;
    Blk.FirstRun = static_cast<uint32_t>(Idx.Runs.size());
    Blk.NumRuns = RunCount;
    uint64_t BlockSum = 0;
    for (uint32_t R = 0; R != RunCount; ++R) {
      BlockRun Run;
      if (!readU32(Run.Proc) || !readU32(Run.Count))
        return std::nullopt;
      if (Run.Proc >= H.NumProcs || Run.Count == 0)
        return std::nullopt;
      BlockSum += Run.Count;
      Idx.Runs.push_back(Run);
    }
    if (BlockSum != Blk.Events)
      return std::nullopt;
    TotalEvents += Blk.Events;
    Idx.Blocks.push_back(Blk);
  }
  if (Pos != IndexView.size())
    return std::nullopt;
  if (ExpectOffset != IndexOffset)
    return std::nullopt;
  if (TotalEvents != H.TotalEvents)
    return std::nullopt;
  return Idx;
}

Expected<Trace> trace::parseTraceBinaryParallel(std::string_view Data,
                                                const ParseOptions &Options,
                                                unsigned Threads) {
  // Only v2 buffers have blocks to shard; everything else (v1, bad
  // magic, unknown versions) takes the sequential path, which produces
  // the structured errors for the latter two.
  if (Data.size() < sizeof(BinaryMagic) + sizeof(uint32_t) ||
      std::memcmp(Data.data(), BinaryMagic, sizeof(BinaryMagic)) != 0)
    return parseTraceBinary(Data, Options);
  uint32_t Version;
  std::memcpy(&Version, Data.data() + sizeof(BinaryMagic), sizeof(Version));
  if (Version != BinaryVersion2)
    return parseTraceBinary(Data, Options);

  Threads = resolveThreadCount(Threads);
  LIMA_STAGE("ingest");
  BinaryHeader H;
  std::optional<Trace> TOpt;
  uint64_t AllocBytes = 0;
  if (auto Err = parseBinaryHeader(Data, Options, H, TOpt, AllocBytes))
    return Err;

  // Limits pre-check from the declared total, before any event storage
  // is allocated.  The index reader verifies the per-block counts sum
  // to exactly this total, so passing here covers the indexed decode;
  // the fallback walk stops at the total by construction.
  const ParseLimits &Limits = Options.Limits;
  if (H.TotalEvents > Limits.MaxEvents)
    return makeCodedError(ErrorCode::LimitExceeded,
                          "binary trace: event count exceeds the limit");
  if (AllocBytes > Limits.MaxAllocBytes ||
      H.TotalEvents >
          (Limits.MaxAllocBytes - AllocBytes) / sizeof(Event))
    return makeCodedError(ErrorCode::LimitExceeded,
                          "binary trace: event storage exceeds the "
                          "allocation cap");

  std::optional<BinaryIndex> Idx = [&] {
    LIMA_SPAN("ingest.index");
    return readBinaryIndex(Data, H);
  }();
  if (!Idx)
    return walkBinaryV2(Data, Options, H, std::move(*TOpt));
  return parseBinaryV2Indexed(Data, Options, H, *Idx, std::move(*TOpt),
                              Threads);
}

Expected<Trace> trace::loadTraceBinaryParallel(const std::string &Path,
                                               const ParseOptions &Options,
                                               unsigned Threads) {
  auto FileOrErr = MappedFile::open(Path);
  if (auto Err = FileOrErr.takeError())
    return Err;
  return parseTraceBinaryParallel(FileOrErr->view(), Options, Threads);
}
