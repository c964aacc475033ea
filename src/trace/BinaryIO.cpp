//===- trace/BinaryIO.cpp - Compact binary trace format -------------------===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "trace/BinaryIO.h"
#include "support/Checksum.h"
#include "support/FaultInjection.h"
#include "support/FileUtils.h"
#include "support/MappedFile.h"
#include "support/Metrics.h"
#include "support/Retry.h"
#include "support/Telemetry.h"
#include "trace/BinaryDetail.h"
#include "trace/ParallelBinary.h"
#include "trace/ParallelParse.h"
#include "trace/TraceIO.h"
#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <unistd.h>
#include <unordered_set>

using namespace lima;
using namespace lima::trace;
using namespace lima::trace::detail;

namespace {

/// Little-endian append helpers.  The host is assumed little-endian (the
/// build targets x86-64/AArch64 Linux); a big-endian port would swap here.
template <typename T> void appendScalar(std::string &Out, T Value) {
  char Buf[sizeof(T)];
  std::memcpy(Buf, &Value, sizeof(T));
  Out.append(Buf, sizeof(T));
}

void appendString(std::string &Out, const std::string &Str) {
  appendScalar<uint32_t>(Out, static_cast<uint32_t>(Str.size()));
  Out.append(Str);
}

/// Unsigned LEB128.
void appendVarint(std::string &Out, uint64_t Value) {
  while (Value >= 0x80) {
    Out.push_back(static_cast<char>(0x80 | (Value & 0x7F)));
    Value >>= 7;
  }
  Out.push_back(static_cast<char>(Value));
}

/// Serializes the header fields shared by both versions: magic,
/// version, (v2: flags,) processor count and the two name tables.
void appendHeaderCommon(std::string &Out, const Trace &T, uint32_t Version,
                        uint32_t Flags) {
  Out.append(BinaryMagic, sizeof(BinaryMagic));
  appendScalar<uint32_t>(Out, Version);
  if (Version >= BinaryVersion2)
    appendScalar<uint32_t>(Out, Flags);
  appendScalar<uint32_t>(Out, T.numProcs());
  appendScalar<uint32_t>(Out, static_cast<uint32_t>(T.numRegions()));
  for (size_t I = 0; I != T.numRegions(); ++I)
    appendString(Out, T.regionName(static_cast<uint32_t>(I)));
  appendScalar<uint32_t>(Out, static_cast<uint32_t>(T.numActivities()));
  for (size_t I = 0; I != T.numActivities(); ++I)
    appendString(Out, T.activityName(static_cast<uint32_t>(I)));
}

/// One run of a planned block: \p Count events of processor \p Proc
/// starting at stream index \p First.
struct PlanRun {
  uint32_t Proc;
  uint64_t First;
  uint32_t Count;
};

struct PlanBlock {
  std::vector<PlanRun> Runs;
  uint64_t Events = 0;
};

} // namespace

std::string trace::writeTraceBinaryV1(const Trace &T) {
  std::string Out;
  appendHeaderCommon(Out, T, BinaryVersion1, 0);
  for (unsigned Proc = 0; Proc != T.numProcs(); ++Proc) {
    const auto &Events = T.events(Proc);
    appendScalar<uint64_t>(Out, Events.size());
    for (const Event &E : Events) {
      appendScalar<double>(Out, E.Time);
      appendScalar<uint8_t>(Out, static_cast<uint8_t>(E.Kind));
      appendVarint(Out, E.Id);
      appendVarint(Out, E.Bytes);
    }
  }
  return Out;
}

std::string trace::writeTraceBinary(const Trace &T,
                                    const BinaryWriteOptions &Options) {
  std::string Out;
  appendHeaderCommon(Out, T, BinaryVersion2,
                     Options.BlockCrc ? BinaryFlagBlockCrc : 0);
  appendScalar<uint64_t>(Out, T.numEvents());

  // Plan blocks processor-major.  The cap keeps a block's event count
  // and byte size comfortably inside the index's u32 fields.
  const uint64_t BlockEvents = std::clamp<uint64_t>(
      Options.BlockEvents, 1, uint64_t(1) << 26);
  std::vector<PlanBlock> Plan;
  uint64_t Space = 0;
  for (unsigned Proc = 0; Proc != T.numProcs(); ++Proc) {
    uint64_t Remaining = T.events(Proc).size();
    uint64_t First = 0;
    while (Remaining != 0) {
      if (Space == 0) {
        Plan.emplace_back();
        Space = BlockEvents;
      }
      uint64_t Take = std::min(Remaining, Space);
      Plan.back().Runs.push_back(
          {Proc, First, static_cast<uint32_t>(Take)});
      Plan.back().Events += Take;
      First += Take;
      Remaining -= Take;
      Space -= Take;
    }
  }

  // Serialize the blocks, collecting the index as we go.
  struct IndexEntry {
    uint64_t Offset;
    uint32_t Bytes;
    uint32_t Events;
    double First;
    double Last;
    uint32_t Crc;
  };
  std::vector<IndexEntry> Index(Plan.size());
  for (size_t B = 0; B != Plan.size(); ++B) {
    const PlanBlock &PB = Plan[B];
    const size_t BlockStart = Out.size();
    appendVarint(Out, PB.Runs.size());
    bool Any = false;
    double FirstTime = 0.0, LastTime = 0.0;
    for (const PlanRun &R : PB.Runs) {
      appendVarint(Out, R.Proc);
      appendVarint(Out, R.Count);
      const Trace::EventsRef Events = T.events(R.Proc);
      const double *Times = Events.times();
      const EventKind *Kinds = Events.kinds();
      const uint32_t *Ids = Events.ids();
      const uint64_t *Bytes = Events.bytes();
      for (uint64_t J = R.First; J != R.First + R.Count; ++J) {
        appendScalar<double>(Out, Times[J]);
        appendScalar<uint8_t>(Out, static_cast<uint8_t>(Kinds[J]));
        appendVarint(Out, Ids[J]);
        appendVarint(Out, Bytes[J]);
      }
      if (!Any) {
        FirstTime = Times[R.First];
        Any = true;
      }
      LastTime = Times[R.First + R.Count - 1];
    }
    IndexEntry &E = Index[B];
    E.Offset = BlockStart;
    E.Bytes = static_cast<uint32_t>(Out.size() - BlockStart);
    E.Events = static_cast<uint32_t>(PB.Events);
    E.First = FirstTime;
    E.Last = LastTime;
    E.Crc = Options.BlockCrc
                ? crc32(std::string_view(Out).substr(BlockStart))
                : 0;
  }

  // Index section, then the fixed-size footer locating it.
  const size_t IndexStart = Out.size();
  appendScalar<uint32_t>(Out, static_cast<uint32_t>(Plan.size()));
  for (size_t B = 0; B != Plan.size(); ++B) {
    const IndexEntry &E = Index[B];
    appendScalar<uint64_t>(Out, E.Offset);
    appendScalar<uint32_t>(Out, E.Bytes);
    appendScalar<uint32_t>(Out, E.Events);
    appendScalar<double>(Out, E.First);
    appendScalar<double>(Out, E.Last);
    appendScalar<uint32_t>(Out, E.Crc);
    appendScalar<uint32_t>(Out,
                           static_cast<uint32_t>(Plan[B].Runs.size()));
    for (const PlanRun &R : Plan[B].Runs) {
      appendScalar<uint32_t>(Out, R.Proc);
      appendScalar<uint32_t>(Out, R.Count);
    }
  }
  const size_t IndexBytes = Out.size() - IndexStart;
  const uint32_t IndexCrc =
      crc32(std::string_view(Out).substr(IndexStart, IndexBytes));
  appendScalar<uint64_t>(Out, IndexStart);
  appendScalar<uint32_t>(Out, static_cast<uint32_t>(IndexBytes));
  appendScalar<uint32_t>(Out, IndexCrc);
  Out.append(BinaryFooterMagic, sizeof(BinaryFooterMagic));
  return Out;
}

//===----------------------------------------------------------------------===//
// StreamingBinaryWriter
//===----------------------------------------------------------------------===//

StreamingBinaryWriter::~StreamingBinaryWriter() {
  // No finalize: a destroyed-but-unclosed writer leaves the same file a
  // crash would, which recovery handles by design.
  if (Fd >= 0)
    ::close(Fd);
}

Error StreamingBinaryWriter::pwriteAll(const char *Site,
                                       std::string_view Bytes,
                                       uint64_t Offset) {
  const char *Data = Bytes.data();
  size_t Len = Bytes.size();
  while (Len != 0) {
    ssize_t N = retry::retryEintr([&] {
      return fault::pwrite(Site, Fd, Data, Len,
                           static_cast<off_t>(Offset));
    });
    if (N < 0)
      return makeCodedError(ErrorCode::IoError, "write error on '%s': %s",
                            Path.c_str(), std::strerror(errno));
    Data += N;
    Offset += static_cast<uint64_t>(N);
    Len -= static_cast<size_t>(N);
  }
  return Error::success();
}

Error StreamingBinaryWriter::open(const std::string &OutPath,
                                  std::vector<std::string> RegionNames,
                                  std::vector<std::string> ActivityNames,
                                  uint32_t Procs,
                                  const BinaryWriteOptions &Options) {
  if (Fd >= 0)
    return makeCodedError(ErrorCode::Generic,
                          "streaming writer already open on '%s'",
                          Path.c_str());
  if (Procs == 0)
    return makeCodedError(ErrorCode::ValueOutOfRange,
                          "streaming writer needs at least one processor");
  // Same cap as the buffered writer, so block planning is identical.
  BlockEvents = static_cast<size_t>(
      std::clamp<uint64_t>(Options.BlockEvents, 1, uint64_t(1) << 26));
  BlockCrc = Options.BlockCrc;
  NumProcs = Procs;
  Path = OutPath;

  // Build the header through the shared serializer: a throwaway Trace
  // holds the name tables.
  Trace T(Procs);
  for (std::string &Name : RegionNames)
    T.addRegion(std::move(Name));
  for (std::string &Name : ActivityNames)
    T.addActivity(std::move(Name));
  std::string Header;
  appendHeaderCommon(Header, T, BinaryVersion2,
                     BinaryFlagStreamed |
                         (BlockCrc ? BinaryFlagBlockCrc : 0));
  TotalFieldOffset = Header.size();
  appendScalar<uint64_t>(Header, 0);

  if (fault::Fault F = fault::check("stream.open")) {
    errno = F.errnoValue() ? F.errnoValue() : EIO;
    return makeCodedError(ErrorCode::IoError, "cannot create '%s': %s",
                          Path.c_str(), std::strerror(errno));
  }
  Fd = ::open(Path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (Fd < 0)
    return makeCodedError(ErrorCode::IoError, "cannot create '%s': %s",
                          Path.c_str(), std::strerror(errno));
  if (Error Err = pwriteAll("stream.write", Header, 0)) {
    ::close(Fd);
    Fd = -1;
    return Err;
  }
  FileEnd = Header.size();
  Appended = Flushed = OpenEvents = 0;
  OpenFirst = OpenLast = 0.0;
  EventBytes.clear();
  OpenRuns.clear();
  OpenRunBytes.clear();
  Blocks.clear();
  BlockRuns.clear();
  return Error::success();
}

Error StreamingBinaryWriter::append(const Event &E) {
  if (Fd < 0)
    return makeCodedError(ErrorCode::Generic,
                          "streaming writer is not open");
  if (E.Proc >= NumProcs)
    return makeCodedError(ErrorCode::ValueOutOfRange,
                          "streaming writer: processor %u out of range",
                          E.Proc);
  if (OpenRuns.empty() || OpenRuns.back().Proc != E.Proc) {
    OpenRuns.push_back({E.Proc, 0});
    OpenRunBytes.push_back(0);
  }
  const size_t Before = EventBytes.size();
  appendScalar<double>(EventBytes, E.Time);
  appendScalar<uint8_t>(EventBytes, static_cast<uint8_t>(E.Kind));
  appendVarint(EventBytes, E.Id);
  appendVarint(EventBytes, E.Bytes);
  ++OpenRuns.back().Count;
  OpenRunBytes.back() += EventBytes.size() - Before;
  if (OpenEvents == 0)
    OpenFirst = E.Time;
  OpenLast = E.Time;
  ++OpenEvents;
  ++Appended;
  if (OpenEvents >= BlockEvents)
    return flushBlock();
  return Error::success();
}

Error StreamingBinaryWriter::flushBlock() {
  if (OpenEvents == 0)
    return Error::success();

  // Events of one run are contiguous in EventBytes (a run only closes
  // when the processor changes), so each run splices out its span.
  std::string Payload;
  Payload.reserve(EventBytes.size() + 4 * OpenRuns.size() + 8);
  appendVarint(Payload, OpenRuns.size());
  size_t EventOffset = 0;
  for (size_t R = 0; R != OpenRuns.size(); ++R) {
    appendVarint(Payload, OpenRuns[R].Proc);
    appendVarint(Payload, OpenRuns[R].Count);
    Payload.append(EventBytes, EventOffset, OpenRunBytes[R]);
    EventOffset += OpenRunBytes[R];
  }

  // Crash-consistency ordering: bump the header total first, then land
  // the payload.  At any kill point the total is >= the events on
  // disk, which is exactly what the salvage walk needs to recognize a
  // flushed-prefix file (see BinaryIO.h).  Both writes are idempotent
  // pwrites, so a failed flush can simply be retried.
  const uint64_t NewTotal = Flushed + OpenEvents;
  std::string TotalBytes;
  appendScalar<uint64_t>(TotalBytes, NewTotal);
  if (Error Err = pwriteAll("stream.patch", TotalBytes, TotalFieldOffset))
    return Err;
  if (Error Err = pwriteAll("stream.write", Payload, FileEnd))
    return Err;

  FlushedBlock B;
  B.Offset = FileEnd;
  B.Bytes = static_cast<uint32_t>(Payload.size());
  B.Events = static_cast<uint32_t>(OpenEvents);
  B.First = OpenFirst;
  B.Last = OpenLast;
  B.Crc = BlockCrc ? crc32(Payload) : 0;
  B.FirstRun = static_cast<uint32_t>(BlockRuns.size());
  B.NumRuns = static_cast<uint32_t>(OpenRuns.size());
  Blocks.push_back(B);
  BlockRuns.insert(BlockRuns.end(), OpenRuns.begin(), OpenRuns.end());

  FileEnd += Payload.size();
  Flushed = NewTotal;
  EventBytes.clear();
  OpenRuns.clear();
  OpenRunBytes.clear();
  OpenEvents = 0;
  LIMA_METRIC_COUNT("lima.write.binary.blocks_flushed_total", 1);
  return Error::success();
}

Error StreamingBinaryWriter::close() {
  if (Fd < 0)
    return makeCodedError(ErrorCode::Generic,
                          "streaming writer is not open");
  if (Error Err = flushBlock())
    return Err;

  // Index section + footer, exactly the buffered writer's layout.
  std::string Tail;
  appendScalar<uint32_t>(Tail, static_cast<uint32_t>(Blocks.size()));
  for (const FlushedBlock &B : Blocks) {
    appendScalar<uint64_t>(Tail, B.Offset);
    appendScalar<uint32_t>(Tail, B.Bytes);
    appendScalar<uint32_t>(Tail, B.Events);
    appendScalar<double>(Tail, B.First);
    appendScalar<double>(Tail, B.Last);
    appendScalar<uint32_t>(Tail, B.Crc);
    appendScalar<uint32_t>(Tail, B.NumRuns);
    for (uint32_t R = B.FirstRun; R != B.FirstRun + B.NumRuns; ++R) {
      appendScalar<uint32_t>(Tail, BlockRuns[R].Proc);
      appendScalar<uint32_t>(Tail, BlockRuns[R].Count);
    }
  }
  const uint32_t IndexCrc = crc32(Tail);
  const uint64_t IndexStart = FileEnd;
  const size_t IndexBytes = Tail.size();
  appendScalar<uint64_t>(Tail, IndexStart);
  appendScalar<uint32_t>(Tail, static_cast<uint32_t>(IndexBytes));
  appendScalar<uint32_t>(Tail, IndexCrc);
  Tail.append(BinaryFooterMagic, sizeof(BinaryFooterMagic));
  if (Error Err = pwriteAll("stream.write", Tail, FileEnd))
    return Err;
  FileEnd += Tail.size();

  int SyncRc;
  if (fault::Fault F = fault::check("stream.fsync")) {
    errno = F.errnoValue() ? F.errnoValue() : EIO;
    SyncRc = -1;
  } else {
    SyncRc = retry::retryEintr([&] { return ::fsync(Fd); });
  }
  if (SyncRc != 0)
    return makeCodedError(ErrorCode::IoError, "fsync error on '%s': %s",
                          Path.c_str(), std::strerror(errno));
  if (::close(Fd) != 0) {
    Fd = -1;
    return makeCodedError(ErrorCode::IoError, "close error on '%s': %s",
                          Path.c_str(), std::strerror(errno));
  }
  Fd = -1;
  return Error::success();
}

Error StreamingBinaryWriter::writeTrace(const Trace &T,
                                        const std::string &Path,
                                        const BinaryWriteOptions &Options) {
  std::vector<std::string> Regions, Activities;
  for (size_t I = 0; I != T.numRegions(); ++I)
    Regions.push_back(T.regionName(static_cast<uint32_t>(I)));
  for (size_t I = 0; I != T.numActivities(); ++I)
    Activities.push_back(T.activityName(static_cast<uint32_t>(I)));
  StreamingBinaryWriter W;
  if (Error Err = W.open(Path, std::move(Regions), std::move(Activities),
                         T.numProcs(), Options))
    return Err;
  for (unsigned Proc = 0; Proc != T.numProcs(); ++Proc)
    for (const Event &E : T.events(Proc))
      if (Error Err = W.append(E))
        return Err;
  return W.close();
}

Error detail::recordError(RecordStatus S, const RawRecord &R) {
  // Indexed by RecordStatus::Code; every message ends "at byte N".
  static constexpr std::pair<ErrorCode, const char *> Texts[] = {
      {ErrorCode::Generic, ""},
      {ErrorCode::TruncatedInput, " truncated"},
      {ErrorCode::TruncatedInput, " truncated in varint"},
      {ErrorCode::MalformedRecord, ": varint overflow"},
      {ErrorCode::ValueOutOfRange, ": invalid event time"},
      {ErrorCode::ValueOutOfRange, ": unknown event kind "},
      {ErrorCode::ValueOutOfRange, ": event id overflows u32"},
      {ErrorCode::ValueOutOfRange, ": region id out of range"},
      {ErrorCode::ValueOutOfRange, ": activity id out of range"},
      {ErrorCode::ValueOutOfRange, ": peer out of range"},
  };
  static_assert(sizeof(Texts) / sizeof(Texts[0]) ==
                RecordStatus::PeerOutOfRange + 1);
  assert(!S.ok() && "recordError called on a decoded record");
  std::string Msg = std::string("binary trace") + Texts[S.What].second;
  if (S.What == RecordStatus::UnknownKind)
    Msg += std::to_string(R.Kind);
  Msg += " at byte " + std::to_string(S.Offset);
  return Error::coded(Texts[S.What].first, std::move(Msg), 0, S.Offset);
}

Error detail::parseBinaryHeader(std::string_view Data,
                                const ParseOptions &Options, BinaryHeader &H,
                                std::optional<Trace> &TOut,
                                uint64_t &AllocBytes) {
  const ParseLimits &Limits = Options.Limits;
  if (Data.size() < sizeof(BinaryMagic) ||
      std::memcmp(Data.data(), BinaryMagic, sizeof(BinaryMagic)) != 0)
    return makeCodedError(ErrorCode::BadMagic,
                          "binary trace: bad magic (expected 'LIMB')");
  ByteReader In(Data, sizeof(BinaryMagic), Limits.MaxNameBytes);
  auto overAllocCap = [&](uint64_t More) {
    AllocBytes += More;
    return AllocBytes > Limits.MaxAllocBytes;
  };

  auto VersionOrErr = In.read<uint32_t>();
  if (auto Err = VersionOrErr.takeError())
    return Err;
  if (*VersionOrErr != BinaryVersion1 && *VersionOrErr != BinaryVersion2)
    return makeCodedError(ErrorCode::UnsupportedVersion,
                          "binary trace: unsupported version %u",
                          *VersionOrErr);
  H.Version = *VersionOrErr;
  if (H.Version >= BinaryVersion2) {
    auto FlagsOrErr = In.read<uint32_t>();
    if (auto Err = FlagsOrErr.takeError())
      return Err;
    if ((*FlagsOrErr & ~BinaryKnownFlags) != 0)
      return makeCodedError(ErrorCode::UnsupportedVersion,
                            "binary trace: unknown format flags 0x%x",
                            *FlagsOrErr);
    H.Flags = *FlagsOrErr;
  }

  auto ProcsOrErr = In.read<uint32_t>();
  if (auto Err = ProcsOrErr.takeError())
    return Err;
  if (*ProcsOrErr == 0 || *ProcsOrErr > (1u << 20))
    return makeCodedError(ErrorCode::ValueOutOfRange,
                          "binary trace: processor count out of range");
  if (*ProcsOrErr > Limits.MaxProcs ||
      overAllocCap(*ProcsOrErr * sizeof(std::vector<Event>)))
    return makeCodedError(ErrorCode::LimitExceeded,
                          "binary trace: processor count exceeds the limit");
  H.NumProcs = *ProcsOrErr;
  Trace T(*ProcsOrErr);

  auto RegionsOrErr = In.read<uint32_t>();
  if (auto Err = RegionsOrErr.takeError())
    return Err;
  if (*RegionsOrErr > Limits.MaxRegions)
    return makeCodedError(ErrorCode::LimitExceeded,
                          "binary trace: region count exceeds the limit");
  std::unordered_set<std::string> Names;
  for (uint32_t I = 0; I != *RegionsOrErr; ++I) {
    auto NameOrErr = In.readString();
    if (auto Err = NameOrErr.takeError())
      return Err;
    if (overAllocCap(NameOrErr->size() + sizeof(std::string)))
      return makeCodedError(ErrorCode::LimitExceeded,
                            "binary trace: name tables exceed the "
                            "allocation cap");
    if (!Names.insert(*NameOrErr).second)
      return makeCodedError(ErrorCode::DuplicateDeclaration,
                            "binary trace: duplicate region name");
    T.addRegion(std::move(*NameOrErr));
  }
  auto ActivitiesOrErr = In.read<uint32_t>();
  if (auto Err = ActivitiesOrErr.takeError())
    return Err;
  if (*ActivitiesOrErr > Limits.MaxActivities)
    return makeCodedError(ErrorCode::LimitExceeded,
                          "binary trace: activity count exceeds the limit");
  Names.clear();
  for (uint32_t I = 0; I != *ActivitiesOrErr; ++I) {
    auto NameOrErr = In.readString();
    if (auto Err = NameOrErr.takeError())
      return Err;
    if (overAllocCap(NameOrErr->size() + sizeof(std::string)))
      return makeCodedError(ErrorCode::LimitExceeded,
                            "binary trace: name tables exceed the "
                            "allocation cap");
    if (!Names.insert(*NameOrErr).second)
      return makeCodedError(ErrorCode::DuplicateDeclaration,
                            "binary trace: duplicate activity name");
    T.addActivity(std::move(*NameOrErr));
  }

  if (H.Version >= BinaryVersion2) {
    auto TotalOrErr = In.read<uint64_t>();
    if (auto Err = TotalOrErr.takeError())
      return Err;
    H.TotalEvents = *TotalOrErr;
  }
  H.PayloadStart = In.offset();
  TOut.emplace(std::move(T));
  return Error::success();
}

namespace {

/// The original v1 decode path: per-processor u64 counts, events until
/// each count is satisfied, nothing after the last processor.
Expected<Trace> parseTraceBinaryV1Impl(std::string_view Data,
                                       const ParseOptions &Options) {
  const ParseLimits &Limits = Options.Limits;
  BinaryHeader H;
  std::optional<Trace> TOpt;
  uint64_t AllocBytes = 0;
  if (auto Err = parseBinaryHeader(Data, Options, H, TOpt, AllocBytes))
    return Err;
  Trace &T = *TOpt;
  ByteReader In(Data, H.PayloadStart, Limits.MaxNameBytes);
  const RecordBounds Bounds(T);
  auto overAllocCap = [&](uint64_t More) {
    AllocBytes += More;
    return AllocBytes > Limits.MaxAllocBytes;
  };

  uint64_t TotalEvents = 0;
  for (uint32_t Proc = 0; Proc != H.NumProcs; ++Proc) {
    auto CountOrErr = In.read<uint64_t>();
    if (auto Err = CountOrErr.takeError())
      return Err;
    for (uint64_t I = 0; I != *CountOrErr; ++I) {
      if (Options.Report)
        ++Options.Report->TotalRecords;
      // Framing failures (truncation, varint overflow) are fatal; a
      // framed record with bad values is record-level (droppable in
      // lenient mode).
      RawRecord R;
      RecordStatus S = In.readRecord(Bounds, R);
      if (!S.ok()) {
        ParseError PE = recordError(S, R).toParseError();
        if (S.framing() || !Options.dropRecord(PE))
          return Error::fromParse(std::move(PE));
        continue;
      }
      if (++TotalEvents > Limits.MaxEvents)
        return makeParseError(ErrorCode::LimitExceeded, 0, S.Offset,
                              "binary trace: event count exceeds the limit");
      if (overAllocCap(sizeof(Event)))
        return makeParseError(ErrorCode::LimitExceeded, 0, S.Offset,
                              "binary trace: event storage exceeds the "
                              "allocation cap");
      T.append({R.Time, Proc, static_cast<EventKind>(R.Kind),
                static_cast<uint32_t>(R.Id), R.Bytes});
    }
  }
  if (!In.atEnd()) {
    ParseError PE{ErrorCode::MalformedRecord, 0, In.offset(),
                  "binary trace: trailing bytes after events"};
    if (!Options.dropRecord(PE))
      return Error::fromParse(std::move(PE));
  }
  LIMA_METRIC_COUNT("lima.parse.binary.events_total", TotalEvents);
  return std::move(T);
}

} // namespace

Expected<Trace> trace::parseTraceBinary(std::string_view Data,
                                        const ParseOptions &Options) {
  // v2 buffers route through the block-indexed reader at one thread
  // (identical results, one implementation); everything else — v1,
  // bad magic, unknown versions — goes down the v1 path, which
  // produces the structured error for the latter two.
  if (Data.size() >= sizeof(BinaryMagic) + sizeof(uint32_t) &&
      std::memcmp(Data.data(), BinaryMagic, sizeof(BinaryMagic)) == 0) {
    uint32_t Version;
    std::memcpy(&Version, Data.data() + sizeof(BinaryMagic),
                sizeof(Version));
    if (Version == BinaryVersion2)
      return parseTraceBinaryParallel(Data, Options, 1);
  }
  return parseTraceBinaryV1Impl(Data, Options);
}

Error trace::saveTraceBinary(const Trace &T, const std::string &Path) {
  return writeFileAtomic(Path, writeTraceBinary(T));
}

Expected<Trace> trace::loadTraceBinary(const std::string &Path,
                                       const ParseOptions &Options) {
  auto FileOrErr = MappedFile::open(Path);
  if (auto Err = FileOrErr.takeError())
    return Err;
  return parseTraceBinary(FileOrErr->view(), Options);
}

Expected<Trace> trace::loadTraceAuto(const std::string &Path,
                                     const ParseOptions &Options,
                                     unsigned Threads) {
  LIMA_STAGE("load");
  Expected<MappedFile> FileOrErr = [&] {
    LIMA_SPAN("load.map");
    return MappedFile::open(Path);
  }();
  if (auto Err = FileOrErr.takeError())
    return Err;
  std::string_view Data = FileOrErr->view();
  LIMA_SPAN("load.parse");
  LIMA_COUNTER_ADD("load.bytes", Data.size());
  if (Data.size() >= sizeof(BinaryMagic) &&
      std::memcmp(Data.data(), BinaryMagic, sizeof(BinaryMagic)) == 0)
    return parseTraceBinaryParallel(Data, Options, Threads);
  return parseTraceTextParallel(Data, Options, Threads);
}
