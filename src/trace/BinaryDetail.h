//===- trace/BinaryDetail.h - Shared LIMB reader internals ------*- C++ -*-===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Internals shared between the sequential LIMB reader/writer
/// (trace/BinaryIO.cpp) and the block-indexed sharded reader
/// (trace/ParallelBinary.cpp): format constants, the one event-record
/// decoder every reader calls, the bounds-checked byte reader, and the
/// v2 header/index model.  Internal to lima_trace.
///
//===----------------------------------------------------------------------===//

#ifndef LIMA_TRACE_BINARYDETAIL_H
#define LIMA_TRACE_BINARYDETAIL_H

#include "support/Error.h"
#include "support/ParseLimits.h"
#include "trace/Trace.h"
#include <cstring>
#include <optional>
#include <string_view>
#include <vector>

namespace lima {
namespace trace {
namespace detail {

constexpr char BinaryMagic[4] = {'L', 'I', 'M', 'B'};
constexpr uint32_t BinaryVersion1 = 1;
constexpr uint32_t BinaryVersion2 = 2;

/// v2 header flag: every index entry carries a CRC32 of its block's
/// payload bytes (written by default; readers tolerate files without).
constexpr uint32_t BinaryFlagBlockCrc = 1u << 0;
/// v2 header flag: the file was produced by the streaming writer, so
/// its header event total is patched before each block lands and may
/// exceed the events actually present.  A truncated streamed file is
/// an expected crash artifact, not corruption: the sequential walk
/// salvages the fully-flushed block prefix instead of failing.
constexpr uint32_t BinaryFlagStreamed = 1u << 1;
constexpr uint32_t BinaryKnownFlags = BinaryFlagBlockCrc | BinaryFlagStreamed;

/// The v2 footer is the last 24 bytes of the file:
///   u64 index offset, u32 index size, u32 index CRC32, char[8] magic.
constexpr char BinaryFooterMagic[8] = {'L', 'I', 'M', 'B', 'I', 'D', 'X', '2'};
constexpr size_t BinaryFooterSize = 8 + 4 + 4 + 8;

/// Smallest possible serialized index entry (all fixed-width fields
/// plus one run), used to sanity-bound a declared block count before
/// reserving index storage.
constexpr size_t BinaryMinIndexEntry = 8 + 4 + 4 + 8 + 8 + 4 + 4 + (4 + 4);

/// Where decoding one event record stopped.  Framing failures (the
/// record cannot be delimited) report the failing byte; value failures
/// report the record's first byte and leave the cursor past the record.
struct RecordStatus {
  enum Code : uint8_t {
    Ok,
    Truncated,       ///< Framing: a fixed-width field runs past the end.
    TruncatedVarint, ///< Framing: a varint runs past the end.
    VarintOverflow,  ///< Framing: a varint does not fit in 64 bits.
    BadTime,         ///< NaN or negative.
    UnknownKind,
    IdOverflow,         ///< Does not fit in u32.
    RegionOutOfRange,   ///< Region kinds; the next two follow the
    ActivityOutOfRange, ///< EventKind order of the kind pairs.
    PeerOutOfRange,
  };
  Code What = Ok;
  size_t Offset = 0;

  bool ok() const { return What == Ok; }
  bool framing() const { return What != Ok && What <= VarintOverflow; }
};

/// One event record as stored (f64 time, kind byte, id and byte-count
/// varints), before validation.  The time is kept on a value failure,
/// because the index's first/last times count every framed record.
struct RawRecord {
  double Time = 0.0;
  uint8_t Kind = 0;
  uint64_t Id = 0;
  uint64_t Bytes = 0;
};

/// The exclusive id bound of each event kind: regions, activities, then
/// processors (message peers), each for a kind pair.
struct RecordBounds {
  uint64_t Limit[6];
  explicit RecordBounds(const Trace &T)
      : Limit{T.numRegions(),    T.numRegions(), T.numActivities(),
              T.numActivities(), T.numProcs(),   T.numProcs()} {}
};

/// Decodes an unsigned LEB128 at \p Pos, reading no byte at or past
/// \p End.  On failure \p Pos is the failing byte.
inline RecordStatus::Code decodeVarint(const char *Data, size_t &Pos,
                                       size_t End, uint64_t &Value) {
  Value = 0;
  for (unsigned Shift = 0;; Shift += 7) {
    if (Pos >= End)
      return RecordStatus::TruncatedVarint;
    uint8_t Byte = static_cast<uint8_t>(Data[Pos]);
    // The tenth byte carries bit 63 only.
    if (Shift == 63 && Byte > 1)
      return RecordStatus::VarintOverflow;
    ++Pos;
    Value |= static_cast<uint64_t>(Byte & 0x7F) << Shift;
    if ((Byte & 0x80) == 0)
      return RecordStatus::Ok;
  }
}

/// The one LIMB event-record decoder (v1, indexed v2, the v2 walk).
/// Reads the record at \p Pos without reading at or past \p End, then
/// checks its values: `!(Time >= 0)` rejects NaN and negatives, the kind
/// must be known, and the id must fit u32 and the table its kind
/// indexes.  Framing is checked before values, so a record that is both
/// truncated and out of range reports the truncation.  Builds no Error:
/// recordError formats a failure.
inline RecordStatus decodeRecord(const char *Data, size_t &Pos, size_t End,
                                 const RecordBounds &Bounds, RawRecord &R) {
  const size_t Start = Pos;
  if (End - Pos < sizeof(double))
    return {RecordStatus::Truncated, Pos};
  std::memcpy(&R.Time, Data + Pos, sizeof(double));
  Pos += sizeof(double);
  if (Pos >= End)
    return {RecordStatus::Truncated, Pos};
  R.Kind = static_cast<uint8_t>(Data[Pos++]);
  RecordStatus::Code C = decodeVarint(Data, Pos, End, R.Id);
  if (C == RecordStatus::Ok)
    C = decodeVarint(Data, Pos, End, R.Bytes);
  if (C != RecordStatus::Ok)
    return {C, Pos};
  if (!(R.Time >= 0.0))
    return {RecordStatus::BadTime, Start};
  if (R.Kind > static_cast<uint8_t>(EventKind::MessageRecv))
    return {RecordStatus::UnknownKind, Start};
  if (R.Id > UINT32_MAX)
    return {RecordStatus::IdOverflow, Start};
  if (R.Id >= Bounds.Limit[R.Kind])
    return {static_cast<RecordStatus::Code>(RecordStatus::RegionOutOfRange +
                                            R.Kind / 2),
            Start};
  return {RecordStatus::Ok, Start};
}

/// The Error a failed record reports: code, byte offset and message.
/// Out of line, so the decoding loops carry no formatting code.
Error recordError(RecordStatus S, const RawRecord &R = {});

/// Bounds-checked reader over the input buffer.  Offsets in errors are
/// absolute (relative to the start of the file, including the magic).
class ByteReader {
public:
  ByteReader(std::string_view Data, size_t StartOffset, size_t MaxNameBytes)
      : Data(Data), Offset(StartOffset), MaxNameBytes(MaxNameBytes) {}

  Expected<uint64_t> readVarint() {
    uint64_t Value;
    auto C = decodeVarint(Data.data(), Offset, Data.size(), Value);
    if (C != RecordStatus::Ok)
      return recordError({C, Offset});
    return Value;
  }

  /// Decodes the event record at the cursor (see decodeRecord).
  RecordStatus readRecord(const RecordBounds &Bounds, RawRecord &R) {
    return decodeRecord(Data.data(), Offset, Data.size(), Bounds, R);
  }

  template <typename T> Expected<T> read() {
    if (Offset + sizeof(T) > Data.size())
      return recordError({RecordStatus::Truncated, Offset});
    T Value;
    std::memcpy(&Value, Data.data() + Offset, sizeof(T));
    Offset += sizeof(T);
    return Value;
  }

  Expected<std::string> readString() {
    size_t LengthOffset = Offset;
    auto LengthOrErr = read<uint32_t>();
    if (auto Err = LengthOrErr.takeError())
      return Err;
    uint32_t Length = *LengthOrErr;
    if (Length > MaxNameBytes)
      return makeParseError(ErrorCode::LimitExceeded, 0, LengthOffset,
                            "binary trace: string length %u exceeds the "
                            "limit",
                            Length);
    if (Offset + Length > Data.size())
      return makeParseError(ErrorCode::TruncatedInput, 0, Offset,
                            "binary trace truncated in string at byte %zu",
                            Offset);
    std::string Str(Data.substr(Offset, Length));
    Offset += Length;
    return Str;
  }

  bool atEnd() const { return Offset == Data.size(); }
  size_t offset() const { return Offset; }

private:
  std::string_view Data;
  size_t Offset = 0;
  size_t MaxNameBytes;
};

/// Everything the header declares, minus the name tables (those land
/// directly in the Trace under construction).
struct BinaryHeader {
  uint32_t Version = 0;
  uint32_t Flags = 0;
  uint32_t NumProcs = 0;
  /// v2 only: total events across all processors, enabling the limits
  /// pre-check and the sequential no-index walk.
  uint64_t TotalEvents = 0;
  /// Byte offset of the first payload (event-section) byte.
  size_t PayloadStart = 0;
};

/// One (processor, count) slice of a block, in file order.
struct BlockRun {
  uint32_t Proc = 0;
  uint32_t Count = 0;
};

/// One index entry.  Runs live in BinaryIndex::Runs[FirstRun,
/// FirstRun+NumRuns).
struct BlockInfo {
  uint64_t Offset = 0; ///< Absolute file offset of the block payload.
  uint32_t Bytes = 0;  ///< Payload size in bytes.
  uint32_t Events = 0; ///< Events in the block (== sum of run counts).
  double FirstTime = 0.0;
  double LastTime = 0.0;
  uint32_t Crc = 0; ///< CRC32 of the payload (when the flag is set).
  uint32_t FirstRun = 0;
  uint32_t NumRuns = 0;
};

/// The validated block index of a v2 file.
struct BinaryIndex {
  std::vector<BlockInfo> Blocks;
  std::vector<BlockRun> Runs;
};

/// Parses magic/version/flags/processor count/name tables (and, for
/// v2, the event total) into \p H and a fresh Trace in \p TOut,
/// enforcing the same ParseLimits checks and allocation accounting as
/// the original v1 reader.  \p AllocBytes accumulates the accounting so
/// callers can extend it over the event section.
Error parseBinaryHeader(std::string_view Data, const ParseOptions &Options,
                        BinaryHeader &H, std::optional<Trace> &TOut,
                        uint64_t &AllocBytes);

/// Locates and validates the v2 footer and block index.  Returns
/// nullopt — never a hard error — when the file carries no usable
/// index: missing/truncated footer, bad footer magic, index bounds that
/// do not tile [PayloadStart, EOF), an index CRC mismatch, or entries
/// that are internally inconsistent (non-contiguous blocks, run counts
/// that do not sum to the block's event count, run processors out of
/// range, totals that disagree with the header).  Callers fall back to
/// the sequential no-index walk.
std::optional<BinaryIndex> readBinaryIndex(std::string_view Data,
                                           const BinaryHeader &H);

} // namespace detail
} // namespace trace
} // namespace lima

#endif // LIMA_TRACE_BINARYDETAIL_H
