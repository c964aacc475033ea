//===- tests/BinaryRecordReference.h - LIMB record oracle -------*- C++ -*-===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The LIMB event-record decode done field by field, as every binary
/// reader once did it: a bounds-checked reader whose each read returns
/// an Expected, then a value check that returns an Error.  It is the
/// oracle `trace::detail::decodeRecord` and `recordError` must match:
/// status, bytes consumed, decoded values, and the error's code, byte
/// offset and message (BinaryRecordTest).
///
//===----------------------------------------------------------------------===//

#ifndef LIMA_TESTS_BINARYRECORDREFERENCE_H
#define LIMA_TESTS_BINARYRECORDREFERENCE_H

#include "support/Error.h"
#include "trace/Trace.h"
#include <cstring>
#include <optional>
#include <string_view>

namespace lima {
namespace testutil {

/// Bounds-checked reader over \p Data; offsets in errors are absolute.
class RefByteReader {
public:
  RefByteReader(std::string_view Data, size_t Offset)
      : Data(Data), Offset(Offset) {}

  Expected<uint64_t> readVarint() {
    uint64_t Value = 0;
    unsigned Shift = 0;
    while (true) {
      if (Offset >= Data.size())
        return makeParseError(ErrorCode::TruncatedInput, 0, Offset,
                              "binary trace truncated in varint at byte %zu",
                              Offset);
      uint8_t Byte = static_cast<uint8_t>(Data[Offset++]);
      if (Shift >= 64 || (Shift == 63 && Byte > 1))
        return makeParseError(ErrorCode::MalformedRecord, 0, Offset - 1,
                              "binary trace: varint overflow at byte %zu",
                              Offset - 1);
      Value |= static_cast<uint64_t>(Byte & 0x7F) << Shift;
      if ((Byte & 0x80) == 0)
        return Value;
      Shift += 7;
    }
  }

  template <typename T> Expected<T> read() {
    if (Offset + sizeof(T) > Data.size())
      return makeParseError(ErrorCode::TruncatedInput, 0, Offset,
                            "binary trace truncated at byte %zu", Offset);
    T Value;
    std::memcpy(&Value, Data.data() + Offset, sizeof(T));
    Offset += sizeof(T);
    return Value;
  }

  size_t offset() const { return Offset; }

private:
  std::string_view Data;
  size_t Offset;
};

/// Checks one framed record's values: `!(Time >= 0)` rejects NaN and
/// negatives, then the kind, then the id against u32 and the table its
/// kind indexes.
inline Error refValidateEventValues(double Time, uint8_t Kind, uint64_t Id,
                                    size_t RecordOffset,
                                    const trace::Trace &T) {
  using trace::EventKind;
  if (!(Time >= 0.0))
    return makeParseError(ErrorCode::ValueOutOfRange, 0, RecordOffset,
                          "binary trace: invalid event time at byte %zu",
                          RecordOffset);
  if (Kind > static_cast<uint8_t>(EventKind::MessageRecv))
    return makeParseError(ErrorCode::ValueOutOfRange, 0, RecordOffset,
                          "binary trace: unknown event kind %u at byte %zu",
                          Kind, RecordOffset);
  if (Id > UINT32_MAX)
    return makeParseError(ErrorCode::ValueOutOfRange, 0, RecordOffset,
                          "binary trace: event id overflows u32 at byte %zu",
                          RecordOffset);
  switch (static_cast<EventKind>(Kind)) {
  case EventKind::RegionEnter:
  case EventKind::RegionExit:
    if (Id >= T.numRegions())
      return makeParseError(ErrorCode::ValueOutOfRange, 0, RecordOffset,
                            "binary trace: region id out of range at byte %zu",
                            RecordOffset);
    break;
  case EventKind::ActivityBegin:
  case EventKind::ActivityEnd:
    if (Id >= T.numActivities())
      return makeParseError(ErrorCode::ValueOutOfRange, 0, RecordOffset,
                            "binary trace: activity id out of range at byte "
                            "%zu",
                            RecordOffset);
    break;
  case EventKind::MessageSend:
  case EventKind::MessageRecv:
    if (Id >= T.numProcs())
      return makeParseError(ErrorCode::ValueOutOfRange, 0, RecordOffset,
                            "binary trace: peer out of range at byte %zu",
                            RecordOffset);
    break;
  }
  return Error::success();
}

/// What the per-field sequence made of one record.
struct RefRecord {
  /// All four fields were read; End and the raw fields are valid.
  bool Framed = false;
  /// Set on any failure: a field read's error, else the value error.
  std::optional<ParseError> Err;
  size_t End = 0;
  double Time = 0.0;
  uint8_t Kind = 0;
  uint64_t Id = 0;
  uint64_t Bytes = 0;
};

/// Reads the record at \p Offset of \p Data (which ends where the block
/// or buffer does): time, kind, id varint, bytes varint, then values.
inline RefRecord refDecodeRecord(std::string_view Data, size_t Offset,
                                 const trace::Trace &T) {
  RefRecord R;
  RefByteReader In(Data, Offset);
  auto TimeOrErr = In.read<double>();
  if (auto Err = TimeOrErr.takeError()) {
    R.Err = Err.toParseError();
    return R;
  }
  auto KindOrErr = In.read<uint8_t>();
  if (auto Err = KindOrErr.takeError()) {
    R.Err = Err.toParseError();
    return R;
  }
  auto IdOrErr = In.readVarint();
  if (auto Err = IdOrErr.takeError()) {
    R.Err = Err.toParseError();
    return R;
  }
  auto BytesOrErr = In.readVarint();
  if (auto Err = BytesOrErr.takeError()) {
    R.Err = Err.toParseError();
    return R;
  }
  R.Framed = true;
  R.End = In.offset();
  R.Time = *TimeOrErr;
  R.Kind = *KindOrErr;
  R.Id = *IdOrErr;
  R.Bytes = *BytesOrErr;
  if (Error ValueErr = refValidateEventValues(R.Time, R.Kind, R.Id, Offset, T))
    R.Err = ValueErr.toParseError();
  return R;
}

} // namespace testutil
} // namespace lima

#endif // LIMA_TESTS_BINARYRECORDREFERENCE_H
