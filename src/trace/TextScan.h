//===- trace/TextScan.h - LIMATRACE text scanning primitives ----*- C++ -*-===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The allocation-free scanning core shared by the two LIMATRACE text
/// consumers — StreamParser, which runs every line-at-a-time parse, and
/// the sharded parser's pass B (parseTraceTextParallel) — plus
/// eventLineProcessor, the rule the sharded parser counts each
/// processor's lines by before it sizes the streams.  Four layers:
///
///  - scanCanonicalEvent: a one-pass recognizer for the event lines
///    every LIMA writer prints.  Each consumer tries it first on an
///    event-section line; it either produces the exact Event the
///    generic path below would produce, or returns false and leaves
///    the line to that path.  It never decides an error: every drop,
///    message and count still comes from parseEventRecord.  It finds
///    the line's end itself, so the stream parser runs it straight on
///    the bytes it is fed, while the sharded parser hands it one line
///    it already cut.
///  - splitFields: an in-place cursor tokenizer that replaces the
///    per-line splitWhitespace() vector (one heap allocation per line)
///    with a fixed field array on the caller's stack;
///  - scanUnsigned / scanDouble: std::from_chars fast paths that fall
///    back to the historical strtoX-based StringUtils parsers whenever
///    from_chars does not cleanly consume the token, so the accepted
///    grammar, the produced values and the BadNumber error messages are
///    bit-identical to the pre-fast-path parsers (leading '+', hex
///    floats, out-of-range and subnormal handling all route through the
///    old code);
///  - parseEventRecord: the one event-record grammar, shared so the
///    two consumers cannot drift apart in error codes, messages or
///    range checks.
///
/// The canonical grammar (anything else returns false):
///
///   line   := mn ' ' uint ' ' time ' ' uint [' ' uint] space*
///   mn     := re | rx | ab | ae | ms | mr   (the 5th field iff ms/mr)
///   uint   := 1-19 digits                   (so it cannot overflow)
///   time   := digits ['.' digits] [('e'|'E') ['+'|'-'] digits]
///
/// with single-space separators (trailing whitespace, such as a CR, is
/// what splitFields ignores too), the line ending at its first '\n',
/// and every range check of parseEventRecord.  A time is accepted only
/// with at most 19 digits (leading zeros included), a decimal mantissa
/// M <= 2^53 and an effective power of ten |p| <= 22.  Then M and 10^|p|
/// are both exact doubles and the value is one IEEE operation, M * 10^p
/// or M / 10^-p, whose correctly rounded result is the correctly
/// rounded decimal: exactly what from_chars returns (Clinger's fast
/// path).  Never a multiply by a reciprocal power, which is not exact.
/// There is no sign, so the result is finite, non-negative, never -0
/// and never subnormal: every check scanDouble and parseEventRecord
/// apply to a time holds by construction.
///
/// Everything here is internal to lima_trace; no stability promises.
///
//===----------------------------------------------------------------------===//

#ifndef LIMA_TRACE_TEXTSCAN_H
#define LIMA_TRACE_TEXTSCAN_H

#include "support/Error.h"
#include "support/StringUtils.h"
#include "trace/Event.h"
#include <bit>
#include <cassert>
#include <cfloat>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>

namespace lima {
namespace trace {
namespace scan {

/// The C-locale isspace() set, which is what splitWhitespace() and
/// trimString() match under the never-changed default locale.
inline bool isSpaceByte(char C) {
  return C == ' ' || C == '\t' || C == '\n' || C == '\v' || C == '\f' ||
         C == '\r';
}

/// Widest record is a message event (5 fields); one extra slot lets
/// every "wrong field count" check distinguish <= 5 from "too many".
inline constexpr size_t MaxFields = 6;

/// Tokenizes \p Line on whitespace runs into \p Fields[0..MaxFields).
/// Returns the number of fields stored, saturating at MaxFields (a
/// return of MaxFields means "MaxFields or more"); every grammar check
/// compares against counts <= 5, so saturation never changes a verdict.
inline size_t splitFields(std::string_view Line, std::string_view *Fields) {
  size_t N = 0;
  const char *P = Line.data();
  const char *End = P + Line.size();
  while (P != End) {
    while (P != End && isSpaceByte(*P))
      ++P;
    const char *Tok = P;
    while (P != End && !isSpaceByte(*P))
      ++P;
    if (P == Tok)
      break;
    Fields[N++] = std::string_view(Tok, static_cast<size_t>(P - Tok));
    if (N == MaxFields)
      break;
  }
  return N;
}

/// Left-trim only: line classification ("blank or comment?") never
/// looks past the first non-space byte.
inline std::string_view skipLeadingSpace(std::string_view Str) {
  size_t Begin = 0;
  while (Begin < Str.size() && isSpaceByte(Str[Begin]))
    ++Begin;
  return Str.substr(Begin);
}

/// parseUnsigned() semantics at from_chars speed.  Tokens from_chars
/// does not cleanly consume (leading '+', embedded 'x', overflow) are
/// re-parsed by the historical strtoull path so the accept set and the
/// error messages stay identical.
inline Expected<uint64_t> scanUnsigned(std::string_view Tok) {
  uint64_t Value;
  auto [Ptr, Ec] = std::from_chars(Tok.data(), Tok.data() + Tok.size(), Value);
  if (Ec == std::errc() && Ptr == Tok.data() + Tok.size())
    return Value;
  return parseUnsigned(Tok);
}

/// parseDouble() semantics at from_chars speed.  The fallback covers
/// everything from_chars and strtod disagree on: '+' signs, hex floats,
/// overflow/underflow (strtod's ERANGE becomes BadNumber) and subnormal
/// results (glibc flags those ERANGE too, from_chars does not).
inline Expected<double> scanDouble(std::string_view Tok) {
  double Value;
  auto [Ptr, Ec] = std::from_chars(Tok.data(), Tok.data() + Tok.size(), Value);
  if (Ec == std::errc() && Ptr == Tok.data() + Tok.size() &&
      (Value == 0.0 || std::fpclassify(Value) != FP_SUBNORMAL))
    return Value;
  return parseDouble(Tok);
}

/// Event mnemonic table ("re", "rx", "ab", "ae", "ms", "mr").
inline std::optional<EventKind> kindFromMnemonic(std::string_view Mnemonic) {
  if (Mnemonic == "re")
    return EventKind::RegionEnter;
  if (Mnemonic == "rx")
    return EventKind::RegionExit;
  if (Mnemonic == "ab")
    return EventKind::ActivityBegin;
  if (Mnemonic == "ae")
    return EventKind::ActivityEnd;
  if (Mnemonic == "ms")
    return EventKind::MessageSend;
  if (Mnemonic == "mr")
    return EventKind::MessageRecv;
  return std::nullopt;
}

/// The name tables an event record validates against: the stream
/// parser passes its own tables' sizes, the sharded parser the frozen
/// sizes of the trace the prologue built.
struct EventTables {
  bool SawProcs = false;
  unsigned NumProcs = 0;
  size_t NumRegions = 0;
  size_t NumActivities = 0;
};

/// Parses \p Fields[0..NumFields) as one event record into \p E.
/// Grammar, range checks, error codes and messages are the historical
/// per-line parser's, verbatim; callers own drop-vs-abort policy.
inline Error parseEventRecord(const std::string_view *Fields,
                              size_t NumFields, const EventTables &Tables,
                              size_t LineNo, size_t LineOffset, Event &E) {
  auto fail = [&](ErrorCode Code, const char *What) {
    return makeParseError(Code, LineNo, LineOffset, "trace line %zu: %s",
                          LineNo, What);
  };
  auto failNumber = [&](Error Err) {
    return makeParseError(ErrorCode::BadNumber, LineNo, LineOffset,
                          "trace line %zu: %s", LineNo,
                          Err.message().c_str());
  };

  std::optional<EventKind> Kind = kindFromMnemonic(Fields[0]);
  if (!Kind)
    return fail(ErrorCode::MalformedRecord, "unknown record type");
  if (!Tables.SawProcs)
    return fail(ErrorCode::MissingSection, "'procs' must precede events");
  bool IsMessage =
      *Kind == EventKind::MessageSend || *Kind == EventKind::MessageRecv;
  size_t Expect = IsMessage ? 5 : 4;
  if (NumFields != Expect)
    return fail(ErrorCode::MalformedRecord, "wrong field count for event");

  E.Kind = *Kind;
  auto ProcOrErr = scanUnsigned(Fields[1]);
  if (!ProcOrErr)
    return failNumber(ProcOrErr.takeError());
  if (*ProcOrErr >= Tables.NumProcs)
    return fail(ErrorCode::ValueOutOfRange, "event processor out of range");
  E.Proc = static_cast<uint32_t>(*ProcOrErr);
  auto TimeOrErr = scanDouble(Fields[2]);
  if (!TimeOrErr)
    return failNumber(TimeOrErr.takeError());
  // "inf" and "nan" parse as numbers; non-finite times break every
  // downstream time computation, so reject them at the boundary.
  if (!std::isfinite(*TimeOrErr) || *TimeOrErr < 0.0)
    return fail(ErrorCode::ValueOutOfRange,
                "event time must be finite and non-negative");
  E.Time = *TimeOrErr;
  auto IdOrErr = scanUnsigned(Fields[3]);
  if (!IdOrErr)
    return failNumber(IdOrErr.takeError());
  if (*IdOrErr > UINT32_MAX)
    return fail(ErrorCode::ValueOutOfRange, "event id overflows u32");
  E.Id = static_cast<uint32_t>(*IdOrErr);
  switch (E.Kind) {
  case EventKind::RegionEnter:
  case EventKind::RegionExit:
    if (E.Id >= Tables.NumRegions)
      return fail(ErrorCode::ValueOutOfRange, "event region out of range");
    break;
  case EventKind::ActivityBegin:
  case EventKind::ActivityEnd:
    if (E.Id >= Tables.NumActivities)
      return fail(ErrorCode::ValueOutOfRange, "event activity out of range");
    break;
  case EventKind::MessageSend:
  case EventKind::MessageRecv:
    if (E.Id >= Tables.NumProcs)
      return fail(ErrorCode::ValueOutOfRange, "message peer out of range");
    break;
  }
  if (IsMessage) {
    auto BytesOrErr = scanUnsigned(Fields[4]);
    if (!BytesOrErr)
      return failNumber(BytesOrErr.takeError());
    E.Bytes = *BytesOrErr;
  }
  return Error::success();
}

//===----------------------------------------------------------------------===//
// The canonical-line fast path (grammar and exactness argument in the
// file comment).
//===----------------------------------------------------------------------===//

/// Digits a canonical number may have: 10^19 - 1 < 2^64, so a field
/// (or a time's mantissa) of at most this many digits cannot overflow.
inline constexpr unsigned MaxCanonicalDigits = 19;

/// Largest time mantissa converted exactly: every integer up to 2^53 is
/// a double.
inline constexpr uint64_t MaxExactMantissa = uint64_t(1) << 53;

/// 10^0 .. 10^22: 5^22 < 2^53, so each of these literals is the power
/// itself, not a rounding of it (10^23 is the first that is not).
inline constexpr double ExactPowersOf10[] = {
    1e0,  1e1,  1e2,  1e3,  1e4,  1e5,  1e6,  1e7,  1e8,  1e9,  1e10, 1e11,
    1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22};
inline constexpr int MaxExactPowerOf10 = 22;

/// One operation is one rounding only when doubles are evaluated in
/// double precision (not the x87's extended registers); elsewhere the
/// fast path stays off and every line takes the generic path.
inline constexpr bool ExactDoubleArithmetic = FLT_EVAL_METHOD == 0;

inline bool isDigitByte(char C) { return C >= '0' && C <= '9'; }

/// True when all eight bytes of \p Block are ASCII digits: each byte's
/// high nibble is 3, and adding 6 keeps it 3 (low nibble at most 9).
/// A carry between bytes needs a byte >= 0xFA, which fails on its own.
inline bool isEightDigits(uint64_t Block) {
  return ((Block & 0xF0F0F0F0F0F0F0F0) |
          (((Block + 0x0606060606060606) & 0xF0F0F0F0F0F0F0F0) >> 4)) ==
         0x3333333333333333;
}

/// The value of eight ASCII digits loaded little-endian (first digit in
/// the lowest byte), combined pairwise: digits into 2-digit values in
/// the even bytes, those into 4-digit values in the even 16-bit lanes,
/// those into the 8-digit value.  No lane ever carries into the next.
inline uint32_t eightDigitsValue(uint64_t Block) {
  Block -= 0x3030303030303030;
  Block = (Block * 10 + (Block >> 8)) & 0x00FF00FF00FF00FF;
  Block = (Block * 100 + (Block >> 16)) & 0x0000FFFF0000FFFF;
  return static_cast<uint32_t>(Block * 10000 + (Block >> 32));
}

/// Appends the digit run at \p P to \p Value, advancing \p P past it and
/// counting the digits in \p Digits.  Returns false once the count
/// passes MaxCanonicalDigits, before Value can overflow.  Whole 8-digit
/// blocks are read eight bytes at a time when \p Blocks is set (only
/// ever inside [P, End), so never past the line).
inline bool readDigits(const char *&P, const char *End, uint64_t &Value,
                       unsigned &Digits, bool Blocks = false) {
  if constexpr (std::endian::native == std::endian::little) {
    while (Blocks && End - P >= 8 && Digits + 8 <= MaxCanonicalDigits) {
      uint64_t Block;
      std::memcpy(&Block, P, sizeof(Block));
      if (!isEightDigits(Block))
        break;
      Value = Value * 100000000 + eightDigitsValue(Block);
      Digits += 8;
      P += 8;
    }
  }
  for (; P != End && isDigitByte(*P); ++P) {
    if (++Digits > MaxCanonicalDigits)
      return false;
    Value = Value * 10 + static_cast<unsigned>(*P - '0');
  }
  return true;
}

/// A canonical <uint>: 1-19 digits.
inline bool readCanonicalUnsigned(const char *&P, const char *End,
                                  uint64_t &Value) {
  Value = 0;
  unsigned Digits = 0;
  return readDigits(P, End, Value, Digits) && Digits != 0;
}

/// A canonical <time>, converted exactly or not at all.
inline bool readCanonicalTime(const char *&P, const char *End,
                              double &Value) {
  uint64_t Mantissa = 0;
  unsigned Digits = 0;
  if (!readDigits(P, End, Mantissa, Digits) || Digits == 0)
    return false;
  int Power = 0;
  if (P != End && *P == '.') {
    ++P;
    unsigned IntegerDigits = Digits;
    if (!readDigits(P, End, Mantissa, Digits, /*Blocks=*/true) ||
        Digits == IntegerDigits)
      return false;
    Power = -static_cast<int>(Digits - IntegerDigits);
  }
  if (P != End && (*P == 'e' || *P == 'E')) {
    ++P;
    bool Negative = P != End && *P == '-';
    if (P != End && (*P == '+' || *P == '-'))
      ++P;
    const char *ExponentBegin = P;
    // Saturates far beyond any accepted power; the walk still consumes
    // every digit so the end-of-field check sees the next byte.
    int Exponent = 0;
    for (; P != End && isDigitByte(*P); ++P)
      if (Exponent < 10000)
        Exponent = Exponent * 10 + (*P - '0');
    if (P == ExponentBegin)
      return false;
    Power += Negative ? -Exponent : Exponent;
  }
  if (Mantissa > MaxExactMantissa || Power < -MaxExactPowerOf10 ||
      Power > MaxExactPowerOf10)
    return false;
  double M = static_cast<double>(Mantissa);
  Value = Power >= 0 ? M * ExactPowersOf10[Power]
                     : M / ExactPowersOf10[-Power];
  return true;
}

/// Consumes the single space between two canonical fields.
inline bool readSeparator(const char *&P, const char *End) {
  if (P == End || *P != ' ')
    return false;
  ++P;
  return true;
}

/// Tries the line at the start of \p Text (already left-trimmed) as a
/// canonical event line.  The line ends at the first '\n' or at the end
/// of \p Text, whichever comes first; no byte past that '\n' decides
/// anything.  On true, \p E holds exactly what parseEventRecord would
/// have stored for this line (Bytes is written only for message events,
/// as there) and \p LineEnd is the line's length: the offset of its
/// '\n', or Text.size() when \p Text ends first.  On false nothing was
/// written and the caller runs the generic path.
inline bool scanCanonicalEvent(std::string_view Text,
                               const EventTables &Tables, Event &E,
                               size_t &LineEnd) {
  // The shortest canonical line is "re 0 0 0".
  if (!ExactDoubleArithmetic || !Tables.SawProcs || Text.size() < 8 ||
      Text[2] != ' ')
    return false;
  EventKind Kind;
  size_t IdLimit;
  switch ((static_cast<unsigned char>(Text[0]) << 8) |
          static_cast<unsigned char>(Text[1])) {
  case ('r' << 8) | 'e':
    Kind = EventKind::RegionEnter;
    IdLimit = Tables.NumRegions;
    break;
  case ('r' << 8) | 'x':
    Kind = EventKind::RegionExit;
    IdLimit = Tables.NumRegions;
    break;
  case ('a' << 8) | 'b':
    Kind = EventKind::ActivityBegin;
    IdLimit = Tables.NumActivities;
    break;
  case ('a' << 8) | 'e':
    Kind = EventKind::ActivityEnd;
    IdLimit = Tables.NumActivities;
    break;
  case ('m' << 8) | 's':
    Kind = EventKind::MessageSend;
    IdLimit = Tables.NumProcs;
    break;
  case ('m' << 8) | 'r':
    Kind = EventKind::MessageRecv;
    IdLimit = Tables.NumProcs;
    break;
  default:
    return false;
  }
  bool IsMessage =
      Kind == EventKind::MessageSend || Kind == EventKind::MessageRecv;

  // No field reader consumes a '\n', so none reads into the next line.
  const char *P = Text.data() + 3;
  const char *End = Text.data() + Text.size();
  uint64_t Proc = 0, Id = 0, Bytes = 0;
  double Time = 0.0;
  if (!readCanonicalUnsigned(P, End, Proc) || !readSeparator(P, End) ||
      !readCanonicalTime(P, End, Time) || !readSeparator(P, End) ||
      !readCanonicalUnsigned(P, End, Id))
    return false;
  if (IsMessage &&
      (!readSeparator(P, End) || !readCanonicalUnsigned(P, End, Bytes)))
    return false;
  for (; P != End && *P != '\n'; ++P)
    if (!isSpaceByte(*P))
      return false;
  if (Proc >= Tables.NumProcs || Id > UINT32_MAX || Id >= IdLimit)
    return false;
  LineEnd = static_cast<size_t>(P - Text.data());

  E.Kind = Kind;
  E.Proc = static_cast<uint32_t>(Proc);
  E.Time = Time;
  E.Id = static_cast<uint32_t>(Id);
  if (IsMessage)
    E.Bytes = Bytes;
  return true;
}

/// How far the event-shaped lines ("<mn> ...") the fast path declined
/// may outnumber those it accepted before a consumer stops trying it:
/// 64 misses in a row, or more misses than hits for long enough.  A
/// declined line pays the fast path's work on top of the generic
/// path's, about a third more on input whose times another writer
/// printed with more digits (where a few short times still hit, so a
/// hit must not wipe the count).
inline constexpr unsigned MaxCanonicalMisses = 64;

/// The miss rule.  Each consumer keeps one \p Misses counter (the
/// sharded parser one per shard) and notes here every complete,
/// left-trimmed \p Line it tried the fast path on: a miss adds one, a
/// hit takes one back, and once it reaches MaxCanonicalMisses the fast
/// path is not tried again.  Declarations are declined at their third
/// byte, so they do not count.  Whether the fast path runs never
/// changes a result, only what the parse costs.
inline void noteCanonicalTrial(std::string_view Line, bool Hit,
                               unsigned &Misses) {
  if (Hit) {
    if (Misses != 0)
      --Misses;
  } else if (Line.size() > 2 && Line[2] == ' ') {
    ++Misses;
  }
}

/// scanCanonicalEvent on one \p Line (no '\n' in it), behind the miss
/// rule.
inline bool tryCanonicalEvent(std::string_view Line,
                              const EventTables &Tables, Event &E,
                              unsigned &Misses) {
  if (Misses == MaxCanonicalMisses)
    return false;
  size_t LineEnd = 0;
  bool Hit = scanCanonicalEvent(Line, Tables, E, LineEnd);
  assert((!Hit || LineEnd == Line.size()) && "a line holds no '\\n'");
  noteCanonicalTrial(Line, Hit, Misses);
  return Hit;
}

/// The processor an event line names, by the rule the sharded parser's
/// pass A sizes each processor's stream with: the second
/// whitespace-delimited field of \p Line (left-trimmed, not blank, not
/// a comment), read the way parseEventRecord reads it (scanUnsigned,
/// below \p NumProcs).  A canonical prefix (two non-space bytes, one
/// space, 1-19 digits, a space byte) is read in place; any other line
/// goes through splitFields.  Returns false when the field is missing,
/// not a number or out of range.  Whenever splitFields +
/// parseEventRecord accept a line as an event of processor P, this
/// names P (fuzz_trace_text traps otherwise); a line it names may still
/// fail another field, so counts built from it are upper bounds.
inline bool eventLineProcessor(std::string_view Line, unsigned NumProcs,
                               uint32_t &Proc) {
  uint64_t Value = 0;
  bool Canonical = false;
  if (Line.size() > 4 && !isSpaceByte(Line[0]) && !isSpaceByte(Line[1]) &&
      Line[2] == ' ') {
    const char *P = Line.data() + 3;
    const char *End = Line.data() + Line.size();
    Canonical = readCanonicalUnsigned(P, End, Value) && P != End &&
                isSpaceByte(*P);
  }
  if (!Canonical) {
    std::string_view Fields[MaxFields];
    if (splitFields(Line, Fields) < 2)
      return false;
    Expected<uint64_t> ValueOrErr = scanUnsigned(Fields[1]);
    if (!ValueOrErr) {
      ValueOrErr.takeError().consume();
      return false;
    }
    Value = *ValueOrErr;
  }
  if (Value >= NumProcs)
    return false;
  Proc = static_cast<uint32_t>(Value);
  return true;
}

/// Heap bytes a registered name of \p Len bytes actually costs: the
/// std::string header always, plus the out-of-line buffer only past the
/// small-string capacity.  This is the tightened ParseLimits accounting
/// StreamParser charges (the legacy oracle over-charges short names by
/// their length and ignores SSO entirely).
inline uint64_t nameAllocCost(size_t Len) {
  static const size_t SsoCapacity = std::string().capacity();
  return sizeof(std::string) + (Len > SsoCapacity ? Len + 1 : 0);
}

} // namespace scan
} // namespace trace
} // namespace lima

#endif // LIMA_TRACE_TEXTSCAN_H
