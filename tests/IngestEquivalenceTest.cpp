//===- tests/IngestEquivalenceTest.cpp - Fast path vs legacy parser -------===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// The golden-equivalence suite for the ingestion fast path: every text
// fixture in fuzz/corpus/ plus a set of synthetic stress inputs runs
// through the frozen legacy parser (TextParserReference.h),
// parseTraceText (the StreamParser fed in slices) and the sharded
// parallel parser at 1, 2 and 8 threads, in both strict and lenient
// mode.  Success/failure, the serialized Trace, every event
// column (memcmp, so a time one ulp off fails), the structured error
// (code, line, offset, message) and the full ParseReport (totals,
// per-code drop counts, samples) must agree bit for bit.  This is the
// test that licenses every future optimization of the fast path; the
// edge cases and the seeded line sweep aim at the canonical-line fast
// path's limits (trace/TextScan.h).
//
// Also pins the tightened ParseLimits allocation accounting to its
// documented formula, and where each charge trips.
//
//===----------------------------------------------------------------------===//

#include "TextParserReference.h"
#include "TraceCompare.h"
#include "support/FileUtils.h"
#include "support/Metrics.h"
#include "support/Parallel.h"
#include "support/ParseLimits.h"
#include "support/RNG.h"
#include "trace/ParallelParse.h"
#include "trace/TextScan.h"
#include "trace/TraceIO.h"
#include "gtest/gtest.h"
#include <algorithm>
#include <filesystem>
#include <initializer_list>
#include <optional>
#include <set>
#include <vector>

using namespace lima;
using trace::Event;
using trace::Trace;

namespace {

/// One parse outcome, flattened for comparison.
struct Outcome {
  bool Ok = false;
  std::optional<Trace> Parsed; // the trace on success
  std::string TraceText;       // writeTraceText on success
  ParseError Err;              // structured error on failure
  ParseReport Report;          // attached in lenient mode
};

Outcome runParse(std::string_view Text, ParseMode Mode,
                 int Threads /* -1 = legacy, 0 = new sequential */) {
  Outcome O;
  ParseOptions Options;
  Options.Mode = Mode;
  Options.Report = Mode == ParseMode::Lenient ? &O.Report : nullptr;
  Expected<Trace> Result =
      Threads < 0 ? testutil::parseTraceTextLegacy(Text, Options)
      : Threads == 0
          ? trace::parseTraceText(Text, Options)
          : trace::parseTraceTextParallel(Text, Options,
                                          static_cast<unsigned>(Threads));
  if (Result) {
    O.Ok = true;
    O.TraceText = trace::writeTraceText(*Result);
    O.Parsed.emplace(std::move(*Result));
  } else {
    O.Err = Result.takeError().toParseError();
  }
  return O;
}

void expectSameOutcome(const Outcome &Ref, const Outcome &Got,
                       const std::string &What) {
  ASSERT_EQ(Ref.Ok, Got.Ok) << What;
  if (Ref.Ok) {
    EXPECT_TRUE(testutil::sameTraceText(Ref.TraceText, Got.TraceText)) << What;
    EXPECT_TRUE(testutil::sameEventColumns(*Ref.Parsed, *Got.Parsed)) << What;
  } else {
    EXPECT_EQ(Ref.Err.Code, Got.Err.Code) << What;
    EXPECT_EQ(Ref.Err.Line, Got.Err.Line) << What;
    EXPECT_EQ(Ref.Err.Offset, Got.Err.Offset) << What;
    EXPECT_EQ(Ref.Err.Msg, Got.Err.Msg) << What;
  }
  EXPECT_EQ(Ref.Report.TotalRecords, Got.Report.TotalRecords) << What;
  EXPECT_EQ(Ref.Report.DroppedRecords, Got.Report.DroppedRecords) << What;
  for (size_t I = 0; I != Ref.Report.DroppedByCode.size(); ++I)
    EXPECT_EQ(Ref.Report.DroppedByCode[I], Got.Report.DroppedByCode[I])
        << What << " code " << I;
  ASSERT_EQ(Ref.Report.Samples.size(), Got.Report.Samples.size()) << What;
  for (size_t I = 0; I != Ref.Report.Samples.size(); ++I) {
    EXPECT_EQ(Ref.Report.Samples[I].Code, Got.Report.Samples[I].Code) << What;
    EXPECT_EQ(Ref.Report.Samples[I].Line, Got.Report.Samples[I].Line) << What;
    EXPECT_EQ(Ref.Report.Samples[I].Offset, Got.Report.Samples[I].Offset)
        << What;
    EXPECT_EQ(Ref.Report.Samples[I].Msg, Got.Report.Samples[I].Msg) << What;
  }
}

/// Legacy is the reference; the scanner and the sharded parser at every
/// thread count in \p ThreadCounts must match it in both modes.
void expectEquivalent(std::string_view Text, const std::string &Name,
                      std::initializer_list<int> ThreadCounts = {1, 2, 8}) {
  for (ParseMode Mode : {ParseMode::Strict, ParseMode::Lenient}) {
    const char *ModeName = Mode == ParseMode::Strict ? "strict" : "lenient";
    Outcome Ref = runParse(Text, Mode, -1);
    expectSameOutcome(Ref, runParse(Text, Mode, 0),
                      Name + " [" + ModeName + ", scanner]");
    for (int Threads : ThreadCounts)
      expectSameOutcome(Ref, runParse(Text, Mode, Threads),
                        Name + " [" + ModeName + ", threads=" +
                            std::to_string(Threads) + "]");
  }
}

/// A valid trace big enough (>64 KiB of events) that the parallel
/// parser actually shards instead of falling back to sequential.
std::string makeBigTrace(size_t Rounds) {
  std::string Text = "LIMATRACE 1\nprocs 4\nregion 0 main\n"
                     "activity 0 compute\n";
  char Buf[128];
  double T = 0.0;
  for (size_t I = 0; I != Rounds; ++I)
    for (unsigned P = 0; P != 4; ++P) {
      T += 0.001;
      std::snprintf(Buf, sizeof(Buf),
                    "re %u %.6f 0\nab %u %.6f 0\nae %u %.6f 0\n"
                    "rx %u %.6f 0\nms %u %.6f %u 64\n",
                    P, T, P, T + 0.1, P, T + 0.2, P, T + 0.3, P, T + 0.4,
                    (P + 1) % 4);
      Text += Buf;
    }
  return Text;
}

/// The same kind of rounds grouped by processor, as saveTrace writes
/// them: each processor's events are contiguous, so processors straddle
/// the shard boundaries and most shards hold only one or two of them.
/// Processor 3 is declared but logs no events.
std::string makeGroupedBigTrace(size_t Rounds) {
  std::string Text = "LIMATRACE 1\nprocs 6\nregion 0 main\n"
                     "activity 0 compute\n";
  char Buf[128];
  for (unsigned P = 0; P != 6; ++P) {
    if (P == 3)
      continue;
    double T = 0.0;
    for (size_t I = 0; I != Rounds; ++I) {
      T += 0.001;
      std::snprintf(Buf, sizeof(Buf),
                    "re %u %.6f 0\nab %u %.6f 0\nae %u %.6f 0\n"
                    "rx %u %.6f 0\nms %u %.6f %u 64\n",
                    P, T, P, T + 0.1, P, T + 0.2, P, T + 0.3, P, T + 0.4,
                    (P + 1) % 6);
      Text += Buf;
    }
  }
  return Text;
}

/// Processor-grouped rounds that put message events at the message
/// column's edges: processor 0's stream (and processor 3's) starts with
/// a receive and ends with a send, processor 1 logs no message and
/// processor 2 nothing but messages.  Each processor's text is about a
/// quarter of the event section, so processor 2 holds the shard seams
/// at 1/2, 5/8 and 2/3 of it (2, 8 and 3 threads).
std::string makeMessageEdgeTrace(size_t Rounds) {
  std::string Text = "LIMATRACE 1\nprocs 4\nregion 0 main\n"
                     "activity 0 compute\n";
  char Buf[256];
  for (unsigned P = 0; P != 4; ++P) {
    const unsigned Peer = (P + 1) % 4;
    double T = 0.0;
    for (size_t I = 0; I != Rounds; ++I) {
      T += 0.001;
      const unsigned Bytes = 64 + static_cast<unsigned>(I % 97);
      if (P == 1)
        std::snprintf(Buf, sizeof(Buf),
                      "re %u %.6f 0\nab %u %.6f 0\nae %u %.6f 0\n"
                      "ab %u %.6f 0\nae %u %.6f 0\nrx %u %.6f 0\n",
                      P, T, P, T + 0.1, P, T + 0.2, P, T + 0.3, P, T + 0.4,
                      P, T + 0.5);
      else if (P == 2)
        std::snprintf(Buf, sizeof(Buf),
                      "ms %u %.6f %u %u\nmr %u %.6f %u %u\n"
                      "ms %u %.6f %u %u\nmr %u %.6f %u %u\n"
                      "ms %u %.6f %u %u\nmr %u %.6f %u %u\n",
                      P, T, Peer, Bytes, P, T + 0.1, Peer, Bytes + 1, P,
                      T + 0.2, Peer, Bytes + 2, P, T + 0.3, Peer, Bytes + 3,
                      P, T + 0.4, Peer, Bytes + 4, P, T + 0.5, Peer,
                      Bytes + 5);
      else
        std::snprintf(Buf, sizeof(Buf),
                      "mr %u %.6f %u %u\nre %u %.6f 0\nab %u %.6f 0\n"
                      "ae %u %.6f 0\nrx %u %.6f 0\nms %u %.6f %u %u\n",
                      P, T, Peer, Bytes, P, T + 0.1, P, T + 0.2, P, T + 0.3,
                      P, T + 0.4, P, T + 0.5, Peer, Bytes + 1);
      Text += Buf;
    }
  }
  return Text;
}

/// \p Text with a bad event line after every 163rd line, alternating a
/// bad number and an unknown record type: more than
/// ParseReport::MaxSamples drops, scattered over every shard.
std::string pepper(const std::string &Text) {
  std::string Peppered;
  Peppered.reserve(Text.size() + 4096);
  size_t LineIdx = 0;
  size_t Pos = 0;
  while (Pos < Text.size()) {
    size_t Nl = Text.find('\n', Pos);
    if (Nl == std::string::npos)
      Nl = Text.size() - 1;
    Peppered.append(Text, Pos, Nl - Pos + 1);
    if (++LineIdx % 163 == 0)
      Peppered += LineIdx % 2 ? "re 0 bogus 0\n" : "zz 0 1.0 0\n";
    Pos = Nl + 1;
  }
  return Peppered;
}

TEST(IngestEquivalence, CorpusFixtures) {
  std::filesystem::path Dir =
      std::filesystem::path(LIMA_FUZZ_CORPUS_DIR) / "fuzz_trace_text";
  std::vector<std::filesystem::path> Files;
  for (const auto &Entry : std::filesystem::directory_iterator(Dir))
    Files.push_back(Entry.path());
  std::sort(Files.begin(), Files.end());
  ASSERT_FALSE(Files.empty());
  for (const auto &File : Files) {
    std::string Text = cantFail(readFile(File.string()));
    expectEquivalent(Text, File.filename().string());
  }
}

TEST(IngestEquivalence, SyntheticEdgeCases) {
  const std::string Header = "LIMATRACE 1\nprocs 2\nregion 0 r\n";
  struct Case {
    const char *Name;
    std::string Text;
  } Cases[] = {
      {"empty", ""},
      {"only-newlines", "\n\n\n"},
      {"magic-only", "LIMATRACE 1\n"},
      {"magic-only-no-newline", "LIMATRACE 1"},
      {"no-trailing-newline", Header + "re 0 1.0 0"},
      {"trailing-newline", Header + "re 0 1.0 0\n"},
      {"trailing-blank-lines", Header + "re 0 1.0 0\n\n \n"},
      {"comments-between-events", Header + "re 0 1.0 0\n# c\nrx 0 2.0 0\n"},
      {"plus-prefixed-proc", Header + "re +0 1.0 0\n"},
      {"plus-prefixed-time", Header + "re 0 +1.0 0\n"},
      {"hex-float-time", Header + "re 0 0x1p-3 0\n"},
      {"subnormal-time", Header + "re 0 1e-320 0\n"},
      {"overflow-time", Header + "re 0 1e999 0\n"},
      {"inf-time", Header + "re 0 inf 0\n"},
      {"nan-time", Header + "re 0 nan 0\n"},
      {"negative-time", Header + "re 0 -1.0 0\n"},
      {"six-fields", Header + "ms 0 1.0 1 64 extra\n"},
      {"seven-fields", Header + "ms 0 1.0 1 64 extra more\n"},
      {"late-declaration", Header + "re 0 1.0 0\nregion 1 late\n"
                                     "re 0 2.0 1\n"},
      {"late-procs", Header + "re 0 1.0 0\nprocs 4\n"},
      {"magic-mid-events", Header + "re 0 1.0 0\nLIMATRACE 1\n"},
      {"events-before-procs", "LIMATRACE 1\nre 0 1.0 0\n"},
      {"declaration-extra-tokens", "LIMATRACE 1\nprocs 2\n"
                                   "region 0 name with extra tokens\n"
                                   "re 0 1.0 0\n"},
  };
  for (const Case &C : Cases)
    expectEquivalent(C.Text, C.Name);

  // One event line per case, at and just past each limit of the
  // canonical fast path (TextScan.h): on one side the fast path must
  // produce the generic path's exact event, on the other it must
  // decline and leave the verdict to the generic path.
  const std::string Declared = Header + "activity 0 a\n";
  struct Line {
    const char *Name;
    const char *Text;
  } Lines[] = {
      // Mantissas at 2^53 (exact) and 2^53 + 1 (not a double); with a
      // point the naive conversion of the latter rounds twice.
      {"mantissa-2^53", "re 0 9007199254740992 0"},
      {"mantissa-2^53-point", "re 0 90071992547409.92 0"},
      {"mantissa-2^53+1", "re 0 9007199254740993 0"},
      {"mantissa-2^53+1-point", "re 0 90071992547409.93 0"},
      {"mantissa-2^53+1-exponent", "re 0 9007199254740993e-10 0"},
      // 19 digits fit the fast path, 20 do not; 2^64 + 1 would wrap to
      // 1 in a 64-bit accumulator.
      {"19-digit-time", "re 0 0.000000000000000001 0"},
      {"20-digit-time", "re 0 0.0000000000000000001 0"},
      {"20-digit-time-wraps", "re 0 18446744073709551617e-10 0"},
      {"19-digit-proc", "re 0000000000000000001 1.0 0"},
      {"20-digit-proc", "re 00000000000000000001 1.0 0"},
      {"20-digit-proc-wraps", "re 18446744073709551617 1.0 0"},
      {"19-digit-id", "re 0 1.0 0000000000000000000"},
      {"20-digit-id", "re 0 1.0 00000000000000000000"},
      {"19-digit-bytes", "ms 0 1.0 1 9999999999999999999"},
      {"20-digit-bytes", "ms 0 1.0 1 18446744073709551615"},
      {"20-digit-bytes-wraps", "ms 0 1.0 1 18446744073709551616"},
      // Powers of ten: 10^22 is the last exact one.
      {"1e22", "re 0 1e22 0"},
      {"1e23", "re 0 1e23 0"},
      {"3e23", "re 0 3e23 0"},
      {"1e-22", "re 0 1e-22 0"},
      {"1e-23", "re 0 1e-23 0"},
      {"mantissa-exponent", "re 0 4.20751e-05 0"},
      {"capital-exponent", "re 0 1E5 0"},
      {"plus-exponent", "re 0 15e+1 0"},
      {"zero-far-exponent", "re 0 0e50 0"},
      {"long-exponent", "re 0 1e0000000000000000000000000005 0"},
      {"exponent-without-digits", "re 0 1e 0"},
      // Forms only the generic path accepts (or rejects).
      {"point-without-fraction", "re 0 5. 0"},
      {"point-without-integer", "re 0 .5 0"},
      {"plus-time", "re 0 +1.5 0"},
      {"negative-zero-time", "re 0 -0.0 0"},
      {"hex-time", "re 0 0x1p3 0"},
      {"nan", "re 0 nan 0"},
      {"two-points", "re 0 1.5.5 0"},
      {"leading-zeros", "re 00 007.50 00"},
      // Ids and peers around 2^32.
      {"id-u32-max", "re 0 1.0 4294967295"},
      {"id-past-u32", "re 0 1.0 4294967296"},
      {"peer-wraps-u32", "ms 0 1.0 4294967297 64"},
      {"activity-id", "ab 1 2.5 0"},
      {"activity-id-out-of-range", "ab 1 2.5 1"},
      {"proc-out-of-range", "re 2 1.0 0"},
      // Separators and line ends.
      {"crlf", "re 0 1.5 0\r"},
      {"trailing-tab", "ms 0 1.5 1 64\t"},
      {"trailing-space", "re 0 1.5 0 "},
      {"double-space", "re  0 1.5 0"},
      {"double-space-before-id", "re 0 1.5  0"},
      {"tab-separator", "re\t0 1.5 0"},
      {"trailing-junk", "re 0 1.5 0x"},
      {"trailing-field", "re 0 1.5 0 junk"},
      {"message-missing-bytes", "ms 0 1.0 1"},
      {"missing-id", "re 0 1.0"},
      {"shortest", "re 0 1 0"},
      {"capital-mnemonic", "RE 0 1.0 0"},
      {"long-mnemonic", "rex 0 1.0 0"},
  };
  for (const Line &L : Lines)
    expectEquivalent(Declared + L.Text + "\n", L.Name);
}

TEST(IngestEquivalence, FastPathMissRule) {
  // The rule that stops a consumer trying the fast path changes what a
  // parse costs, never what it returns.
  trace::scan::EventTables Tables;
  Tables.SawProcs = true;
  Tables.NumProcs = 2;
  Tables.NumRegions = 1;
  const std::string_view Canonical = "re 1 0.5 0";
  const std::string_view Declined = "re 1 0.00000000000000000005 0";
  Event E;
  unsigned Misses = 0;
  for (int I = 0; I != 10; ++I)
    EXPECT_FALSE(trace::scan::tryCanonicalEvent(Declined, Tables, E, Misses));
  EXPECT_EQ(Misses, 10u);
  // A hit takes one miss back; declarations do not count.
  EXPECT_TRUE(trace::scan::tryCanonicalEvent(Canonical, Tables, E, Misses));
  EXPECT_EQ(Misses, 9u);
  EXPECT_FALSE(
      trace::scan::tryCanonicalEvent("region 1 r", Tables, E, Misses));
  EXPECT_EQ(Misses, 9u);
  while (Misses != trace::scan::MaxCanonicalMisses)
    EXPECT_FALSE(trace::scan::tryCanonicalEvent(Declined, Tables, E, Misses));
  EXPECT_FALSE(trace::scan::tryCanonicalEvent(Canonical, Tables, E, Misses));

  // Declined lines first, canonical ones after: every consumer gives
  // the fast path up early in the file and must still agree with the
  // reference, sharded or not.
  std::string Big = makeBigTrace(800);
  size_t FirstEvent = Big.find("\nre ") + 1;
  std::string Text = Big.substr(0, FirstEvent);
  for (int I = 0; I != 100; ++I)
    Text += "re 1 0.00000000000000000005 0\n";
  Text += Big.substr(FirstEvent);
  expectEquivalent(Text, "declined-prefix");
}

/// \p Bound-limited unsigned as LIMA writes it, or zero-padded to the
/// 19/20-digit boundary of the fast path.
std::string randomUnsigned(RNG &Rng, uint64_t Bound) {
  std::string Digits = std::to_string(Rng.uniformInt(Bound));
  if (Rng.uniformInt(8) == 0) {
    size_t Width = 18 + Rng.uniformInt(3);
    Digits.insert(0, Width - std::min(Digits.size(), Width), '0');
  }
  return Digits;
}

/// A random time that the generic path accepts: as LIMA writes it,
/// printed too long for the fast path, with an exponent, near 2^53 with
/// the point anywhere, as random digits with a random point and
/// exponent, or just past 2^64 in 20 digits.
std::string randomTime(RNG &Rng) {
  char Buf[64];
  double V = Rng.uniformIn(0.0, 1000.0);
  switch (Rng.uniformInt(7)) {
  case 0:
  case 1:
    std::snprintf(Buf, sizeof(Buf), "%.9f", V);
    return Buf;
  case 2:
    std::snprintf(Buf, sizeof(Buf), "%.17g", V);
    return Buf;
  case 3:
    std::snprintf(Buf, sizeof(Buf), "%.*e",
                  static_cast<int>(Rng.uniformInt(17)), V);
    return Buf;
  case 4: {
    std::string Digits =
        std::to_string((uint64_t(1) << 53) - 2 + Rng.uniformInt(5));
    Digits.insert(Rng.uniformInt(Digits.size() + 1), ".");
    return Digits;
  }
  case 5: {
    size_t N = 1 + Rng.uniformInt(21);
    std::string Digits;
    for (size_t I = 0; I != N; ++I)
      Digits += static_cast<char>('0' + Rng.uniformInt(10));
    if (Rng.uniformInt(2))
      Digits.insert(1 + Rng.uniformInt(N), ".");
    if (Rng.uniformInt(2)) {
      Digits += Rng.uniformInt(2) ? 'e' : 'E';
      int Exponent = static_cast<int>(Rng.uniformInt(61)) - 30;
      if (Exponent >= 0 && Rng.uniformInt(2))
        Digits += '+';
      Digits += std::to_string(Exponent);
    }
    return Digits;
  }
  default:
    return "184467440737095516" + std::to_string(16 + Rng.uniformInt(84)) +
           (Rng.uniformInt(2) ? "e-" + std::to_string(Rng.uniformInt(23))
                              : std::string());
  }
}

/// \p Lines random event lines over 64 processors, 8 regions and 4
/// activities.  Separators and line ends vary between the canonical
/// form and other whitespace the generic path accepts; with
/// \p Malformed, about one line in eight is a record the generic path
/// rejects (out of range, overflowing, extra or missing fields, unknown
/// mnemonics, signs).
std::string makeSweep(uint64_t Seed, size_t Lines, bool Malformed) {
  static const char *const Kinds[] = {"re", "rx", "ab", "ae", "ms", "mr"};
  static const uint64_t IdBounds[] = {8, 8, 4, 4, 64, 64};
  RNG Rng(Seed);
  std::string Text = "LIMATRACE 1\nprocs 64\n";
  for (unsigned I = 0; I != 8; ++I)
    Text += "region " + std::to_string(I) + " r" + std::to_string(I) + "\n";
  for (unsigned I = 0; I != 4; ++I)
    Text += "activity " + std::to_string(I) + " a" + std::to_string(I) + "\n";
  auto separator = [&] {
    switch (Rng.uniformInt(40)) {
    case 0:
      return "  ";
    case 1:
      return "\t";
    default:
      return " ";
    }
  };
  for (size_t L = 0; L != Lines; ++L) {
    size_t K = Rng.uniformInt(6);
    std::string Fields[5] = {Kinds[K], randomUnsigned(Rng, 64), randomTime(Rng),
                             randomUnsigned(Rng, IdBounds[K]),
                             std::to_string(Rng.next() >> Rng.uniformInt(64))};
    size_t NumFields = K >= 4 ? 5 : 4;
    std::string Tail;
    if (Malformed && Rng.uniformInt(8) == 0) {
      switch (Rng.uniformInt(7)) {
      case 0:
        Fields[1] = std::to_string(64 + Rng.uniformInt(4));
        break;
      case 1:
        Fields[1 + 2 * Rng.uniformInt(2)] =
            "184467440737095516" + std::to_string(16 + Rng.uniformInt(84));
        break;
      case 2:
        Fields[3] = std::to_string(IdBounds[K] + Rng.uniformInt(4));
        break;
      case 3:
        Fields[3] = std::to_string((uint64_t(1) << 32) + Rng.uniformInt(4));
        break;
      case 4:
        Tail = Rng.uniformInt(2) ? "x" : " x";
        break;
      case 5:
        NumFields = NumFields == 5 ? 4 : 3;
        break;
      default:
        Fields[0] = Rng.uniformInt(2) ? "zz" : "RE";
        break;
      }
    }
    for (size_t F = 0; F != NumFields; ++F) {
      if (F != 0)
        Text += separator();
      Text += Fields[F];
    }
    Text += Tail;
    static const char *const Ends[] = {"\n", "\n", "\n", "\n",
                                       "\r\n", " \n", "\t\n"};
    Text += Ends[Rng.uniformInt(7)];
  }
  return Text;
}

TEST(IngestEquivalence, SeededLineSweep) {
  // Valid lines only, so strict mode compares every event; then with
  // malformed lines mixed in, so lenient mode compares every drop.
  std::string Clean = makeSweep(1414, 50000, false);
  ASSERT_GT(Clean.size(), size_t(64) * 1024);
  Expected<Trace> Parsed = trace::parseTraceText(Clean);
  ASSERT_TRUE(static_cast<bool>(Parsed));
  EXPECT_EQ(Parsed->numEvents(), 50000u);
  expectEquivalent(Clean, "sweep");
  expectEquivalent(makeSweep(1415, 50000, true), "sweep-malformed");
}

TEST(IngestEquivalence, BigValidTraceShards) {
  std::string Text = makeBigTrace(800); // ~0.5 MB, 16000 events
  ASSERT_GT(Text.size(), size_t(64) * 1024);
  expectEquivalent(Text, "big-valid");
  Text = makeGroupedBigTrace(700); // ~0.5 MB, 17500 events
  ASSERT_GT(Text.size(), size_t(64) * 1024);
  expectEquivalent(Text, "big-grouped");
  Text = makeMessageEdgeTrace(250); // ~0.1 MB, 6000 events
  ASSERT_GT(Text.size(), size_t(64) * 1024);
  expectEquivalent(Text, "big-message-edges");
}

TEST(IngestEquivalence, BigTraceStrictErrorDeepInside) {
  // A strict error far past the first shard boundary: the reported
  // line/offset must be the sequentially-first failure regardless of
  // which shard hits an error first in wall-clock order.
  std::string Text = makeBigTrace(800);
  size_t Mid = Text.find("\nre 2 ", Text.size() / 2);
  ASSERT_NE(Mid, std::string::npos);
  Text.insert(Mid + 1, "re 9 0.5 0\nre 0 bogus 0\n");
  expectEquivalent(Text, "big-strict-error");
}

TEST(IngestEquivalence, BigTraceLenientScatteredDrops) {
  // Drop counts and the first-16 sample list must merge back in file
  // order at every thread count.
  expectEquivalent(pepper(makeBigTrace(800)), "big-lenient-drops");
  expectEquivalent(pepper(makeGroupedBigTrace(700)),
                   "big-grouped-lenient-drops");
}

/// \p Text (a makeBigTrace, makeGroupedBigTrace or makeMessageEdgeTrace
/// trace of \p NumProcs processors) with lines broken so that they
/// still name their processor but fail a later field — "zz 2 1.0 0",
/// "re 2 bogus 0" or one field short — at the seams of the sharded
/// parse: the first and last line of every shard at 2, 3 and 8 threads
/// (the parser's shard formula; its per-processor cap is never reached
/// here), and the first and last event line of every processor.  A
/// processor without events gets one broken line of its own.  Every
/// edit keeps the line's length, so the shard boundaries stay where
/// they were computed.
/// Returns the number of broken lines in \p Broken.
std::string breakSeams(std::string Text, unsigned NumProcs, size_t &Broken) {
  const std::string LastDeclaration = "\nactivity 0 compute\n";
  const size_t EvStart = Text.find(LastDeclaration) + LastDeclaration.size();
  auto lineStartBefore = [&](size_t Pos) {
    return Text.rfind('\n', Pos - 2) + 1;
  };
  std::set<size_t> Starts = {lineStartBefore(Text.size())};
  for (size_t Threads : {2, 3, 8}) {
    size_t Chunk = (Text.size() - EvStart) / Threads;
    size_t Begin = EvStart;
    for (size_t I = 0; I != Threads; ++I) {
      Starts.insert(Begin);
      if (I + 1 != Threads) {
        Begin = Text.find('\n', std::max(EvStart + (I + 1) * Chunk, Begin)) + 1;
        Starts.insert(lineStartBefore(Begin));
      }
    }
  }
  std::vector<size_t> First(NumProcs, std::string::npos), Last(NumProcs);
  for (size_t Pos = EvStart; Pos < Text.size();
       Pos = Text.find('\n', Pos) + 1) {
    unsigned Proc = static_cast<unsigned>(Text[Pos + 3] - '0');
    if (First[Proc] == std::string::npos)
      First[Proc] = Pos;
    Last[Proc] = Pos;
  }
  for (unsigned Proc = 0; Proc != NumProcs; ++Proc) {
    if (First[Proc] == std::string::npos) {
      size_t Pos = Text.find('\n', Text.size() / 2) + 1;
      Text[Pos + 3] = static_cast<char>('0' + Proc);
      Starts.insert(Pos);
      continue;
    }
    Starts.insert(First[Proc]);
    Starts.insert(Last[Proc]);
  }

  size_t Kind = 0;
  for (size_t Pos : Starts) {
    size_t TimeBegin = Text.find(' ', Pos + 3) + 1;
    size_t TimeEnd = Text.find(' ', TimeBegin);
    switch (Kind++ % 3) {
    case 0:
      Text[Pos] = Text[Pos + 1] = 'z';
      break;
    case 1: {
      std::string Bogus = "bogus";
      Bogus.resize(TimeEnd - TimeBegin, 'x');
      Text.replace(TimeBegin, Bogus.size(), Bogus);
      break;
    }
    default:
      Text[TimeEnd] = '_';
      break;
    }
  }
  Broken = Starts.size();
  return Text;
}

TEST(IngestEquivalence, ShortSlicesCompactInShardOrder) {
  // Pass A counts the broken lines, pass B drops them (lenient) or
  // stops at the first (strict): the slices they leave short must
  // close up to exactly the sequential parse, at every thread count.
  // On the message-edge trace most seams are message lines, so the
  // message slices are left short too.
  const struct {
    const char *Name;
    std::string Text;
    unsigned NumProcs;
  } Rows[] = {
      {"broken-seams", makeBigTrace(800), 4},
      {"broken-seams-grouped", makeGroupedBigTrace(700), 6},
      {"broken-seams-messages", makeMessageEdgeTrace(250), 4},
  };
  for (const auto &Row : Rows) {
    size_t Broken = 0;
    std::string Text = breakSeams(Row.Text, Row.NumProcs, Broken);
    Outcome Lenient = runParse(Text, ParseMode::Lenient, 0);
    ASSERT_TRUE(Lenient.Ok);
    EXPECT_EQ(Lenient.Report.DroppedRecords, Broken);
    expectEquivalent(Text, Row.Name, {1, 2, 3, 8});
  }
}

TEST(IngestEquivalence, WideProcessorTableParsesUnsharded) {
  // Every shard keeps six counters for every declared processor.
  // With 100000 processors over half a megabyte of events those would
  // outweigh the text, so the parser must not shard — while the same
  // events under 4 processors do shard (lima.ingest.shards counts the
  // shards of every sharded parse).
  std::string Narrow = makeBigTrace(800);
  std::string Wide = Narrow;
  Wide.replace(Wide.find("procs 4"), 7, "procs 100000");
  metrics::setEnabled(true);
  metrics::Counter &Shards = metrics::counter("lima.ingest.shards");
  [[maybe_unused]] uint64_t Before = Shards.value();
  EXPECT_TRUE(static_cast<bool>(trace::parseTraceTextParallel(Wide, {}, 8)));
#if LIMA_TELEMETRY
  EXPECT_EQ(Shards.value(), Before);
#endif
  EXPECT_TRUE(
      static_cast<bool>(trace::parseTraceTextParallel(Narrow, {}, 8)));
#if LIMA_TELEMETRY
  EXPECT_EQ(Shards.value(), Before + 8);
#endif
  metrics::setEnabled(false);
  expectEquivalent(Wide, "wide-proc-table");
}

/// Bytes one sequential parse hands StreamParser::feed at a time
/// (ParallelParse.cpp); the slices start at the first event line.
constexpr size_t FeedBytes = 64 * 1024;

/// The hardware thread count, which is what --threads 0 runs on.
int defaultThreads() {
  return static_cast<int>(hardwareThreads());
}

TEST(IngestEquivalence, FeedSliceBoundaryOnEveryByte) {
  // The sequential parse feeds the event section in FeedBytes slices.
  // Pad the section with a comment so that a slice ends on every byte
  // of an event line with a CRLF, a declaration among the events (which
  // sends 2 and 8 threads to the sequential fallback) and the event
  // that uses it; once more with a bad line, for lenient mode to drop.
  const std::string Header = "LIMATRACE 1\nprocs 2\nregion 0 r\n"
                             "activity 0 a\n";
  const std::string First = "re 0 1.0 0\n";
  const std::string Clean =
      "ms 1 2.000000001 0 64\r\nregion 1 late\nre 1 3.0 1\n";
  for (const std::string &Body : {Clean, Clean + "zz 1 4 0\n"})
    for (size_t Cut = 0; Cut <= Body.size(); ++Cut) {
      // "# " plus padding plus '\n' ends where the body starts, FeedBytes
      // - Cut bytes past the first event line.
      size_t Pad = FeedBytes - Cut - First.size() - 3;
      std::string Text = Header + First + "# " + std::string(Pad, 'p') +
                         "\n" + Body + "rx 1 5.0 1\nrx 0 6.0 0\n";
      ASSERT_EQ(Text.find(Body), Header.size() + FeedBytes - Cut);
      expectEquivalent(Text, "slice-cut-" + std::to_string(Cut),
                       {1, 2, 8, defaultThreads()});
    }
}

TEST(IngestEquivalence, FeedSlicesAndLongLines) {
  // Lines the sequential feed holds across slices: a comment longer
  // than one slice, at the line limit (accepted) and one byte past it
  // (fatal), an event line over the limit in the middle of the event
  // section, and a final line with no '\n'.
  const std::string Big = makeBigTrace(800);
  const size_t Mid = Big.find("\nre 2 ", Big.size() / 2) + 1;
  const size_t Limit = ParseLimits().MaxLineBytes;
  auto withLine = [&](const std::string &Line) {
    return Big.substr(0, Mid) + Line + "\n" + Big.substr(Mid);
  };
  expectEquivalent(withLine("#" + std::string(Limit - 1, 'c')),
                   "comment-at-limit", {1, 2, 8, defaultThreads()});
  expectEquivalent(withLine("#" + std::string(Limit, 'c')),
                   "comment-past-limit", {1, 2, 8, defaultThreads()});
  expectEquivalent(withLine("re 2 1.0 0" + std::string(Limit, ' ')),
                   "event-past-limit", {1, 2, 8, defaultThreads()});
  expectEquivalent(Big.substr(0, Big.size() - 1), "unterminated-last",
                   {1, 2, 8, defaultThreads()});
}

TEST(IngestEquivalence, AllocAccountingPinned) {
  // The tightened accounting formula, pinned: a std::string header per
  // name plus the out-of-line buffer (len + NUL) only beyond the SSO
  // capacity, sizeof(std::vector<Event>) per declared processor, and
  // sizeof(Event) per event.
  const std::string LongName(100, 'n'); // comfortably past any SSO
  const std::string Text = "LIMATRACE 1\nprocs 2\nregion 0 ab\n"
                           "region 1 " + LongName + "\n"
                           "re 0 1.0 0\nrx 0 2.0 0\n";
  const uint64_t Accounted = 2 * sizeof(std::vector<Event>) +
                             trace::scan::nameAllocCost(2) +
                             trace::scan::nameAllocCost(100) +
                             2 * sizeof(Event);
  // Short names cost only the string header under SSO...
  EXPECT_EQ(trace::scan::nameAllocCost(2), sizeof(std::string));
  // ...and long names additionally their NUL-terminated buffer.
  EXPECT_EQ(trace::scan::nameAllocCost(100), sizeof(std::string) + 101);

  ParseOptions Exact;
  Exact.Limits.MaxAllocBytes = Accounted;
  EXPECT_TRUE(static_cast<bool>(trace::parseTraceText(Text, Exact)));

  ParseOptions OneLess;
  OneLess.Limits.MaxAllocBytes = Accounted - 1;
  Expected<Trace> Fail = trace::parseTraceText(Text, OneLess);
  ASSERT_FALSE(static_cast<bool>(Fail));
  EXPECT_EQ(Fail.takeError().toParseError().Code, ErrorCode::LimitExceeded);

  // Where each charge trips: the failing line, its offset and message,
  // alike at every thread count and in both modes.  The event section
  // is over 64 KiB, so 2 and 8 threads reach the sequential fallback.
  // The declaration after the events trips only because the events
  // kept so far count as event storage.
  const std::string Header = "LIMATRACE 1\nprocs 2\nregion 0 ab\n";
  std::string Events;
  for (int I = 0; I != 8000; ++I)
    Events += "re 0 1.0 0\nrx 0 2.0 0\n";
  ASSERT_GT(Events.size(), size_t(64) * 1024);
  const std::string Big = Header + Events + "region 1 cd\nre 1 3.0 1\n";
  const uint64_t Table = 2 * sizeof(std::vector<Event>);
  const uint64_t Name = trace::scan::nameAllocCost(2);
  const struct {
    const char *What;
    uint64_t Cap;
    size_t Line;
    size_t Offset;
    const char *Message;
  } Trips[] = {
      {"processor table", Table - 1, 2, 12,
       "trace line 2: processor table exceeds the allocation cap"},
      {"event storage", Table + Name + 1000 * sizeof(Event) - 1, 1003,
       Header.size() + 999 * 11,
       "trace line 1003: event storage exceeds the allocation cap"},
      {"late declaration", Table + Name + 16000 * sizeof(Event) + Name - 1,
       16004, Header.size() + Events.size(),
       "trace line 16004: name tables exceed the allocation cap"},
  };
  for (const auto &Trip : Trips)
    for (ParseMode Mode : {ParseMode::Strict, ParseMode::Lenient})
      for (unsigned Threads : {0u, 1u, 2u, 8u}) {
        ParseReport Report;
        ParseOptions Options;
        Options.Mode = Mode;
        Options.Report = &Report;
        Options.Limits.MaxAllocBytes = Trip.Cap;
        std::string Context = std::string(Trip.What) + ", threads " +
                              std::to_string(Threads);
        Expected<Trace> Result =
            trace::parseTraceTextParallel(Big, Options, Threads);
        ASSERT_FALSE(static_cast<bool>(Result)) << Context;
        ParseError PE = Result.takeError().toParseError();
        EXPECT_EQ(PE.Code, ErrorCode::LimitExceeded) << Context;
        EXPECT_EQ(PE.Line, Trip.Line) << Context;
        EXPECT_EQ(PE.Offset, Trip.Offset) << Context;
        EXPECT_EQ(PE.Msg, Trip.Message) << Context;
      }
}

} // namespace
