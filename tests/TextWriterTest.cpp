//===- tests/TextWriterTest.cpp - canonical event-line writer tests -------===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// scan::writeCanonicalEvent, writeTraceText and the file saveTrace
// leaves, byte for byte against the snprintf writer they replaced
// (tests/TextWriterReference.h): fixed rows at the ends of every field,
// a seeded sweep of more than a million times aimed at the integer
// path's edges (ties, their neighbours, the bound, the sign bit), whole
// traces longer than several chunks, and every text corpus trace.
//
//===----------------------------------------------------------------------===//

#include "TestHelpers.h"
#include "TextWriterReference.h"
#include "TraceCompare.h"
#include "support/FileUtils.h"
#include "support/RNG.h"
#include "trace/TextScan.h"
#include "trace/TraceIO.h"
#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <gtest/gtest.h>
#include <limits>
#include <string>
#include <vector>

using namespace lima;
using namespace lima::trace;
using lima::testutil::failed;

namespace {

constexpr EventKind AllKinds[] = {
    EventKind::RegionEnter,   EventKind::RegionExit,  EventKind::ActivityBegin,
    EventKind::ActivityEnd,   EventKind::MessageSend, EventKind::MessageRecv};

std::string shippedLine(const Event &E) {
  char Buf[scan::MaxEventLineBytes];
  char *End = scan::writeCanonicalEvent(Buf, E.Kind, E.Proc, E.Time, E.Id,
                                        E.Bytes);
  return std::string(Buf, static_cast<size_t>(End - Buf));
}

std::string oracleLine(const Event &E) {
  std::string Line;
  testutil::appendEventLine(Line, E);
  return Line;
}

/// The times no sweep may miss: both zeros, the smallest subnormal,
/// DBL_MIN, DBL_MAX, the infinities and NaN, each with both signs,
/// ties and the integer path's bound.
std::vector<double> fixedTimes() {
  const double Inf = std::numeric_limits<double>::infinity();
  const double NaN = std::numeric_limits<double>::quiet_NaN();
  const double Subnormal = std::numeric_limits<double>::denorm_min();
  std::vector<double> Times = {
      0.0,     -0.0,     Subnormal, -Subnormal, DBL_MIN, -DBL_MIN,
      DBL_MAX, -DBL_MAX, Inf,       -Inf,       NaN,     -NaN,
      1.0,     0x1p-10,  0.5e-9,    1.5e-9,     123.456789012};
  for (double Bound : {scan::MaxIntegerPathTime, -scan::MaxIntegerPathTime}) {
    Times.push_back(Bound);
    Times.push_back(std::nextafter(Bound, 0.0));
    Times.push_back(std::nextafter(Bound, 2 * Bound));
  }
  return Times;
}

/// A random magnitude of whole nanoseconds, spread over every binade
/// below 2^52.
uint64_t randomNanos(RNG &Rng) {
  return Rng.next() >> (12 + Rng.uniformInt(52));
}

} // namespace

TEST(TextWriterTest, FixedRowsMatchTheOracle) {
  const uint32_t Ids[] = {0, 1, UINT32_MAX};
  const uint64_t Bytes[] = {0, 1, UINT64_MAX};
  const uint32_t Procs[] = {0, UINT32_MAX};
  size_t Rows = 0;
  for (EventKind Kind : AllKinds)
    for (double Time : fixedTimes())
      for (uint32_t Id : Ids)
        for (uint64_t B : Bytes)
          for (uint32_t Proc : Procs) {
            Event E{Time, Proc, Kind, Id, B};
            ASSERT_EQ(shippedLine(E), oracleLine(E))
                << "time " << testutil::exactTime(Time);
            ++Rows;
          }
  EXPECT_EQ(Rows, 6u * fixedTimes().size() * 3 * 3 * 2);
}

TEST(TextWriterTest, LongestLineFitsTheBound) {
  Event E{-DBL_MAX, UINT32_MAX, EventKind::MessageSend, UINT32_MAX,
          UINT64_MAX};
  EXPECT_EQ(oracleLine(E).size(), scan::MaxEventLineBytes);
  EXPECT_EQ(shippedLine(E).size(), scan::MaxEventLineBytes);
}

TEST(TextWriterTest, IntegerPathDeclinesWhatItCannotDecide) {
  uint64_t Nanos = 0;
  ASSERT_TRUE(scan::timeNanoseconds(1.5, Nanos));
  EXPECT_EQ(Nanos, 1500000000u);
  ASSERT_TRUE(scan::timeNanoseconds(0.0, Nanos));
  EXPECT_EQ(Nanos, 0u);
  // 2^-10 s is 976562.5 ns exactly, a tie "%.9f" breaks to even.
  EXPECT_FALSE(scan::timeNanoseconds(0x1p-10, Nanos));
  EXPECT_FALSE(scan::timeNanoseconds(-0.0, Nanos));
  EXPECT_FALSE(scan::timeNanoseconds(-1.0, Nanos));
  EXPECT_FALSE(scan::timeNanoseconds(scan::MaxIntegerPathTime, Nanos));
  EXPECT_FALSE(
      scan::timeNanoseconds(std::numeric_limits<double>::quiet_NaN(), Nanos));
  EXPECT_FALSE(
      scan::timeNanoseconds(std::numeric_limits<double>::infinity(), Nanos));
}

TEST(TextWriterTest, TimeSweepMatchesTheOracle) {
  RNG Rng(20261020);
  size_t Checked = 0, Failures = 0;
  auto check = [&](double Time) {
    Event E{Time, static_cast<uint32_t>(Rng.next()),
            AllKinds[Rng.uniformInt(6)], static_cast<uint32_t>(Rng.next()),
            Rng.next()};
    ++Checked;
    std::string Shipped = shippedLine(E), Oracle = oracleLine(E);
    if (Shipped != Oracle && ++Failures <= 10)
      ADD_FAILURE() << "time " << testutil::exactTime(Time) << ": \""
                    << Shipped << "\" vs \"" << Oracle << "\"";
  };

  // Random bit patterns of both signs: NaNs, infinities, subnormals and
  // every exponent.
  for (int I = 0; I != 250000; ++I)
    check(std::bit_cast<double>(Rng.next()));
  // Whole and fractional nanoseconds, of both signs.
  for (int I = 0; I != 250000; ++I) {
    double Whole = static_cast<double>(randomNanos(Rng)) / 1e9;
    check(I % 4 == 0 ? -Whole : Whole);
  }
  for (int I = 0; I != 250000; ++I)
    check((static_cast<double>(randomNanos(Rng)) + Rng.uniform()) / 1e9);
  // k/1e9 and (k+1/2)/1e9 with their neighbours two ulps either way.
  for (int I = 0; I != 50000; ++I) {
    double K = static_cast<double>(randomNanos(Rng));
    for (double Center : {K / 1e9, (K + 0.5) / 1e9}) {
      check(Center);
      double Down = Center, Up = Center;
      for (int Step = 0; Step != 2; ++Step) {
        check(Down = std::nextafter(Down, 0.0));
        check(Up = std::nextafter(Up, DBL_MAX));
      }
    }
  }
  // Both sides of the integer path's bound: the last ulps around it and
  // values from half to twice it.
  double Below = scan::MaxIntegerPathTime, Above = Below;
  check(Below);
  for (int I = 0; I != 5000; ++I) {
    check(Below = std::nextafter(Below, 0.0));
    check(Above = std::nextafter(Above, DBL_MAX));
  }
  for (int I = 0; I != 100000; ++I)
    check(scan::MaxIntegerPathTime * (0.5 + 1.5 * Rng.uniform()));
  EXPECT_GE(Checked, 1000000u);
  EXPECT_EQ(Failures, 0u);
}

TEST(TextWriterTest, NanosecondTimesTakeTheIntegerPath) {
  // A time parsed from "%.9f" text is the double nearest k/1e9.  Below
  // 2^48 ns (about 3.3 days) one multiply lands within 1/16 of k, far
  // from any tie, so the integer path prints every such time.
  RNG Rng(48);
  uint64_t Nanos = 0;
  for (int I = 0; I != 200000; ++I) {
    uint64_t K = Rng.next() >> (16 + Rng.uniformInt(48));
    double Time = static_cast<double>(K) / 1e9;
    ASSERT_TRUE(scan::timeNanoseconds(Time, Nanos)) << K;
    ASSERT_EQ(Nanos, K);
  }
}

namespace {

/// \p Procs processors of \p PerProc events each, cycling through every
/// kind, with times from the classes the sweep draws, ids and byte
/// counts at both ends of their ranges, and a region name longer than
/// one emitter chunk.  The columns are written in place, as a bulk
/// decoder writes them, so ids need not name anything declared.
Trace makeWideTrace(unsigned Procs, size_t PerProc, uint64_t Seed) {
  RNG Rng(Seed);
  Trace T(Procs);
  T.addRegion(std::string(300 * 1024, 'r'));
  T.addRegion("exchange");
  T.addActivity("computation");
  for (unsigned P = 0; P != Procs; ++P) {
    size_t Messages = 0;
    for (size_t I = 0; I != PerProc; ++I)
      Messages += isMessage(AllKinds[I % 6]);
    T.resizeStream(P, PerProc, Messages);
    Trace::StreamColumns Cols = T.streamColumns(P);
    for (size_t I = 0, M = 0; I != PerProc; ++I) {
      EventKind Kind = AllKinds[I % 6];
      double Time;
      switch (Rng.uniformInt(4)) {
      case 0:
        Time = std::bit_cast<double>(Rng.next());
        break;
      case 1:
        Time = static_cast<double>(randomNanos(Rng)) / 1e9;
        break;
      case 2:
        Time = (static_cast<double>(randomNanos(Rng)) + 0.5) / 1e9;
        break;
      default:
        Time = static_cast<double>(I) * 1e-4;
        break;
      }
      Cols.Times[I] = Time;
      Cols.Kinds[I] = Kind;
      Cols.Ids[I] = Rng.uniformInt(2) ? UINT32_MAX : I % 3;
      if (isMessage(Kind))
        Cols.MessageBytes[M++] = Rng.uniformInt(2) ? UINT64_MAX : 0;
    }
  }
  return T;
}

} // namespace

TEST(TextWriterTest, TraceTextAndSavedFileMatchTheOracle) {
  // About 60 chunks of event lines behind a header of more than one.
  Trace T = makeWideTrace(4, 50000, 7);
  std::string Oracle = testutil::writeTraceTextReference(T);
  ASSERT_GT(Oracle.size(), 8u << 20);
  EXPECT_TRUE(testutil::sameTraceText(writeTraceText(T), Oracle));
  std::string Path = ::testing::TempDir() + "/lima_text_writer.trace";
  ASSERT_FALSE(failed(saveTrace(T, Path)));
  EXPECT_TRUE(testutil::sameTraceText(cantFail(readFile(Path)), Oracle));
  std::remove(Path.c_str());

  // Header only, and nothing at all past "procs".
  Trace Empty(1);
  EXPECT_EQ(writeTraceText(Empty), testutil::writeTraceTextReference(Empty));
  Trace Names(2);
  Names.addRegion(std::string(256 * 1024 - 20, 'x'));
  Names.addActivity("a");
  EXPECT_TRUE(testutil::sameTraceText(
      writeTraceText(Names), testutil::writeTraceTextReference(Names)));
}

TEST(TextWriterTest, CorpusTracesMatchTheOracle) {
  std::filesystem::path Dir =
      std::filesystem::path(LIMA_FUZZ_CORPUS_DIR) / "fuzz_trace_text";
  std::vector<std::filesystem::path> Files;
  for (const auto &Entry : std::filesystem::directory_iterator(Dir))
    Files.push_back(Entry.path());
  std::sort(Files.begin(), Files.end());
  unsigned Compared = 0;
  for (const auto &File : Files)
    for (ParseMode Mode : {ParseMode::Strict, ParseMode::Lenient}) {
      ParseReport Report;
      ParseOptions Options;
      Options.Mode = Mode;
      Options.Report = &Report;
      Expected<Trace> T =
          parseTraceText(cantFail(readFile(File.string())), Options);
      if (!T) {
        T.takeError().consume();
        continue;
      }
      EXPECT_TRUE(testutil::sameTraceText(
          writeTraceText(*T), testutil::writeTraceTextReference(*T)))
          << File;
      ++Compared;
    }
  EXPECT_GE(Compared, 10u);
}
