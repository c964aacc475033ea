//===- tests/TraceCompare.h - Bit-exact trace comparison --------*- C++ -*-===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The bit-exact oracle of the equivalence suites.  Comparing traces
/// through writeTraceText only sees times as "%.9f" prints them, so two
/// parsers one ulp apart would still agree; sameEventColumns compares
/// each processor's time, kind and id columns and its message byte
/// column (one count per message event) with memcmp.  The
/// text comparison stays next to it for readable failure messages, and
/// sameTraceText keeps those short on large traces.
///
//===----------------------------------------------------------------------===//

#ifndef LIMA_TESTS_TRACECOMPARE_H
#define LIMA_TESTS_TRACECOMPARE_H

#include "trace/Trace.h"
#include "gtest/gtest.h"
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>

namespace lima {
namespace testutil {

/// \p T to 17 significant digits, enough to tell any two doubles apart.
inline std::string exactTime(double T) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.17g", T);
  return Buf;
}

/// Success when \p A and \p B hold the same processors with
/// byte-identical event and message columns; otherwise names the first
/// event that differs.
inline ::testing::AssertionResult
sameEventColumns(const trace::Trace &A, const trace::Trace &B) {
  if (A.numProcs() != B.numProcs())
    return ::testing::AssertionFailure()
           << "processor counts differ: " << A.numProcs() << " vs "
           << B.numProcs();
  for (unsigned Proc = 0; Proc != A.numProcs(); ++Proc) {
    trace::Trace::EventsRef EA = A.events(Proc), EB = B.events(Proc);
    if (EA.size() != EB.size())
      return ::testing::AssertionFailure()
             << "proc " << Proc << ": " << EA.size() << " vs " << EB.size()
             << " events";
    size_t N = EA.size(), M = EA.numMessages();
    if (M != EB.numMessages())
      return ::testing::AssertionFailure()
             << "proc " << Proc << ": " << M << " vs " << EB.numMessages()
             << " messages";
    if (N == 0 ||
        (std::memcmp(EA.times(), EB.times(), N * sizeof(double)) == 0 &&
         std::memcmp(EA.kinds(), EB.kinds(), N * sizeof(trace::EventKind)) ==
             0 &&
         std::memcmp(EA.ids(), EB.ids(), N * sizeof(uint32_t)) == 0 &&
         (M == 0 || std::memcmp(EA.messageBytes(), EB.messageBytes(),
                                M * sizeof(uint64_t)) == 0)))
      continue;
    // The walk reads a count only at a message, and it stops at the
    // first kinds that differ, so neither side reads past its messages.
    size_t I = 0;
    for (auto X = EA.begin(), Y = EB.begin(); X != EA.end(); ++X, ++Y, ++I) {
      trace::Event EX = *X, EY = *Y;
      if (std::memcmp(&EX.Time, &EY.Time, sizeof(double)) != 0 ||
          EX.Kind != EY.Kind || EX.Id != EY.Id || EX.Bytes != EY.Bytes)
        return ::testing::AssertionFailure()
               << "proc " << Proc << " event " << I << " differs: time "
               << exactTime(EX.Time) << " vs " << exactTime(EY.Time)
               << ", kind " << int(EX.Kind) << " vs " << int(EY.Kind)
               << ", id " << EX.Id << " vs " << EY.Id << ", bytes "
               << EX.Bytes << " vs " << EY.Bytes;
    }
  }
  return ::testing::AssertionSuccess();
}

/// Success when the two trace renderings are equal; otherwise shows the
/// first line that differs.  EXPECT_EQ on two large strings would print
/// an edit-distance diff whose cost grows with the product of their
/// sizes.
inline ::testing::AssertionResult sameTraceText(std::string_view A,
                                                std::string_view B) {
  if (A == B)
    return ::testing::AssertionSuccess();
  size_t At = 0, Line = 1;
  while (At != A.size() && At != B.size() && A[At] == B[At])
    if (A[At++] == '\n')
      ++Line;
  size_t Begin = A.rfind('\n', At == 0 ? 0 : At - 1);
  Begin = Begin == std::string_view::npos || At == 0 ? 0 : Begin + 1;
  auto lineAt = [&](std::string_view S) {
    return S.substr(Begin, S.find('\n', Begin) - Begin);
  };
  return ::testing::AssertionFailure()
         << "texts differ at line " << Line << ": \"" << lineAt(A)
         << "\" vs \"" << lineAt(B) << "\"";
}

} // namespace testutil
} // namespace lima

#endif // LIMA_TESTS_TRACECOMPARE_H
