//===- trace/Trace.cpp - Trace container and validation -------------------===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "trace/Trace.h"
#include "support/Compiler.h"
#include "support/Parallel.h"
#include "trace/Fold.h"
#include <algorithm>
#include <cassert>
#include <cmath>
#include <optional>
#include <tuple>
#include <unordered_map>

using namespace lima;
using namespace lima::trace;

Trace::Trace(unsigned NumProcs) : Streams(NumProcs) {
  assert(NumProcs > 0 && "trace needs at least one processor");
}

uint32_t Trace::addRegion(std::string Name) {
  assert(findRegion(Name) == InvalidId && "duplicate region name");
  RegionNames.push_back(std::move(Name));
  return static_cast<uint32_t>(RegionNames.size() - 1);
}

uint32_t Trace::addActivity(std::string Name) {
  assert(findActivity(Name) == InvalidId && "duplicate activity name");
  ActivityNames.push_back(std::move(Name));
  return static_cast<uint32_t>(ActivityNames.size() - 1);
}

const std::string &Trace::regionName(uint32_t Id) const {
  assert(Id < RegionNames.size() && "region id out of range");
  return RegionNames[Id];
}

const std::string &Trace::activityName(uint32_t Id) const {
  assert(Id < ActivityNames.size() && "activity id out of range");
  return ActivityNames[Id];
}

uint32_t Trace::findRegion(std::string_view Name) const {
  for (size_t I = 0; I != RegionNames.size(); ++I)
    if (RegionNames[I] == Name)
      return static_cast<uint32_t>(I);
  return InvalidId;
}

uint32_t Trace::findActivity(std::string_view Name) const {
  for (size_t I = 0; I != ActivityNames.size(); ++I)
    if (ActivityNames[I] == Name)
      return static_cast<uint32_t>(I);
  return InvalidId;
}

void Trace::append(const Event &E) {
  assert(E.Proc < Streams.size() && "event processor out of range");
  switch (E.Kind) {
  case EventKind::RegionEnter:
  case EventKind::RegionExit:
    assert(E.Id < RegionNames.size() && "event region out of range");
    break;
  case EventKind::ActivityBegin:
  case EventKind::ActivityEnd:
    assert(E.Id < ActivityNames.size() && "event activity out of range");
    break;
  case EventKind::MessageSend:
  case EventKind::MessageRecv:
    assert(E.Id < Streams.size() && "message peer out of range");
    break;
  }
  Stream &S = Streams[E.Proc];
  S.Times.push_back(E.Time);
  S.Kinds.push_back(E.Kind);
  S.Ids.push_back(E.Id);
  S.Bytes.push_back(E.Bytes);
}

Trace::EventsRef Trace::events(unsigned Proc) const {
  assert(Proc < Streams.size() && "processor out of range");
  return EventsRef(&Streams[Proc], Proc);
}

void Trace::resizeStream(unsigned Proc, size_t N) {
  assert(Proc < Streams.size() && "processor out of range");
  Streams[Proc].resize(N);
}

void Trace::truncateStream(unsigned Proc, size_t N) {
  assert(Proc < Streams.size() && "processor out of range");
  assert(N <= Streams[Proc].size() && "truncation cannot grow a stream");
  Streams[Proc].resize(N);
}

Trace::StreamColumns Trace::streamColumns(unsigned Proc) {
  assert(Proc < Streams.size() && "processor out of range");
  Stream &S = Streams[Proc];
  return {S.Times.data(), S.Kinds.data(), S.Ids.data(), S.Bytes.data()};
}

size_t Trace::numEvents() const {
  size_t Total = 0;
  for (const auto &Stream : Streams)
    Total += Stream.size();
  return Total;
}

namespace {

/// One side of a message as seen from the processor that logged it: the
/// peer (receiver of a send, sender of a receive) and the byte count.
struct PeerBytes {
  uint32_t Peer;
  uint64_t Bytes;
  bool operator==(const PeerBytes &O) const {
    return Peer == O.Peer && Bytes == O.Bytes;
  }
};

struct PeerBytesHash {
  size_t operator()(const PeerBytes &K) const {
    return std::hash<uint64_t>()(K.Bytes * 0x9E3779B97F4A7C15ull + K.Peer);
  }
};

/// Message events of one processor, counted per (peer, bytes).
using MessageTally = std::unordered_map<PeerBytes, int64_t, PeerBytesHash>;

/// What validation learns from one processor's stream.  As the strict
/// fold's sink it tallies the processor's messages.
struct ProcCheck : FoldSink {
  std::optional<ParseError> Err; ///< First structural error.
  MessageTally Sent;             ///< (receiver, bytes) -> sends.
  MessageTally Received;         ///< (sender, bytes) -> receives.

  void message(const FoldState &, EventKind Kind, uint32_t Peer,
               uint64_t Bytes, double) {
    ++(Kind == EventKind::MessageSend ? Sent : Received)[{Peer, Bytes}];
  }
};

/// The smallest (sender, receiver, bytes) key whose sends and receives
/// disagree, with its balance (sends minus receives).
struct Unmatched {
  bool Found = false;
  std::tuple<uint32_t, uint32_t, uint64_t> Key;
  int64_t Balance = 0;

  void keepSmaller(const Unmatched &O) {
    if (O.Found && (!Found || O.Key < Key))
      *this = O;
  }
};

/// Balances every message key that processor \p Proc owns into \p Out:
/// the keys it sent, and the keys it received that its sender never
/// sent.  Every key has exactly one owner, so the minimum over all
/// processors is the smallest unbalanced key of the trace.
void findUnmatched(const std::vector<ProcCheck> &Checks, uint32_t Proc,
                   Unmatched &Out) {
  // A peer outside the trace can neither send nor receive.
  auto countOf = [&](uint32_t Owner, const MessageTally ProcCheck::*Side,
                     PeerBytes Key) -> int64_t {
    if (Owner >= Checks.size())
      return 0;
    const MessageTally &Tally = Checks[Owner].*Side;
    auto It = Tally.find(Key);
    return It == Tally.end() ? 0 : It->second;
  };
  for (const auto &[Key, Sends] : Checks[Proc].Sent) {
    int64_t Balance =
        Sends - countOf(Key.Peer, &ProcCheck::Received, {Proc, Key.Bytes});
    if (Balance != 0)
      Out.keepSmaller({true, {Proc, Key.Peer, Key.Bytes}, Balance});
  }
  for (const auto &[Key, Receives] : Checks[Proc].Received)
    if (countOf(Key.Peer, &ProcCheck::Sent, {Proc, Key.Bytes}) == 0)
      Out.keepSmaller({true, {Key.Peer, Proc, Key.Bytes}, -Receives});
}

} // namespace

Error Trace::validate(unsigned Threads) const {
  // Each processor checks its own stream into its own slot; the lowest
  // failing processor's first error wins, as in a processor-order walk.
  // The strict fold owns every per-event rule but the time range.
  std::vector<ProcCheck> Checks(numProcs());
  parallelFor(numProcs(), Threads, [&](size_t P) {
    unsigned Proc = static_cast<unsigned>(P);
    ProcCheck &C = Checks[Proc];
    const EventsRef Stream = events(Proc);
    FoldState State(Proc, ParseMode::Strict, BackwardTimeTolerance);
    for (size_t I = 0; I != Stream.size(); ++I) {
      const Event E = Stream[I];
      if (!std::isfinite(E.Time) || E.Time < 0.0) {
        C.Err = makeCodedError(ErrorCode::ValueOutOfRange,
                               "proc %u event %zu: time %.9f is not finite "
                               "and non-negative",
                               Proc, I, E.Time)
                    .toParseError();
        return;
      }
      if (State.step(C, E.Time, E.Kind, E.Id, E.Bytes) == FoldStep::Failed) {
        C.Err = State.takeError();
        return;
      }
    }
    if (State.depth() != 0 || State.activityOpen())
      C.Err = makeCodedError(ErrorCode::StructuralError,
                             "proc %u: %s left open at end of trace", Proc,
                             State.depth() != 0 ? "region" : "activity")
                  .toParseError();
  });
  for (ProcCheck &C : Checks)
    if (C.Err)
      return Error::fromParse(std::move(*C.Err));

  // Message matching: sends and receives of each (sender, receiver,
  // bytes) key must agree.  Taking the minimum is order-insensitive,
  // so the reported key is the same at any thread count.
  Unmatched First = parallelReduce<Unmatched>(
      numProcs(), Threads, Unmatched(),
      [&](Unmatched &U, size_t Proc) {
        findUnmatched(Checks, static_cast<uint32_t>(Proc), U);
      },
      [](Unmatched &Into, Unmatched &From) { Into.keepSmaller(From); });
  if (!First.Found)
    return Error::success();
  auto [From, To, Bytes] = First.Key;
  return makeCodedError(ErrorCode::StructuralError,
                        "unmatched message %u -> %u (%llu bytes): "
                        "balance %lld",
                        From, To, static_cast<unsigned long long>(Bytes),
                        static_cast<long long>(First.Balance));
}
