//===- trace/Fold.cpp - The per-processor attribution fold ----------------===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "trace/Fold.h"
#include <cstdarg>
#include <cstdio>
#include <tuple>

using namespace lima;
using namespace lima::trace;
using detail::MessageTally;
using detail::PeerBytes;
using detail::ProcCheck;

FoldStep FoldState::fault(size_t Index, const char *Fmt, ...) {
  if (!Strict && !Report)
    return FoldStep::Kept;
  va_list Args, Copy;
  va_start(Args, Fmt);
  va_copy(Copy, Args);
  std::string What(std::max(0, std::vsnprintf(nullptr, 0, Fmt, Copy)), '\0');
  va_end(Copy);
  std::vsnprintf(What.data(), What.size() + 1, Fmt, Args);
  va_end(Args);
  ParseError PE{ErrorCode::StructuralError, 0, NoByteOffset,
                "proc " + std::to_string(Proc) + " event " +
                    std::to_string(Index) + ": " + What};
  if (Strict) {
    Failure = std::move(PE);
    return FoldStep::Failed;
  }
  Report->addDrop(std::move(PE));
  return FoldStep::Kept;
}

namespace {

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

Error detail::verdict(std::vector<ProcCheck> &Checks, ParseMode Mode,
                      unsigned Threads, ParseReport *Report) {
  // Each processor checked its own stream into its own slot, so the
  // lowest failing processor's first error wins, as in a processor-order
  // walk.
  for (ProcCheck &C : Checks)
    if (C.Err)
      return Error::fromParse(std::move(*C.Err));

  // Message matching: sends and receives of each (sender, receiver,
  // bytes) key must agree.  Taking the minimum is order-insensitive,
  // so the reported key is the same at any thread count.
  if (Mode == ParseMode::Strict) {
    Unmatched First = parallelReduce<Unmatched>(
        Checks.size(), Threads, Unmatched(),
        [&](Unmatched &U, size_t Proc) {
          findUnmatched(Checks, static_cast<uint32_t>(Proc), U);
        },
        [](Unmatched &Into, Unmatched &From) { Into.keepSmaller(From); });
    if (First.Found) {
      auto [From, To, Bytes] = First.Key;
      return makeCodedError(ErrorCode::StructuralError,
                            "unmatched message %u -> %u (%llu bytes): "
                            "balance %lld",
                            From, To, static_cast<unsigned long long>(Bytes),
                            static_cast<long long>(First.Balance));
    }
  }
  if (Report)
    for (const ProcCheck &C : Checks)
      Report->merge(C.Drops);
  return Error::success();
}
