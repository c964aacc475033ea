//===- trace/Trace.cpp - Trace container and validation -------------------===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "trace/Trace.h"
#include "trace/Fold.h"
#include <cassert>

using namespace lima;
using namespace lima::trace;

Trace::Trace(unsigned NumProcs) : Streams(NumProcs) {
  assert(NumProcs > 0 && "trace needs at least one processor");
}

uint32_t Trace::addRegion(std::string Name) {
  uint32_t Id = static_cast<uint32_t>(RegionNames.size());
  [[maybe_unused]] bool Fresh = RegionIds.emplace(Name, Id).second;
  assert(Fresh && "duplicate region name");
  RegionNames.push_back(std::move(Name));
  return Id;
}

uint32_t Trace::addActivity(std::string Name) {
  uint32_t Id = static_cast<uint32_t>(ActivityNames.size());
  [[maybe_unused]] bool Fresh = ActivityIds.emplace(Name, Id).second;
  assert(Fresh && "duplicate activity name");
  ActivityNames.push_back(std::move(Name));
  return Id;
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
  auto It = RegionIds.find(Name);
  return It == RegionIds.end() ? InvalidId : It->second;
}

uint32_t Trace::findActivity(std::string_view Name) const {
  auto It = ActivityIds.find(Name);
  return It == ActivityIds.end() ? InvalidId : It->second;
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
  if (isMessage(E.Kind))
    S.MessageBytes.push_back(E.Bytes);
}

Trace::EventsRef Trace::events(unsigned Proc) const {
  assert(Proc < Streams.size() && "processor out of range");
  return EventsRef(&Streams[Proc], Proc);
}

void Trace::resizeStream(unsigned Proc, size_t N, size_t Messages) {
  assert(Proc < Streams.size() && "processor out of range");
  assert(Messages <= N && "more messages than events");
  Stream &S = Streams[Proc];
  S.Times.resize(N);
  S.Kinds.resize(N);
  S.Ids.resize(N);
  S.MessageBytes.resize(Messages);
}

void Trace::truncateStream(unsigned Proc, size_t N) {
  assert(Proc < Streams.size() && "processor out of range");
  Stream &S = Streams[Proc];
  assert(N <= S.size() && "truncation cannot grow a stream");
  const EventKind *Kinds = S.Kinds.data();
  size_t Cut = 0;
  for (size_t I = N; I != S.size(); ++I)
    Cut += isMessage(Kinds[I]);
  resizeStream(Proc, N, S.MessageBytes.size() - Cut);
}

Trace::StreamColumns Trace::streamColumns(unsigned Proc) {
  assert(Proc < Streams.size() && "processor out of range");
  Stream &S = Streams[Proc];
  return {S.Times.data(), S.Kinds.data(), S.Ids.data(),
          S.MessageBytes.data()};
}

size_t Trace::numEvents() const {
  size_t Total = 0;
  for (const auto &Stream : Streams)
    Total += Stream.size();
  return Total;
}

Error Trace::validate(unsigned Threads) const {
  FoldSink Rules;
  return foldTrace(*this, ParseMode::Strict, Rules, Threads);
}
