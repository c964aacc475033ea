//===- support/Telemetry.cpp - Self-instrumentation layer -----------------===//
//
// Part of LIMA. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "support/Telemetry.h"
#include "support/SignalSafe.h"
#include <algorithm>
#include <chrono>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <sys/resource.h>

using namespace lima;
using namespace lima::telemetry;

std::atomic<bool> telemetry::detail::Enabled{false};

namespace {

using Clock = std::chrono::steady_clock;

/// One thread's event buffer.  The owning thread appends under Mutex,
/// which is uncontended except while collect() drains, so the enabled
/// hot path never blocks on another recording thread.
struct ThreadBuffer {
  std::mutex Mutex;
  std::vector<SpanEvent> Events;
};

/// A completed pipeline-stage scope (wall time on the recording thread).
struct StageRecord {
  uint32_t Name;
  uint64_t StartNs;
  uint64_t DurNs;
};

/// Process-wide registry.  Registration and collection lock Mutex; the
/// recording fast path only touches the calling thread's buffer.
struct Registry {
  std::mutex Mutex;
  std::vector<std::shared_ptr<ThreadBuffer>> Buffers;
  std::vector<std::string> Names;
  std::vector<StageRecord> Stages;
  /// Stable-address counter storage (references escape to call sites).
  std::deque<Counter> Counters;
};

/// Session epoch in steady-clock nanoseconds.  Atomic so nowNs() stays a
/// single relaxed load on the recording hot path; only reset() writes it.
int64_t steadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}
std::atomic<int64_t> EpochNs{steadyNowNs()};

Registry &registry() {
  static Registry R;
  return R;
}

std::atomic<unsigned> MaxWorker{0};
std::atomic<uint32_t> CurrentStage{InvalidName};

//===----------------------------------------------------------------------===//
// Flight recorder ring
//===----------------------------------------------------------------------===//

/// One ring slot.  Every field is a relaxed atomic: writers never lock,
/// readers validate the sequence word before and after copying the
/// payload and drop slots a concurrent writer was filling.  Seq holds
/// 2*claim+1 while the payload is being written and 2*claim+2 once it
/// is stable (0 = never written).
struct FlightSlot {
  std::atomic<uint64_t> Seq{0};
  std::atomic<uint64_t> NameStage{0}; ///< Name << 32 | Stage.
  std::atomic<uint64_t> Worker{0};
  std::atomic<uint64_t> StartNs{0};
  std::atomic<uint64_t> DurNs{0};
  std::atomic<uint64_t> WaitNs{0};
};

struct FlightRing {
  std::unique_ptr<FlightSlot[]> Slots;
  size_t Mask = 0;
  std::atomic<uint64_t> Head{0};
};

/// The active ring, raw-pointer for the lock-free record path.  Retired
/// rings (tests reconfigure capacities) are parked in RetiredRings so a
/// racing writer holding an old pointer never touches freed memory;
/// they are reclaimed at process exit, which keeps LeakSanitizer quiet.
std::atomic<FlightRing *> ActiveRing{nullptr};
std::mutex FlightMutex;
std::vector<std::unique_ptr<FlightRing>> &retiredRings() {
  static std::vector<std::unique_ptr<FlightRing>> Rings;
  return Rings;
}

std::atomic<bool> RingOnly{false};

/// Crash name table: a bounded, append-only copy of interned names in
/// plain chars, readable from a signal handler without locking the
/// registry (whose std::strings may be mid-mutation when we crash).
constexpr uint32_t CrashNameCap = 512;
constexpr size_t CrashNameLen = 48;
char CrashNames[CrashNameCap][CrashNameLen];
std::atomic<uint32_t> CrashNameCount{0};

void flightRecord(const SpanEvent &E) {
  FlightRing *Ring = ActiveRing.load(std::memory_order_acquire);
  if (!Ring)
    return;
  uint64_t Claim = Ring->Head.fetch_add(1, std::memory_order_relaxed);
  FlightSlot &Slot = Ring->Slots[Claim & Ring->Mask];
  // Fence-free seqlock (GCC's TSan cannot instrument
  // atomic_thread_fence): release payload stores keep the odd Seq
  // store ordered before them, so a reader that still sees the old
  // even Seq after copying cannot have read a half-written payload.
  Slot.Seq.store(Claim * 2 + 1, std::memory_order_release);
  Slot.NameStage.store((static_cast<uint64_t>(E.Name) << 32) | E.Stage,
                       std::memory_order_release);
  Slot.Worker.store(E.Worker, std::memory_order_release);
  Slot.StartNs.store(E.StartNs, std::memory_order_release);
  Slot.DurNs.store(E.DurNs, std::memory_order_release);
  Slot.WaitNs.store(E.QueueWaitNs, std::memory_order_release);
  Slot.Seq.store(Claim * 2 + 2, std::memory_order_release);
}

thread_local unsigned TlsWorker = 0;
thread_local std::shared_ptr<ThreadBuffer> TlsBuffer;

ThreadBuffer &localBuffer() {
  if (!TlsBuffer) {
    TlsBuffer = std::make_shared<ThreadBuffer>();
    Registry &R = registry();
    std::lock_guard<std::mutex> Lock(R.Mutex);
    R.Buffers.push_back(TlsBuffer);
  }
  return *TlsBuffer;
}

double toMs(uint64_t Ns) { return static_cast<double>(Ns) / 1e6; }

} // namespace

void telemetry::setEnabled(bool On) {
#if LIMA_TELEMETRY
  detail::Enabled.store(On, std::memory_order_relaxed);
#else
  (void)On;
#endif
}

void telemetry::reset() {
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.Mutex);
  for (const std::shared_ptr<ThreadBuffer> &Buffer : R.Buffers) {
    std::lock_guard<std::mutex> BufferLock(Buffer->Mutex);
    Buffer->Events.clear();
  }
  R.Stages.clear();
  for (Counter &C : R.Counters)
    C.zero();
  EpochNs.store(steadyNowNs(), std::memory_order_relaxed);
  CurrentStage.store(InvalidName, std::memory_order_relaxed);
}

uint64_t telemetry::nowNs() {
  int64_t Delta = steadyNowNs() - EpochNs.load(std::memory_order_relaxed);
  return Delta > 0 ? static_cast<uint64_t>(Delta) : 0;
}

uint32_t telemetry::internName(std::string_view Name) {
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.Mutex);
  for (uint32_t Id = 0; Id != R.Names.size(); ++Id)
    if (R.Names[Id] == Name)
      return Id;
  R.Names.emplace_back(Name);
  uint32_t Id = static_cast<uint32_t>(R.Names.size() - 1);
  // Mirror into the crash name table (fixed chars, readable from a
  // signal handler).  Names beyond the cap dump as their raw id.
  if (Id < CrashNameCap) {
    size_t N = std::min(Name.size(), CrashNameLen - 1);
    std::memcpy(CrashNames[Id], Name.data(), N);
    CrashNames[Id][N] = '\0';
    CrashNameCount.store(Id + 1, std::memory_order_release);
  }
  return Id;
}

unsigned telemetry::workerId() { return TlsWorker; }

void telemetry::setWorkerId(unsigned Worker) {
  TlsWorker = Worker;
  unsigned Seen = MaxWorker.load(std::memory_order_relaxed);
  while (Worker > Seen &&
         !MaxWorker.compare_exchange_weak(Seen, Worker,
                                          std::memory_order_relaxed)) {
  }
}

unsigned telemetry::numWorkers() {
  return MaxWorker.load(std::memory_order_relaxed) + 1;
}

uint32_t telemetry::currentStage() {
  return CurrentStage.load(std::memory_order_relaxed);
}

void telemetry::recordSpan(uint32_t Name, uint32_t Stage, uint64_t StartNs,
                           uint64_t DurNs) {
  SpanEvent E{Name, Stage, TlsWorker, StartNs, DurNs, 0};
  flightRecord(E);
  if (RingOnly.load(std::memory_order_relaxed))
    return;
  ThreadBuffer &Buffer = localBuffer();
  std::lock_guard<std::mutex> Lock(Buffer.Mutex);
  Buffer.Events.push_back(E);
}

void telemetry::recordTask(uint32_t Stage, uint64_t StartNs, uint64_t RunNs,
                           uint64_t WaitNs) {
  static const uint32_t TaskName = internName("pool.task");
  SpanEvent E{TaskName, Stage, TlsWorker, StartNs, RunNs, WaitNs};
  flightRecord(E);
  if (RingOnly.load(std::memory_order_relaxed))
    return;
  ThreadBuffer &Buffer = localBuffer();
  std::lock_guard<std::mutex> Lock(Buffer.Mutex);
  Buffer.Events.push_back(E);
}

void telemetry::enableFlightRecorder(size_t Capacity) {
  std::lock_guard<std::mutex> Lock(FlightMutex);
  FlightRing *Old = ActiveRing.load(std::memory_order_acquire);
  if (Capacity == 0) {
    ActiveRing.store(nullptr, std::memory_order_release);
    (void)Old; // stays parked in retiredRings()
    return;
  }
  size_t Pow2 = 1;
  while (Pow2 < Capacity)
    Pow2 <<= 1;
  auto Ring = std::make_unique<FlightRing>();
  Ring->Slots = std::make_unique<FlightSlot[]>(Pow2);
  Ring->Mask = Pow2 - 1;
  ActiveRing.store(Ring.get(), std::memory_order_release);
  retiredRings().push_back(std::move(Ring));
}

bool telemetry::flightRecorderEnabled() {
  return ActiveRing.load(std::memory_order_acquire) != nullptr;
}

void telemetry::setRingOnly(bool On) {
  RingOnly.store(On, std::memory_order_relaxed);
}

FlightSnapshot telemetry::flightSnapshot() {
  FlightSnapshot S;
  FlightRing *Ring = ActiveRing.load(std::memory_order_acquire);
  if (!Ring)
    return S;
  uint64_t Head = Ring->Head.load(std::memory_order_acquire);
  S.TotalRecorded = Head;
  size_t Cap = Ring->Mask + 1;
  uint64_t First = Head > Cap ? Head - Cap : 0;
  S.Events.reserve(static_cast<size_t>(Head - First));
  for (uint64_t Claim = First; Claim != Head; ++Claim) {
    FlightSlot &Slot = Ring->Slots[Claim & Ring->Mask];
    uint64_t Before = Slot.Seq.load(std::memory_order_acquire);
    if (Before != Claim * 2 + 2)
      continue; // Torn by a newer writer, or never completed.
    // Acquire payload loads pair with the writer's release stores and
    // keep the Seq re-validation below ordered after the copy.
    uint64_t NameStage = Slot.NameStage.load(std::memory_order_acquire);
    SpanEvent E;
    E.Name = static_cast<uint32_t>(NameStage >> 32);
    E.Stage = static_cast<uint32_t>(NameStage);
    E.Worker =
        static_cast<uint32_t>(Slot.Worker.load(std::memory_order_acquire));
    E.StartNs = Slot.StartNs.load(std::memory_order_acquire);
    E.DurNs = Slot.DurNs.load(std::memory_order_acquire);
    E.QueueWaitNs = Slot.WaitNs.load(std::memory_order_acquire);
    if (Slot.Seq.load(std::memory_order_acquire) != Before)
      continue; // Overwritten while we copied.
    S.Events.push_back(E);
  }
  {
    Registry &R = registry();
    std::lock_guard<std::mutex> Lock(R.Mutex);
    S.Names = R.Names;
  }
  return S;
}

void telemetry::crashWriteSpans(int Fd) {
  using namespace sigsafe;
  FlightRing *Ring = ActiveRing.load(std::memory_order_acquire);
  if (!Ring) {
    writeStr(Fd, "(flight recorder not enabled)\n");
    return;
  }
  uint64_t Head = Ring->Head.load(std::memory_order_relaxed);
  size_t Cap = Ring->Mask + 1;
  uint64_t First = Head > Cap ? Head - Cap : 0;
  uint32_t NamedCount = CrashNameCount.load(std::memory_order_acquire);
  writeStr(Fd, "spans recorded: ");
  writeUint(Fd, Head);
  writeStr(Fd, ", retained: ");
  writeUint(Fd, Head - First);
  writeStr(Fd, " (oldest first)\n");
  for (uint64_t Claim = First; Claim != Head; ++Claim) {
    FlightSlot &Slot = Ring->Slots[Claim & Ring->Mask];
    if (Slot.Seq.load(std::memory_order_relaxed) != Claim * 2 + 2)
      continue;
    uint64_t NameStage = Slot.NameStage.load(std::memory_order_relaxed);
    uint32_t Name = static_cast<uint32_t>(NameStage >> 32);
    uint32_t Stage = static_cast<uint32_t>(NameStage);
    writeStr(Fd, "span ");
    if (Name < NamedCount) {
      writeStr(Fd, CrashNames[Name]);
    } else {
      writeStr(Fd, "name#");
      writeUint(Fd, Name);
    }
    writeStr(Fd, " stage=");
    if (Stage == InvalidName)
      writeStr(Fd, "(none)");
    else if (Stage < NamedCount)
      writeStr(Fd, CrashNames[Stage]);
    else
      writeUint(Fd, Stage);
    writeStr(Fd, " worker=");
    writeUint(Fd, Slot.Worker.load(std::memory_order_relaxed));
    writeStr(Fd, " start_ns=");
    writeUint(Fd, Slot.StartNs.load(std::memory_order_relaxed));
    writeStr(Fd, " dur_ns=");
    writeUint(Fd, Slot.DurNs.load(std::memory_order_relaxed));
    uint64_t Wait = Slot.WaitNs.load(std::memory_order_relaxed);
    if (Wait != 0) {
      writeStr(Fd, " wait_ns=");
      writeUint(Fd, Wait);
    }
    writeStr(Fd, "\n");
  }
}

Counter &telemetry::counter(std::string_view Name) {
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.Mutex);
  for (Counter &C : R.Counters)
    if (C.name() == Name)
      return C;
  R.Counters.emplace_back(std::string(Name));
  return R.Counters.back();
}

ScopedStage::ScopedStage(uint32_t Name) {
  if (!enabled())
    return;
  Active_ = true;
  Name_ = Name;
  Prev_ = CurrentStage.load(std::memory_order_relaxed);
  StartNs_ = nowNs();
  CurrentStage.store(Name, std::memory_order_relaxed);
}

ScopedStage::~ScopedStage() {
  if (!Active_)
    return;
  CurrentStage.store(Prev_, std::memory_order_relaxed);
  uint64_t DurNs = nowNs() - StartNs_;
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.Mutex);
  R.Stages.push_back({Name_, StartNs_, DurNs});
}

Snapshot telemetry::collect() {
  Snapshot S;
  std::vector<StageRecord> StageRecords;
  {
    Registry &R = registry();
    std::lock_guard<std::mutex> Lock(R.Mutex);
    for (const std::shared_ptr<ThreadBuffer> &Buffer : R.Buffers) {
      std::lock_guard<std::mutex> BufferLock(Buffer->Mutex);
      S.Events.insert(S.Events.end(), Buffer->Events.begin(),
                      Buffer->Events.end());
      Buffer->Events.clear();
    }
    S.Names = R.Names;
    StageRecords = R.Stages;
    R.Stages.clear();
    for (const Counter &C : R.Counters)
      if (C.value() != 0)
        S.Counters.push_back({C.name(), C.value()});
  }
  S.NumWorkers = numWorkers();
  struct rusage Usage;
  if (::getrusage(RUSAGE_SELF, &Usage) == 0) {
    auto ms = [](const timeval &T) {
      return static_cast<double>(T.tv_sec) * 1e3 +
             static_cast<double>(T.tv_usec) / 1e3;
    };
    S.Process = {ms(Usage.ru_utime),
                 ms(Usage.ru_stime),
                 static_cast<uint64_t>(Usage.ru_minflt),
                 static_cast<uint64_t>(Usage.ru_majflt),
                 static_cast<uint64_t>(Usage.ru_nvcsw),
                 static_cast<uint64_t>(Usage.ru_nivcsw),
                 static_cast<uint64_t>(Usage.ru_maxrss)};
  }

  std::sort(S.Events.begin(), S.Events.end(),
            [](const SpanEvent &A, const SpanEvent &B) {
              if (A.StartNs != B.StartNs)
                return A.StartNs < B.StartNs;
              if (A.Worker != B.Worker)
                return A.Worker < B.Worker;
              return A.Name < B.Name;
            });
  std::sort(S.Counters.begin(), S.Counters.end(),
            [](const CounterValue &A, const CounterValue &B) {
              return A.Name < B.Name;
            });

  // Per-name span aggregates.
  std::vector<SpanStats> ByName(S.Names.size());
  uint64_t MaxEndNs = 0;
  for (const SpanEvent &E : S.Events) {
    MaxEndNs = std::max(MaxEndNs, E.StartNs + E.DurNs);
    if (E.Name >= ByName.size())
      continue;
    SpanStats &Stats = ByName[E.Name];
    double Ms = toMs(E.DurNs);
    if (Stats.Count == 0) {
      Stats.Name = S.Names[E.Name];
      Stats.MinMs = Ms;
      Stats.MaxMs = Ms;
      Stats.WorkerBusyMs.assign(S.NumWorkers, 0.0);
    }
    ++Stats.Count;
    Stats.TotalMs += Ms;
    Stats.MinMs = std::min(Stats.MinMs, Ms);
    Stats.MaxMs = std::max(Stats.MaxMs, Ms);
    if (E.Worker < Stats.WorkerBusyMs.size())
      Stats.WorkerBusyMs[E.Worker] += Ms;
  }
  for (SpanStats &Stats : ByName)
    if (Stats.Count != 0) {
      Stats.MeanMs = Stats.TotalMs / static_cast<double>(Stats.Count);
      S.Spans.push_back(std::move(Stats));
    }
  std::stable_sort(S.Spans.begin(), S.Spans.end(),
                   [](const SpanStats &A, const SpanStats &B) {
                     return A.TotalMs > B.TotalMs;
                   });

  // Stages in begin order, duplicates merged (e.g. two analyze calls).
  std::sort(StageRecords.begin(), StageRecords.end(),
            [](const StageRecord &A, const StageRecord &B) {
              return A.StartNs < B.StartNs;
            });
  std::vector<size_t> StageIndexOfName(S.Names.size(), SIZE_MAX);
  for (const StageRecord &Record : StageRecords) {
    MaxEndNs = std::max(MaxEndNs, Record.StartNs + Record.DurNs);
    if (Record.Name >= StageIndexOfName.size())
      continue;
    size_t &Index = StageIndexOfName[Record.Name];
    if (Index == SIZE_MAX) {
      Index = S.Stages.size();
      S.Stages.push_back({});
      StageStats &Stats = S.Stages.back();
      Stats.Name = S.nameOf(Record.Name);
      Stats.StartNs = Record.StartNs;
      Stats.WorkerComputeMs.assign(S.NumWorkers, 0.0);
      Stats.WorkerQueueWaitMs.assign(S.NumWorkers, 0.0);
    }
    S.Stages[Index].WallMs += toMs(Record.DurNs);
  }

  // Attribute busy time to (stage, worker) as the interval *union* of
  // every event recorded there — spans nest inside pool tasks (and each
  // other), so summing durations would double-count; the union is the
  // instrumented-busy coverage of the stage's wall time.  Queue wait is
  // carried by task events only and those never overlap on one worker,
  // so a plain sum is exact.  Events are already sorted by StartNs, so
  // the union is a linear sweep with one open interval per slot.
  struct OpenInterval {
    uint64_t StartNs = 0;
    uint64_t EndNs = 0;
  };
  std::vector<OpenInterval> Open(S.Stages.size() * S.NumWorkers);
  auto slotOf = [&](const SpanEvent &E) -> OpenInterval * {
    if (E.Stage == InvalidName || E.Stage >= StageIndexOfName.size() ||
        StageIndexOfName[E.Stage] == SIZE_MAX || E.Worker >= S.NumWorkers)
      return nullptr;
    return &Open[StageIndexOfName[E.Stage] * S.NumWorkers + E.Worker];
  };
  auto flush = [&](size_t Slot) {
    OpenInterval &I = Open[Slot];
    if (I.EndNs > I.StartNs)
      S.Stages[Slot / S.NumWorkers]
          .WorkerComputeMs[Slot % S.NumWorkers] += toMs(I.EndNs - I.StartNs);
    I = OpenInterval{};
  };
  for (const SpanEvent &E : S.Events) {
    OpenInterval *I = slotOf(E);
    if (!I)
      continue;
    StageStats &Stats = S.Stages[StageIndexOfName[E.Stage]];
    Stats.WorkerQueueWaitMs[E.Worker] += toMs(E.QueueWaitNs);
    uint64_t EndNs = E.StartNs + E.DurNs;
    if (I->EndNs == 0 && I->StartNs == 0) {
      *I = {E.StartNs, EndNs};
    } else if (E.StartNs > I->EndNs) {
      flush(static_cast<size_t>(I - Open.data()));
      *I = {E.StartNs, EndNs};
    } else {
      I->EndNs = std::max(I->EndNs, EndNs);
    }
  }
  for (size_t Slot = 0; Slot != Open.size(); ++Slot)
    flush(Slot);

  S.SessionWallMs = toMs(MaxEndNs);
  return S;
}
